"""Hot-shard detection: when to split, and which shard.

Elastic resharding only pays off when it fires on *sustained* skew —
one deep ring observation is usually a scheduling hiccup, and a split
triggered on it would churn workers for nothing. The
:class:`ReshardPlanner` therefore watches each shard's ring fill
fraction (:meth:`~repro.runtime.supervisor.
ShardSupervisor.shard_fills`) and flags a shard only after its fill
stays at or above the threshold for ``sustain`` *consecutive*
observations; a cooldown after each decision keeps back-to-back splits
from cascading before the first one's successors even warm up.

Pure decision logic — no I/O, no clock ownership (the caller feeds it
observations at whatever cadence it likes), so it is trivially unit
testable and the runtime stays in charge of *acting* on decisions.
"""

from __future__ import annotations

from repro.errors import ConfigError

__all__ = ["DEFAULT_SUSTAIN", "ReshardPlanner"]

#: Consecutive at-threshold observations before a shard is flagged hot.
DEFAULT_SUSTAIN = 3


class ReshardPlanner:
    """Flags the hottest sustained-over-threshold shard for splitting.

    ``observe(fills)`` consumes one snapshot of per-shard fill
    fractions and returns the shard id to split, or ``None``. At most
    one shard is flagged per call (splits are serialized by the
    supervisor anyway); ties break toward the fullest shard, then the
    lowest id (deterministic).
    """

    def __init__(
        self,
        *,
        threshold: float,
        sustain: int = DEFAULT_SUSTAIN,
        cooldown: int = 0,
        max_shards: int | None = None,
    ) -> None:
        if not 0.0 < threshold <= 1.0:
            raise ConfigError(
                f"threshold must be in (0, 1], got {threshold}"
            )
        if sustain < 1:
            raise ConfigError(f"sustain must be >= 1, got {sustain}")
        if cooldown < 0:
            raise ConfigError(f"cooldown must be >= 0, got {cooldown}")
        if max_shards is not None and max_shards < 1:
            raise ConfigError(f"max_shards must be >= 1, got {max_shards}")
        self.threshold = threshold
        self.sustain = sustain
        self.cooldown = cooldown
        self.max_shards = max_shards
        self._streaks: dict[int, int] = {}
        self._cooldown_left = 0

    def observe(self, fills: dict[int, float]) -> int | None:
        """Consume one fill snapshot; return the shard to split, or
        ``None``. ``fills`` maps shard id → fill fraction; shards absent
        from a snapshot (no live ring to read) have their streaks reset
        — a hot streak must be *observed* end to end."""
        num_shards = len(fills)
        for shard in list(self._streaks):
            if fills.get(shard, 0.0) < self.threshold:
                del self._streaks[shard]
        for shard, fill in fills.items():
            if fill >= self.threshold:
                self._streaks[shard] = self._streaks.get(shard, 0) + 1
        if self._cooldown_left > 0:
            self._cooldown_left -= 1
            return None
        if self.max_shards is not None and num_shards >= self.max_shards:
            return None
        hot = [s for s, n in self._streaks.items() if n >= self.sustain]
        if not hot:
            return None
        donor = max(hot, key=lambda s: (fills[s], -s))
        self._streaks.clear()  # decided: everyone re-earns a streak
        self._cooldown_left = self.cooldown
        return donor
