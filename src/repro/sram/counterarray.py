"""Banked saturating counter array.

The off-chip SRAM of Figure 1, organized as ``k`` banks of ``bank_size``
counters (the banked layout under which every formula in the paper's
Sections 4-5 is exact; see DESIGN.md). Counters saturate at
``counter_capacity`` — the paper's ``l`` — and the array tracks how
much mass was lost to saturation so experiments can verify the chosen
width never clips.

Updates go through :meth:`add_at`, a vectorized scatter-add
(``np.add.at``) over global counter indices, so bulk phases (RCS's
per-packet updates) cost one NumPy call. CAESAR's batched drain lands
a whole eviction chunk with :meth:`land`, one compiled call with the
same saturation and stuck-counter accounting.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np
import numpy.typing as npt

from repro.errors import ConfigError

if TYPE_CHECKING:
    from repro.hashing.family import BankedIndexMemo

#: Counters are stored as int64 regardless of the modeled bit width;
#: ``counter_capacity`` enforces the modeled width by saturation.
_COUNTER_DTYPE = np.int64


class BankedCounterArray:
    """``k`` banks of ``bank_size`` counters, each holding at most
    ``counter_capacity``."""

    def __init__(self, k: int, bank_size: int, counter_capacity: int) -> None:
        if k < 1:
            raise ConfigError(f"k must be >= 1, got {k}")
        if bank_size < 1:
            raise ConfigError(f"bank_size must be >= 1, got {bank_size}")
        if counter_capacity < 1:
            raise ConfigError(f"counter_capacity must be >= 1, got {counter_capacity}")
        self.k = int(k)
        self.bank_size = int(bank_size)
        self.counter_capacity = int(counter_capacity)
        self.total_counters = self.k * self.bank_size
        self._values = np.zeros(self.total_counters, dtype=_COUNTER_DTYPE)
        #: Packet mass dropped because a counter was saturated.
        self.saturated_mass = 0
        # Stuck-at fault state (None on the healthy path — one attribute
        # check per update is the entire cost of supporting it).
        self._stuck_idx: npt.NDArray[np.int64] | None = None
        self._stuck_values: npt.NDArray[np.int64] | None = None
        #: Packet mass rejected by stuck counters (fault accounting).
        self.stuck_lost_mass = 0

    # -- memory ----------------------------------------------------------

    def prefault(self) -> None:
        """Touch every counter page so later updates never take a
        first-touch page fault.

        ``np.zeros`` maps the banks lazily; on the default path physical
        pages materialize one fault at a time inside the first
        scatter-adds — measurement jitter right on the hot path. Long-
        lived deployments (the shard workers) call this once at boot,
        where the cost is absorbed by startup. Adding zero is a bitwise
        no-op on every counter, so measurement state is untouched.
        """
        self._values += 0

    # -- updates ---------------------------------------------------------

    def add_at(
        self,
        indices: npt.NDArray[np.int64],
        amounts: npt.NDArray[np.int64] | int = 1,
    ) -> None:
        """Scatter-add ``amounts`` into global ``indices`` with saturation.

        Duplicate indices accumulate (``np.add.at`` semantics). Mass
        that would push a counter beyond capacity is discarded and
        accounted in :attr:`saturated_mass`.
        """
        indices = np.asarray(indices)
        np.add.at(self._values, indices, amounts)
        # Saturation check only on the touched counters; only the rare
        # over-capacity ones are deduplicated, so each counter's excess
        # is counted once.
        over = indices[self._values[indices] > self.counter_capacity]
        if len(over):
            over = np.unique(over)
            self.saturated_mass += int((self._values[over] - self.counter_capacity).sum())
            self._values[over] = self.counter_capacity
        if self._stuck_idx is not None:
            self._repin()

    def land(
        self,
        memo: "BankedIndexMemo",
        flow_ids: npt.NDArray[np.uint64],
        values: npt.NDArray[np.int64],
        slots: npt.NDArray[np.int64] | None,
    ) -> None:
        """Add an eviction chunk's values, split over each flow's
        counters, in one kernel call
        (:meth:`~repro.hashing.family.BankedIndexMemo.land`): the same
        counters, :attr:`saturated_mass` and :attr:`stuck_lost_mass` as
        :meth:`add_at` of the split parts."""
        indexer = memo.indexer
        if (indexer.k, indexer.bank_size) != (self.k, self.bank_size):
            # The kernel indexes the counters and the remainder slots
            # unchecked, so the memo must map into this geometry.
            raise ConfigError(
                f"the indexer maps {indexer.k} banks of {indexer.bank_size} counters, "
                f"the array holds {self.k} banks of {self.bank_size}"
            )
        self.saturated_mass += memo.land(
            flow_ids, values, slots, self._values, self.counter_capacity
        )
        if self._stuck_idx is not None:
            self._repin()

    def add_one(self, index: int, amount: int = 1) -> None:
        """Single-counter add with saturation (per-eviction hot path)."""
        v = self._values[index] + amount
        if v > self.counter_capacity:
            self.saturated_mass += int(v - self.counter_capacity)
            v = self.counter_capacity
        self._values[index] = v
        if self._stuck_idx is not None:
            self._repin()

    # -- fault-injection hooks ------------------------------------------------

    def stick(self, indices: npt.NDArray[np.int64], value: int) -> None:
        """Pin counters at ``value`` — the stuck-at fault of a failing
        SRAM cell. Pinned counters reject all future updates; rejected
        mass accumulates in :attr:`stuck_lost_mass`."""
        idx = np.unique(np.asarray(indices, dtype=np.int64))
        if len(idx) and (idx.min() < 0 or idx.max() >= self.total_counters):
            raise ConfigError("stuck counter index out of range")
        self._stuck_idx = idx
        self._stuck_values = np.full(len(idx), int(value), dtype=_COUNTER_DTYPE)
        self._values[idx] = self._stuck_values

    def _repin(self) -> None:
        """Re-pin stuck counters after an update, accounting the rejected mass."""
        vals = self._values[self._stuck_idx]
        delta = vals - self._stuck_values
        if delta.any():
            self.stuck_lost_mass += int(np.maximum(delta, 0).sum())
            self._values[self._stuck_idx] = self._stuck_values

    def flip_bit(self, index: int, bit: int) -> int:
        """Flip one bit of one counter (transient corruption fault).

        Returns the signed mass delta the flip introduced. Stuck
        counters win over flips (the pin is reapplied immediately).
        """
        if not 0 <= index < self.total_counters:
            raise ConfigError(f"counter index {index} out of range")
        if not 0 <= bit < self.bits_per_counter:
            raise ConfigError(f"bit {bit} outside the {self.bits_per_counter}-bit width")
        old = int(self._values[index])
        new = old ^ (1 << bit)
        self._values[index] = new
        if self._stuck_idx is not None:
            self._repin()
            new = int(self._values[index])
        return new - old

    # -- checkpoint state ------------------------------------------------------

    def export_state(self) -> dict:
        """Snapshot of all mutable state (checkpoint capture)."""
        return {
            "values": self._values.copy(),
            "saturated_mass": self.saturated_mass,
            "stuck_idx": None if self._stuck_idx is None else self._stuck_idx.copy(),
            "stuck_values": (
                None if self._stuck_values is None else self._stuck_values.copy()
            ),
            "stuck_lost_mass": self.stuck_lost_mass,
        }

    def restore_state(self, state: dict) -> None:
        """Inverse of :meth:`export_state` (checkpoint restore)."""
        values = np.asarray(state["values"], dtype=_COUNTER_DTYPE)
        if values.shape != self._values.shape:
            raise ConfigError(
                f"counter state holds {values.shape[0]} counters, "
                f"array has {self.total_counters}"
            )
        self._values[:] = values
        self.saturated_mass = int(state["saturated_mass"])
        stuck_idx = state.get("stuck_idx")
        if stuck_idx is None or len(stuck_idx) == 0:
            self._stuck_idx = None
            self._stuck_values = None
        else:
            self._stuck_idx = np.asarray(stuck_idx, dtype=np.int64)
            self._stuck_values = np.asarray(state["stuck_values"], dtype=_COUNTER_DTYPE)
        self.stuck_lost_mass = int(state.get("stuck_lost_mass", 0))

    # -- reads -----------------------------------------------------------

    def gather(self, indices: npt.NDArray[np.int64]) -> npt.NDArray[np.int64]:
        """Read counters at (possibly 2-D) global indices."""
        return self._values[indices]

    @property
    def values(self) -> npt.NDArray[np.int64]:
        """All counters, bank-major (read-only view)."""
        v = self._values.view()
        v.flags.writeable = False
        return v

    def bank(self, r: int) -> npt.NDArray[np.int64]:
        """Counters of bank ``r`` (read-only view)."""
        if not 0 <= r < self.k:
            raise ConfigError(f"bank index {r} out of range [0, {self.k})")
        v = self._values[r * self.bank_size : (r + 1) * self.bank_size].view()
        v.flags.writeable = False
        return v

    @property
    def total_mass(self) -> int:
        """Sum of all counters (== packets recorded, absent saturation)."""
        return int(self._values.sum())

    @property
    def saturated_counters(self) -> int:
        """How many counters sit at the capacity ceiling."""
        return int(np.count_nonzero(self._values == self.counter_capacity))

    # -- memory accounting --------------------------------------------------

    @property
    def bits_per_counter(self) -> int:
        """Modeled counter width: ``ceil(log2(l + 1))`` bits."""
        return max(1, int(np.ceil(np.log2(self.counter_capacity + 1))))

    @property
    def memory_bits(self) -> int:
        """Total modeled SRAM footprint in bits."""
        return self.total_counters * self.bits_per_counter

    @property
    def memory_kilobytes(self) -> float:
        """Total modeled SRAM footprint in KB (paper's unit)."""
        return self.memory_bits / 8192.0

    def reset(self) -> None:
        """Zero all counters and the saturation account.

        Stuck-at faults model broken hardware, so pinned counters stay
        pinned across epochs (their rejected-mass account restarts).
        """
        self._values[:] = 0
        self.saturated_mass = 0
        self.stuck_lost_mass = 0
        if self._stuck_idx is not None:
            self._values[self._stuck_idx] = self._stuck_values

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BankedCounterArray(k={self.k}, bank_size={self.bank_size}, "
            f"capacity={self.counter_capacity}, {self.memory_kilobytes:.2f} KB)"
        )
