"""Failure detection and graceful degradation for the streaming runtime.

The supervisor's original fault model was fail-*stop*: a worker dies
(``process.is_alive()`` goes false) and the restore/replay/re-feed path
repairs it. This module adds the fail-*slow* half and the discipline
around repeated failure:

- **Heartbeats + hang detection.** Workers emit periodic
  ``("heartbeat", shard, last_seq, wall_time)`` records on the message
  plane (off the data path, so the no-fault bit-identity contract is
  untouched). :class:`Watchdog` tracks the age of the *last message of
  any kind* per shard and escalates a silent worker through
  nudge → SIGTERM → SIGKILL; the kill lands in the existing recovery
  path, so SIGSTOP and deadlocks become recoverable faults instead of
  permanent stalls.

- **Restart discipline.** :class:`RestartBudget` is a token bucket
  (capacity = ``max_restarts``, refill rate 0 by default, which makes
  it behave exactly like the old bare counter); :class:`CircuitBreaker`
  tracks closed/open/half-open per shard and schedules each restart
  attempt with exponential backoff plus *seeded, deterministic* jitter
  (:func:`backoff_delay`) so two runs of the same chaos test restart at
  the same offsets. Breaker state is exported as a gauge
  (``runtime.shard{i}.breaker``: 0 closed, 1 open, 2 half-open).

- **Poison-chunk quarantine.** When the same chunk seq crashes its
  shard ``quarantine_after`` times in a row, the supervisor spills it
  to a CRC'd quarantine WAL (:func:`quarantine_chunk` — same record as
  the ingest WAL, so the evidence replays) plus a JSON reason record,
  accounts the packet mass, and keeps ingesting. The runtime degrades
  instead of dying; estimates stay calibrated because CSM/MLM de-noise
  with the mass actually landed (``effective_mass``), which never saw
  the quarantined packets.

- **Partial answers.** :class:`PartialEstimate` carries per-shard
  coverage and status for queries that had to skip restarting or
  open-breaker shards, with ``degraded=True`` surfaced through
  ``StreamingRuntime.query(detail=True)``, ``measure()``, and ``serve``.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np
import numpy.typing as npt

from repro.obs.registry import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.config import CaesarConfig
    from repro.core.sharded import ShardedCaesar
    from repro.runtime.partitioner import ShardMap

__all__ = [
    "DEFAULT_HANG_TIMEOUT",
    "DEFAULT_HEARTBEAT_EVERY",
    "DEFAULT_QUARANTINE_AFTER",
    "BREAKER_CLOSED",
    "BREAKER_HALF_OPEN",
    "BREAKER_OPEN",
    "CircuitBreaker",
    "PartialEstimate",
    "QuarantineRecord",
    "RestartBudget",
    "ShardQueryStatus",
    "Watchdog",
    "WatchdogConfig",
    "backoff_delay",
    "load_quarantine",
    "offline_twin_excluding",
    "quarantine_chunk",
    "sweep_stale_tmp",
]

#: Seconds between worker heartbeats (message plane; off the data path).
DEFAULT_HEARTBEAT_EVERY = 0.25

#: Heartbeat age at which a worker is declared hung. Generous by
#: default: it must exceed the longest legitimate silent stretch (one
#: chunk's compute, a checkpoint write, a deliberate SIGSTOP window in
#: the backpressure tests) by a wide margin. Chaos tests pass much
#: smaller values explicitly.
DEFAULT_HANG_TIMEOUT = 30.0

#: Consecutive crashes attributed to one chunk seq before quarantine.
DEFAULT_QUARANTINE_AFTER = 3

#: Seed for the deterministic restart-backoff jitter.
DEFAULT_JITTER_SEED = 0xBAC0FF

BREAKER_CLOSED = "closed"
BREAKER_OPEN = "open"
BREAKER_HALF_OPEN = "half_open"

#: Gauge encoding of breaker state (``runtime.shard{i}.breaker``).
BREAKER_LEVELS = {BREAKER_CLOSED: 0, BREAKER_OPEN: 1, BREAKER_HALF_OPEN: 2}

QUARANTINE_WAL = "quarantine.wal"
QUARANTINE_META = "quarantine.json"


# -- restart discipline -------------------------------------------------------


class RestartBudget:
    """Token bucket governing restart attempts for one shard.

    ``capacity`` tokens are available immediately; ``refill_per_s``
    tokens per second flow back (fractional, clamped at capacity). The
    default refill of 0 reduces to the classic ``max_restarts`` counter:
    once the bucket is empty it never refills and the supervisor raises.
    A positive refill turns repeated failure into throttling instead of
    death — the breaker stays open until a token accrues.
    """

    def __init__(self, capacity: int, refill_per_s: float = 0.0) -> None:
        self.capacity = max(int(capacity), 0)
        self.refill_per_s = float(refill_per_s)
        self.tokens = float(self.capacity)
        self._last = time.monotonic()

    def _refill(self, now: float) -> None:
        if self.refill_per_s > 0.0 and now > self._last:
            self.tokens = min(
                self.tokens + (now - self._last) * self.refill_per_s,
                float(self.capacity),
            )
        self._last = now

    def take(self, now: float | None = None) -> bool:
        """Consume one token if available."""
        now = time.monotonic() if now is None else now
        self._refill(now)
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True
        return False

    def wait_for_token(self, now: float | None = None) -> float | None:
        """Seconds until one token accrues, or ``None`` if it never will."""
        now = time.monotonic() if now is None else now
        self._refill(now)
        if self.tokens >= 1.0:
            return 0.0
        if self.refill_per_s <= 0.0:
            return None
        return (1.0 - self.tokens) / self.refill_per_s


def backoff_delay(
    consecutive: int,
    *,
    base: float = 0.25,
    max_delay: float = 30.0,
    seed: int = DEFAULT_JITTER_SEED,
    shard: int = 0,
) -> float:
    """Exponential backoff with seeded, deterministic jitter.

    The first failure restarts immediately (delay 0) so a one-off crash
    recovers as fast as the pre-watchdog supervisor did; the ``n``-th
    consecutive failure waits ``base * 2**(n-2)`` (capped) plus a jitter
    draw in ``[0, base)`` from a generator seeded by
    ``(seed, shard, n)`` — fully reproducible, no shared RNG state.
    """
    if consecutive <= 1:
        return 0.0
    delay = min(base * 2.0 ** (consecutive - 2), max_delay)
    jitter = float(np.random.default_rng([seed, shard, consecutive]).uniform(0.0, base))
    return delay + jitter


@dataclass
class CircuitBreaker:
    """Per-shard restart circuit: closed → open (on death) → half-open
    (restarted, on probation) → closed (first sign of life)."""

    state: str = BREAKER_CLOSED
    consecutive: int = 0  # failures without an intervening sign of life
    next_attempt: float = 0.0  # monotonic time before which restarts wait

    def record_failure(
        self,
        now: float,
        *,
        base: float,
        max_delay: float,
        seed: int,
        shard: int,
    ) -> float:
        """Open the breaker and schedule the next restart attempt;
        returns the chosen backoff delay."""
        self.consecutive += 1
        self.state = BREAKER_OPEN
        delay = backoff_delay(
            self.consecutive, base=base, max_delay=max_delay, seed=seed, shard=shard
        )
        self.next_attempt = now + delay
        return delay

    def record_probation(self) -> None:
        """A restart succeeded; stay suspicious until the worker talks."""
        self.state = BREAKER_HALF_OPEN

    def record_success(self) -> None:
        """First post-restart sign of life: close and forget the streak."""
        self.state = BREAKER_CLOSED
        self.consecutive = 0

    @property
    def level(self) -> int:
        return BREAKER_LEVELS[self.state]


# -- hang detection -----------------------------------------------------------


@dataclass(frozen=True)
class WatchdogConfig:
    """Escalation schedule for a silent worker.

    At ``hang_timeout`` seconds of message silence the worker is nudged
    (one more doorbell release, harmless to a live loop);
    ``term_grace`` seconds later it gets SIGTERM; ``kill_grace`` seconds
    after that, SIGKILL — which lands in the supervisor's ordinary
    death-recovery path.
    """

    hang_timeout: float = DEFAULT_HANG_TIMEOUT
    term_grace: float = 2.0
    kill_grace: float = 2.0

    @classmethod
    def for_timeout(cls, hang_timeout: float) -> "WatchdogConfig":
        """Derive a proportionate schedule from the detection deadline."""
        grace = min(max(hang_timeout / 4.0, 0.2), 2.0)
        return cls(hang_timeout=hang_timeout, term_grace=grace, kill_grace=grace)


class Watchdog:
    """Heartbeat-age tracker + escalation driver (supervisor side).

    Stateless across handles except through the per-handle fields
    ``last_seen`` / ``hang_stage`` (0 = healthy, 1 = nudged,
    2 = SIGTERMed): a handle that talks resets to healthy; one that
    stays silent walks the schedule. :meth:`check` returns ``True``
    when it issued SIGKILL so the caller can run death recovery in the
    same pump instead of waiting a cycle.
    """

    def __init__(self, config: WatchdogConfig, metrics: MetricsRegistry) -> None:
        self.config = config
        self.metrics = metrics

    def observe(self, handle) -> None:
        """Any worker message: refresh liveness, cancel escalation."""
        handle.last_seen = time.monotonic()
        handle.hang_stage = 0

    def check(self, handle, now: float | None = None) -> bool:
        """Escalate one silent handle a step if its deadline passed."""
        import os
        import signal as _signal

        process = handle.process
        if process is None or not process.is_alive():
            return False
        now = time.monotonic() if now is None else now
        age = now - handle.last_seen
        shard = handle.spec.shard_id
        self.metrics.gauge(f"runtime.shard{shard}.heartbeat_age").set(age)
        cfg = self.config
        if handle.hang_stage == 0 and age > cfg.hang_timeout:
            # Stage 1: release the worker's doorbell once more — the last
            # step that costs no state before the signals.
            handle.channel.nudge()
            handle.hang_stage = 1
            self.metrics.counter("runtime.watchdog.hangs").inc()
            self.metrics.counter("runtime.watchdog.nudges").inc()
        elif handle.hang_stage == 1 and age > cfg.hang_timeout + cfg.term_grace:
            try:
                os.kill(process.pid, _signal.SIGTERM)
            except (ProcessLookupError, OSError):  # pragma: no cover - raced death
                return False
            handle.hang_stage = 2
            self.metrics.counter("runtime.watchdog.sigterms").inc()
        elif handle.hang_stage == 2 and age > (
            cfg.hang_timeout + cfg.term_grace + cfg.kill_grace
        ):
            try:
                os.kill(process.pid, _signal.SIGKILL)
            except (ProcessLookupError, OSError):  # pragma: no cover - raced death
                return False
            handle.hang_stage = 0
            self.metrics.counter("runtime.watchdog.sigkills").inc()
            process.join(timeout=5.0)
            return True
        return False


# -- poison-chunk quarantine --------------------------------------------------


@dataclass(frozen=True)
class QuarantineRecord:
    """One quarantined chunk: provenance plus the packet evidence."""

    shard: int
    seq: int
    n_packets: int
    crashes: int
    reason: str
    packets: npt.NDArray[np.uint64] | None = None
    lengths: npt.NDArray[np.int64] | None = None


def quarantine_chunk(
    state_dir: str | Path,
    shard: int,
    seq: int,
    packets: npt.NDArray[np.uint64],
    lengths: npt.NDArray[np.int64] | None,
    *,
    crashes: int,
    reason: str,
) -> Path:
    """Spill one poison chunk to the shard's CRC'd quarantine WAL.

    Writes the ingest WAL's record, so the spilled evidence is
    CRC-protected, torn-tail tolerant (opening the log cuts a torn tail
    before this append), and replayable offline with the ordinary WAL
    tooling. A JSON-lines sidecar records the why.
    """
    from repro.resilience.atomic import fsync_dir
    from repro.resilience.wal import WriteAheadLog
    from repro.runtime.worker import append_ingest_chunk

    state_dir = Path(state_dir)
    state_dir.mkdir(parents=True, exist_ok=True)
    wal_path = state_dir / QUARANTINE_WAL
    wal = WriteAheadLog(wal_path)
    try:
        append_ingest_chunk(wal, seq, packets, lengths)
        # Evidence of a chunk the runtime is about to *skip* must
        # survive a power cut, not just a process crash.
        wal.sync()
    finally:
        wal.close()
    meta = {
        "shard": shard,
        "seq": seq,
        "packets": int(len(packets)),
        "crashes": int(crashes),
        "reason": reason[-2000:],
    }
    with (state_dir / QUARANTINE_META).open("a", encoding="utf-8") as fh:
        fh.write(json.dumps(meta) + "\n")
        fh.flush()
        os.fsync(fh.fileno())
    fsync_dir(state_dir)
    return wal_path


def load_quarantine(state_dir: str | Path) -> list[QuarantineRecord]:
    """All quarantined chunks under a runtime state dir (all shards)."""
    from repro.resilience.wal import WriteAheadLog

    out: list[QuarantineRecord] = []
    root = Path(state_dir)
    metas = sorted(root.glob(f"shard*/{QUARANTINE_META}"))
    if root.name.startswith("shard") or (root / QUARANTINE_META).exists():
        metas = [root / QUARANTINE_META] + metas
    for meta_path in metas:
        if not meta_path.exists():
            continue
        chunks: dict[int, tuple] = {}
        wal_path = meta_path.parent / QUARANTINE_WAL
        if wal_path.exists() and wal_path.stat().st_size > 0:
            for seq, packets, lengths in WriteAheadLog.iter_records(wal_path):
                chunks[seq] = (packets, lengths)
        for line in meta_path.read_text(encoding="utf-8").splitlines():
            if not line.strip():
                continue
            meta = json.loads(line)
            packets, lengths = chunks.get(int(meta["seq"]), (None, None))
            out.append(
                QuarantineRecord(
                    shard=int(meta["shard"]),
                    seq=int(meta["seq"]),
                    n_packets=int(meta["packets"]),
                    crashes=int(meta["crashes"]),
                    reason=meta.get("reason", ""),
                    packets=packets,
                    lengths=lengths,
                )
            )
    return out


# -- partial answers ----------------------------------------------------------


@dataclass(frozen=True)
class ShardQueryStatus:
    """How one shard participated in a query.

    ``status`` is one of ``"ok"`` (answered), ``"skipped"`` (restarting
    or breaker-open; never asked), ``"timeout"`` (asked, silent past
    the deadline and one retry). ``coverage`` is the fraction of the
    packet mass sent to this shard that actually reached its counters
    (quarantined chunks subtract; 1.0 for a healthy shard).
    """

    shard: int
    status: str
    coverage: float


@dataclass(frozen=True)
class PartialEstimate:
    """A query answer that may be missing shards or mass.

    ``estimates`` is aligned with the queried flow ids; flows owned by
    a shard that could not answer hold NaN. ``coverage`` is the
    mass-weighted fraction of queried shards' traffic represented in
    the answer. ``degraded`` is True whenever any shard was skipped,
    timed out, or is missing quarantined mass — the signal that the
    caller is looking at a lower bound with a known gap, not a clean
    estimate.
    """

    estimates: npt.NDArray[np.float64]
    degraded: bool
    coverage: float
    shards: tuple[ShardQueryStatus, ...]

    def __len__(self) -> int:
        return len(self.estimates)

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        est = self.estimates
        if dtype is not None:
            est = est.astype(dtype, copy=False)
        return np.array(est, copy=True) if copy else est


# -- stale-artifact sweeping --------------------------------------------------


def sweep_stale_tmp(state_dir: str | Path) -> int:
    """Remove checkpoint temp files a dying worker left behind.

    ``_save_checkpoint_atomic`` writes ``.tmp_<name>`` then renames; a
    crash between the two leaks the temp file. Safe whenever the shard's
    worker is not running (restart and post-drain paths): a live rename
    never races because the writer is dead.
    """
    swept = 0
    root = Path(state_dir)
    if not root.exists():
        return 0
    for path in root.glob(".tmp_*"):
        path.unlink(missing_ok=True)
        swept += 1
    return swept


# -- offline reconstruction with exclusions -----------------------------------


def offline_twin_excluding(
    config: "CaesarConfig",
    shard_map: "ShardMap",
    stream: npt.NDArray[np.uint64],
    *,
    lengths: npt.NDArray[np.int64] | None = None,
    chunk_packets: int,
    quarantined: "set[tuple[int, int]] | frozenset[tuple[int, int]]",
    divide_budget: bool = True,
) -> "ShardedCaesar":
    """Offline ``ShardedCaesar`` twin of a runtime run, minus the chunks
    it quarantined — the twin every ``serve --verify-offline`` builds.

    Re-simulates the runtime's exact ingest: chunk the stream, partition
    each chunk under ``shard_map``, assign per-shard sequence numbers to
    the non-empty subchunks in order, and skip the ``(shard, seq)``
    pairs in ``quarantined``. The result is finalized and bit-identical
    to the deployment's drained state.

    With nothing quarantined the twin is the plain ``ShardedCaesar``
    under ``shard_map``, split or not. Excluding chunks assumes the map
    never changed mid-run (no reshard): sequence numbering under a
    split donor is not reproducible from the final map alone.
    """
    from repro.core.sharded import ShardedCaesar
    from repro.runtime.partitioner import StreamPartitioner, chunk_stream

    offline = ShardedCaesar(
        config, None, divide_budget=divide_budget, shard_map=shard_map
    )
    partitioner = StreamPartitioner(shard_map=shard_map)
    seqs = [0] * shard_map.num_shards
    for pkts, lens in chunk_stream(stream, lengths=lengths, chunk_packets=chunk_packets):
        for sid, (sub, sub_lens) in enumerate(partitioner.partition(pkts, lens)):
            if not len(sub):
                continue
            seq = seqs[sid]
            seqs[sid] += 1
            if (sid, seq) in quarantined:
                continue
            offline.shards[sid].process(sub, sub_lens)
    offline.finalize()
    return offline
