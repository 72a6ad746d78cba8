"""Cache-policy protocol, eviction events, and statistics.

Replacement policy is a strategy object tracking *which* entry to evict
on a miss-with-full-table; the cache itself owns the counts. The paper
evaluates LRU and random replacement; both fit this interface, and the
theory (Section 4.2) only requires that the victim choice be
independent of the stored count — true for both.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Protocol

import numpy as np
import numpy.typing as npt

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.obs.trace import EvictionTrace


class EvictionReason(enum.Enum):
    """Why a value left the cache for the SRAM counters."""

    #: Entry count reached the per-entry capacity ``y``.
    OVERFLOW = "overflow"
    #: Entry was the replacement victim on a miss with a full table.
    REPLACEMENT = "replacement"
    #: End-of-measurement dump of all resident entries.
    FINAL_DUMP = "final_dump"

    @property
    def code(self) -> int:
        """Compact integer code used inside the batched eviction buffer."""
        return _REASON_CODES[self]


#: Integer codes the batched pipeline stores instead of enum objects.
OVERFLOW_CODE = 0
REPLACEMENT_CODE = 1
FINAL_DUMP_CODE = 2

_REASON_CODES = {
    EvictionReason.OVERFLOW: OVERFLOW_CODE,
    EvictionReason.REPLACEMENT: REPLACEMENT_CODE,
    EvictionReason.FINAL_DUMP: FINAL_DUMP_CODE,
}

#: :meth:`CacheStats.record_batch` counts values with ``np.bincount``
#: when the largest is at most this many times the chunk's row count.
_BINCOUNT_SPAN = 4

#: Inverse mapping, indexable by code.
CODE_TO_REASON = (
    EvictionReason.OVERFLOW,
    EvictionReason.REPLACEMENT,
    EvictionReason.FINAL_DUMP,
)


@dataclass(frozen=True, slots=True)
class Eviction:
    """One value leaving the cache: ``E_i`` in the paper's analysis."""

    flow_id: int
    value: int
    reason: EvictionReason


@dataclass
class CacheStats:
    """Operational counters for a measurement run.

    ``evicted_packets`` counts packet mass flushed to SRAM during the
    run (not the final dump), so
    ``hits + misses == accesses`` and
    ``evicted_packets + dumped_packets + lost == accesses`` with no
    loss in CAESAR.

    ``trace`` is an optional bounded eviction ring
    (:class:`repro.obs.trace.EvictionTrace`): when set, every recorded
    eviction (and final dump) is also appended to the ring with the
    access count at recording time as its packet index. The trace is an
    observer, not part of the measurement, so it is excluded from stats
    equality — two engines producing identical stats may hold
    differently-chunked traces.
    """

    accesses: int = 0
    hits: int = 0
    misses: int = 0
    overflow_evictions: int = 0
    replacement_evictions: int = 0
    evicted_packets: int = 0
    dumped_entries: int = 0
    dumped_packets: int = 0
    #: Histogram of evicted values (index = value), grown on demand.
    eviction_value_counts: dict[int, int] = field(default_factory=dict)
    #: Optional eviction-trace ring (observability only, not compared).
    trace: "EvictionTrace | None" = field(default=None, compare=False, repr=False)

    def record_eviction(self, value: int, reason: EvictionReason, flow_id: int = 0) -> None:
        if reason is EvictionReason.OVERFLOW:
            self.overflow_evictions += 1
        elif reason is EvictionReason.REPLACEMENT:
            self.replacement_evictions += 1
        self.evicted_packets += value
        self.eviction_value_counts[value] = self.eviction_value_counts.get(value, 0) + 1
        if self.trace is not None:
            self.trace.record(flow_id, value, reason.code, self.accesses)

    def record_dump(self, flow_id: int, value: int) -> None:
        """Record one final-dump entry (scalar ``dump`` path)."""
        self.dumped_entries += 1
        self.dumped_packets += value
        if self.trace is not None:
            self.trace.record(flow_id, value, FINAL_DUMP_CODE, self.accesses)

    def record_batch(
        self,
        values: npt.NDArray[np.int64],
        reasons: npt.NDArray[np.uint8],
        ids: npt.NDArray[np.uint64] | None = None,
    ) -> None:
        """Batched :meth:`record_eviction` over one drained buffer chunk.

        ``reasons`` holds the integer codes (``OVERFLOW_CODE`` etc.).
        Final-dump rows update the dump accounting instead of the
        eviction accounting, exactly like the scalar :meth:`record_eviction`
        / ``dump`` pair, so both engines end a run with equal stats.
        When ``ids`` is given and a trace ring is attached, the chunk is
        also traced (all rows share the flush-time access count).
        """
        if len(values) == 0:
            return
        if self.trace is not None and ids is not None:
            self.trace.record_batch(ids, values, reasons, self.accesses)
        per_reason = np.bincount(reasons, minlength=3)
        self.overflow_evictions += int(per_reason[OVERFLOW_CODE])
        self.replacement_evictions += int(per_reason[REPLACEMENT_CODE])
        dumped = reasons == FINAL_DUMP_CODE
        if per_reason[FINAL_DUMP_CODE]:
            self.dumped_entries += int(per_reason[FINAL_DUMP_CODE])
            self.dumped_packets += int(values[dumped].sum())
            evicted = values[~dumped]
        else:
            evicted = values
        if len(evicted) == 0:
            return
        self.evicted_packets += int(evicted.sum())
        hist = self.eviction_value_counts
        lo, hi = int(evicted.min()), int(evicted.max())
        if lo >= 0 and hi <= _BINCOUNT_SPAN * len(evicted):
            # Unit weights never evict more than y, so this is the common
            # case: no sort, and the bins stay no larger than the chunk.
            counts = np.bincount(evicted)
            uniq = np.flatnonzero(counts)
            counts = counts[uniq]
        else:
            uniq, counts = np.unique(evicted, return_counts=True)
        for v, c in zip(uniq.tolist(), counts.tolist()):
            hist[v] = hist.get(v, 0) + c

    @property
    def total_evictions(self) -> int:
        return self.overflow_evictions + self.replacement_evictions

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0


class CachePolicy(Protocol):
    """Victim-selection strategy for a full cache table.

    The cache calls ``insert`` when a flow is allocated an entry,
    ``touch`` on every hit, ``remove`` when an entry is freed, ``clear``
    when the table empties, and ``victim`` to pick the entry to replace.
    Implementations must keep their bookkeeping consistent with exactly
    that call sequence.
    """

    def insert(self, flow_id: int) -> None: ...

    def touch(self, flow_id: int) -> None: ...

    def remove(self, flow_id: int) -> None: ...

    def clear(self) -> None: ...

    def victim(self) -> int: ...

    def export_state(self) -> dict: ...

    def restore_state(self, state: dict) -> None: ...

    def __len__(self) -> int: ...
