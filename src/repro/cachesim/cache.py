"""The on-chip flow cache (construction-phase front end).

:class:`FlowCache` implements the online behaviour of Section 3.1:

- **hit** — increment the entry; if the count reaches the per-entry
  capacity ``y``, flush the full value to the eviction sink and reset
  the entry to zero (the flow stays resident);
- **miss, table not full** — allocate an entry with count 1;
- **miss, table full** — pick a victim via the replacement policy
  (LRU or random), flush its count, and hand the entry to the new flow;
- **end of measurement** — :meth:`dump` flushes every resident entry.

Evictions leave the cache along one of two equivalent paths:

- **scalar reference** — a caller-supplied *sink* callable
  ``sink(flow_id, value, reason)`` fired per eviction (CAESAR's sink
  splits the value over k shared counters, CASE's folds it into a
  compressed counter), over a dict plus a policy object;
- **batched** — :meth:`FlowCache.process_into` runs the compiled
  flow-cache kernel (:mod:`repro.cachesim.kernel`) over an array
  resident table, appending evictions into a preallocated
  :class:`~repro.cachesim.buffer.EvictionBuffer` and handing full
  chunks to a *drain* callable as array views, letting the scheme land
  a whole chunk with a few vectorized calls.

Both paths produce the identical eviction sequence and statistics; the
resident table moves between the two representations through the
canonical :meth:`FlowCache.export_state` document whenever a cache
switches paths. The cache itself is scheme-agnostic.
"""

from __future__ import annotations

from typing import Callable, Iterator

import numpy as np
import numpy.typing as npt

from repro.cachesim.base import (
    FINAL_DUMP_CODE,
    CachePolicy,
    CacheStats,
    Eviction,
    EvictionReason,
)
from repro.cachesim.buffer import EvictionBuffer, EvictionDrain
from repro.cachesim.kernel import ResidentTable
from repro.cachesim.lru import LRUPolicy
from repro.cachesim.random_replace import RandomPolicy
from repro.errors import ConfigError
from repro.obs.registry import MetricsRegistry, resolve_registry
from repro.obs.trace import EvictionTrace

#: Signature of an eviction sink.
EvictionSink = Callable[[int, int, EvictionReason], None]


# Kept only because perfbench's ``--trace 1`` hook patches this name.
def should_coalesce(ids: npt.NDArray[np.uint64]) -> bool:
    return False


def make_policy(name: str, seed: int = 0) -> CachePolicy:
    """Construct a replacement policy by name (``"lru"`` or ``"random"``)."""
    if name == "lru":
        return LRUPolicy()
    if name == "random":
        return RandomPolicy(seed=seed)
    raise ConfigError(f"unknown replacement policy {name!r}; use 'lru' or 'random'")


class FlowCache:
    """On-chip cache table with ``num_entries`` entries of capacity
    ``entry_capacity`` (the paper's ``M`` and ``y``)."""

    def __init__(
        self,
        num_entries: int,
        entry_capacity: int,
        policy: str | CachePolicy = "lru",
        seed: int = 0,
        *,
        registry: MetricsRegistry | None = None,
        trace: EvictionTrace | None = None,
    ) -> None:
        if num_entries < 1:
            raise ConfigError(f"num_entries must be >= 1, got {num_entries}")
        if entry_capacity < 1:
            raise ConfigError(f"entry_capacity must be >= 1, got {entry_capacity}")
        self.num_entries = int(num_entries)
        self.entry_capacity = int(entry_capacity)
        self._policy: CachePolicy = (
            make_policy(policy, seed) if isinstance(policy, str) else policy
        )
        # The resident table lives in exactly one representation: the
        # scalar path's dict (plus the policy's own order), or the
        # kernel's arrays, allocated on first batched use.
        self._counts: dict[int, int] = {}
        self._table: ResidentTable | None = None
        # Observability is chunk-granular and off by default (the null
        # registry); neither mode ever touches measurement state.
        self._metrics = resolve_registry(registry)
        self.stats = CacheStats(trace=trace)

    # -- core per-packet path ----------------------------------------------

    def access(self, flow_id: int, sink: EvictionSink, weight: int = 1) -> None:
        """Process one packet of ``flow_id``, forwarding evictions to ``sink``.

        ``weight`` is the amount this packet adds to the entry: 1 when
        counting packets (the paper's default), the packet's byte
        length when counting flow *volume* (Section 3.1 supports both).
        A weighted hit can land exactly on or beyond the capacity; the
        whole accumulated value is flushed either way, so no mass is
        ever lost.
        """
        if self._table is not None:
            self._to_dict()
        counts = self._counts
        stats = self.stats
        stats.accesses += 1
        cur = counts.get(flow_id)
        if cur is not None:
            stats.hits += 1
            self._policy.touch(flow_id)
            cur += weight
            if cur >= self.entry_capacity:
                # Overflow eviction: flush the full value, keep residency.
                stats.record_eviction(cur, EvictionReason.OVERFLOW, flow_id)
                sink(flow_id, cur, EvictionReason.OVERFLOW)
                counts[flow_id] = 0
            else:
                counts[flow_id] = cur
            return
        stats.misses += 1
        if len(counts) >= self.num_entries:
            victim = self._policy.victim()
            value = counts.pop(victim)
            self._policy.remove(victim)
            if value > 0:
                stats.record_eviction(value, EvictionReason.REPLACEMENT, victim)
                sink(victim, value, EvictionReason.REPLACEMENT)
        counts[flow_id] = weight
        self._policy.insert(flow_id)
        if weight >= self.entry_capacity:
            # A single jumbo update overflows a fresh entry outright.
            stats.record_eviction(weight, EvictionReason.OVERFLOW, flow_id)
            sink(flow_id, weight, EvictionReason.OVERFLOW)
            counts[flow_id] = 0

    def process(
        self,
        packets: npt.NDArray[np.uint64],
        sink: EvictionSink,
        weights: npt.NDArray[np.int64] | None = None,
    ) -> None:
        """Feed a whole packet stream through :meth:`access`.

        ``weights`` (optional, aligned with ``packets``) switches the
        cache from packet counting to volume counting. This is the
        *scalar reference* path: one :meth:`access` call (dict ops +
        policy ops, all O(1)) and one sink callback per event, kept
        deliberately simple so the batched path has a ground truth to be
        bit-identical against. Throughput lives in :meth:`process_into`,
        which runs the compiled kernel.
        """
        access = self.access
        with self._metrics.timer("cache.process"):
            if weights is None:
                for fid in packets.tolist():
                    access(fid, sink)
                return
            if len(weights) != len(packets):
                raise ConfigError("weights must align with packets")
            for fid, w in zip(packets.tolist(), weights.tolist()):
                access(fid, sink, w)

    # -- representation switch ------------------------------------------------

    def _to_dict(self) -> None:
        """Move the resident table into the scalar path's dict + policy."""
        table = self._table
        if table is not None:
            self._table = None
            self._restore_dict(table.export_state())

    def _to_table(self) -> ResidentTable:
        """Move the resident table into the kernel's arrays (allocated
        here, on first batched use)."""
        table = self._table
        if table is None:
            table = ResidentTable(self.num_entries, self.entry_capacity, self._policy)
            if self._counts:
                table.load(self.export_state())
                self._counts = {}
                self._policy.clear()
            self._table = table
        return table

    def _restore_dict(self, state: dict) -> None:
        ids = np.asarray(state["ids"], dtype=np.uint64)
        counts = np.asarray(state["counts"], dtype=np.int64)
        self._counts = dict(zip(ids.tolist(), counts.tolist()))
        self._policy.restore_state(state["policy"])

    def _entries(self) -> tuple[npt.NDArray[np.uint64], npt.NDArray[np.int64]]:
        """Resident ids and counts in insertion order."""
        if self._table is not None:
            state = self._table.export_state()
            return state["ids"], state["counts"]
        n = len(self._counts)
        return (
            np.fromiter(self._counts.keys(), dtype=np.uint64, count=n),
            np.fromiter(self._counts.values(), dtype=np.int64, count=n),
        )

    def _clear(self) -> None:
        """Empty the table without flushing anything."""
        if self._table is not None:
            self._table.clear()
        else:
            self._counts.clear()
            self._policy.clear()

    # -- batched (buffered) path --------------------------------------------

    def _flush(self, buffer: EvictionBuffer, drain: EvictionDrain) -> None:
        """Record stats for the pending chunk, hand it to the drain, clear."""
        if buffer.length == 0:
            return
        ids, values, reasons = buffer.chunk()
        self.stats.record_batch(values, reasons, ids)
        metrics = self._metrics
        metrics.counter("cache.drain_chunks").inc()
        metrics.histogram("cache.chunk_rows").observe(buffer.length)
        with metrics.timer("cache.drain"):
            drain(ids, values, reasons)
        buffer.clear()

    def flush_pending(self, buffer: EvictionBuffer, drain: EvictionDrain) -> None:
        """Deliver any chunk still pending in ``buffer`` (no-op when empty).

        Schemes call this (directly or via :meth:`dump_into`) on
        ``finalize()`` so downstream counters are complete even when the
        final chunk never filled — including the empty-sized case of a
        zero-packet stream, where this is simply a no-op.
        """
        self._flush(buffer, drain)

    def process_into(
        self,
        packets: npt.NDArray[np.uint64],
        buffer: EvictionBuffer,
        drain: EvictionDrain,
        weights: npt.NDArray[np.int64] | None = None,
    ) -> None:
        """Batched counterpart of :meth:`process`: evictions are appended
        to ``buffer`` and delivered to ``drain`` in array chunks.

        Runs the compiled kernel once per call; it hands control back
        each time the buffer fills, and the chunk is drained here. The
        result is the *identical* eviction sequence, chunk boundaries
        and final :class:`CacheStats` as the scalar path — chunking only
        changes when work is done, not what is done. The buffer is
        always flushed before returning, so counters downstream of
        ``drain`` are up to date at every API boundary. ``drain`` must
        not touch this cache other than through :meth:`wipe` (it runs
        mid-loop).
        """
        with self._metrics.timer("cache.process"):
            n_packets = len(packets)
            if weights is not None:
                if len(weights) != n_packets:
                    raise ConfigError("weights must align with packets")
                weights = np.ascontiguousarray(weights, dtype=np.int64)
            packets = np.ascontiguousarray(packets, dtype=np.uint64)
            table = self._to_table()
            hits = table.run(packets, weights, buffer, lambda: self._flush(buffer, drain))
            stats = self.stats
            stats.accesses += n_packets
            stats.hits += hits
            stats.misses += n_packets - hits
            self._flush(buffer, drain)

    def dump_into(self, buffer: EvictionBuffer, drain: EvictionDrain) -> None:
        """Batched counterpart of :meth:`dump` (buffer flushed on return).

        Any chunk already pending in ``buffer`` is delivered *first*, on
        its own — so finalize always flushes cache → SRAM residue even
        when the dump itself contributes zero rows (e.g. a zero-packet
        stream, or a cache already emptied by a previous dump).
        """
        with self._metrics.timer("cache.dump"):
            self.flush_pending(buffer, drain)
            ids, counts = self._entries()
            self._clear()
            keep = counts > 0
            ids, counts = ids[keep], counts[keep]
            start = 0
            while start < len(ids):
                take = min(buffer.capacity - buffer.length, len(ids) - start)
                rows = slice(buffer.length, buffer.length + take)
                buffer.ids[rows] = ids[start : start + take]
                buffer.values[rows] = counts[start : start + take]
                buffer.reasons[rows] = FINAL_DUMP_CODE
                buffer.length += take
                start += take
                if buffer.is_full:
                    self._flush(buffer, drain)
            self._flush(buffer, drain)

    # -- end of measurement --------------------------------------------------

    def dump(self, sink: EvictionSink) -> None:
        """Flush every resident entry to the sink and empty the cache.

        The paper: "At the end of the measurement, we dump all the
        cache entries to the SRAM counters."
        """
        self._to_dict()
        with self._metrics.timer("cache.dump"):
            for flow_id, value in self._counts.items():
                if value > 0:
                    self.stats.record_dump(flow_id, value)
                    sink(flow_id, value, EvictionReason.FINAL_DUMP)
                self._policy.remove(flow_id)
            self._counts.clear()

    # -- introspection ---------------------------------------------------------

    def __len__(self) -> int:
        """Number of resident entries."""
        return len(self._counts) if self._table is None else self._table.size

    def __contains__(self, flow_id: int) -> bool:
        return self.get(flow_id, None) is not None

    def resident_count(self, flow_id: int) -> int:
        """Current cached count of a flow (KeyError if not resident)."""
        value = self.get(flow_id, None)
        if value is None:
            raise KeyError(flow_id)
        return value

    def get(self, flow_id: int, default: int | None = 0) -> int | None:
        """Current cached count, or ``default`` if not resident."""
        if self._table is None:
            return self._counts.get(flow_id, default)
        ids, counts = self._table.live()
        at = np.flatnonzero(ids == flow_id)
        return int(counts[at[0]]) if len(at) else default

    def resident_values(
        self, flow_ids: npt.NDArray[np.uint64]
    ) -> npt.NDArray[np.int64]:
        """Vectorized :meth:`get`: cached counts for an array of flows
        (0 for non-resident), via one sorted gather over the resident
        table instead of a Python dict lookup per queried flow."""
        flow_ids = np.asarray(flow_ids, dtype=np.uint64)
        out = np.zeros(len(flow_ids), dtype=np.int64)
        ids, vals = self._table.live() if self._table is not None else self._entries()
        if not len(ids):
            return out
        order = np.argsort(ids)
        ids = ids[order]
        vals = vals[order]
        pos = np.minimum(np.searchsorted(ids, flow_ids), len(ids) - 1)
        match = ids[pos] == flow_ids
        out[match] = vals[pos[match]]
        return out

    def wipe(self) -> tuple[int, int]:
        """Drop every resident entry *without* flushing (fault injection:
        a power glitch or soft error wipes the on-chip table mid-stream).

        Returns ``(entries, mass)`` lost so the injector can account the
        loss; the healthy code paths never call this.
        """
        if self._table is not None:
            _, counts = self._table.live()
            entries, mass = len(counts), int(counts.sum())
        else:
            entries, mass = len(self._counts), sum(self._counts.values())
        self._clear()
        return entries, mass

    # -- checkpoint state -----------------------------------------------------

    def export_state(self) -> dict:
        """All mutable cache state, insertion order preserved (checkpoint
        capture). Statistics are captured separately by the checkpoint —
        they live on :attr:`stats`, which callers may swap per epoch."""
        if self._table is not None:
            return self._table.export_state()
        n = len(self._counts)
        return {
            "ids": np.fromiter(self._counts.keys(), dtype=np.uint64, count=n),
            "counts": np.fromiter(self._counts.values(), dtype=np.int64, count=n),
            "policy": self._policy.export_state(),
        }

    def restore_state(self, state: dict) -> None:
        """Inverse of :meth:`export_state` (checkpoint restore).

        Dict insertion order determines final-dump order, and the policy
        state determines future victim choices, so both are restored
        exactly — this is what makes kill-and-resume bit-identical. The
        state lands in the scalar representation; the next batched call
        moves it into the kernel's arrays.
        """
        if len(state["ids"]) > self.num_entries:
            raise ConfigError(
                f"cache state holds {len(state['ids'])} entries, table has {self.num_entries}"
            )
        self._table = None
        self._restore_dict(state)

    def reset_stats(self) -> None:
        """Start a fresh statistics epoch (contents untouched; an
        attached eviction-trace ring keeps rolling across epochs)."""
        self.stats = CacheStats(trace=self.stats.trace)

    def iter_entries(self) -> Iterator[tuple[int, int]]:
        """Iterate resident ``(flow_id, count)`` pairs in insertion order
        (inspection only)."""
        ids, counts = self._entries()
        return zip(ids.tolist(), counts.tolist())

    def memory_bits(self, flow_id_bits: int = 64) -> int:
        """On-chip memory footprint: ``M * (id bits + ceil(log2 y) bits)``.

        Matches the paper's cache-size accounting
        ``M * log2(y) / (1024 * 8)`` KB when ``flow_id_bits = 0`` —
        the paper counts only the count field; pass 64 to include the
        ID field a real implementation stores.
        """
        count_bits = max(1, int(np.ceil(np.log2(self.entry_capacity + 1))))
        return self.num_entries * (flow_id_bits + count_bits)

    def collect(self, packets: npt.NDArray[np.uint64]) -> list[Eviction]:
        """Convenience: process a stream and return the eviction list
        (including the final dump). Test/analysis helper."""
        out: list[Eviction] = []

        def sink(fid: int, value: int, reason: EvictionReason) -> None:
            out.append(Eviction(fid, value, reason))

        self.process(packets, sink)
        self.dump(sink)
        return out
