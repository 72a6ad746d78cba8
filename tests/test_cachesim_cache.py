"""Unit tests for the on-chip FlowCache."""

import numpy as np
import pytest

from repro.cachesim.base import EvictionReason
from repro.cachesim.cache import FlowCache, make_policy
from repro.errors import ConfigError


def collecting_sink(out):
    def sink(fid, value, reason):
        out.append((fid, value, reason))

    return sink


class TestConstruction:
    def test_rejects_bad_params(self):
        with pytest.raises(ConfigError):
            FlowCache(0, 10)
        with pytest.raises(ConfigError):
            FlowCache(10, 0)
        with pytest.raises(ConfigError):
            FlowCache(10, 10, policy="fifo")

    def test_make_policy(self):
        from repro.cachesim.lru import LRUPolicy
        from repro.cachesim.random_replace import RandomPolicy

        assert isinstance(make_policy("lru"), LRUPolicy)
        assert isinstance(make_policy("random"), RandomPolicy)


class TestHitMissAccounting:
    def test_hits_and_misses(self):
        cache = FlowCache(4, 100)
        out = []
        stream = np.array([1, 1, 2, 1, 2, 3], dtype=np.uint64)
        cache.process(stream, collecting_sink(out))
        assert cache.stats.accesses == 6
        assert cache.stats.misses == 3
        assert cache.stats.hits == 3
        assert cache.stats.hit_rate == pytest.approx(0.5)
        assert out == []  # no evictions: table never filled, no overflow

    def test_resident_counts(self):
        cache = FlowCache(4, 100)
        out = []
        cache.process(np.array([1, 1, 1, 2], dtype=np.uint64), collecting_sink(out))
        assert cache.resident_count(1) == 3
        assert cache.resident_count(2) == 1
        assert 1 in cache and 3 not in cache
        assert len(cache) == 2


class TestOverflowEviction:
    def test_overflow_at_capacity(self):
        cache = FlowCache(4, entry_capacity=3)
        out = []
        cache.process(np.array([7] * 7, dtype=np.uint64), collecting_sink(out))
        # Counts: 1,2,3->evict(3),1,2,3->evict(3),1
        assert [(fid, v) for fid, v, _ in out] == [(7, 3), (7, 3)]
        assert all(r is EvictionReason.OVERFLOW for _, _, r in out)
        assert cache.resident_count(7) == 1
        assert cache.stats.overflow_evictions == 2

    def test_flow_stays_resident_after_overflow(self):
        cache = FlowCache(4, entry_capacity=2)
        out = []
        cache.process(np.array([9, 9], dtype=np.uint64), collecting_sink(out))
        assert 9 in cache
        assert cache.resident_count(9) == 0


class TestReplacementEviction:
    def test_lru_victim_flushed(self):
        cache = FlowCache(2, 100, policy="lru")
        out = []
        cache.process(np.array([1, 1, 2, 3], dtype=np.uint64), collecting_sink(out))
        assert out == [(1, 2, EvictionReason.REPLACEMENT)]
        assert 1 not in cache and 2 in cache and 3 in cache

    def test_replacement_counts(self):
        cache = FlowCache(1, 100)
        out = []
        cache.process(np.array([1, 2, 3, 4], dtype=np.uint64), collecting_sink(out))
        assert cache.stats.replacement_evictions == 3
        assert [v for _, v, _ in out] == [1, 1, 1]

    def test_zero_value_victim_not_emitted(self):
        # A flow that just overflowed (count reset to 0) can be chosen
        # as victim; its zero value must not reach the sink.
        cache = FlowCache(1, entry_capacity=2)
        out = []
        cache.process(np.array([5, 5, 6], dtype=np.uint64), collecting_sink(out))
        values = [v for _, v, _ in out]
        assert 0 not in values
        assert cache.stats.replacement_evictions == 0  # nothing flushed for victim 5


class TestDump:
    def test_dump_flushes_everything(self):
        cache = FlowCache(8, 100)
        out = []
        cache.process(np.array([1, 1, 2], dtype=np.uint64), collecting_sink(out))
        cache.dump(collecting_sink(out))
        assert sorted((fid, v) for fid, v, _ in out) == [(1, 2), (2, 1)]
        assert all(r is EvictionReason.FINAL_DUMP for _, _, r in out)
        assert len(cache) == 0
        assert cache.stats.dumped_packets == 3

    def test_dump_empty_cache(self):
        cache = FlowCache(4, 10)
        out = []
        cache.dump(collecting_sink(out))
        assert out == []


class TestConservation:
    @pytest.mark.parametrize("policy", ["lru", "random"])
    def test_no_packet_lost(self, policy, tiny_trace):
        """Core invariant: every packet ends up either evicted or dumped."""
        cache = FlowCache(64, 16, policy=policy, seed=3)
        total = []
        cache.process(tiny_trace.packets, collecting_sink(total))
        cache.dump(collecting_sink(total))
        assert sum(v for _, v, _ in total) == tiny_trace.num_packets

    @pytest.mark.parametrize("policy", ["lru", "random"])
    def test_per_flow_conservation(self, policy, tiny_trace):
        cache = FlowCache(32, 8, policy=policy, seed=4)
        evs = cache.collect(tiny_trace.packets)
        per_flow: dict[int, int] = {}
        for e in evs:
            per_flow[e.flow_id] = per_flow.get(e.flow_id, 0) + e.value
        for fid, size in zip(tiny_trace.flows.ids.tolist(), tiny_trace.flows.sizes.tolist()):
            assert per_flow.get(fid, 0) == size


class TestMemoryAccounting:
    def test_memory_bits(self):
        cache = FlowCache(1000, 63)
        assert cache.memory_bits(flow_id_bits=0) == 1000 * 6
        assert cache.memory_bits(flow_id_bits=64) == 1000 * 70

    def test_eviction_value_histogram(self):
        cache = FlowCache(1, entry_capacity=5)
        out = []
        cache.process(np.array([1, 2, 1, 2], dtype=np.uint64), collecting_sink(out))
        assert cache.stats.eviction_value_counts == {1: 3}


class TestFinalizeFlushesPendingChunk:
    """Regression: finalize must deliver any chunk still sitting in the
    eviction buffer even when the *final* contribution is empty-sized —
    a zero-packet stream, a cache already emptied, or a dump that adds
    zero rows on top of pending residue."""

    def _chunks(self):
        chunks = []

        def drain(ids, values, reasons):
            chunks.append(
                list(zip(ids.tolist(), values.tolist(), reasons.tolist()))
            )

        return chunks, drain

    def test_flush_pending_empty_buffer_is_noop(self):
        from repro.cachesim.buffer import EvictionBuffer

        cache = FlowCache(4, 10)
        chunks, drain = self._chunks()
        cache.flush_pending(EvictionBuffer(8), drain)
        assert chunks == []

    def test_dump_into_delivers_pending_residue_first(self):
        from repro.cachesim.base import OVERFLOW_CODE
        from repro.cachesim.buffer import EvictionBuffer

        cache = FlowCache(4, 10)
        buffer = EvictionBuffer(8)
        # Residue left pending by an earlier (partial) fill.
        buffer.append(7, 3, OVERFLOW_CODE)
        chunks, drain = self._chunks()
        cache.dump_into(buffer, drain)  # cache is empty: dump adds 0 rows
        assert chunks == [[(7, 3, OVERFLOW_CODE)]]
        assert buffer.length == 0

    def test_dump_into_pending_chunk_precedes_dump_rows(self):
        from repro.cachesim.base import FINAL_DUMP_CODE, OVERFLOW_CODE
        from repro.cachesim.buffer import EvictionBuffer

        cache = FlowCache(4, 10)
        buffer = EvictionBuffer(8)
        cache.process_into(
            np.array([1, 1, 1], dtype=np.uint64),
            buffer,
            lambda i, v, r: None,
        )
        assert len(cache) == 1  # flow 1 resident with count 3
        buffer.append(9, 2, OVERFLOW_CODE)  # pending residue
        chunks, drain = self._chunks()
        cache.dump_into(buffer, drain)
        assert chunks == [[(9, 2, OVERFLOW_CODE)], [(1, 3, FINAL_DUMP_CODE)]]

    @pytest.mark.parametrize("engine", ["scalar", "batched"])
    def test_caesar_finalize_on_zero_packet_stream(self, engine):
        from repro.core.caesar import Caesar
        from repro.core.config import CaesarConfig

        caesar = Caesar(
            CaesarConfig(
                cache_entries=8, entry_capacity=4, k=3, bank_size=32, engine=engine
            )
        )
        caesar.process(np.array([], dtype=np.uint64))
        caesar.finalize()
        ids = np.array([1, 2, 3], dtype=np.uint64)
        assert caesar.estimate(ids, "csm") == pytest.approx([0.0, 0.0, 0.0])
        stats = caesar.cache.stats
        assert (stats.accesses, stats.evicted_packets, stats.dumped_packets) == (0, 0, 0)

    @pytest.mark.parametrize("engine", ["scalar", "batched"])
    def test_case_finalize_on_zero_packet_stream(self, engine):
        from repro.baselines.case import Case, CaseConfig

        case = Case(
            CaseConfig(
                cache_entries=8,
                entry_capacity=4,
                num_counters=32,
                counter_capacity=255,
                max_value=100.0,
                engine=engine,
            )
        )
        case.finalize()
        assert case.estimate(np.array([5], dtype=np.uint64)) == pytest.approx([0.0])

    @pytest.mark.parametrize("engine", ["scalar", "batched"])
    def test_caesar_double_finalize_after_work_is_stable(self, engine, tiny_trace):
        from repro.core.caesar import Caesar
        from repro.core.config import CaesarConfig

        caesar = Caesar(
            CaesarConfig(
                cache_entries=16, entry_capacity=4, k=3, bank_size=64, engine=engine
            )
        )
        caesar.process(tiny_trace.packets[:1000])
        caesar.finalize()
        before = caesar.counters.values.copy()
        caesar.finalize()  # idempotent: no residue delivered twice
        np.testing.assert_array_equal(caesar.counters.values, before)
