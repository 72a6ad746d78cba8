"""Tests for sharded (multi-queue) CAESAR."""

import numpy as np
import pytest

from repro.analysis.metrics import top_flow_are
from repro.core.caesar import Caesar
from repro.core.config import CaesarConfig
from repro.core.sharded import ShardedCaesar
from repro.errors import ConfigError, QueryError


def make_config(trace, **overrides):
    defaults = dict(
        cache_entries=max(16, trace.num_flows // 4),
        entry_capacity=max(2, int(2 * trace.mean_flow_size)),
        k=3,
        bank_size=max(128, trace.num_flows),
        seed=31,
    )
    defaults.update(overrides)
    return CaesarConfig(**defaults)


class TestPartitioning:
    def test_shard_assignment_deterministic(self, tiny_trace):
        sc = ShardedCaesar(make_config(tiny_trace), num_shards=4)
        a = sc.shard_of(tiny_trace.flows.ids)
        b = sc.shard_of(tiny_trace.flows.ids)
        np.testing.assert_array_equal(a, b)
        assert a.min() >= 0 and a.max() < 4

    def test_shards_roughly_balanced(self, small_trace):
        sc = ShardedCaesar(make_config(small_trace), num_shards=4)
        owners = sc.shard_of(small_trace.flows.ids)
        counts = np.bincount(owners, minlength=4)
        assert counts.min() > 0.15 * small_trace.num_flows

    def test_budget_division(self, tiny_trace):
        cfg = make_config(tiny_trace, bank_size=1024, cache_entries=256)
        sc = ShardedCaesar(cfg, num_shards=4)
        assert sc.shard_config.bank_size == 256
        assert sc.shard_config.cache_entries == 64
        sc2 = ShardedCaesar(cfg, num_shards=4, divide_budget=False)
        assert sc2.shard_config.bank_size == 1024

    @pytest.mark.parametrize("extra", [-1, 1])
    def test_rejects_misaligned_lengths(self, tiny_trace, extra):
        """Short and long byte lengths both fail before any shard sees
        a packet."""
        sc = ShardedCaesar(make_config(tiny_trace), num_shards=2)
        packets = tiny_trace.packets[:1000]
        with pytest.raises(ConfigError, match="align"):
            sc.process(packets, np.full(1000 + extra, 64, dtype=np.int64))
        assert all(shard.num_packets == 0 for shard in sc.shards)

    def test_one_shard_takes_the_chunk_as_is(self, tiny_trace, monkeypatch):
        """One shard gets the caller's array with no partition copy, and
        misaligned lengths still fail before it sees a packet."""
        sc = ShardedCaesar(make_config(tiny_trace), num_shards=1)
        shard, seen = sc.shards[0], []
        process = shard.process
        monkeypatch.setattr(shard, "process", lambda p, *a: (seen.append(p), process(p, *a)))
        packets = tiny_trace.packets[:1000]
        sc.process(packets)
        assert np.shares_memory(seen[0], packets)
        for extra in (-1, 1):
            with pytest.raises(ConfigError, match="align"):
                sc.process(packets, np.full(1000 + extra, 64, dtype=np.int64))
        assert shard.num_packets == 1000

    def test_rejects_zero_shards(self, tiny_trace):
        with pytest.raises(ConfigError):
            ShardedCaesar(make_config(tiny_trace), num_shards=0)


class TestMeasurement:
    def test_mass_conserved_across_shards(self, tiny_trace):
        sc = ShardedCaesar(make_config(tiny_trace), num_shards=3)
        sc.process(tiny_trace.packets)
        sc.finalize()
        total = sum(s.counters.total_mass for s in sc.shards)
        assert total == tiny_trace.num_packets
        assert sc.num_packets == tiny_trace.num_packets
        assert sc.recorded_mass == tiny_trace.num_packets

    def test_estimates_routed_correctly(self, small_trace):
        sc = ShardedCaesar(
            make_config(small_trace), num_shards=4, divide_budget=False
        )
        sc.process(small_trace.packets)
        sc.finalize()
        est = sc.estimate(small_trace.flows.ids)
        assert top_flow_are(est, small_trace.flows.sizes, top=20) < 0.35

    def test_query_before_finalize_raises(self, tiny_trace):
        sc = ShardedCaesar(make_config(tiny_trace), num_shards=2)
        sc.process(tiny_trace.packets)
        with pytest.raises(QueryError):
            sc.estimate(tiny_trace.flows.ids)

    def test_process_after_finalize_raises(self, tiny_trace):
        sc = ShardedCaesar(make_config(tiny_trace), num_shards=2)
        sc.process(tiny_trace.packets)
        sc.finalize()
        with pytest.raises(QueryError):
            sc.process(tiny_trace.packets)

    def test_single_shard_matches_plain_caesar(self, tiny_trace):
        cfg = make_config(tiny_trace)
        sc = ShardedCaesar(cfg, num_shards=1, divide_budget=False)
        sc.process(tiny_trace.packets)
        sc.finalize()
        plain = Caesar(CaesarConfig(
            cache_entries=cfg.cache_entries, entry_capacity=cfg.entry_capacity,
            k=cfg.k, bank_size=cfg.bank_size, seed=cfg.seed,
        ))
        plain.process(tiny_trace.packets)
        plain.finalize()
        np.testing.assert_allclose(
            sc.estimate(tiny_trace.flows.ids),
            plain.estimate(tiny_trace.flows.ids),
        )

    def test_process_stream_matches_one_shot(self, tiny_trace):
        """Chunked streaming ingest is bit-identical to one-shot
        process(), whatever the chunk size (docs/runtime.md)."""
        cfg = make_config(tiny_trace)
        one_shot = ShardedCaesar(cfg, num_shards=3)
        one_shot.process(tiny_trace.packets)
        one_shot.finalize()
        for chunk_packets in (777, 4096):
            streamed = ShardedCaesar(cfg, num_shards=3)
            streamed.process_stream(tiny_trace.packets, chunk_packets=chunk_packets)
            streamed.finalize()
            np.testing.assert_array_equal(
                one_shot.estimate(tiny_trace.flows.ids),
                streamed.estimate(tiny_trace.flows.ids),
            )
            for a, b in zip(one_shot.shards, streamed.shards):
                assert a.checkpoint().digest == b.checkpoint().digest

    def test_process_stream_accepts_iterables(self, tiny_trace):
        cfg = make_config(tiny_trace)
        a = ShardedCaesar(cfg, num_shards=2)
        a.process(tiny_trace.packets)
        a.finalize()
        pieces = np.array_split(tiny_trace.packets, 5)
        b = ShardedCaesar(cfg, num_shards=2)
        b.process_stream(iter(pieces))
        b.finalize()
        np.testing.assert_array_equal(
            a.estimate(tiny_trace.flows.ids), b.estimate(tiny_trace.flows.ids)
        )

    def test_process_stream_after_finalize_raises(self, tiny_trace):
        sc = ShardedCaesar(make_config(tiny_trace), num_shards=2)
        sc.process(tiny_trace.packets)
        sc.finalize()
        with pytest.raises(QueryError):
            sc.process_stream(tiny_trace.packets)

    def test_volume_through_shards(self, tiny_trace):
        from repro.traffic.lengths import constant_lengths

        cfg = make_config(tiny_trace, entry_capacity=10_000, counter_capacity=2**40)
        sc = ShardedCaesar(cfg, num_shards=2)
        lengths = constant_lengths(tiny_trace.num_packets, 100)
        sc.process(tiny_trace.packets, lengths)
        sc.finalize()
        assert sc.recorded_mass == 100 * tiny_trace.num_packets
