"""Odds-and-ends coverage: scalar paths and boundary conditions not
exercised by the main suites."""

import numpy as np
import pytest

from repro.baselines.compression.base import CompressedCounterArray
from repro.baselines.compression.disco import DiscoCurve
from repro.cachesim.base import CacheStats, EvictionReason
from repro.core.config import CaesarConfig
from repro.core.epochs import EpochalCaesar
from repro.memmodel.technologies import LatencyModel


class TestCompressedCounterScalarPaths:
    def test_increment_advances_probabilistically(self):
        curve = DiscoCurve(2.0, 100, 10_000)
        arr = CompressedCounterArray(curve, 1, 100, seed=5)
        for _ in range(200):
            arr.increment(0)
        assert 0 < arr.values[0] <= 100

    def test_increment_at_capacity_counts_saturation(self):
        curve = DiscoCurve(2.0, 4, 100)
        arr = CompressedCounterArray(curve, 1, 4, seed=5)
        arr._values[0] = 4
        arr.increment(0)
        assert arr.saturated_updates == 1
        assert arr.values[0] == 4

    def test_increment_batch_respects_capacity(self):
        curve = DiscoCurve(2.0, 8, 500)
        arr = CompressedCounterArray(curve, 2, 8, seed=5)
        arr.increment_batch(np.zeros(5000, dtype=np.int64))
        assert arr.values[0] <= 8
        assert arr.values[1] == 0

    def test_estimate_vectorized(self):
        curve = DiscoCurve(2.0, 100, 10_000)
        arr = CompressedCounterArray(curve, 4, 100, seed=5)
        arr._values[:] = [0, 10, 50, 100]
        est = arr.estimate(np.array([0, 1, 2, 3]))
        assert est[0] == 0.0
        assert est[3] == pytest.approx(10_000)
        assert np.all(np.diff(est) > 0)


class TestCacheStats:
    def test_hit_rate_empty(self):
        assert CacheStats().hit_rate == 0.0

    def test_record_eviction_histogram(self):
        s = CacheStats()
        s.record_eviction(5, EvictionReason.OVERFLOW)
        s.record_eviction(5, EvictionReason.REPLACEMENT)
        s.record_eviction(2, EvictionReason.REPLACEMENT)
        assert s.eviction_value_counts == {5: 2, 2: 1}
        assert s.total_evictions == 3
        assert s.evicted_packets == 12

    @pytest.mark.parametrize(
        "high, sorts", [(55, 0), (16 * 1500, 3)], ids=["unit-bincount", "bytes-unique"]
    )
    def test_record_batch_histogram_matches_unique(self, monkeypatch, high, sorts):
        """Unit-weight chunks (no value above ``y``) are counted with
        ``np.bincount``, byte-weight chunks with ``np.unique``; both
        give ``np.unique``'s keys, counts and insertion order."""
        rng = np.random.default_rng(3)
        chunks = [rng.integers(0, high, size=n) for n in (4096, 37, 4096)]
        expected: dict[int, int] = {}
        for values in chunks:
            uniq, counts = np.unique(values, return_counts=True)
            for v, c in zip(uniq.tolist(), counts.tolist()):
                expected[v] = expected.get(v, 0) + c
        real_unique, calls = np.unique, []

        def counting_unique(*args, **kwargs):
            calls.append(1)
            return real_unique(*args, **kwargs)

        monkeypatch.setattr(np, "unique", counting_unique)
        s = CacheStats()
        for values in chunks:
            s.record_batch(values, np.zeros(len(values), dtype=np.uint8))
        assert len(calls) == sorts
        assert list(s.eviction_value_counts.items()) == list(expected.items())
        assert s.evicted_packets == sum(int(v.sum()) for v in chunks)


class TestLatencyBoundaries:
    def test_loss_zero_at_equal_speed(self):
        lat = LatencyModel()
        assert lat.loss_rate_at_line_rate(lat.packet_interarrival_ns) == 0.0

    def test_loss_approaches_one(self):
        lat = LatencyModel()
        assert lat.loss_rate_at_line_rate(1e9) > 0.999999


class TestEpochEdgeCases:
    def test_live_query_on_untouched_epoch(self):
        ec = EpochalCaesar(
            CaesarConfig(cache_entries=8, entry_capacity=8, k=3, bank_size=32)
        )
        est = ec.estimate_current(np.array([1, 2], dtype=np.uint64))
        np.testing.assert_allclose(est, 0.0)

    def test_empty_epoch_closes_cleanly(self):
        ec = EpochalCaesar(
            CaesarConfig(cache_entries=8, entry_capacity=8, k=3, bank_size=32)
        )
        record = ec.close_epoch()
        assert record.num_packets == 0
        assert record.counter_values.sum() == 0
        est = ec.estimate(0, np.array([1], dtype=np.uint64))
        assert est[0] == pytest.approx(0.0)


class TestConfigDescribeAndRepr:
    def test_describe_round_trips_fields(self):
        cfg = CaesarConfig(
            cache_entries=7, entry_capacity=9, k=4, bank_size=11,
            counter_capacity=255, replacement="random",
        )
        text = cfg.describe()
        for fragment in ("M=7", "y=9", "k=4", "L=11", "l=255", "random"):
            assert fragment in text

    def test_config_is_frozen(self):
        cfg = CaesarConfig(cache_entries=7, entry_capacity=9)
        with pytest.raises(Exception):
            cfg.k = 5

    def test_config_hashable_for_caching(self):
        a = CaesarConfig(cache_entries=7, entry_capacity=9)
        b = CaesarConfig(cache_entries=7, entry_capacity=9)
        assert a == b
        assert len({a, b}) == 1
