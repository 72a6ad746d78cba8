"""Unit tests for hash families, the banked indexer and the index memo."""

import dataclasses
import pickle

import numpy as np
import pytest

from repro.cachesim import kernel
from repro.core.caesar import Caesar
from repro.core.config import CaesarConfig
from repro.errors import ConfigError
from repro.hashing.family import BankedIndexer, BankedIndexMemo, HashFamily
from repro.hashing.tabulation import TabulationIndexer


class TestHashFamily:
    def test_rejects_bad_k(self):
        with pytest.raises(ConfigError):
            HashFamily(0)

    def test_functions_are_distinct(self):
        fam = HashFamily(4, seed=1)
        outs = {fam.hash_one(r, 42) for r in range(4)}
        assert len(outs) == 4

    def test_deterministic_across_instances(self):
        a = HashFamily(3, seed=9)
        b = HashFamily(3, seed=9)
        assert [a.hash_one(r, 5) for r in range(3)] == [b.hash_one(r, 5) for r in range(3)]

    def test_seed_changes_family(self):
        a = HashFamily(3, seed=1)
        b = HashFamily(3, seed=2)
        assert a.hash_one(0, 5) != b.hash_one(0, 5)

    def test_hash_array_matches_scalar(self):
        fam = HashFamily(3, seed=11)
        xs = np.array([1, 2, 2**63], dtype=np.uint64)
        for r in range(3):
            arr = fam.hash_array(r, xs)
            for i, x in enumerate([1, 2, 2**63]):
                assert int(arr[i]) == fam.hash_one(r, x)

    def test_hash_all_shape_and_values(self):
        fam = HashFamily(3, seed=11)
        xs = np.array([10, 20], dtype=np.uint64)
        all_h = fam.hash_all(xs)
        assert all_h.shape == (2, 3)
        for i, x in enumerate([10, 20]):
            for r in range(3):
                assert int(all_h[i, r]) == fam.hash_one(r, x)


class TestBankedIndexer:
    def test_rejects_bad_bank_size(self):
        with pytest.raises(ConfigError):
            BankedIndexer(3, 0)

    def test_indices_in_correct_banks(self):
        idx = BankedIndexer(3, 100, seed=5)
        rows = idx.indices(np.arange(50, dtype=np.uint64))
        for r in range(3):
            assert (rows[:, r] >= r * 100).all()
            assert (rows[:, r] < (r + 1) * 100).all()

    def test_k_counters_always_distinct(self):
        idx = BankedIndexer(4, 10, seed=5)  # tiny banks to stress it
        rows = idx.indices(np.arange(200, dtype=np.uint64))
        for row in rows:
            assert len(set(row.tolist())) == 4  # disjoint banks guarantee it

    def test_indices_one_matches_batch(self):
        idx = BankedIndexer(3, 64, seed=8)
        batch = idx.indices(np.array([42, 77], dtype=np.uint64))
        np.testing.assert_array_equal(idx.indices_one(42), batch[0])
        np.testing.assert_array_equal(idx.indices_one(77), batch[1])

    def test_fixed_mapping_per_flow(self):
        # Section 3.1: each flow maps to k *fixed* counters forever.
        idx = BankedIndexer(3, 64, seed=8)
        a = idx.indices_one(123)
        b = idx.indices_one(123)
        np.testing.assert_array_equal(a, b)

    def test_total_counters(self):
        idx = BankedIndexer(5, 7)
        assert idx.total_counters == 35

    def test_bank_occupancy_roughly_uniform(self):
        idx = BankedIndexer(1, 32, seed=3)
        rows = idx.indices(np.arange(32000, dtype=np.uint64))
        counts = np.bincount(rows[:, 0], minlength=32)
        assert counts.min() > 700 and counts.max() < 1300


def _chunks(seed, num_chunks=30, universe=400):
    """Drained-chunk-shaped id batches: repeats within and across
    chunks, some empty."""
    rng = np.random.default_rng(seed)
    return [
        rng.integers(0, universe, size=rng.integers(0, 200)).astype(np.uint64)
        for _ in range(num_chunks)
    ]


class TestBankedIndexMemo:
    @pytest.mark.parametrize("make", [BankedIndexer, TabulationIndexer])
    def test_rows_equal_indexer(self, make):
        indexer = make(3, 97, seed=4)
        memo = BankedIndexMemo(indexer)
        for ids in _chunks(1):
            np.testing.assert_array_equal(memo.indices_for(ids), indexer.indices(ids))

    def test_flows_in_first_seen_order(self):
        memo = BankedIndexMemo(BankedIndexer(3, 97, seed=4))
        chunks = _chunks(2)
        first_seen: dict[int, None] = {}
        for ids in chunks:
            memo.indices_for(ids)
            first_seen.update(dict.fromkeys(ids.tolist()))
        assert memo.flows().tolist() == list(first_seen)
        assert len(memo) == len(first_seen)

    def test_growth_from_one_keeps_every_row(self):
        indexer = BankedIndexer(3, 1009, seed=6)
        memo = BankedIndexMemo(indexer, initial_capacity=1)
        ids = np.random.default_rng(3).permutation(5000).astype(np.uint64) * 7919
        for start in range(0, len(ids), 37):  # ~13 doublings of both arrays
            memo.indices_for(ids[start : start + 37])
        assert memo.flows().tolist() == ids.tolist()
        np.testing.assert_array_equal(memo.indices_for(ids[::-1]), indexer.indices(ids[::-1]))
        assert len(memo) == len(ids)

    @pytest.mark.parametrize(
        "bad", [[9, 10, 9], [4, 11], [2]], ids=["repeated", "seen", "all-seen"]
    )
    def test_preload_rejects_and_leaves_memo_unchanged(self, bad):
        indexer = BankedIndexer(3, 97, seed=4)
        memo = BankedIndexMemo(indexer, initial_capacity=1)
        memo.preload(np.array([5, 2, 4], dtype=np.uint64))
        with pytest.raises(ConfigError):
            memo.preload(np.array(bad, dtype=np.uint64))
        assert memo.flows().tolist() == [5, 2, 4]
        ids = np.array([4, 9, 5, 2], dtype=np.uint64)
        np.testing.assert_array_equal(memo.indices_for(ids), indexer.indices(ids))
        assert memo.flows().tolist() == [5, 2, 4, 9]

    def test_refuses_to_outgrow_its_index(self, monkeypatch):
        monkeypatch.setattr(kernel, "MAX_MEMO_FLOWS", 8)
        memo = BankedIndexMemo(BankedIndexer(3, 97, seed=4), initial_capacity=1)
        memo.indices_for(np.arange(8, dtype=np.uint64))
        with pytest.raises(ConfigError, match="at most"):
            memo.indices_for(np.array([3, 8], dtype=np.uint64))
        assert memo.flows().tolist() == list(range(8))

    def test_construction_allocates_nothing(self, monkeypatch):
        monkeypatch.setattr(kernel, "_LIB", None)
        memo = BankedIndexMemo(BankedIndexer(3, 97, seed=4))
        assert len(memo) == 0 and memo.flows().tolist() == []
        memo.preload(np.empty(0, dtype=np.uint64))
        assert pickle.loads(pickle.dumps(memo)).flows().tolist() == []


def _caesar_config(replacement):
    return CaesarConfig(
        cache_entries=32,
        entry_capacity=6,
        k=3,
        bank_size=64,
        counter_capacity=50,  # saturates, so add_at's saturation path runs
        replacement=replacement,
        seed=0xFACE,
    )


@pytest.mark.parametrize("replacement", ["lru", "random"])
def test_batched_memo_order_matches_scalar(replacement):
    packets = np.random.default_rng(8).integers(0, 150, size=4000).astype(np.uint64)
    runs = {}
    for engine in ("scalar", "batched"):
        caesar = Caesar(
            dataclasses.replace(_caesar_config(replacement), engine=engine),
            buffer_capacity=61,
        )
        caesar.process(packets)
        caesar.finalize()
        runs[engine] = caesar
    scalar, batched = runs["scalar"], runs["batched"]
    assert scalar.counters.saturated_mass > 0
    np.testing.assert_array_equal(scalar.flows_seen(), batched.flows_seen())
    np.testing.assert_array_equal(scalar.counters.values, batched.counters.values)
    assert scalar.checkpoint().digest == batched.checkpoint().digest


@pytest.mark.parametrize("replacement", ["lru", "random"])
def test_pickled_caesar_resumes_identically(replacement):
    packets = np.random.default_rng(9).integers(0, 150, size=4000).astype(np.uint64)
    straight = Caesar(_caesar_config(replacement), buffer_capacity=61)
    straight.process(packets)
    copied = Caesar(_caesar_config(replacement), buffer_capacity=61)
    copied.process(packets[:1700])
    copied = pickle.loads(pickle.dumps(copied))
    copied.process(packets[1700:])
    for caesar in (straight, copied):
        caesar.finalize()
    np.testing.assert_array_equal(copied.flows_seen(), straight.flows_seen())
    np.testing.assert_array_equal(copied.counters.values, straight.counters.values)
    assert copied.counters.saturated_mass == straight.counters.saturated_mass
    assert copied.cache.stats == straight.cache.stats
    assert copied._rng.bit_generator.state == straight._rng.bit_generator.state
    assert copied.checkpoint().digest == straight.checkpoint().digest
