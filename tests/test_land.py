"""The batched drain's compiled land against its numpy reference.

``Caesar._drain`` lands a drained eviction chunk on the SRAM in one
kernel call (``fc_land``): it memoizes the chunk's new flows, splits
every value over the flow's k counters and adds the parts with
saturation. The reference below is the numpy drain it replaced, kept
here as the oracle:

- ``BankedIndexMemo.indices_for`` resolves each row's counters;
- ``split_batch`` (random remainder) or ``split_evenly`` row by row
  (deterministic remainder) splits the values;
- ``BankedCounterArray.add_at`` scatter-adds the parts, clips every
  touched counter at the ceiling and re-pins stuck counters.

Counters, saturated and stuck-rejected mass, the split generator's
state and the memo's first-seen order must all match, over repeated and
unseen flows, values past the entry capacity, k from 1 to 8, banks of
one, odd and large size, saturating ceilings, bit flips above the
ceiling, stuck counters, a memo grown from capacity 1, and both the
banked and the tabulation indexer.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cachesim import kernel
from repro.core.caesar import Caesar
from repro.core.config import CaesarConfig
from repro.core.split import split_batch, split_evenly
from repro.errors import ConfigError
from repro.hashing.family import BankedIndexer, BankedIndexMemo
from repro.hashing.tabulation import TabulationIndexer
from repro.sram.counterarray import BankedCounterArray

ENTRY_CAPACITY = 8
CHUNK_SIZES = (0, 1, 2, 5, 64, 301)


def make_indexer(kind, k, bank_size, seed):
    if kind == "banked":
        return BankedIndexer(k, bank_size, seed=seed)
    return TabulationIndexer(k, bank_size, seed=seed)


class Reference:
    """The numpy drain: memo gather, split, then ``add_at``."""

    def __init__(self, config, indexer_kind):
        self.k = config.k
        self.remainder = config.remainder
        self.memo = BankedIndexMemo(
            make_indexer(indexer_kind, config.k, config.bank_size, config.seed),
            initial_capacity=1,
        )
        self.counters = BankedCounterArray(config.k, config.bank_size, config.counter_capacity)
        self.rng = np.random.default_rng(config.seed ^ 0x5011D)

    def drain(self, ids, values):
        idx = self.memo.indices_for(ids)
        if self.remainder == "random":
            parts = split_batch(values, self.k, self.rng)
        else:
            parts = np.array([split_evenly(int(v), self.k) for v in values], dtype=np.int64)
        self.counters.add_at(idx.ravel(), parts.ravel())


def batched(config, indexer_kind):
    """A batched Caesar whose memo starts at capacity 1."""
    caesar = Caesar(config)
    if indexer_kind != "banked":
        caesar.indexer = make_indexer(indexer_kind, config.k, config.bank_size, config.seed)
    caesar._memo = BankedIndexMemo(caesar.indexer, initial_capacity=1)
    return caesar


def drain(caesar, ids, values):
    caesar._drain(ids, values, np.zeros(len(ids), dtype=np.uint8))


def assert_same(caesar, ref):
    np.testing.assert_array_equal(caesar.counters.values, ref.counters.values)
    assert caesar.counters.saturated_mass == ref.counters.saturated_mass
    assert caesar.counters.stuck_lost_mass == ref.counters.stuck_lost_mass
    assert caesar._rng.bit_generator.state == ref.rng.bit_generator.state
    assert caesar._memo.flows().tolist() == ref.memo.flows().tolist()


def config_for(k, bank_size, capacity, remainder, seed):
    return CaesarConfig(
        cache_entries=16,
        entry_capacity=min(ENTRY_CAPACITY, capacity),
        k=k,
        bank_size=bank_size,
        counter_capacity=capacity,
        remainder=remainder,
        seed=seed,
    )


@st.composite
def chunks(draw, seed):
    """Drained-chunk-shaped rows: ids from a small pool (repeats within
    and across chunks) mixed with fresh 64-bit ids, from none to all of
    them, values from 0 to past the entry capacity with the odd large
    one."""
    rng = np.random.default_rng(seed)
    pool = rng.integers(0, 2**64, size=draw(st.integers(1, 40)), dtype=np.uint64)
    fresh = draw(st.sampled_from([0.0, 0.3, 1.0]))
    out = []
    for size in draw(st.lists(st.sampled_from(CHUNK_SIZES), min_size=1, max_size=5)):
        ids = np.where(
            rng.random(size) >= fresh,
            pool[rng.integers(0, len(pool), size=size)],
            rng.integers(0, 2**64, size=size, dtype=np.uint64),
        ).astype(np.uint64)
        values = rng.integers(0, 3 * ENTRY_CAPACITY + 2, size=size)
        values[rng.random(size) < 0.05] = rng.integers(1000, 100_000)
        flips = [
            (int(rng.integers(0, 2**62)), int(rng.integers(0, 64)))
            for _ in range(draw(st.integers(0, 2)))
        ]
        out.append((ids, values.astype(np.int64), flips))
    return out


class TestLandEqualsReference:
    @settings(max_examples=150, deadline=None)
    @given(
        k=st.integers(1, 8),
        bank_size=st.sampled_from([1, 7, 97, 4099]),
        capacity=st.sampled_from([1, 9, 60, 2**40 - 1]),
        remainder=st.sampled_from(["random", "even"]),
        indexer_kind=st.sampled_from(["banked", "tabulation"]),
        stuck=st.sampled_from([None, 0, "capacity", "above"]),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_counters_masses_rng_and_memo_match(
        self, k, bank_size, capacity, remainder, indexer_kind, stuck, seed, data
    ):
        config = config_for(k, bank_size, capacity, remainder, seed)
        caesar, ref = batched(config, indexer_kind), Reference(config, indexer_kind)
        total = k * bank_size
        if stuck is not None:
            value = {0: 0, "capacity": capacity, "above": capacity + 3}[stuck]
            idx = np.random.default_rng(seed).integers(0, total, size=3)
            for counters in (caesar.counters, ref.counters):
                counters.stick(idx, value)
        width = ref.counters.bits_per_counter
        seen = []
        for ids, values, flips in data.draw(chunks(seed)):
            for index, bit in flips:
                for counters in (caesar.counters, ref.counters):
                    counters.flip_bit(index % total, bit % width)
            drain(caesar, ids, values)
            ref.drain(ids, values)
            assert_same(caesar, ref)
            seen.append(ids)
        # The kernel's copy of the bank hash gave every flow the
        # indexer's counters.
        ids = np.concatenate(seen)
        np.testing.assert_array_equal(
            caesar._memo.indices_for(ids), caesar.indexer.indices(ids)
        )


class TestLandEdges:
    def test_zero_part_still_clips_a_flipped_counter(self):
        """A flip leaves counter 2 at 15 over a ceiling of 10; the next
        row reaches it only with a zero part, and the clip still takes
        the excess, once."""
        config = config_for(3, 1, 10, "even", 5)
        caesar, ref = batched(config, "banked"), Reference(config, "banked")
        for counters in (caesar.counters, ref.counters):
            for bit in range(4):
                counters.flip_bit(2, bit)
            assert counters.values.tolist() == [0, 0, 15]
        ids, values = np.array([77], dtype=np.uint64), np.array([1], dtype=np.int64)
        drain(caesar, ids, values)
        ref.drain(ids, values)
        assert caesar.counters.values.tolist() == [1, 0, 10]
        assert caesar.counters.saturated_mass == 5
        assert_same(caesar, ref)

    def test_excess_counted_once_per_counter(self):
        """Several rows push one counter over the ceiling: it is clipped
        once at the end, as ``add_at`` does."""
        config = config_for(2, 1, 10, "random", 3)
        caesar, ref = batched(config, "banked"), Reference(config, "banked")
        ids = np.array([1, 2, 1, 3], dtype=np.uint64)
        values = np.array([9, 7, 8, 5], dtype=np.int64)
        drain(caesar, ids, values)
        ref.drain(ids, values)
        assert caesar.counters.values.tolist() == [10, 10]
        assert caesar.counters.saturated_mass == sum(values) - 20
        assert_same(caesar, ref)

    def test_adds_wrap_like_numpy(self):
        config = config_for(1, 1, 2**63 - 1, "even", 2)
        caesar, ref = batched(config, "banked"), Reference(config, "banked")
        for counters in (caesar.counters, ref.counters):
            counters.restore_state({"values": [2**63 - 3], "saturated_mass": 0})
        ids, values = np.array([4, 4], dtype=np.uint64), np.array([2, 5], dtype=np.int64)
        drain(caesar, ids, values)
        ref.drain(ids, values)
        assert caesar.counters.values.tolist() == [-(2**63) + 4]
        assert_same(caesar, ref)

    @pytest.mark.parametrize("remainder", ["random", "even"])
    def test_negative_value_raises(self, remainder):
        caesar = batched(config_for(3, 97, 100, remainder, 1), "banked")
        state = caesar._rng.bit_generator.state
        with pytest.raises(ConfigError, match=">= 0"):
            drain(caesar, np.array([1, 2], dtype=np.uint64), np.array([4, -1], dtype=np.int64))
        assert caesar._rng.bit_generator.state == state
        assert caesar.counters.values.sum() == 0

    def test_memo_reserves_the_chunk_and_keeps_its_limit(self, monkeypatch):
        monkeypatch.setattr(kernel, "MAX_MEMO_FLOWS", 8)
        caesar = batched(config_for(3, 97, 100, "random", 1), "banked")
        drain(caesar, np.arange(8, dtype=np.uint64), np.full(8, 4, dtype=np.int64))
        assert len(caesar._memo) == 8
        with pytest.raises(ConfigError, match="at most"):
            drain(caesar, np.array([3, 8], dtype=np.uint64), np.array([1, 1], dtype=np.int64))
        assert caesar._memo.flows().tolist() == list(range(8))

    def test_short_values_refused_and_narrow_slots_widened(self):
        """The kernel reads values and slots through raw pointers."""
        ids = np.array([5, 6], dtype=np.uint64)
        values = np.array([4, 5], dtype=np.int64)  # one and two remainder units at k=3
        slots = np.array([2, 0, 1])
        landed = []
        for dtype in (np.int64, np.int32):
            memo = BankedIndexMemo(BankedIndexer(3, 97), initial_capacity=1)
            counters = np.zeros(3 * 97, dtype=np.int64)
            with pytest.raises(ValueError, match="align"):
                memo.land(ids, values[:1], slots.astype(dtype), counters, 100)
            assert counters.sum() == 0 and len(memo) == 0
            memo.land(ids, values, slots.astype(dtype), counters, 100)
            landed.append(counters)
        np.testing.assert_array_equal(landed[0], landed[1])
        assert landed[0].sum() == 9

    @pytest.mark.parametrize("indexer_kind", ["banked", "tabulation"])
    @pytest.mark.parametrize("k, bank_size", [(3, 128), (4, 48)])
    def test_indexer_must_match_the_counter_array(self, indexer_kind, k, bank_size):
        """The kernel indexes the counters and the remainder slots
        unchecked, so an indexer of another geometry is refused before
        the call: over more counters than the array holds, or over as
        many in banks of another count (4 x 48 against 3 x 64)."""
        caesar = batched(config_for(3, 64, 100, "random", 1), indexer_kind)
        caesar.indexer = make_indexer(indexer_kind, k, bank_size, 1)
        with pytest.raises(ConfigError, match=f"maps {k} banks of {bank_size} counters"):
            drain(caesar, np.array([1], dtype=np.uint64), np.array([5], dtype=np.int64))
        assert caesar.counters.values.sum() == 0
