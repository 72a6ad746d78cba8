"""Unit tests for the banked counter array and memory layout helpers."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.sram.counterarray import BankedCounterArray
from repro.sram.layout import (
    bank_size_for_budget,
    cache_entries_for_budget,
    cache_kilobytes,
    counter_bits,
    sram_kilobytes,
)


class TestBankedCounterArray:
    def test_construction_validation(self):
        for bad in [(0, 1, 1), (1, 0, 1), (1, 1, 0)]:
            with pytest.raises(ConfigError):
                BankedCounterArray(*bad)

    def test_add_and_gather(self):
        arr = BankedCounterArray(2, 4, 1000)
        arr.add_at(np.array([0, 5, 5]), np.array([3, 1, 2]))
        assert arr.values[0] == 3
        assert arr.values[5] == 3
        assert arr.gather(np.array([[0, 5]])).tolist() == [[3, 3]]

    def test_duplicate_indices_accumulate(self):
        arr = BankedCounterArray(1, 4, 1000)
        arr.add_at(np.array([2, 2, 2]), 1)
        assert arr.values[2] == 3

    def test_add_one(self):
        arr = BankedCounterArray(1, 4, 10)
        arr.add_one(1, 7)
        arr.add_one(1, 2)
        assert arr.values[1] == 9

    def test_saturation(self):
        arr = BankedCounterArray(1, 2, counter_capacity=10)
        arr.add_at(np.array([0]), np.array([25]))
        assert arr.values[0] == 10
        assert arr.saturated_mass == 15
        assert arr.saturated_counters == 1
        arr.add_one(1, 12)
        assert arr.values[1] == 10
        assert arr.saturated_mass == 17

    def test_repeated_index_excess_counted_once(self):
        arr = BankedCounterArray(1, 8, counter_capacity=10)
        arr.add_at(np.array([3, 3, 3]), 4)
        assert arr.values[3] == 10
        assert arr.saturated_mass == 2

    def test_over_capacity_counter_outside_the_call_left_alone(self):
        arr = BankedCounterArray(1, 8, counter_capacity=10)
        arr.add_at(np.array([0]), np.array([7]))
        arr.flip_bit(0, 3)  # 7 -> 15, above capacity
        arr.add_at(np.array([1, 2, 2]), np.array([4, 9, 3]))
        assert arr.values.tolist()[:3] == [15, 4, 10]
        assert arr.saturated_mass == 2

    def test_stuck_counter_rejects_its_share(self):
        arr = BankedCounterArray(1, 8, counter_capacity=10)
        arr.stick(np.array([2]), 5)
        arr.add_at(np.array([2, 3, 2, 4]), np.array([1, 4, 2, 12]))
        assert arr.values.tolist()[2:5] == [5, 4, 10]
        assert arr.stuck_lost_mass == 3
        assert arr.saturated_mass == 2

    def test_total_mass(self):
        arr = BankedCounterArray(3, 5, 1000)
        arr.add_at(np.array([0, 7, 14]), np.array([1, 2, 3]))
        assert arr.total_mass == 6

    def test_bank_views(self):
        arr = BankedCounterArray(2, 3, 100)
        arr.add_at(np.array([4]), np.array([9]))
        assert arr.bank(1).tolist() == [0, 9, 0]
        with pytest.raises(ConfigError):
            arr.bank(2)

    def test_values_read_only(self):
        arr = BankedCounterArray(1, 2, 10)
        with pytest.raises(ValueError):
            arr.values[0] = 5

    def test_reset(self):
        arr = BankedCounterArray(1, 2, 5)
        arr.add_at(np.array([0]), np.array([100]))
        arr.reset()
        assert arr.total_mass == 0
        assert arr.saturated_mass == 0

    def test_memory_accounting(self):
        arr = BankedCounterArray(3, 1000, counter_capacity=2**20 - 1)
        assert arr.bits_per_counter == 20
        assert arr.memory_bits == 3 * 1000 * 20
        assert arr.memory_kilobytes == pytest.approx(3 * 1000 * 20 / 8192)


class TestLayoutHelpers:
    def test_counter_bits(self):
        assert counter_bits(1) == 1
        assert counter_bits(2) == 2
        assert counter_bits(255) == 8
        assert counter_bits(256) == 9
        assert counter_bits(2**20 - 1) == 20
        with pytest.raises(ConfigError):
            counter_bits(0)

    def test_sram_kilobytes_roundtrip(self):
        kb = sram_kilobytes(3, 12501, 2**20 - 1)
        assert kb == pytest.approx(3 * 12501 * 20 / 8192)

    def test_bank_size_for_budget_fits(self):
        budget = 91.55
        bank = bank_size_for_budget(budget, 3, 2**20 - 1)
        assert sram_kilobytes(3, bank, 2**20 - 1) <= budget
        assert sram_kilobytes(3, bank + 1, 2**20 - 1) > budget

    def test_paper_geometry(self):
        # 91.55 KB with k=3 banks of 20-bit counters: ~12.5k per bank,
        # the geometry DESIGN.md derives for the paper's Fig. 4 budget.
        bank = bank_size_for_budget(91.55, 3, 2**20 - 1)
        assert 12000 <= bank <= 13000

    def test_bank_size_rejects_tiny_budget(self):
        with pytest.raises(ConfigError):
            bank_size_for_budget(0.0001, 3, 2**30)

    def test_cache_budget_roundtrip(self):
        y = 54
        entries = cache_entries_for_budget(97.66, y)
        assert cache_kilobytes(entries, y) <= 97.66
        assert cache_kilobytes(entries + 1, y) > 97.66

    def test_cache_rejects_zero_budget(self):
        with pytest.raises(ConfigError):
            cache_entries_for_budget(0, 54)
        with pytest.raises(ConfigError):
            cache_kilobytes(0, 54)
