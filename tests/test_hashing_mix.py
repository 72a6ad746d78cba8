"""Unit tests for the 64-bit mixers."""

import numpy as np

from repro.hashing import mix


class TestSplitmix64:
    def test_deterministic(self):
        assert mix.splitmix64(42) == mix.splitmix64(42)

    def test_range_is_64_bit(self):
        for x in (0, 1, 2**63, 2**64 - 1):
            out = mix.splitmix64(x)
            assert 0 <= out < 2**64

    def test_distinct_inputs_distinct_outputs(self):
        outs = {mix.splitmix64(x) for x in range(1000)}
        assert len(outs) == 1000  # bijective finalizer: no collisions

    def test_avalanche_single_bit_flip(self):
        # Flipping one input bit should flip ~half the output bits.
        base = mix.splitmix64(0xDEADBEEF)
        flipped = mix.splitmix64(0xDEADBEEF ^ 1)
        diff_bits = bin(base ^ flipped).count("1")
        assert 16 <= diff_bits <= 48

    def test_array_matches_scalar(self):
        xs = np.array([0, 1, 12345, 2**64 - 1], dtype=np.uint64)
        out = mix.splitmix64_array(xs)
        for i, x in enumerate([0, 1, 12345, 2**64 - 1]):
            assert int(out[i]) == mix.splitmix64(x)

    def test_array_does_not_mutate_input(self):
        xs = np.array([7, 8, 9], dtype=np.uint64)
        copy = xs.copy()
        mix.splitmix64_array(xs)
        np.testing.assert_array_equal(xs, copy)


class TestXxmix64:
    def test_deterministic(self):
        assert mix.xxmix64(99) == mix.xxmix64(99)

    def test_range(self):
        assert 0 <= mix.xxmix64(2**64 - 1) < 2**64

    def test_array_matches_scalar(self):
        xs = np.array([3, 5, 2**40], dtype=np.uint64)
        out = mix.xxmix64_array(xs)
        for i, x in enumerate([3, 5, 2**40]):
            assert int(out[i]) == mix.xxmix64(x)

    def test_differs_from_splitmix(self):
        assert mix.xxmix64(1234) != mix.splitmix64(1234)


class TestCombine:
    def test_seed_changes_output(self):
        assert mix.combine(1, 42) != mix.combine(2, 42)

    def test_array_matches_scalar(self):
        xs = np.array([10, 20, 30], dtype=np.uint64)
        out = mix.combine_array(777, xs)
        for i, x in enumerate([10, 20, 30]):
            assert int(out[i]) == mix.combine(777, x)

    def test_uniformity_of_low_bits(self):
        # Hash mod small m should be near-uniform: chi-square sanity.
        m = 16
        xs = np.arange(16000, dtype=np.uint64)
        buckets = mix.combine_array(5, xs) % np.uint64(m)
        counts = np.bincount(buckets.astype(np.int64), minlength=m)
        expected = len(xs) / m
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert chi2 < 50  # df=15, this is a generous bound
