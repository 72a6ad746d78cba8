"""Unit tests for flow-ID derivation from headers."""

import numpy as np

from repro.hashing import flowid
from repro.types import FiveTuple


class TestAphash:
    def test_deterministic(self):
        assert flowid.aphash(b"hello") == flowid.aphash(b"hello")

    def test_32_bit_range(self):
        assert 0 <= flowid.aphash(b"\x00" * 13) < 2**32
        assert 0 <= flowid.aphash(bytes(range(13))) < 2**32

    def test_sensitive_to_every_byte(self):
        base = bytes(13)
        h0 = flowid.aphash(base)
        for i in range(13):
            mutated = bytearray(base)
            mutated[i] = 0xFF
            assert flowid.aphash(bytes(mutated)) != h0


class TestFlowIdFromFiveTuple:
    def test_deterministic(self):
        ft = FiveTuple(0x0A000001, 0x0A000002, 1234, 80, 6)
        assert flowid.flow_id_from_five_tuple(ft) == flowid.flow_id_from_five_tuple(ft)

    def test_64_bit(self):
        ft = FiveTuple(1, 2, 3, 4, 17)
        assert 0 <= flowid.flow_id_from_five_tuple(ft) < 2**64

    def test_direction_sensitive(self):
        a = FiveTuple(1, 2, 1000, 80, 6)
        b = FiveTuple(2, 1, 80, 1000, 6)
        assert flowid.flow_id_from_five_tuple(a) != flowid.flow_id_from_five_tuple(b)

    def test_batch_matches_scalar(self):
        tuples = [FiveTuple(i, i + 1, 1000 + i, 443, 6) for i in range(5)]
        ids = flowid.flow_ids_from_headers(tuples)
        assert ids.dtype == np.uint64
        for i, t in enumerate(tuples):
            assert int(ids[i]) == flowid.flow_id_from_five_tuple(t)


class TestUniqueFlowIds:
    def test_count_and_uniqueness(self):
        ids = flowid.unique_flow_ids(5000, seed=1)
        assert len(ids) == 5000
        assert len(np.unique(ids)) == 5000

    def test_deterministic_per_seed(self):
        np.testing.assert_array_equal(
            flowid.unique_flow_ids(100, seed=2), flowid.unique_flow_ids(100, seed=2)
        )

    def test_seed_changes_ids(self):
        assert not np.array_equal(
            flowid.unique_flow_ids(100, seed=2), flowid.unique_flow_ids(100, seed=3)
        )

    def test_not_sorted(self):
        ids = flowid.unique_flow_ids(1000, seed=4)
        assert not np.all(np.diff(ids.astype(np.float64)) > 0)


class TestSyntheticFiveTuples:
    def test_distinct(self):
        tuples = flowid.synthetic_five_tuples(500, seed=0)
        assert len(set(tuples)) == 500

    def test_plausible_fields(self):
        for t in flowid.synthetic_five_tuples(100, seed=1):
            assert t.protocol in (1, 6, 17)
            assert 1024 <= t.src_port < 65536
            assert t.dst_port in (80, 443, 53, 22, 25, 123, 8080)
