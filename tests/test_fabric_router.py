"""The fabric's compiled router against a numpy reference.

``Topology.route`` sends a whole chunk through the kernel in one pass:
attachment hashes, route walk and per-node sampling. The reference
below is the numpy router it replaced, kept here as the oracle:

- a flow's pair is ``h0(id) % len(entry_nodes) * len(exit_nodes) +
  h1(id) % len(exit_nodes)`` over ``HashFamily(2, topology seed)``;
- node ``v`` observes the pair's packets where
  ``observation_matrix[pair, v]`` is set;
- a node sampling at ``rate < 1`` keeps packet ``i`` iff
  ``h_v(offset + i) >> 11 < int(rate * 2**53)`` over the fabric's
  sampling family.

Every node's substream must equal the reference's, in stream order,
over PATH, TREE (including ``TREE:3x4``'s 85 nodes) and FAT-TREE
topologies, with and without byte lengths, for empty, one-packet and
odd-sized chunks and nonzero starting offsets.
"""

from __future__ import annotations

import dataclasses
import pickle
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cachesim import kernel
from repro.core.config import CaesarConfig
from repro.errors import ConfigError, KernelBuildError
from repro.fabric import Fabric, parse_topology, path_topology
from repro.hashing.family import HashFamily

SPECS = ("PATH:1", "PATH:2", "PATH:6", "TREE:2x2", "TREE:3x4", "FAT-TREE:2", "FAT-TREE:6")
CHUNK_SIZES = (0, 1, 2, 7, 255, 1001, 4097)
#: The fabric's sampling hash domain: ``config.seed ^ 0x5A3917``.
SAMPLE_SEED_XOR = 0x5A3917
CONFIG = CaesarConfig(cache_entries=16, entry_capacity=8, k=3, bank_size=64, seed=19)


@lru_cache(maxsize=None)
def topology(spec: str):
    return parse_topology(spec)


def reference_pairs(topo, ids):
    family = HashFamily(2, seed=topo.seed)
    ingress = (family.hash_array(0, ids) % np.uint64(len(topo.entry_nodes))).astype(np.int64)
    egress = (family.hash_array(1, ids) % np.uint64(len(topo.exit_nodes))).astype(np.int64)
    return ingress * len(topo.exit_nodes) + egress


def reference_route(topo, ids, lengths, offset, rates, sample_seed):
    """Each node's (ids, lengths) by masks: the pre-kernel router."""
    pair = reference_pairs(topo, ids)
    family = HashFamily(topo.num_nodes, seed=sample_seed)
    index = np.uint64(offset) + np.arange(len(ids), dtype=np.uint64)
    out = []
    for node in range(topo.num_nodes):
        mask = topo.observation_matrix[pair, node]
        if rates[node] < 1.0:
            limit = np.uint64(int(rates[node] * (1 << 53)))
            mask = mask & ((family.hash_array(node, index) >> np.uint64(11)) < limit)
        out.append((ids[mask], None if lengths is None else lengths[mask]))
    return out


def sampling_for(topo, rates, sample_seed):
    """The kernel's ``(seeds, limits)`` for the reference's rates."""
    seeds = np.array(HashFamily(topo.num_nodes, seed=sample_seed).seeds, dtype=np.uint64)
    limits = np.array([int(r * (1 << 53)) for r in rates], dtype=np.uint64)
    return seeds, limits


def stream(seed, n, *, flow_space=None):
    rng = np.random.default_rng(seed)
    high = 2**64 if flow_space is None else flow_space
    ids = rng.integers(0, high, size=n, dtype=np.uint64)
    return ids, rng.integers(40, 1501, size=n).astype(np.int64)


@st.composite
def rate_maps(draw, num_nodes):
    """A ``{node: rate}`` map over some nodes, rates in (0, 1]."""
    rate = st.one_of(st.just(1.0), st.floats(0.01, 0.99))
    nodes = draw(st.sets(st.integers(0, num_nodes - 1), max_size=min(num_nodes, 6)))
    return {node: draw(rate) for node in sorted(nodes)}


def assert_substreams_equal(got, want):
    assert len(got) == len(want)
    for node, ((ids, lens), (ref_ids, ref_lens)) in enumerate(zip(got, want)):
        np.testing.assert_array_equal(ids, ref_ids, err_msg=f"node {node} ids")
        if ref_lens is None:
            assert lens is None
        else:
            np.testing.assert_array_equal(lens, ref_lens, err_msg=f"node {node} lengths")


class TestTopologyRoute:
    @settings(max_examples=60, deadline=None)
    @given(
        spec=st.sampled_from(SPECS),
        seed=st.integers(0, 2**32 - 1),
        n=st.sampled_from(CHUNK_SIZES),
        offset=st.integers(0, 2**48),
        with_lengths=st.booleans(),
        data=st.data(),
    )
    def test_matches_numpy_reference(self, spec, seed, n, offset, with_lengths, data):
        topo = topology(spec)
        rate_map = data.draw(rate_maps(topo.num_nodes))
        rates = [rate_map.get(node, 1.0) for node in range(topo.num_nodes)]
        ids, lengths = stream(seed, n)
        lengths = lengths if with_lengths else None
        sampling = sampling_for(topo, rates, seed) if rate_map else None
        got = topo.route(ids, lengths, offset=offset, sampling=sampling)
        assert_substreams_equal(got, reference_route(topo, ids, lengths, offset, rates, seed))

    @settings(max_examples=40, deadline=None)
    @given(
        spec=st.sampled_from(SPECS),
        seed=st.integers(0, 2**32 - 1),
        n=st.sampled_from(CHUNK_SIZES),
    )
    def test_pair_of_matches_reference_formula(self, spec, seed, n):
        topo = topology(spec)
        ids, _ = stream(seed, n)
        pairs = topo.pair_of(ids)
        assert pairs.dtype == np.int64
        np.testing.assert_array_equal(pairs, reference_pairs(topo, ids))

    def test_topology_pickles(self):
        topo = topology("TREE:2x2")
        ids, lengths = stream(4, 1001)
        clone = pickle.loads(pickle.dumps(topo))
        assert_substreams_equal(clone.route(ids, lengths), topo.route(ids, lengths))

    def test_route_rejects_misaligned_inputs(self):
        topo = path_topology(3)
        ids, lengths = stream(1, 10)
        for bad in (lengths[:9], np.append(lengths, 64)):
            with pytest.raises(ConfigError, match="align"):
                topo.route(ids, bad)
        seeds, limits = sampling_for(topo, [0.5] * 3, 1)
        with pytest.raises(ConfigError, match="per node"):
            topo.route(ids, sampling=(seeds[:2], limits[:2]))


class TestFabricIngest:
    @staticmethod
    def recorded(fabric):
        """Replace each vantage's process with a recorder of its input."""
        seen = [[] for _ in fabric.vantages]
        for vantage in fabric.vantages:
            vantage.process = lambda pkts, lens, node=vantage.node: seen[node].append(
                (pkts.copy(), None if lens is None else lens.copy())
            )
        return seen

    @settings(max_examples=30, deadline=None)
    @given(
        spec=st.sampled_from(SPECS),
        seed=st.integers(0, 2**32 - 1),
        chunks=st.lists(st.sampled_from(CHUNK_SIZES), min_size=1, max_size=5),
        with_lengths=st.booleans(),
        scalar_rate=st.one_of(st.none(), st.floats(0.05, 1.0)),
        data=st.data(),
    )
    def test_vantage_substreams_match_reference(
        self, spec, seed, chunks, with_lengths, scalar_rate, data
    ):
        topo = topology(spec)
        rate_map = data.draw(rate_maps(topo.num_nodes))
        sample_rate = rate_map if scalar_rate is None else scalar_rate
        rates = [
            scalar_rate if scalar_rate is not None else rate_map.get(node, 1.0)
            for node in range(topo.num_nodes)
        ]
        # A small flow space, so flows repeat across chunks.
        ids, lengths = stream(seed, sum(chunks), flow_space=512)
        fabric = Fabric(CONFIG, topo, sample_rate=sample_rate)
        seen = self.recorded(fabric)
        start = 0
        for size in chunks:
            stop = start + size
            fabric.ingest(ids[start:stop], lengths[start:stop] if with_lengths else None)
            start = stop
        want = reference_route(
            topo,
            ids,
            lengths if with_lengths else None,
            0,
            rates,
            CONFIG.seed ^ SAMPLE_SEED_XOR,
        )
        fed = [item for parts in seen for item in parts]
        assert all(len(p) and (ln is None) != with_lengths for p, ln in fed)

        def joined(arrays, dtype):
            return np.concatenate(arrays) if arrays else np.empty(0, dtype)

        got = [
            (
                joined([p for p, _ in parts], np.uint64),
                joined([ln for _, ln in parts], np.int64) if with_lengths else None,
            )
            for parts in seen
        ]
        assert_substreams_equal(got, want)
        assert fabric.drain().num_packets == len(ids)

    @pytest.mark.parametrize("extra", [-1, 1])
    def test_misaligned_lengths_rejected(self, extra):
        fabric = Fabric(CONFIG, path_topology(3))
        ids, lengths = stream(2, 1000)
        with pytest.raises(ConfigError, match="align"):
            fabric.ingest(ids, np.ones(1000 + extra, dtype=np.int64))
        fabric.ingest(ids, lengths)
        assert fabric.drain().num_packets == 1000

    def test_lengths_for_an_empty_chunk_rejected(self):
        fabric = Fabric(CONFIG, path_topology(3))
        with pytest.raises(ConfigError, match="align"):
            fabric.ingest(np.empty(0, np.uint64), np.ones(1, np.int64))

    def test_needs_kernel_whatever_the_engine(self, monkeypatch):
        monkeypatch.setattr(kernel, "_LIB", None)
        monkeypatch.setattr(kernel, "_BUILD_ERROR", "cc: fatal error: no input files")
        fabric = Fabric(dataclasses.replace(CONFIG, engine="scalar"), path_topology(3))
        ids, _ = stream(3, 100)
        with pytest.raises(KernelBuildError, match="fabric router"):
            fabric.ingest(ids)
        with pytest.raises(KernelBuildError, match="no input files"):
            fabric.topology.pair_of(ids)
