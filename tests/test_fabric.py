"""Tests for the multi-vantage measurement fabric.

The two headline contracts from docs/fabric.md:

- a degenerate one-vantage fabric is bit-identical to plain
  ``ShardedCaesar`` — estimates *and* per-shard checkpoint digests —
  across both construction engines;
- on a 6-node PATH topology, MLE fusion achieves lower mean relative
  error than the best single vantage on the seeded Zipf trace.

Plus the fusion math properties (permutation invariance over vantage
order, NaN/degraded handling), topology routing invariants, sampling
determinism, and drain-order independence.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import CaesarConfig
from repro.core.sharded import ShardedCaesar
from repro.errors import ConfigError, QueryError
from repro.fabric import (
    Fabric,
    VantageObservation,
    VantagePoint,
    fat_tree_topology,
    fuse,
    fuse_ivw,
    fuse_min,
    fuse_mle,
    fusion_report,
    parse_topology,
    path_topology,
    tree_topology,
    vantage_caesar_config,
)
from repro.traffic.trace import default_paper_trace


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


# -- topology ----------------------------------------------------------------


class TestTopology:
    def test_path_routes_are_contiguous_segments(self):
        topo = path_topology(5)
        for i in range(5):
            for e in range(5):
                route = topo.routes[i * 5 + e]
                assert route == tuple(range(min(i, e), max(i, e) + 1))

    def test_tree_routes_go_through_lca(self):
        topo = tree_topology(2, 2)  # 7 nodes, leaves 3..6
        assert topo.num_nodes == 7
        assert list(topo.entry_nodes) == [3, 4, 5, 6]
        # Siblings meet at their parent; cousins at the root.
        leaves = list(topo.entry_nodes)
        pair = lambda a, b: leaves.index(a) * 4 + leaves.index(b)
        assert topo.routes[pair(3, 4)] == (3, 1, 4)
        assert topo.routes[pair(3, 6)] == (3, 1, 0, 2, 6)
        assert topo.routes[pair(5, 5)] == (5,)

    def test_fat_tree_routes_are_valid(self):
        topo = fat_tree_topology(4)  # 4 edges, 4 aggs, 2 cores
        assert topo.num_nodes == 10
        for p, route in enumerate(topo.routes):
            src, dst = p // 4, p % 4
            assert route[0] == src and route[-1] == dst
            if src == dst:
                assert route == (src,)
            elif src // 2 == dst // 2:  # same pod: edge-agg-edge
                assert len(route) == 3 and 4 <= route[1] < 8
            else:  # cross pod: via a core
                assert len(route) == 5 and route[2] >= 8

    def test_pair_assignment_deterministic_and_in_range(self):
        topo = path_topology(6)
        ids = np.arange(1, 500, dtype=np.uint64)
        a, b = topo.pair_of(ids), topo.pair_of(ids)
        np.testing.assert_array_equal(a, b)
        assert a.min() >= 0 and a.max() < topo.num_pairs

    def test_observation_matrix_matches_routes(self):
        topo = tree_topology(2, 3)
        for p, route in enumerate(topo.routes):
            observed = set(np.flatnonzero(topo.observation_matrix[p]))
            assert observed == set(route)

    def test_parse_specs(self):
        assert parse_topology("PATH:6").name == "PATH:6"
        assert parse_topology("TREE:2x3").name == "TREE:2x3"
        assert parse_topology("tree:2X3").name == "TREE:2x3"
        assert parse_topology("FAT-TREE:4").name == "FAT-TREE:4"
        assert parse_topology("FATTREE:4").name == "FAT-TREE:4"

    @pytest.mark.parametrize(
        "spec", ["PATH", "PATH:", "RING:4", "TREE:3", "PATH:x", "TREE:axb"]
    )
    def test_parse_rejects_bad_specs(self, spec):
        with pytest.raises(ConfigError):
            parse_topology(spec)

    def test_route_lengths_reported(self):
        topo = path_topology(4)
        ids = np.arange(1, 200, dtype=np.uint64)
        hops = topo.vantages_per_flow(ids)
        assert hops.min() >= 1 and hops.max() <= 4


# -- fusion math -------------------------------------------------------------


def observation_sets(draw):
    """A list of consistent VantageObservations with random NaN holes."""
    num_flows = draw(st.integers(min_value=1, max_value=12))
    num_vantages = draw(st.integers(min_value=1, max_value=5))
    obs = []
    for v in range(num_vantages):
        est = np.array(
            draw(
                st.lists(
                    st.one_of(
                        st.floats(
                            min_value=-50.0, max_value=1e4, allow_nan=False
                        ),
                        st.just(float("nan")),
                    ),
                    min_size=num_flows,
                    max_size=num_flows,
                )
            )
        )
        slope = np.array(
            draw(
                st.lists(
                    st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
                    min_size=num_flows,
                    max_size=num_flows,
                )
            )
        )
        floor = np.array(
            draw(
                st.lists(
                    st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
                    min_size=num_flows,
                    max_size=num_flows,
                )
            )
        )
        obs.append(
            VantageObservation(
                vantage=v, estimates=est, var_slope=slope, var_floor=floor
            )
        )
    return obs


@st.composite
def observations_strategy(draw):
    return observation_sets(draw)


class TestFusionProperties:
    @settings(max_examples=60, deadline=None)
    @given(obs=observations_strategy(), data=st.data())
    def test_fusers_permutation_invariant(self, obs, data):
        """All three fusers are bit-identical under any permutation of
        the vantage observation list — the drain-order half of the
        determinism contract."""
        perm = data.draw(st.permutations(obs))
        for fuser in (fuse_min, fuse_ivw, fuse_mle):
            base = fuser(obs)
            shuffled = fuser(perm)
            np.testing.assert_array_equal(base, shuffled)

    @settings(max_examples=30, deadline=None)
    @given(obs=observations_strategy())
    def test_single_observation_passes_through_exactly(self, obs):
        """Flows one vantage observed fuse to that estimate bit-exactly
        (the one-vantage bit-identity contract rides on this)."""
        est = np.stack([o.estimates for o in obs])
        mask = np.isfinite(est)
        single = mask.sum(axis=0) == 1
        expected = np.where(mask, est, 0.0).sum(axis=0)
        for fuser in (fuse_min, fuse_ivw, fuse_mle):
            fused = fuser(obs)
            np.testing.assert_array_equal(fused[single], expected[single])
            # All-NaN flows (no observer) fuse to NaN.
            assert np.isnan(fused[~mask.any(axis=0)]).all()

    def test_min_is_elementwise_minimum(self):
        a = VantageObservation(
            vantage=0,
            estimates=np.array([3.0, np.nan, 7.0]),
            var_slope=np.zeros(3),
            var_floor=np.ones(3),
        )
        b = VantageObservation(
            vantage=1,
            estimates=np.array([5.0, 2.0, np.nan]),
            var_slope=np.zeros(3),
            var_floor=np.ones(3),
        )
        np.testing.assert_array_equal(fuse_min([a, b]), [3.0, 2.0, 7.0])

    def test_ivw_weights_by_inverse_variance(self):
        # Equal floors, zero slope: ivw is the plain mean; quadruple
        # one variance and the weighted mean shifts toward the other.
        def obs(v, est, floor):
            n = len(est)
            return VantageObservation(
                vantage=v,
                estimates=np.asarray(est, dtype=float),
                var_slope=np.zeros(n),
                var_floor=np.full(n, float(floor)),
            )

        even = fuse_ivw([obs(0, [10.0], 1.0), obs(1, [20.0], 1.0)])
        assert even[0] == pytest.approx(15.0)
        skewed = fuse_ivw([obs(0, [10.0], 1.0), obs(1, [20.0], 4.0)])
        assert skewed[0] == pytest.approx(12.0)

    def test_mle_reduces_to_ivw_for_constant_variance(self):
        rng = np.random.default_rng(0)
        est = rng.normal(100.0, 5.0, size=(4, 9))
        obs = [
            VantageObservation(
                vantage=v,
                estimates=est[v],
                var_slope=np.zeros(9),
                var_floor=np.full(9, 2.0 + v),
            )
            for v in range(4)
        ]
        np.testing.assert_allclose(fuse_mle(obs), fuse_ivw(obs), rtol=1e-12)

    def test_duplicate_vantage_ids_rejected(self):
        o = VantageObservation(
            vantage=0,
            estimates=np.array([1.0]),
            var_slope=np.zeros(1),
            var_floor=np.ones(1),
        )
        with pytest.raises(ConfigError):
            fuse([o, o])

    def test_empty_observations_rejected(self):
        with pytest.raises(QueryError):
            fuse([])

    def test_unknown_method_rejected(self):
        o = VantageObservation(
            vantage=0,
            estimates=np.array([1.0]),
            var_slope=np.zeros(1),
            var_floor=np.ones(1),
        )
        with pytest.raises(ConfigError):
            fuse([o], "median")

    def test_fusion_report_scopes_vantages_to_observed_flows(self):
        truth = np.array([10, 100])
        a = VantageObservation(
            vantage=0,
            estimates=np.array([11.0, np.nan]),
            var_slope=np.zeros(2),
            var_floor=np.ones(2),
        )
        b = VantageObservation(
            vantage=1,
            estimates=np.array([np.nan, 150.0]),
            var_slope=np.zeros(2),
            var_floor=np.ones(2),
        )
        fused = fuse([a, b], "ivw")
        report = fusion_report(truth, [a, b], fused, method="ivw")
        assert report.per_vantage_flows == {0: 1, 1: 1}
        assert report.per_vantage_are[0] == pytest.approx(0.1)
        assert report.per_vantage_are[1] == pytest.approx(0.5)
        assert report.best_vantage == 0
        assert report.fused_flows == 2


# -- vantage seeding ---------------------------------------------------------


class TestVantageConfig:
    def test_node_zero_keeps_base_config(self, tiny_trace):
        cfg = make_config(tiny_trace)
        assert vantage_caesar_config(cfg, 0) is cfg

    def test_nodes_get_distinct_seeds(self, tiny_trace):
        cfg = make_config(tiny_trace)
        seeds = {vantage_caesar_config(cfg, v).seed for v in range(8)}
        assert len(seeds) == 8

    def test_negative_node_rejected(self, tiny_trace):
        with pytest.raises(ConfigError):
            vantage_caesar_config(make_config(tiny_trace), -1)

    def test_runtime_options_require_workers(self, tiny_trace):
        with pytest.raises(ConfigError):
            VantagePoint(
                0,
                make_config(tiny_trace),
                runtime_options={"transport": "queue"},
            )


# -- one-vantage bit-identity ------------------------------------------------


class TestOneVantageBitIdentity:
    @pytest.mark.parametrize("engine", ["scalar", "batched"])
    def test_matches_sharded_caesar_across_engines(self, tiny_trace, engine):
        """The headline contract: a degenerate fabric IS a ShardedCaesar
        — same estimates, same per-shard checkpoint digests — for every
        construction engine."""
        cfg = make_config(tiny_trace, engine=engine)
        fabric = Fabric(cfg, path_topology(1), shards_per_vantage=2)
        fabric.ingest_stream(tiny_trace.packets, chunk_packets=1000)
        result = fabric.drain()

        base = ShardedCaesar(cfg, 2)
        base.process(tiny_trace.packets)
        base.finalize()

        ids = tiny_trace.flows.ids
        np.testing.assert_array_equal(
            fabric.query(ids), base.estimate(ids, "csm", clip_negative=False)
        )
        base_digests = tuple(s.checkpoint().digest for s in base.shards)
        assert result.shard_digests == (base_digests,)
        assert result.num_packets == tiny_trace.num_packets
        assert result.observed_packets == (tiny_trace.num_packets,)

    def test_every_fusion_method_degenerates_identically(self, tiny_trace):
        cfg = make_config(tiny_trace)
        fabric = Fabric(cfg, path_topology(1))
        fabric.ingest(tiny_trace.packets)
        base = ShardedCaesar(cfg, 1)
        base.process(tiny_trace.packets)
        base.finalize()
        expected = base.estimate(tiny_trace.flows.ids, "csm", clip_negative=False)
        for method in ("min", "ivw", "mle"):
            np.testing.assert_array_equal(
                fabric.query(tiny_trace.flows.ids, fusion=method), expected
            )


# -- fabric pipeline ---------------------------------------------------------


class TestFabricPipeline:
    @pytest.fixture(scope="class")
    def path3(self, small_trace):
        fabric = Fabric(
            make_config(small_trace), path_topology(3), fusion="mle"
        )
        fabric.ingest_stream(small_trace.packets, chunk_packets=7000)
        fabric.drain()
        return fabric

    def test_vantages_observe_only_routed_flows(self, path3, small_trace):
        topo = path3.topology
        pair = topo.pair_of(small_trace.flows.ids)
        for node, vantage in enumerate(path3.vantages):
            seen = set(vantage.flows_seen().tolist())
            routed = set(
                small_trace.flows.ids[
                    topo.observation_matrix[pair, node]
                ].tolist()
            )
            # Every observed flow was routed here (the cache can miss
            # none: caching is lossless over the observed substream).
            assert seen == routed

    def test_query_dedups_repeated_flows(self, path3, small_trace):
        ids = small_trace.flows.ids[:5]
        doubled = np.concatenate([ids, ids])
        est = path3.query(doubled)
        np.testing.assert_array_equal(est[:5], est[5:])

    def test_chunking_invariance(self, small_trace):
        cfg = make_config(small_trace)
        a = Fabric(cfg, path_topology(3))
        a.ingest(small_trace.packets)
        b = Fabric(cfg, path_topology(3))
        b.ingest_stream(small_trace.packets, chunk_packets=1234)
        np.testing.assert_array_equal(
            a.query(small_trace.flows.ids), b.query(small_trace.flows.ids)
        )
        assert a.drain().shard_digests == b.drain().shard_digests

    def test_drain_order_does_not_change_estimates(self, small_trace):
        cfg = make_config(small_trace)
        estimates = []
        digests = []
        for order in ([0, 1, 2], [2, 0, 1]):
            fabric = Fabric(cfg, path_topology(3))
            fabric.ingest(small_trace.packets)
            for node in order:
                fabric.vantages[node].finalize()
            fabric.drain()
            estimates.append(fabric.query(small_trace.flows.ids))
            digests.append(fabric.drain().shard_digests)
        np.testing.assert_array_equal(estimates[0], estimates[1])
        assert digests[0] == digests[1]

    def test_ingest_after_drain_rejected(self, path3, small_trace):
        with pytest.raises(QueryError):
            path3.ingest(small_trace.packets[:10])

    def test_memory_accounting_sums_vantages(self, path3):
        assert path3.memory_bits == sum(
            v.memory_bits for v in path3.vantages
        )

    def test_report_fuses_against_truth(self, path3, small_trace):
        report = path3.report(small_trace.flows.ids, small_trace.flows.sizes)
        assert report.fused_flows == small_trace.num_flows
        assert set(report.per_vantage_are) == {0, 1, 2}
        assert np.isfinite(report.fused_are)


class TestSampling:
    def test_sampling_thins_observations_deterministically(self, small_trace):
        cfg = make_config(small_trace)
        runs = []
        for _ in range(2):
            fabric = Fabric(cfg, path_topology(2), sample_rate=0.5)
            fabric.ingest_stream(small_trace.packets, chunk_packets=3000)
            runs.append(fabric.drain())
        assert runs[0].observed_packets == runs[1].observed_packets
        assert runs[0].shard_digests == runs[1].shard_digests
        total = small_trace.num_packets
        for observed in runs[0].observed_packets:
            assert observed < total  # actually thinned

    def test_sampling_is_chunking_invariant(self, small_trace):
        cfg = make_config(small_trace)
        a = Fabric(cfg, path_topology(2), sample_rate=0.7)
        a.ingest(small_trace.packets)
        b = Fabric(cfg, path_topology(2), sample_rate=0.7)
        b.ingest_stream(small_trace.packets, chunk_packets=999)
        assert a.drain().shard_digests == b.drain().shard_digests

    def test_sampled_estimates_are_unbiased_back(self, small_trace):
        """A rate-p vantage's fused estimates target x, not p*x."""
        cfg = make_config(small_trace)
        fabric = Fabric(cfg, path_topology(1), sample_rate=0.5)
        fabric.ingest(small_trace.packets)
        est = fabric.query(small_trace.flows.ids)
        top = np.argsort(small_trace.flows.sizes)[-20:]
        ratio = est[top] / small_trace.flows.sizes[top]
        assert 0.8 < float(np.median(ratio)) < 1.2

    def test_per_node_rates(self, small_trace):
        cfg = make_config(small_trace)
        fabric = Fabric(
            cfg, path_topology(2), sample_rate={0: 0.25}
        )
        fabric.ingest(small_trace.packets)
        result = fabric.drain()
        # Node 1 (rate 1.0) sees its full routed substream; node 0 is
        # thinned well below it.
        assert result.observed_packets[0] < result.observed_packets[1]

    def test_bad_rates_rejected(self, small_trace):
        cfg = make_config(small_trace)
        for rate in (0.0, -0.5, 1.5):
            with pytest.raises(ConfigError):
                Fabric(cfg, path_topology(2), sample_rate=rate)


# -- the acceptance benchmark ------------------------------------------------


class TestFusionAccuracy:
    def test_mle_fusion_beats_best_single_vantage(self):
        """On a 6-node PATH over the seeded Zipf trace, fusing the
        quasi-independent per-vantage estimates with the weighted MLE
        yields lower mean relative error than the *best* single
        vantage — the acceptance criterion."""
        trace = default_paper_trace(scale=0.01, seed=5)
        config = CaesarConfig.for_budgets(
            sram_kb=0.9155,
            cache_kb=0.9766,
            num_packets=trace.num_packets,
            num_flows=trace.num_flows,
            k=3,
            seed=5,
        )
        fabric = Fabric(config, path_topology(6), fusion="mle")
        fabric.ingest_stream(trace.packets)
        report = fabric.report(trace.flows.ids, trace.flows.sizes)
        assert report.fused_flows == trace.num_flows
        assert report.fused_are < report.best_vantage_are, report.summary()


# -- runtime-backed vantages -------------------------------------------------


class TestRuntimeFabric:
    def test_runtime_vantages_match_in_process_fabric(self, tiny_trace, tmp_path):
        """A 2-worker-per-vantage runtime fabric drains bit-identical
        to the in-process twin — even with a chaos-killed worker."""
        cfg = make_config(tiny_trace)
        topo = path_topology(2)
        live = Fabric(
            cfg,
            topo,
            vantage_workers=2,
            state_dir=tmp_path,
            runtime_options={"checkpoint_every": 2},
        )
        try:
            for i, start in enumerate(range(0, len(tiny_trace.packets), 2000)):
                if i == 1:
                    live.kill_worker(1, 0)
                live.ingest(tiny_trace.packets[start : start + 2000])
            result = live.drain()
        finally:
            live.shutdown()
        assert result.restarts >= 1

        twin = Fabric(cfg, topo, shards_per_vantage=2)
        twin.ingest_stream(tiny_trace.packets, chunk_packets=2000)
        twin_result = twin.drain()
        assert result.shard_digests == twin_result.shard_digests
        np.testing.assert_array_equal(
            live.query(tiny_trace.flows.ids),
            twin.query(tiny_trace.flows.ids),
        )

    def test_runtime_vantage_requires_state_dir(self, tiny_trace):
        with pytest.raises(ConfigError):
            Fabric(make_config(tiny_trace), path_topology(1), vantage_workers=1)

    def test_kill_worker_needs_runtime(self, tiny_trace):
        fabric = Fabric(make_config(tiny_trace), path_topology(1))
        with pytest.raises(ConfigError):
            fabric.kill_worker(0, 0)
