"""Elastic resharding tests: map properties, planner, live splits, chaos.

Three layers, mirroring the resharding design (docs/runtime.md):

- **property tests** (hypothesis) over the versioned :class:`ShardMap` —
  splitting shard ``s`` remaps only flows hashed to ``s``; owner
  assignment depends only on the final split chain (associative
  composition); the ``v+1`` partition of any stream is a refinement of
  the ``v`` partition;
- **planner units** — sustained-fill detection, cooldown, max-shards;
- **live split integration + chaos matrix** — a runtime resharded
  mid-stream, with workers SIGKILLed at each reshard phase boundary,
  must drain bit-identical (estimates *and* per-shard digests) to a
  single-process ``ShardedCaesar`` built with the final map — while the
  other shards keep ingesting throughout.
"""

import os
import signal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.sharded import ShardedCaesar
from repro.errors import ConfigError, IngestError
from repro.hashing.family import HashFamily
from repro.obs.registry import MetricsRegistry
from repro.runtime import ShardMap, ShardSplit, StreamPartitioner
from repro.runtime.client import StreamingRuntime
from repro.runtime.partitioner import DEFAULT_SHARD_SEED
from repro.runtime.planner import ReshardPlanner
from tests.conftest import wait_until
from tests.test_runtime import make_config

# -- strategies ---------------------------------------------------------------

flow_arrays = st.lists(
    st.integers(min_value=0, max_value=2**64 - 1), min_size=1, max_size=200
).map(lambda xs: np.array(xs, dtype=np.uint64))


@st.composite
def maps_with_donor(draw):
    """A (possibly already split) map plus a valid donor to split next."""
    num_base = draw(st.integers(min_value=1, max_value=6))
    m = ShardMap(num_base=num_base)
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        m = m.split(draw(st.integers(min_value=0, max_value=m.num_shards - 1)))
    donor = draw(st.integers(min_value=0, max_value=m.num_shards - 1))
    return m, donor


# -- ShardMap properties ------------------------------------------------------


class TestShardMapProperties:
    @settings(max_examples=100, deadline=None)
    @given(maps_with_donor(), flow_arrays)
    def test_split_remaps_only_donor_flows(self, map_donor, ids):
        """Refinement: v+1 owners equal v owners except the donor's
        flows, which land on the donor or its new child only."""
        m, donor = map_donor
        m2 = m.split(donor)
        before = m.owner_of(ids)
        after = m2.owner_of(ids)
        child = m2.num_shards - 1
        moved = before != after
        assert np.all(before[moved] == donor)
        assert np.all(after[moved] == child)
        donor_flows = before == donor
        assert np.all(np.isin(after[donor_flows], [donor, child]))
        assert np.all(after[~donor_flows] == before[~donor_flows])

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(min_value=1, max_value=5),
        st.lists(st.integers(min_value=0, max_value=100), max_size=4),
        flow_arrays,
    )
    def test_composition_is_associative(self, num_base, donor_picks, ids):
        """Owners depend only on the ordered split chain, never on how
        it was built: splitting step by step equals constructing the
        whole chain at once."""
        stepwise = ShardMap(num_base=num_base)
        splits = []
        for pick in donor_picks:
            donor = pick % stepwise.num_shards
            splits.append(ShardSplit(donor=donor, child=stepwise.num_shards))
            stepwise = stepwise.split(donor)
        at_once = ShardMap(num_base=num_base, splits=tuple(splits))
        assert stepwise == at_once
        np.testing.assert_array_equal(
            stepwise.owner_of(ids), at_once.owner_of(ids)
        )

    @settings(max_examples=60, deadline=None)
    @given(maps_with_donor(), flow_arrays)
    def test_partition_is_refined_stream_by_stream(self, map_donor, ids):
        """StreamPartitioner under v+1 refines the v partition: every
        non-donor substream is unchanged, and the donor's substream is
        exactly the order-preserving interleave of its two successors'
        substreams."""
        m, donor = map_donor
        p1 = StreamPartitioner(shard_map=m)
        p2 = p1.split(donor)
        child = p2.num_shards - 1
        parts1 = p1.partition(ids)
        parts2 = p2.partition(ids)
        for s in range(p1.num_shards):
            if s == donor:
                continue
            np.testing.assert_array_equal(parts1[s][0], parts2[s][0])
        donor_stream = parts1[donor][0]
        successors = p2.shard_of(donor_stream)
        np.testing.assert_array_equal(
            donor_stream[successors == donor], parts2[donor][0]
        )
        np.testing.assert_array_equal(
            donor_stream[successors == child], parts2[child][0]
        )

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=1, max_value=8), flow_arrays)
    def test_v0_matches_historical_partitioner(self, num_shards, ids):
        """A map with no splits is bit-identical to the pre-reshard
        partitioner (growing the hash family never moves member 0)."""
        np.testing.assert_array_equal(
            ShardMap(num_base=num_shards).owner_of(ids),
            StreamPartitioner(num_shards).shard_of(ids),
        )

    def test_validation(self):
        with pytest.raises(ConfigError):
            ShardMap(num_base=0)
        with pytest.raises(ConfigError):
            ShardMap(num_base=2, splits=(ShardSplit(donor=5, child=2),))
        with pytest.raises(ConfigError):
            ShardMap(num_base=2, splits=(ShardSplit(donor=0, child=7),))
        with pytest.raises(ConfigError):
            ShardMap(num_base=2).split(2)
        m = ShardMap(num_base=2).split(1).split(2)
        assert m.version == 2
        assert m.num_shards == 4
        assert "1->1+2" in m.describe()

    def test_partitioner_rejects_count_map_mismatch(self):
        with pytest.raises(ConfigError):
            StreamPartitioner(3, shard_map=ShardMap(num_base=2))


# -- one-pass partition -------------------------------------------------------


@st.composite
def partition_cases(draw):
    """A map of 1–8 base shards and 0–3 splits, a chunk (possibly
    empty), and optional byte lengths aligned with it."""
    m = ShardMap(num_base=draw(st.integers(min_value=1, max_value=8)))
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        m = m.split(draw(st.integers(min_value=0, max_value=m.num_shards - 1)))
    ids = draw(
        st.lists(st.integers(min_value=0, max_value=2**64 - 1), max_size=300)
    )
    packets = np.array(ids, dtype=np.uint64)
    lengths = None
    if draw(st.booleans()):
        lengths = np.array(
            draw(
                st.lists(
                    st.integers(min_value=1, max_value=9000),
                    min_size=len(ids),
                    max_size=len(ids),
                )
            ),
            dtype=np.int64,
        )
    return m, packets, lengths


def mask_partition(shard_map, packets, lengths):
    """The reference: one boolean mask per shard."""
    owners = shard_map.owner_of(packets)
    return [
        (packets[owners == s], None if lengths is None else lengths[owners == s])
        for s in range(shard_map.num_shards)
    ]


class TestPartitionProperties:
    @settings(max_examples=150, deadline=None)
    @given(partition_cases())
    def test_matches_mask_reference(self, case):
        m, packets, lengths = case
        parts = StreamPartitioner(shard_map=m).partition(packets, lengths)
        assert len(parts) == m.num_shards
        for (pkts, lens), (ref_pkts, ref_lens) in zip(
            parts, mask_partition(m, packets, lengths)
        ):
            assert pkts.dtype == np.uint64
            np.testing.assert_array_equal(pkts, ref_pkts)
            if lengths is None:
                assert lens is None
            else:
                assert lens.dtype == lengths.dtype
                np.testing.assert_array_equal(lens, ref_lens)

    @settings(max_examples=100, deadline=None)
    @given(partition_cases())
    def test_keeps_each_shards_stream_order(self, case):
        """Partitioning stream positions in place of lengths: each
        shard's positions come out strictly increasing, and every
        position lands on its owner exactly once."""
        m, packets, _ = case
        positions = np.arange(len(packets), dtype=np.int64)
        owners = m.owner_of(packets)
        parts = StreamPartitioner(shard_map=m).partition(packets, positions)
        for s, (_, pos) in enumerate(parts):
            assert np.all(np.diff(pos) > 0)
            assert np.all(owners[pos] == s)
        assert sum(len(pos) for _, pos in parts) == len(packets)

    @settings(max_examples=100, deadline=None)
    @given(partition_cases())
    def test_parts_never_alias_the_input(self, case):
        """The supervisor keeps sent subchunks for re-feed, so no part
        may share memory with the caller's buffers."""
        m, packets, lengths = case
        for pkts, lens in StreamPartitioner(shard_map=m).partition(packets, lengths):
            assert not np.shares_memory(pkts, packets)
            if lengths is not None:
                assert not np.shares_memory(lens, lengths)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=1, max_value=16), flow_arrays)
    def test_base_owner_is_hash_mod_base(self, num_base, ids):
        """The base owner is the historical ``h0(flow) % num_base`` for
        every base count, the power-of-two ones included."""
        h = HashFamily(1, seed=DEFAULT_SHARD_SEED).hash_array(0, ids)
        np.testing.assert_array_equal(
            ShardMap(num_base=num_base).owner_of(ids),
            (h % np.uint64(num_base)).astype(np.int64),
        )

    def test_one_shard_never_hashes(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a one-shard map hashed its flows")

        monkeypatch.setattr(HashFamily, "hash_array", refuse)
        ids = np.arange(1000, dtype=np.uint64)
        owners = ShardMap(num_base=1).owner_of(ids)
        assert owners.dtype == np.int64
        np.testing.assert_array_equal(owners, np.zeros(len(ids)))
        lengths = np.full(len(ids), 64, dtype=np.int64)
        ((pkts, lens),) = StreamPartitioner(1).partition(ids, lengths)
        np.testing.assert_array_equal(pkts, ids)
        np.testing.assert_array_equal(lens, lengths)
        assert not np.shares_memory(pkts, ids)
        assert not np.shares_memory(lens, lengths)


# -- planner ------------------------------------------------------------------


class TestReshardPlanner:
    def test_flags_only_sustained_hot_shard(self):
        p = ReshardPlanner(threshold=0.8, sustain=3)
        assert p.observe({0: 0.9, 1: 0.2}) is None
        assert p.observe({0: 0.9, 1: 0.2}) is None
        assert p.observe({0: 0.95, 1: 0.2}) == 0

    def test_streak_resets_on_cool_observation(self):
        p = ReshardPlanner(threshold=0.8, sustain=2)
        assert p.observe({0: 0.9}) is None
        assert p.observe({0: 0.1}) is None  # streak broken
        assert p.observe({0: 0.9}) is None
        assert p.observe({0: 0.9}) == 0

    def test_ties_break_to_fullest_then_lowest_id(self):
        p = ReshardPlanner(threshold=0.5, sustain=1)
        assert p.observe({0: 0.6, 1: 0.9, 2: 0.6}) == 1
        assert p.observe({0: 0.7, 1: 0.7}) == 0

    def test_cooldown_suppresses_back_to_back_splits(self):
        p = ReshardPlanner(threshold=0.5, sustain=1, cooldown=2)
        assert p.observe({0: 0.9}) == 0
        assert p.observe({0: 0.9}) is None
        assert p.observe({0: 0.9}) is None
        assert p.observe({0: 0.9}) == 0

    def test_max_shards_caps_growth(self):
        p = ReshardPlanner(threshold=0.5, sustain=1, max_shards=2)
        assert p.observe({0: 0.9, 1: 0.9}) is None

    def test_decision_clears_all_streaks(self):
        p = ReshardPlanner(threshold=0.5, sustain=2)
        p.observe({0: 0.9, 1: 0.9})
        assert p.observe({0: 0.9, 1: 0.9}) == 0
        assert p.observe({0: 0.9, 1: 0.9}) is None  # everyone re-earns

    def test_rejects_bad_parameters(self):
        for kwargs in (
            {"threshold": 0.0},
            {"threshold": 1.5},
            {"threshold": 0.5, "sustain": 0},
            {"threshold": 0.5, "cooldown": -1},
            {"threshold": 0.5, "max_shards": 0},
        ):
            with pytest.raises(ConfigError):
                ReshardPlanner(**kwargs)


# -- live split integration ---------------------------------------------------


@pytest.fixture(scope="module")
def stream():
    rng = np.random.default_rng(11)
    return rng.zipf(1.25, 12_000).astype(np.uint64) % 2048


@pytest.fixture(scope="module")
def flows(stream):
    return np.unique(stream)


def offline_with_map(config, shard_map, packets):
    base = ShardedCaesar(config, shard_map=shard_map)
    base.process(packets)
    base.finalize()
    return base


def assert_matches_offline_map(result, runtime, config, stream, flows):
    """Bit-identity of a (possibly resharded) runtime against the
    offline ShardedCaesar built with the runtime's final map."""
    base = offline_with_map(config, result.shard_map, stream)
    base_digests = tuple(s.checkpoint().digest for s in base.shards)
    assert result.shard_digests == base_digests
    np.testing.assert_array_equal(
        runtime.query(flows), base.estimate(flows, "csm", clip_negative=True)
    )
    twin = result.load_scheme()
    np.testing.assert_array_equal(
        twin.estimate(flows, "csm", clip_negative=True),
        base.estimate(flows, "csm", clip_negative=True),
    )


class TestLiveReshard:
    def test_split_mid_stream_matches_offline_final_map(self, tmp_path, stream, flows):
        config = make_config()
        chunks = np.array_split(stream, 12)
        with StreamingRuntime(config, 2, state_dir=tmp_path) as rt:
            for i, chunk in enumerate(chunks):
                if i == 5:
                    rt.begin_reshard(1)
                rt.ingest(chunk)
            result = rt.drain()
            assert result.reshards == 1
            assert result.num_shards == 3
            assert result.shard_map.splits == (ShardSplit(donor=1, child=2),)
            assert_matches_offline_map(result, rt, config, stream, flows)

    def test_other_shards_keep_ingesting_during_split(self, tmp_path, stream, flows):
        """The headline liveness property: while the donor is sealing
        (here: frozen under SIGSTOP, so the phase provably cannot
        advance), chunks keep flowing to every other shard — asserted
        via the per-shard chunks_sent counters."""
        config = make_config()
        registry = MetricsRegistry()
        chunks = np.array_split(stream, 12)
        donor = 1
        with StreamingRuntime(config, 3, state_dir=tmp_path, registry=registry) as rt:
            for chunk in chunks[:4]:
                rt.ingest(chunk)
            rt.kill_worker(donor, signal.SIGSTOP)
            rt.begin_reshard(donor)
            others = [s for s in range(3) if s != donor]
            before = {
                s: registry.counter(f"runtime.shard{s}.chunks_sent").value
                for s in others
            }
            for chunk in chunks[4:8]:
                rt.ingest(chunk)
            # The donor is frozen: the seal cannot be processed, so the
            # split is provably still in progress while the others ate.
            assert rt.reshard_in_progress
            assert rt.supervisor.reshard_phase == "sealing"
            for s in others:
                after = registry.counter(f"runtime.shard{s}.chunks_sent").value
                assert after > before[s], f"shard {s} stalled during reshard"
            assert registry.counter("runtime.reshard.held_chunks").value > 0
            rt.kill_worker(donor, signal.SIGCONT)
            for chunk in chunks[8:]:
                rt.ingest(chunk)
            result = rt.drain()
            assert not rt.reshard_in_progress
            assert result.reshards == 1
            assert_matches_offline_map(result, rt, config, stream, flows)

    @pytest.mark.slow
    def test_recursive_splits(self, tmp_path, stream, flows):
        """Split, then split a successor: the WAL history chain is two
        deep and the map two versions in."""
        config = make_config()
        chunks = np.array_split(stream, 16)
        with StreamingRuntime(config, 2, state_dir=tmp_path) as rt:
            for i, chunk in enumerate(chunks):
                if i == 4:
                    rt.begin_reshard(1)
                if i == 10:
                    rt.finish_reshard()
                    rt.begin_reshard(1)  # split the heir again
                rt.ingest(chunk)
            result = rt.drain()
            assert result.reshards == 2
            assert result.num_shards == 4
            assert_matches_offline_map(result, rt, config, stream, flows)

    def test_queries_answered_across_the_split(self, tmp_path, stream, flows):
        config = make_config()
        chunks = np.array_split(stream, 12)
        watch = flows[:16]
        with StreamingRuntime(config, 2, state_dir=tmp_path) as rt:
            for i, chunk in enumerate(chunks):
                if i == 5:
                    rt.begin_reshard(0)
                rt.ingest(chunk)
                assert rt.query(watch).shape == watch.shape
            result = rt.drain()
            assert_matches_offline_map(result, rt, config, stream, flows)

    def test_second_reshard_while_in_progress_raises(self, tmp_path, stream):
        with StreamingRuntime(make_config(), 2, state_dir=tmp_path) as rt:
            rt.ingest(stream[:2000])
            rt.kill_worker(0, signal.SIGSTOP)
            try:
                rt.begin_reshard(0)
                with pytest.raises(IngestError, match="in progress"):
                    rt.begin_reshard(1)
            finally:
                rt.kill_worker(0, signal.SIGCONT)
            rt.finish_reshard()
            rt.drain()


def test_planner_triggers_live_split(tmp_path, stream, flows):
    """Hot-shard detection end to end: freeze both workers so each
    ring's fill climbs by exactly the bytes partitioned to it, let the
    planner watch the sustained fill, and require that the triggered
    split (a) names the shard with the fullest ring and (b) still
    drains bit-identical. The ring is sized so the trigger lands with
    room to spare in both frozen rings (a full one would block the
    producer); the tie-break is covered by the planner unit tests."""
    config = make_config()
    chunks = np.array_split(stream, 24)
    with StreamingRuntime(
        config,
        2,
        state_dir=tmp_path,
        ring_bytes=32 * 1024,
        reshard_above=0.5,
        reshard_sustain=3,
        max_shards=3,
    ) as rt:
        rt.kill_worker(0, signal.SIGSTOP)
        rt.kill_worker(1, signal.SIGSTOP)
        fed = 0
        for chunk in chunks:
            rt.ingest(chunk)
            fed += 1
            if rt.reshard_in_progress:
                break
        assert rt.reshard_in_progress, "planner never triggered"
        assert fed < len(chunks)
        fills = [h.channel.data_fill() for h in rt.supervisor.handles]
        assert max(fills) < 1.0
        donor = rt.supervisor._reshard.donor
        assert donor == int(np.argmax(fills))
        rt.kill_worker(0, signal.SIGCONT)
        rt.kill_worker(1, signal.SIGCONT)
        for chunk in chunks[fed:]:
            rt.ingest(chunk)
        result = rt.drain()
        assert result.reshards == 1
        assert result.shard_map.splits[0].donor == donor
        assert_matches_offline_map(result, rt, config, stream, flows)


# -- chaos matrix -------------------------------------------------------------


def _phase_is(rt, phase):
    def check() -> bool:
        rt.supervisor.pump()
        return rt.supervisor.reshard_phase == phase

    return check


def _run_reshard_chaos(tmp_path, stream, flows, kill_point):
    """Drive a scripted split and SIGKILL one process at ``kill_point``;
    the run must still drain bit-identical to the offline final map."""
    config = make_config()
    registry = MetricsRegistry()
    chunks = np.array_split(stream, 12)
    donor = 1
    with StreamingRuntime(config, 2, state_dir=tmp_path, registry=registry) as rt:
        for chunk in chunks[:4]:
            rt.ingest(chunk)

        if kill_point == "donor_sealing":
            # Freeze the donor so the seal provably cannot be processed,
            # then SIGKILL it mid-seal: the restart re-feeds and re-seals.
            rt.kill_worker(donor, signal.SIGSTOP)
            rt.begin_reshard(donor)
            rt.ingest(chunks[4])
            assert rt.supervisor.reshard_phase == "sealing"
            rt.kill_worker(donor, signal.SIGKILL)
        else:
            rt.begin_reshard(donor)
            rt.ingest(chunks[4])

        if kill_point == "donor_replaying":
            wait_until(_phase_is(rt, "replaying"), desc="replaying phase")
            # The donor sealed and the successors are booting; the donor
            # (still serving queries) dies and must recover to its
            # sealed state without disturbing the split.
            rt.kill_worker(donor, signal.SIGKILL)
        elif kill_point == "successor_replaying":
            wait_until(_phase_is(rt, "replaying"), desc="replaying phase")
            op = rt.supervisor._reshard
            for successor in op.successors:
                os.kill(successor.process.pid, signal.SIGKILL)
        elif kill_point in ("heir_refeed", "child_refeed"):
            # pump() alone performs the cutover but never flushes the
            # refeed backlog, so the refeed phase is stable to observe.
            wait_until(_phase_is(rt, "refeed"), desc="refeed phase")
            target = donor if kill_point == "heir_refeed" else 2
            rt.kill_worker(target, signal.SIGKILL)

        for chunk in chunks[5:]:
            rt.ingest(chunk)
        result = rt.drain()
        assert result.reshards == 1
        assert result.num_shards == 3
        # RuntimeResult.restarts only counts handles alive at drain (the
        # donor's tally dies with its handle at cutover) — the registry
        # counter sees every restart regardless of who got swapped out.
        assert registry.counter("runtime.restarts").value >= 1
        assert_matches_offline_map(result, rt, config, stream, flows)


CHAOS_MATRIX = [
    "donor_sealing",
    "donor_replaying",
    "successor_replaying",
    "heir_refeed",
    "child_refeed",
]


@pytest.mark.parametrize("kill_point", CHAOS_MATRIX)
def test_reshard_chaos(tmp_path, stream, flows, kill_point):
    _run_reshard_chaos(tmp_path, stream, flows, kill_point)
