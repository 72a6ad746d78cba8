"""Scalar vs batched engines: bit-identical by construction.

The batched eviction pipeline and its compiled cache kernel must
reproduce the scalar reference path *exactly* under a fixed seed —
same eviction sequence, same counter arrays, same cache statistics,
same generator state, same checkpoint digest — so that engine choice
is purely a performance knob. These tests enforce that contract at
every layer: the cache simulator, CAESAR, CASE, and the chunked RCS
loop, plus hypothesis sweeps over random workloads.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.case import Case, CaseConfig
from repro.baselines.rcs import RCS, RCSConfig
from repro.cachesim import EvictionBuffer, FlowCache
from repro.core.caesar import Caesar
from repro.core.config import CaesarConfig
from repro.core.split import split_batch, split_value
from repro.obs.registry import MetricsRegistry
from repro.obs.trace import EvictionTrace


def _base_config(**overrides) -> CaesarConfig:
    defaults = dict(
        cache_entries=64,
        entry_capacity=8,
        k=3,
        bank_size=128,
        counter_capacity=2**20 - 1,
        seed=0xBEE,
    )
    defaults.update(overrides)
    return CaesarConfig(**defaults)


ENGINES = ("scalar", "batched")


def _run_pair(
    config: CaesarConfig,
    packets: np.ndarray,
    lengths: np.ndarray | None = None,
    buffer_capacity: int = 257,
) -> tuple[Caesar, Caesar]:
    """Run the same workload through both engines (small odd buffer
    capacity so chunks straddle process()/finalize() boundaries)."""
    instances = tuple(
        Caesar(
            dataclasses.replace(config, engine=engine),
            buffer_capacity=buffer_capacity,
        )
        for engine in ENGINES
    )
    for instance in instances:
        half = len(packets) // 2
        instance.process(packets[:half], lengths[:half] if lengths is not None else None)
        instance.process(packets[half:], lengths[half:] if lengths is not None else None)
        instance.finalize()
    return instances


def _assert_identical(scalar: Caesar, *others: Caesar) -> None:
    digest = scalar.checkpoint().digest
    for other in others:
        np.testing.assert_array_equal(scalar.counters.values, other.counters.values)
        assert scalar.cache.stats == other.cache.stats
        assert scalar.counters.saturated_mass == other.counters.saturated_mass
        assert scalar._rng.bit_generator.state == other._rng.bit_generator.state
        assert set(scalar.flows_seen().tolist()) == set(other.flows_seen().tolist())
        assert scalar.recorded_mass == other.recorded_mass
        # The digest canonicalizes engine-presentation state (the engine
        # field, the index-memo order), so it must agree across engines.
        assert digest == other.checkpoint().digest


# -- golden equivalence: CAESAR -------------------------------------------------


@pytest.mark.parametrize("replacement", ["lru", "random"])
@pytest.mark.parametrize("remainder", ["random", "even"])
def test_caesar_engines_bit_identical(tiny_trace, replacement, remainder):
    config = _base_config(replacement=replacement, remainder=remainder)
    scalar, batched = _run_pair(config, tiny_trace.packets)
    _assert_identical(scalar, batched)
    ids = tiny_trace.flows.ids
    for method in ("csm", "mlm", "median"):
        expected = scalar.estimate(ids, method)
        np.testing.assert_array_equal(expected, batched.estimate(ids, method))


def test_caesar_engines_identical_on_volume_with_jumbo_weights(tiny_trace):
    """Weighted (byte-counting) streams, including weights at and above
    the per-entry capacity (immediate-overflow path)."""
    rng = np.random.default_rng(99)
    packets = tiny_trace.packets[:4000]
    lengths = rng.integers(1, 40, size=len(packets)).astype(np.int64)
    jumbo = rng.random(len(packets)) < 0.02
    lengths[jumbo] = rng.integers(64, 200, size=int(jumbo.sum()))
    config = _base_config(entry_capacity=50, counter_capacity=2**16 - 1)
    _assert_identical(*_run_pair(config, packets, lengths))


def test_caesar_engines_identical_with_tiny_buffer(tiny_trace):
    """A 1-slot buffer flushes on every eviction — the worst case for
    any chunking assumption."""
    _assert_identical(
        *_run_pair(_base_config(), tiny_trace.packets[:3000], buffer_capacity=1)
    )


def test_caesar_engines_identical_at_unit_entry_capacity(tiny_trace):
    """y = 1 degenerates the cache (every insert overflows outright)."""
    _assert_identical(
        *_run_pair(_base_config(entry_capacity=1), tiny_trace.packets[:3000])
    )


def test_caesar_reset_keeps_engines_aligned(tiny_trace):
    """Epoch reset (dump-and-discard) must leave both engines in the
    same state for the next epoch."""
    packets = tiny_trace.packets
    instances = [
        Caesar(_base_config(engine=engine), buffer_capacity=100)
        for engine in ENGINES
    ]
    for instance in instances:
        instance.process(packets[:3000])
        instance.reset()
        instance.process(packets[3000:6000])
        instance.finalize()
    _assert_identical(*instances)


# -- cache-simulator layer: identical eviction sequences -------------------------


def _collect_sequences(packets, weights, policy, seed, buffer_capacity):
    scalar_cache = FlowCache(num_entries=32, entry_capacity=6, policy=policy, seed=seed)
    scalar_events: list[tuple[int, int, int]] = []

    def sink(flow_id, value, reason):
        scalar_events.append((flow_id, value, reason.code))

    scalar_cache.process(packets, sink, weights=weights)
    scalar_cache.dump(sink)

    cache = FlowCache(num_entries=32, entry_capacity=6, policy=policy, seed=seed)
    buffer = EvictionBuffer(buffer_capacity)
    events: list[tuple[int, int, int]] = []

    def drain(ids, values, reasons):
        events.extend(zip(ids.tolist(), values.tolist(), reasons.tolist()))

    cache.process_into(packets, buffer, drain, weights=weights)
    cache.dump_into(buffer, drain)
    return scalar_events, scalar_cache.stats, events, cache.stats


@pytest.mark.parametrize("policy", ["lru", "random"])
@pytest.mark.parametrize("weighted", [False, True])
def test_cache_eviction_sequences_identical(policy, weighted):
    rng = np.random.default_rng(17)
    packets = rng.integers(0, 120, size=6000).astype(np.uint64)
    weights = (
        rng.integers(1, 9, size=len(packets)).astype(np.int64) if weighted else None
    )
    s_events, s_stats, events, stats = _collect_sequences(
        packets, weights, policy, seed=5, buffer_capacity=33
    )
    assert s_events == events
    assert s_stats == stats


# -- CASE and RCS ---------------------------------------------------------------


def test_case_engines_bit_identical(tiny_trace):
    base = CaseConfig(
        cache_entries=64,
        entry_capacity=8,
        num_counters=256,
        counter_capacity=255,
        max_value=float(tiny_trace.flows.sizes.max()),
        seed=0xCA5E,
    )
    instances = []
    for engine in ENGINES:
        case = Case(dataclasses.replace(base, engine=engine))
        case.process(tiny_trace.packets)
        case.finalize()
        instances.append(case)
    scalar = instances[0]
    ids = tiny_trace.flows.ids
    for other in instances[1:]:
        np.testing.assert_array_equal(scalar.array.values, other.array.values)
        assert scalar.power_operations == other.power_operations
        assert scalar.array.saturated_updates == other.array.saturated_updates
        assert scalar.cache.stats == other.cache.stats
        np.testing.assert_array_equal(scalar.estimate(ids), other.estimate(ids))


def test_rcs_chunk_size_does_not_change_results(tiny_trace):
    config = RCSConfig(k=3, bank_size=64, seed=11)
    whole = RCS(config)
    whole.process(tiny_trace.packets)
    chunked = RCS(config)
    chunked.chunk_size = 997
    chunked.process(tiny_trace.packets)
    np.testing.assert_array_equal(whole.counters.values, chunked.counters.values)
    assert whole._rng.bit_generator.state == chunked._rng.bit_generator.state


# -- splitter: batch == sequential ----------------------------------------------


def test_split_batch_matches_sequential_split_value():
    rng_a = np.random.default_rng(7)
    rng_b = np.random.default_rng(7)
    values = np.array([0, 1, 2, 3, 7, 8, 54, 1000, 5], dtype=np.int64)
    k = 3
    batch = split_batch(values, k, rng_a)
    sequential = np.stack([split_value(int(v), k, rng_b) for v in values])
    np.testing.assert_array_equal(batch, sequential)
    assert rng_a.bit_generator.state == rng_b.bit_generator.state


# -- property-based sweep --------------------------------------------------------


@st.composite
def _workloads(draw):
    num_flows = draw(st.integers(min_value=1, max_value=60))
    num_packets = draw(st.integers(min_value=1, max_value=1500))
    trace_seed = draw(st.integers(min_value=0, max_value=2**16))
    policy = draw(st.sampled_from(["lru", "random"]))
    remainder = draw(st.sampled_from(["random", "even"]))
    k = draw(st.integers(min_value=1, max_value=4))
    entry_capacity = draw(st.integers(min_value=1, max_value=12))
    cache_entries = draw(st.integers(min_value=1, max_value=24))
    weighted = draw(st.booleans())
    buffer_capacity = draw(st.integers(min_value=1, max_value=64))
    # burst_length > 1 repeats each draw, creating same-flow runs
    # (run weights stay uniform on a per-draw basis, so equal-weight
    # *and* mixed runs both occur).
    burst_length = draw(st.sampled_from([1, 1, 2, 5, 16]))
    rng = np.random.default_rng(trace_seed)
    packets = rng.integers(0, num_flows, size=num_packets).astype(np.uint64)
    packets = np.repeat(packets, burst_length)[:num_packets]
    if weighted:
        lengths = rng.integers(1, 3 * entry_capacity, size=num_packets).astype(np.int64)
        if draw(st.booleans()):
            # Per-run-uniform weights: periodic overflows within a run.
            lengths = np.repeat(lengths[:: max(burst_length, 1)], burst_length)[
                :num_packets
            ]
    else:
        lengths = None
    return packets, lengths, policy, remainder, k, entry_capacity, cache_entries, buffer_capacity


@settings(max_examples=40, deadline=None)
@given(_workloads())
def test_engines_identical_on_random_workloads(workload):
    (packets, lengths, policy, remainder, k, entry_capacity,
     cache_entries, buffer_capacity) = workload
    config = CaesarConfig(
        cache_entries=cache_entries,
        entry_capacity=entry_capacity,
        k=k,
        bank_size=32,
        counter_capacity=2**14 - 1,
        replacement=policy,
        remainder=remainder,
        seed=0xF00D,
    )
    _assert_identical(*_run_pair(config, packets, lengths, buffer_capacity=buffer_capacity))


# -- cache statistics: scalar record paths == record_batch ------------------------


@st.composite
def _stat_workloads(draw):
    """Workloads biased toward the accounting-heavy corners: ``jumbo``
    (weights at/above the entry capacity, immediate-overflow path) and
    ``replacement`` (far more flows than cache entries, so replacement
    evictions dominate), plus an unbiased ``mixed`` profile."""
    profile = draw(st.sampled_from(["jumbo", "replacement", "mixed"]))
    trace_seed = draw(st.integers(min_value=0, max_value=2**16))
    policy = draw(st.sampled_from(["lru", "random"]))
    num_packets = draw(st.integers(min_value=1, max_value=1200))
    buffer_capacity = draw(st.integers(min_value=1, max_value=48))
    entry_capacity = draw(st.integers(min_value=1, max_value=10))
    if profile == "replacement":
        cache_entries = draw(st.integers(min_value=1, max_value=4))
        num_flows = draw(st.integers(min_value=20, max_value=120))
    else:
        cache_entries = draw(st.integers(min_value=1, max_value=24))
        num_flows = draw(st.integers(min_value=1, max_value=60))
    rng = np.random.default_rng(trace_seed)
    packets = rng.integers(0, num_flows, size=num_packets).astype(np.uint64)
    if profile == "jumbo":
        weights = rng.integers(
            entry_capacity, 4 * entry_capacity + 1, size=num_packets
        ).astype(np.int64)
    elif draw(st.booleans()):
        weights = rng.integers(1, 2 * entry_capacity, size=num_packets).astype(np.int64)
    else:
        weights = None
    return packets, weights, policy, entry_capacity, cache_entries, buffer_capacity


@settings(max_examples=60, deadline=None)
@given(_stat_workloads())
def test_cache_stats_identical_across_record_paths(workload):
    """The scalar accounting path (per-eviction ``record_eviction`` plus
    per-packet hit/miss bumps) and the batched path (``record_batch``
    over drained chunks) must produce the *same* ``CacheStats`` — every
    field, for every workload shape — and the same eviction-event stream
    up to chunk timing (flow, value, reason; trace ``packet_index`` is
    exact for scalar and chunk-granular for batched, so it is excluded)."""
    packets, weights, policy, entry_capacity, cache_entries, buffer_capacity = workload
    traces = [EvictionTrace(capacity=4 * len(packets) + 8) for _ in range(2)]

    scalar_cache = FlowCache(
        cache_entries, entry_capacity, policy=policy, seed=3, trace=traces[0]
    )
    scalar_cache.process(packets, lambda fid, v, r: None, weights=weights)
    scalar_cache.dump(lambda fid, v, r: None)
    s_events = [(e.flow_id, e.value, e.reason) for e in traces[0].events()]

    cache = FlowCache(
        cache_entries, entry_capacity, policy=policy, seed=3, trace=traces[1]
    )
    buffer = EvictionBuffer(buffer_capacity)
    cache.process_into(packets, buffer, lambda i, v, r: None, weights=weights)
    cache.dump_into(buffer, lambda i, v, r: None)
    assert scalar_cache.stats == cache.stats
    events = [(e.flow_id, e.value, e.reason) for e in traces[1].events()]
    assert s_events == events
    assert scalar_cache.stats.evicted_packets + scalar_cache.stats.dumped_packets == (
        int(weights.sum()) if weights is not None else len(packets)
    )


# -- observability must not perturb results ---------------------------------------


@pytest.mark.parametrize("engine", list(ENGINES))
def test_metrics_do_not_perturb_results(tiny_trace, engine):
    """Bit-identical counters/stats/RNG state with metrics on or off,
    for both engines — observability is read-only."""
    packets = tiny_trace.packets[:5000]
    instances = []
    for registry in (None, MetricsRegistry()):
        caesar = Caesar(
            _base_config(engine=engine),
            registry=registry,
            eviction_trace=EvictionTrace(capacity=128) if registry else None,
        )
        caesar.process(packets)
        caesar.finalize()
        instances.append(caesar)
    off, on = instances
    _assert_identical(off, on)
    snapshot = on.metrics.snapshot()
    assert snapshot["gauges"]["caesar.cache.accesses"] == len(packets)
    assert all(not section for section in off.metrics.snapshot().values())


def test_metrics_enabled_engines_still_bit_identical(tiny_trace):
    """The acceptance bar: engine parity holds with metrics enabled."""
    packets = tiny_trace.packets[:5000]
    instances = [
        Caesar(
            _base_config(engine=engine),
            registry=MetricsRegistry(),
            buffer_capacity=257,
        )
        for engine in ENGINES
    ]
    for instance in instances:
        instance.process(packets)
        instance.finalize()
    _assert_identical(*instances)
    for caesar in instances:
        gauges = caesar.metrics.snapshot()["gauges"]
        assert gauges["caesar.num_packets"] == len(packets)
        assert gauges["caesar.memory_bits"] == caesar.memory_bits
