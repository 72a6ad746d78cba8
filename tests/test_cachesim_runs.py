"""Same-flow runs and buffer edges: the compiled kernel vs the scalar oracle.

The batched path (:meth:`FlowCache.process_into`, the compiled kernel in
:mod:`repro.cachesim.kernel`) must emit exactly the scalar path's
eviction rows, with chunk boundaries exactly where a buffer of the same
capacity fills, and leave the same statistics, resident table, policy
order and generator state. The engine-level contract lives in
``tests/test_engine_equivalence.py``; this file pins the edges: runs
that overflow the buffer mid-run, jumbo and non-positive weights,
``y = 1``, ``M = 1``, zero-packet chunks, buffers so small that the
kernel must return between a replacement row and the new flow's
overflow row, a drain that wipes the table mid-chunk, and a
checkpoint/restore at any chunk boundary. It also
pins the numpy property the random-replacement look-ahead relies on.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cachesim import kernel
from repro.cachesim.base import FINAL_DUMP_CODE, OVERFLOW_CODE, REPLACEMENT_CODE
from repro.cachesim.buffer import EvictionBuffer
from repro.cachesim.cache import FlowCache
from repro.errors import ConfigError, KernelBuildError

# -- oracle helpers ---------------------------------------------------------


def _parts(packets, weights=None, cuts=()):
    """Split a stream (and its weights) at the given packet offsets."""
    bounds = [0, *sorted(cuts), len(packets)]
    return [
        (packets[a:b], None if weights is None else weights[a:b])
        for a, b in zip(bounds[:-1], bounds[1:])
    ]


def _scalar(parts, *cache_args, **cache_kwargs):
    """Scalar oracle: one event list per ``process`` call, then the
    dump's; plus the final stats."""
    cache = FlowCache(*cache_args, **cache_kwargs)
    calls = []
    for packets, weights in parts:
        events: list[tuple[int, int, int]] = []
        cache.process(
            packets, lambda f, v, r: events.append((f, v, r.code)), weights=weights
        )
        calls.append(events)
    state = cache.export_state()
    events = []
    cache.dump(lambda f, v, r: events.append((f, v, r.code)))
    calls.append(events)
    return calls, cache.stats, state


def _chunked(calls, capacity):
    """Where a buffer of ``capacity`` rows cuts each call's events: it
    drains when full and at the end of every call."""
    return [
        events[i : i + capacity]
        for events in calls
        for i in range(0, len(events), capacity)
    ]


def _kernel(parts, capacity, *cache_args, **cache_kwargs):
    cache = FlowCache(*cache_args, **cache_kwargs)
    buffer = EvictionBuffer(capacity)
    chunks: list[list[tuple[int, int, int]]] = []

    def drain(ids, values, reasons):
        chunks.append(list(zip(ids.tolist(), values.tolist(), reasons.tolist())))

    for packets, weights in parts:
        cache.process_into(packets, buffer, drain, weights=weights)
    state = cache.export_state()
    cache.dump_into(buffer, drain)
    return chunks, cache.stats, state


def _assert_matches_scalar(parts, capacity, *cache_args, **cache_kwargs):
    calls, s_stats, s_state = _scalar(parts, *cache_args, **cache_kwargs)
    chunks, k_stats, k_state = _kernel(parts, capacity, *cache_args, **cache_kwargs)
    assert chunks == _chunked(calls, capacity)
    assert k_stats == s_stats
    assert k_state["ids"].tolist() == s_state["ids"].tolist()
    assert k_state["counts"].tolist() == s_state["counts"].tolist()
    assert k_state["policy"] == s_state["policy"]
    return chunks


def _collect(cache: FlowCache, packets, buffer, weights=None):
    chunks: list[list[tuple[int, int, int]]] = []

    def drain(ids, values, reasons):
        chunks.append(list(zip(ids.tolist(), values.tolist(), reasons.tolist())))

    cache.process_into(packets, buffer, drain, weights=weights)
    cache.dump_into(buffer, drain)
    return chunks


# -- a run of one flow vs its closed form -------------------------------------


def _brute_force(count: int, run_length: int, weight: int, capacity: int):
    """Per-packet replay of a hit run: (eviction values, final count)."""
    events = []
    for _ in range(run_length):
        count += weight
        if count >= capacity:
            events.append(count)
            count = 0
    return events, count


def _weighted_closed_form(count: int, run_length: int, weight: int, capacity: int):
    """An equal-weight run is periodic after its first overflow: the
    first fires after ``ceil((y - c) / w)`` hits, then every
    ``ceil(y / w)`` hits. Returns (eviction values, final count)."""
    to_first = -((count - capacity) // weight)
    if run_length < to_first:
        return [], count + run_length * weight
    cycle = -(-capacity // weight)
    n_cycles, leftover = divmod(run_length - to_first, cycle)
    return [count + to_first * weight] + [cycle * weight] * n_cycles, leftover * weight


def _kernel_run(count: int, run_length: int, weight: int, capacity: int):
    """The kernel on ``run_length`` hits of one flow whose entry holds
    ``count``: (eviction values, final count)."""
    cache = FlowCache(2, capacity)
    flow = np.uint64(5)
    if count:
        cache.process_into(
            np.array([flow]), EvictionBuffer(4), lambda i, v, r: None,
            weights=np.array([count], dtype=np.int64),
        )
    values: list[int] = []
    cache.process_into(
        np.full(run_length, flow, dtype=np.uint64),
        EvictionBuffer(3),
        lambda i, v, r: values.extend(v.tolist()),
        weights=np.full(run_length, weight, dtype=np.int64),
    )
    return values, cache.get(int(flow))


@settings(max_examples=150, deadline=None)
@given(
    count=st.integers(min_value=0, max_value=30),
    run_length=st.integers(min_value=0, max_value=200),
    capacity=st.integers(min_value=1, max_value=31),
)
def test_unit_closed_form_matches_brute_force(count, run_length, capacity):
    count %= capacity  # resident counts are always < capacity
    events, final = _brute_force(count, run_length, 1, capacity)
    total = count + run_length
    assert events == [capacity] * (total // capacity)
    assert final == total % capacity
    assert _kernel_run(count, run_length, 1, capacity) == (events, final)


@settings(max_examples=200, deadline=None)
@given(
    count=st.integers(min_value=0, max_value=30),
    run_length=st.integers(min_value=0, max_value=120),
    weight=st.integers(min_value=1, max_value=80),
    capacity=st.integers(min_value=1, max_value=31),
)
def test_weighted_closed_form_matches_brute_force(count, run_length, weight, capacity):
    count %= capacity
    expected = _brute_force(count, run_length, weight, capacity)
    assert _weighted_closed_form(count, run_length, weight, capacity) == expected
    assert _kernel_run(count, run_length, weight, capacity) == expected


def test_weighted_closed_form_jumbo_cycle_is_every_packet():
    # w >= y: every hit overflows outright (cycle length 1, value w).
    assert _weighted_closed_form(2, 3, 15, 10) == ([17, 15, 15], 0)
    assert _kernel_run(2, 3, 15, 10) == ([17, 15, 15], 0)


# -- buffer boundaries --------------------------------------------------------


@pytest.mark.parametrize("buffer_capacity", [1, 2, 3, 7])
def test_single_run_overflowing_buffer_flushes_mid_expansion(buffer_capacity):
    """One run emits more evictions than the buffer holds: the kernel
    returns on every full buffer and resumes mid-run."""
    packets = np.full(101, 5, dtype=np.uint64)  # y=2 → 50 overflows + residue 1
    chunks = _assert_matches_scalar(_parts(packets), buffer_capacity, 4, 2)
    assert len(chunks) > 1  # the run really did flush mid-run
    flat = [e for c in chunks for e in c]
    assert flat == [(5, 2, OVERFLOW_CODE)] * 50 + [(5, 1, FINAL_DUMP_CODE)]


def test_weighted_run_cycle_expansion_straddles_buffer():
    """Equal-weight run whose first eviction plus cycle tail straddle
    several flushes."""
    packets = np.full(40, 8, dtype=np.uint64)
    weights = np.full(40, 7, dtype=np.int64)  # y=10: first at 2 hits, cycle len 2
    _assert_matches_scalar(_parts(packets, weights), 3, 2, 10)


def test_jumbo_fresh_insert_run_expansion():
    """w >= y at the head of a fresh-insert run: the insert overflows
    outright and every subsequent hit emits w — across buffer flushes."""
    packets = np.full(9, 3, dtype=np.uint64)
    weights = np.full(9, 25, dtype=np.int64)  # y=10, w=25: jumbo every packet
    chunks = _assert_matches_scalar(_parts(packets, weights), 2, 2, 10)
    flat = [e for c in chunks for e in c]
    assert flat == [(3, 25, OVERFLOW_CODE)] * 9  # nothing resident to dump


@pytest.mark.parametrize("policy", ["lru", "random"])
@pytest.mark.parametrize("buffer_capacity", [1, 2, 3])
def test_return_between_replacement_and_jumbo_overflow(policy, buffer_capacity):
    """A jumbo miss on the full table emits a replacement row and then
    the new flow's overflow row, so tiny buffers fill between the two
    rows of one packet: the kernel must stop before the new flow's
    insert and redo it on the next call."""
    rng = np.random.default_rng(buffer_capacity)
    packets = rng.integers(0, 9, size=400).astype(np.uint64)
    weights = rng.integers(1, 6, size=400).astype(np.int64)
    weights[rng.random(400) < 0.3] = 40  # jumbo: y = 12
    chunks = _assert_matches_scalar(
        _parts(packets, weights, cuts=(57, 58, 301)), buffer_capacity, 3, 12,
        policy=policy, seed=4,
    )
    rows = [e for c in chunks for e in c]
    replaced_then_jumbo = any(
        a[2] == REPLACEMENT_CODE and b == (b[0], 40, OVERFLOW_CODE) and a[0] != b[0]
        for a, b in zip(rows, rows[1:])
    )
    assert replaced_then_jumbo


def test_zero_packet_stream_is_noop():
    cache = FlowCache(4, 8)
    chunks = _collect(cache, np.array([], dtype=np.uint64), EvictionBuffer(4))
    assert chunks == []
    assert cache.stats.accesses == 0


def test_zero_length_weighted_stream_is_noop():
    cache = FlowCache(4, 8)
    chunks = _collect(
        cache,
        np.array([], dtype=np.uint64),
        EvictionBuffer(4),
        weights=np.array([], dtype=np.int64),
    )
    assert chunks == []


def test_zero_packet_chunks_between_work():
    packets = np.arange(30, dtype=np.uint64) % 7
    _assert_matches_scalar(_parts(packets, cuts=(0, 0, 12, 12, 30)), 4, 3, 5)


def test_y_equal_one_unit_run_evicts_every_packet():
    """y == 1 degenerates every unit insert/hit into an overflow."""
    packets = np.full(12, 4, dtype=np.uint64)
    chunks = _assert_matches_scalar(_parts(packets), 5, 4, 1)
    flat = [e for c in chunks for e in c]
    assert flat == [(4, 1, OVERFLOW_CODE)] * 12


@pytest.mark.parametrize("policy", ["lru", "random"])
def test_single_entry_table(policy):
    """M = 1: every miss replaces the only resident flow."""
    rng = np.random.default_rng(8)
    packets = np.repeat(rng.integers(0, 5, size=200).astype(np.uint64), 3)
    _assert_matches_scalar(_parts(packets, cuts=(100,)), 3, 1, 4, policy=policy, seed=1)


def test_non_positive_weights():
    """Zero and negative weights: counts may sit at or below zero, and
    a victim holding no positive value leaves without a row."""
    rng = np.random.default_rng(3)
    packets = rng.integers(0, 12, size=600).astype(np.uint64)
    weights = rng.integers(-4, 6, size=600).astype(np.int64)
    for policy in ("lru", "random"):
        _assert_matches_scalar(_parts(packets, weights), 5, 4, 6, policy=policy)


def test_mismatched_weights_rejected():
    cache = FlowCache(4, 8)
    with pytest.raises(ConfigError):
        cache.process_into(
            np.array([1, 1], dtype=np.uint64),
            EvictionBuffer(4),
            lambda i, v, r: None,
            weights=np.array([1], dtype=np.int64),
        )


def test_mixed_weight_run_falls_back_per_packet():
    """A run whose weights differ has no periodic structure; the kernel
    must still match the per-packet loop exactly."""
    packets = np.full(20, 6, dtype=np.uint64)
    weights = np.random.default_rng(11).integers(1, 12, size=20).astype(np.int64)
    _assert_matches_scalar(_parts(packets, weights), 3, 3, 7)


def test_replacement_heavy_coalesced_stream_matches():
    """More flows than entries with long runs: replacement evictions at
    run heads interleave with overflows inside the runs."""
    rng = np.random.default_rng(23)
    ids = np.repeat(rng.integers(0, 40, size=300).astype(np.uint64), 7)
    for policy in ("lru", "random"):
        chunks = _assert_matches_scalar(_parts(ids), 13, 4, 3, policy=policy, seed=2)
        assert any(e[2] == FINAL_DUMP_CODE for c in chunks for e in c)


@pytest.mark.parametrize("policy", ["lru", "random"])
def test_wipe_from_the_drain_mid_chunk(policy):
    """Fault injection wipes the table from inside a drain while the
    kernel is stopped mid-chunk (at times between a replacement row and
    the new flow's insert): the kernel resumes on the emptied table and
    every packet's mass is drained or wiped exactly once."""
    packets = np.random.default_rng(12).integers(0, 40, size=3000).astype(np.uint64)
    cache = FlowCache(8, 5, policy=policy, seed=1)
    drained: list[int] = []
    wiped: list[int] = []

    def drain(ids, values, reasons):
        drained.append(int(values.sum()))
        if len(drained) % 50 == 0:
            wiped.append(cache.wipe()[1])

    buffer = EvictionBuffer(2)
    cache.process_into(packets, buffer, drain)
    assert len(wiped) > 10 and len(cache) <= 8
    cache.dump_into(buffer, drain)
    assert sum(drained) + sum(wiped) == len(packets)
    assert len(cache) == 0


# -- switching paths, pickling, checkpoints ----------------------------------------


def test_switching_between_scalar_and_batched_paths():
    """A cache fed alternately by ``access`` and ``process_into`` moves
    its table between representations without changing behaviour."""
    rng = np.random.default_rng(5)
    packets = rng.integers(0, 30, size=900).astype(np.uint64)
    for policy in ("lru", "random"):
        oracle = FlowCache(8, 5, policy=policy, seed=9)
        expected: list[tuple[int, int, int]] = []
        oracle.process(packets, lambda f, v, r: expected.append((f, v, r.code)))
        mixed = FlowCache(8, 5, policy=policy, seed=9)
        got: list[tuple[int, int, int]] = []
        buffer = EvictionBuffer(6)

        def drain(ids, values, reasons):
            got.extend(zip(ids.tolist(), values.tolist(), reasons.tolist()))

        for i, part in enumerate(np.array_split(packets, 9)):
            if i % 2:
                for fid in part.tolist():
                    mixed.access(fid, lambda f, v, r: got.append((f, v, r.code)))
            else:
                mixed.process_into(part, buffer, drain)
        assert got == expected
        assert mixed.stats == oracle.stats
        assert mixed.export_state()["policy"] == oracle.export_state()["policy"]


def test_pickled_cache_resumes_identically():
    rng = np.random.default_rng(6)
    packets = rng.integers(0, 50, size=2000).astype(np.uint64)
    for policy in ("lru", "random"):
        straight = FlowCache(16, 6, policy=policy, seed=2)
        copied = FlowCache(16, 6, policy=policy, seed=2)
        buffer = EvictionBuffer(64)
        drop = lambda i, v, r: None  # noqa: E731
        straight.process_into(packets, buffer, drop)
        copied.process_into(packets[:1000], buffer, drop)
        copied = pickle.loads(pickle.dumps(copied))
        copied.process_into(packets[1000:], buffer, drop)
        assert copied.stats == straight.stats
        assert copied.export_state()["policy"] == straight.export_state()["policy"]
        assert copied.export_state()["ids"].tolist() == straight.export_state()["ids"].tolist()


def test_inspection_in_kernel_representation():
    cache = FlowCache(4, 10)
    cache.process_into(
        np.array([7, 7, 8, 9, 7], dtype=np.uint64), EvictionBuffer(4), lambda i, v, r: None
    )
    assert len(cache) == 3
    assert 7 in cache and 10 not in cache
    assert cache.resident_count(7) == 3
    assert cache.get(10, -1) == -1
    with pytest.raises(KeyError):
        cache.resident_count(10)
    assert list(cache.iter_entries()) == [(7, 3), (8, 1), (9, 1)]
    np.testing.assert_array_equal(
        cache.resident_values(np.array([9, 10, 7], dtype=np.uint64)), [1, 0, 3]
    )
    assert cache.wipe() == (3, 5)
    assert len(cache) == 0


@st.composite
def _sweeps(draw):
    policy = draw(st.sampled_from(["lru", "random"]))
    weights_kind = draw(st.sampled_from(["unit", "mixed", "jumbo", "non_positive"]))
    burst = draw(st.sampled_from([1, 16]))
    num_flows = draw(st.integers(min_value=1, max_value=40))
    num_packets = draw(st.integers(min_value=0, max_value=600))
    cache_entries = draw(st.integers(min_value=1, max_value=16))
    entry_capacity = draw(st.integers(min_value=1, max_value=10))
    buffer_capacity = draw(st.integers(min_value=1, max_value=40))
    cuts = draw(st.lists(st.integers(min_value=0, max_value=num_packets), max_size=5))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**16)))
    packets = rng.integers(0, num_flows, size=num_packets).astype(np.uint64)
    packets = np.repeat(packets, burst)[:num_packets]
    y = entry_capacity
    weights = {
        "unit": None,
        "mixed": rng.integers(1, 2 * y + 1, size=num_packets),
        "jumbo": rng.integers(y, 4 * y + 1, size=num_packets),
        "non_positive": rng.integers(-y, y + 1, size=num_packets),
    }[weights_kind]
    if weights is not None:
        weights = weights.astype(np.int64)
    restore_at = draw(st.integers(min_value=0, max_value=len(cuts) + 1))
    return (
        _parts(packets, weights, cuts), policy, cache_entries, entry_capacity,
        buffer_capacity, restore_at,
    )


@settings(max_examples=80, deadline=None)
@given(_sweeps())
def test_kernel_matches_scalar_with_restore_at_chunk_boundary(sweep):
    """Policy × weights × arrival × chunking, with the kernel's cache
    checkpointed and restored into a fresh cache at a random chunk
    boundary: rows, chunk boundaries, stats, table, policy order and
    generator state all match the scalar oracle."""
    parts, policy, m, y, capacity, restore_at = sweep
    calls, s_stats, s_state = _scalar(parts, m, y, policy=policy, seed=7)
    cache = FlowCache(m, y, policy=policy, seed=7)
    buffer = EvictionBuffer(capacity)
    chunks: list[list[tuple[int, int, int]]] = []

    def drain(ids, values, reasons):
        chunks.append(list(zip(ids.tolist(), values.tolist(), reasons.tolist())))

    for i, (packets, weights) in enumerate(parts):
        if i == restore_at:
            restored = FlowCache(m, y, policy=policy, seed=123)
            restored.restore_state(cache.export_state())
            restored.stats = cache.stats
            cache = restored
        cache.process_into(packets, buffer, drain, weights=weights)
    k_state = cache.export_state()
    cache.dump_into(buffer, drain)
    assert chunks == _chunked(calls, capacity)
    assert cache.stats == s_stats
    assert k_state["ids"].tolist() == s_state["ids"].tolist()
    assert k_state["counts"].tolist() == s_state["counts"].tolist()
    assert k_state["policy"] == s_state["policy"]


# -- the numpy property random replacement relies on ---------------------------------


@pytest.mark.parametrize("bound", [1, 7, 5333, 10667, 2**31 + 5])
def test_batched_integers_equal_scalar_draws(bound):
    """The kernel draws random victims as one ``integers(M, size=c)``
    block and then advances the policy's generator by the same call;
    the scalar path calls ``integers(M)`` once per victim. Both must
    give the same values and leave the same generator state."""
    for seed, count in ((0, 1), (1, 5), (2, 1000), (3, 4097)):
        block_rng = np.random.default_rng(seed)
        scalar_rng = np.random.default_rng(seed)
        block = block_rng.integers(bound, size=count)
        scalars = [int(scalar_rng.integers(bound)) for _ in range(count)]
        assert block.tolist() == scalars
        assert block_rng.bit_generator.state == scalar_rng.bit_generator.state


# -- build failures are loud ------------------------------------------------------


def test_build_failure_shows_compiler_message(tmp_path, monkeypatch):
    broken = tmp_path / "broken.c"
    broken.write_text("int fc_run(void) { return missing_symbol; }\n")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    monkeypatch.setattr(kernel, "SOURCE", broken)
    with pytest.raises(KernelBuildError, match="missing_symbol"):
        kernel.build()
    assert not list((tmp_path / "cache" / "repro").glob("*.so"))


def test_missing_compiler_is_loud(tmp_path, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    monkeypatch.setattr(kernel, "COMPILER", "no-such-compiler-xyz")
    with pytest.raises(KernelBuildError, match="no-such-compiler-xyz"):
        kernel.build()


def test_batched_path_without_kernel_raises(monkeypatch):
    monkeypatch.setattr(kernel, "_LIB", None)
    monkeypatch.setattr(kernel, "_BUILD_ERROR", "cc: fatal error: no input files")
    cache = FlowCache(4, 8)
    with pytest.raises(KernelBuildError, match="no input files"):
        cache.process_into(
            np.array([1], dtype=np.uint64), EvictionBuffer(4), lambda i, v, r: None
        )
    # The scalar reference path needs no kernel.
    cache.process(np.array([1, 1], dtype=np.uint64), lambda f, v, r: None)
    assert cache.resident_count(1) == 2
