"""Observability layer: registry semantics, trace ring, determinism,
scheme gauges, export, and the CLI surface.

The contract under test (docs/observability.md): metrics are *opt-in*
(``registry=None`` everywhere means off, via the shared null registry),
*deterministic* in their counter/histogram/timer-call sections under a
fixed seed, and *non-perturbing* — which tests/test_engine_equivalence.py
enforces at the bit level.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.analysis.export import export_metrics, format_metrics
from repro.api import measure
from repro.baselines.rcs import RCS, RCSConfig
from repro.cachesim.base import EvictionReason
from repro.cli import main
from repro.core.caesar import Caesar
from repro.core.config import CaesarConfig
from repro.core.epochs import EpochalCaesar
from repro.core.sharded import ShardedCaesar
from repro.errors import ConfigError
from repro.obs import (
    NULL_REGISTRY,
    EvictionTrace,
    MetricsRegistry,
    NullRegistry,
    observe_scheme,
    resolve_registry,
    snapshot_of,
)


def _tiny_config(**overrides) -> CaesarConfig:
    defaults = dict(
        cache_entries=64, entry_capacity=8, k=3, bank_size=128, seed=0xD0
    )
    defaults.update(overrides)
    return CaesarConfig(**defaults)


# -- registry instruments ---------------------------------------------------------


class TestRegistry:
    def test_counter_get_or_create(self):
        reg = MetricsRegistry()
        reg.counter("a").inc()
        reg.counter("a").inc(3)
        assert reg.snapshot()["counters"] == {"a": 4}

    def test_gauge_is_last_value(self):
        reg = MetricsRegistry()
        reg.gauge("g").set(2)
        reg.gauge("g").set(7.5)
        assert reg.snapshot()["gauges"] == {"g": 7.5}

    def test_histogram_bucket_boundaries(self):
        reg = MetricsRegistry()
        h = reg.histogram("h", edges=(1, 2, 4))
        # bucket i counts edges[i-1] < v <= edges[i]; last bucket is overflow
        for v in (1, 2, 2, 3, 4, 5, 100):
            h.observe(v)
        assert h.bucket_counts == [1, 2, 2, 2]
        assert h.count == 7
        assert h.total == 1 + 2 + 2 + 3 + 4 + 5 + 100

    def test_histogram_observe_many_matches_scalar(self):
        rng = np.random.default_rng(0)
        values = rng.integers(0, 3000, size=500).astype(np.int64)
        reg = MetricsRegistry()
        one, many = reg.histogram("one"), reg.histogram("many")
        for v in values.tolist():
            one.observe(v)
        many.observe_many(values)
        many.observe_many(values[:0])  # empty chunk is a no-op
        assert one.bucket_counts == many.bucket_counts
        assert (one.count, one.total) == (many.count, many.total)

    def test_histogram_edge_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.histogram("h", edges=(1, 2))
        with pytest.raises(ConfigError):
            reg.histogram("h", edges=(1, 2, 3))
        with pytest.raises(ConfigError):
            reg.histogram("bad", edges=(2, 2))

    def test_timer_accumulates_calls_and_seconds(self):
        reg = MetricsRegistry()
        for _ in range(3):
            with reg.timer("t"):
                pass
        snap = reg.snapshot()["timers"]["t"]
        assert snap["calls"] == 3
        assert snap["seconds"] >= 0.0

    def test_snapshot_sorted_and_json_stable(self):
        reg = MetricsRegistry()
        reg.counter("b").inc()
        reg.counter("a").inc()
        assert list(reg.snapshot()["counters"]) == ["a", "b"]
        assert json.loads(reg.to_json()) == reg.snapshot()

    def test_reset_drops_instruments(self):
        reg = MetricsRegistry()
        reg.counter("a").inc()
        reg.reset()
        assert reg.snapshot()["counters"] == {}


class TestNullRegistry:
    def test_shared_singletons_and_no_state(self):
        null = NullRegistry()
        assert null.counter("x") is null.counter("y")
        assert null.gauge("x") is null.gauge("y")
        assert null.histogram("x") is null.histogram("y", edges=(9,))
        assert null.timer("x") is null.timer("y")
        null.counter("x").inc(5)
        null.gauge("x").set(5)
        null.histogram("x").observe(5)
        null.histogram("x").observe_many(np.array([1, 2], dtype=np.int64))
        with null.timer("x"):
            pass
        assert null.snapshot() == {
            "counters": {}, "gauges": {}, "histograms": {}, "timers": {}
        }
        assert not null.enabled

    def test_resolve_registry_maps_none(self):
        assert resolve_registry(None) is NULL_REGISTRY
        reg = MetricsRegistry()
        assert resolve_registry(reg) is reg

    def test_snapshot_of_accepts_mapping(self):
        snap = {"counters": {"a": 1}}
        assert snapshot_of(snap) == snap
        reg = MetricsRegistry()
        assert snapshot_of(reg) == reg.snapshot()


# -- eviction-trace ring ----------------------------------------------------------


class TestEvictionTrace:
    def test_capacity_validated(self):
        with pytest.raises(ConfigError):
            EvictionTrace(capacity=0)

    def test_ring_keeps_most_recent_in_order(self):
        trace = EvictionTrace(capacity=4)
        for i in range(7):
            trace.record(i, 10 * i, 0, i)
        assert trace.recorded == 7
        assert len(trace) == 4
        assert [e.flow_id for e in trace.events()] == [3, 4, 5, 6]
        assert [e.value for e in trace.events()] == [30, 40, 50, 60]

    def test_record_batch_matches_scalar_records(self):
        rng = np.random.default_rng(1)
        ids = rng.integers(0, 50, size=33).astype(np.uint64)
        values = rng.integers(1, 9, size=33).astype(np.int64)
        reasons = rng.integers(0, 3, size=33).astype(np.uint8)
        scalar, batched = EvictionTrace(capacity=8), EvictionTrace(capacity=8)
        for f, v, r in zip(ids.tolist(), values.tolist(), reasons.tolist()):
            scalar.record(f, v, r, 99)
        batched.record_batch(ids, values, reasons, packet_index=99)
        assert scalar.events() == batched.events()

    def test_jumbo_chunk_keeps_tail(self):
        trace = EvictionTrace(capacity=4)
        n = 11
        trace.record_batch(
            np.arange(n, dtype=np.uint64),
            np.arange(n, dtype=np.int64),
            np.zeros(n, dtype=np.uint8),
            packet_index=5,
        )
        assert trace.recorded == n
        assert [e.flow_id for e in trace.events()] == [7, 8, 9, 10]

    def test_to_dicts_round_trips_reason(self):
        trace = EvictionTrace(capacity=2)
        trace.record(1, 2, EvictionReason.FINAL_DUMP.code, 3)
        (d,) = trace.to_dicts()
        assert d == {"flow_id": 1, "value": 2, "reason": "final_dump", "packet_index": 3}

    def test_caesar_records_eviction_stream(self, tiny_trace):
        trace = EvictionTrace(capacity=64)
        caesar = Caesar(_tiny_config(), eviction_trace=trace)
        caesar.process(tiny_trace.packets[:3000])
        caesar.finalize()
        assert trace.recorded > 0
        reasons = {e.reason for e in trace.events()}
        assert reasons <= set(EvictionReason)
        assert all(0 <= e.packet_index <= 3000 for e in trace.events())


# -- determinism ------------------------------------------------------------------


def _instrumented_run(packets) -> dict:
    registry = MetricsRegistry()
    caesar = Caesar(_tiny_config(), registry=registry)
    caesar.process(packets)
    caesar.finalize()
    return registry.snapshot()


def test_snapshot_deterministic_under_fixed_seed(tiny_trace):
    packets = tiny_trace.packets[:4000]
    a, b = _instrumented_run(packets), _instrumented_run(packets)
    assert a["counters"] == b["counters"]
    assert a["histograms"] == b["histograms"]
    assert a["gauges"] == b["gauges"]  # no wall-clock gauges in this path
    assert {n: t["calls"] for n, t in a["timers"].items()} == {
        n: t["calls"] for n, t in b["timers"].items()
    }


def test_expected_instrument_names_present(tiny_trace):
    snap = _instrumented_run(tiny_trace.packets[:4000])
    assert "cache.drain_chunks" in snap["counters"]
    assert "cache.chunk_rows" in snap["histograms"]
    for timer in ("cache.process", "cache.drain", "cache.dump",
                  "caesar.process", "caesar.finalize", "caesar.land"):
        assert timer in snap["timers"], timer
    for gauge in ("caesar.memory_bits", "caesar.num_packets",
                  "caesar.cache.hit_rate", "caesar.cache.accesses"):
        assert gauge in snap["gauges"], gauge


# -- scheme-level gauges ----------------------------------------------------------


def test_measure_reports_throughput(tiny_trace):
    registry = MetricsRegistry()
    result = measure(
        tiny_trace.packets[:3000],
        sram_kb=2.0,
        cache_kb=1.0,
        registry=registry,
        eviction_trace=EvictionTrace(capacity=32),
    )
    gauges = registry.snapshot()["gauges"]
    assert gauges["measure.num_packets"] == 3000
    assert gauges["measure.throughput_pps"] > 0
    assert gauges["measure.memory_bits"] == result.caesar.memory_bits


def test_rcs_scheme_gauges(tiny_trace):
    registry = MetricsRegistry()
    rcs = RCS(RCSConfig(k=3, bank_size=64, seed=1), registry=registry)
    rcs.process(tiny_trace.packets[:3000])
    rcs.finalize()
    snap = registry.snapshot()
    assert snap["gauges"]["rcs.num_packets"] == 3000
    assert snap["counters"]["rcs.chunks"] >= 1
    assert snap["timers"]["rcs.process"]["calls"] == 1


def test_epochal_caesar_per_epoch_gauges(tiny_trace):
    registry = MetricsRegistry()
    epochs = EpochalCaesar(_tiny_config(), registry=registry)
    for chunk in np.array_split(tiny_trace.packets[:4000], 4):
        epochs.process(chunk)
        epochs.close_epoch()
    snap = registry.snapshot()
    assert snap["counters"]["epochs.closed"] == 4
    assert "epoch.hit_rate" in snap["gauges"]


def test_sharded_scheme_per_shard_gauges(tiny_trace):
    registry = MetricsRegistry()
    sharded = ShardedCaesar(_tiny_config(), num_shards=2, registry=registry)
    sharded.process(tiny_trace.packets[:3000])
    sharded.finalize()
    gauges = registry.snapshot()["gauges"]
    assert gauges["sharded.num_packets"] == 3000
    assert "sharded.shard0.num_packets" in gauges
    assert "sharded.shard1.num_packets" in gauges
    assert (
        gauges["sharded.shard0.num_packets"] + gauges["sharded.shard1.num_packets"]
        == 3000
    )


def test_observe_scheme_disabled_is_noop(tiny_trace):
    caesar = Caesar(_tiny_config())
    caesar.process(tiny_trace.packets[:500])
    caesar.finalize()
    observe_scheme(NULL_REGISTRY, caesar, "x", elapsed_seconds=1.0)
    assert NULL_REGISTRY.snapshot()["gauges"] == {}


# -- export and CLI ---------------------------------------------------------------


def test_export_metrics_round_trip(tmp_path, tiny_trace):
    registry = MetricsRegistry()
    caesar = Caesar(_tiny_config(), registry=registry)
    caesar.process(tiny_trace.packets[:2000])
    caesar.finalize()
    path = export_metrics(tmp_path / "m.json", registry)
    loaded = json.loads(path.read_text())
    assert loaded == json.loads(json.dumps(registry.snapshot()))


def test_format_metrics_renders_all_sections(tiny_trace):
    registry = MetricsRegistry()
    caesar = Caesar(_tiny_config(), registry=registry)
    caesar.process(tiny_trace.packets[:2000])
    caesar.finalize()
    text = format_metrics(registry)
    for section in ("counters:", "gauges:", "histograms:", "timers:"):
        assert section in text
    assert "cache.drain_chunks" in text
    assert format_metrics(MetricsRegistry()) == "(no metrics recorded)"


def test_cli_measure_metrics_out_then_stats(tmp_path, capsys):
    trace_path = str(tmp_path / "t.npz")
    metrics_path = str(tmp_path / "m.json")
    assert main(["trace", "--scale", "0.003", "--seed", "2", "--out", trace_path]) == 0
    assert (
        main(
            ["measure", "--trace", trace_path, "--sram-kb", "2", "--cache-kb", "1",
             "--metrics-out", metrics_path]
        )
        == 0
    )
    snap = json.loads((tmp_path / "m.json").read_text())
    assert snap["counters"]["cache.drain_chunks"] >= 1
    assert "caesar.num_packets" in snap["gauges"]
    capsys.readouterr()
    assert main(["stats", metrics_path]) == 0
    out = capsys.readouterr().out
    assert "cache.drain_chunks" in out
    assert "timers:" in out


def test_cli_run_metrics_out_deterministic(tmp_path):
    paths = [str(tmp_path / f"m{i}.json") for i in (1, 2)]
    for path in paths:
        assert main(["run", "fig3", "--scale", "0.003", "--metrics-out", path]) == 0
    a, b = (json.loads(open(p).read()) for p in paths)
    assert a["counters"] == b["counters"]
    assert a["histograms"] == b["histograms"]
