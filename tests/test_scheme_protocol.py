"""The MeasurementScheme protocol: conformance and the generic layers.

Every scheme (CAESAR, CASE, RCS) and the sharded composite must
satisfy the structural protocol, so orchestration code written against
it — ``run_scheme``, ``ShardedScheme``, the experiment builders — works
for any of them without per-scheme branches.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.case import Case, CaseConfig
from repro.baselines.rcs import RCS, RCSConfig
from repro.core.caesar import Caesar
from repro.core.config import CaesarConfig
from repro.core.scheme import MeasurementScheme, run_scheme
from repro.core.sharded import ShardedCaesar, ShardedScheme
from repro.errors import QueryError


def _caesar() -> Caesar:
    return Caesar(
        CaesarConfig(cache_entries=64, entry_capacity=8, bank_size=128, seed=1)
    )


def _case(max_value: float) -> Case:
    return Case(
        CaseConfig(
            cache_entries=64,
            entry_capacity=8,
            num_counters=256,
            counter_capacity=255,
            max_value=max_value,
            seed=2,
        )
    )


def _rcs() -> RCS:
    return RCS(RCSConfig(k=3, bank_size=128, seed=3))


def _schemes(trace):
    return [_caesar(), _case(float(trace.flows.sizes.max())), _rcs()]


def test_all_schemes_satisfy_protocol(tiny_trace):
    for scheme in _schemes(tiny_trace):
        assert isinstance(scheme, MeasurementScheme), type(scheme).__name__


def test_sharded_layers_satisfy_protocol():
    config = CaesarConfig(cache_entries=64, entry_capacity=8, bank_size=128)
    assert isinstance(ShardedCaesar(config, 2), MeasurementScheme)
    generic = ShardedScheme(lambda i: _rcs(), 2)
    assert isinstance(generic, MeasurementScheme)


def test_run_scheme_drives_any_scheme(tiny_trace):
    ids = tiny_trace.flows.ids
    for scheme in _schemes(tiny_trace):
        est = run_scheme(scheme, tiny_trace.packets, ids)
        assert est.shape == (len(ids),)
        assert np.isfinite(est).all()
        assert scheme.num_packets == len(tiny_trace.packets)
        assert scheme.memory_bits > 0


def test_finalize_is_idempotent(tiny_trace):
    for scheme in _schemes(tiny_trace):
        scheme.process(tiny_trace.packets[:2000])
        scheme.finalize()
        first = scheme.estimate(tiny_trace.flows.ids[:50]).copy()
        scheme.finalize()
        np.testing.assert_array_equal(
            first, scheme.estimate(tiny_trace.flows.ids[:50])
        )


def test_cache_schemes_reject_process_after_finalize(tiny_trace):
    for scheme in (_caesar(), _case(float(tiny_trace.flows.sizes.max()))):
        scheme.process(tiny_trace.packets[:500])
        scheme.finalize()
        with pytest.raises(QueryError):
            scheme.process(tiny_trace.packets[:500])


def test_generic_sharded_scheme_over_rcs(tiny_trace):
    """ShardedScheme composes a scheme whose process() takes no lengths
    argument — the protocol's minimal surface."""
    sharded = ShardedScheme(lambda i: RCS(RCSConfig(k=3, bank_size=64, seed=10 + i)), 3)
    sharded.process(tiny_trace.packets)
    sharded.finalize()
    est = sharded.estimate(tiny_trace.flows.ids)
    assert est.shape == (len(tiny_trace.flows.ids),)
    assert sharded.num_packets == len(tiny_trace.packets)
    assert sharded.memory_bits == sum(s.memory_bits for s in sharded.shards)


def test_sharded_caesar_engine_flows_through_config(tiny_trace):
    """The sharded layer consumes the protocol only, so each shard runs
    the engine its config selects — and all engines agree."""
    results = {}
    for engine in ("scalar", "batched"):
        config = CaesarConfig(
            cache_entries=64, entry_capacity=8, bank_size=128, seed=5, engine=engine
        )
        sharded = ShardedCaesar(config, 3, divide_budget=False)
        assert all(shard.engine == engine for shard in sharded.shards)
        sharded.process(tiny_trace.packets)
        sharded.finalize()
        results[engine] = sharded.estimate(tiny_trace.flows.ids)
    np.testing.assert_array_equal(results["scalar"], results["batched"])


def test_measure_api_engine_selection(tiny_trace):
    import repro

    batched = repro.measure(tiny_trace.packets, sram_kb=1.0, cache_kb=0.5)
    scalar = repro.measure(
        tiny_trace.packets, sram_kb=1.0, cache_kb=0.5, engine="scalar"
    )
    assert batched.caesar.engine == "batched"
    assert scalar.caesar.engine == "scalar"
    ids = tiny_trace.flows.ids
    np.testing.assert_array_equal(batched.estimate(ids), scalar.estimate(ids))
    assert batched.top_flows(5) == scalar.top_flows(5)


def test_cli_engine_flag(tiny_trace, tmp_path, capsys):
    from repro.cli import main

    trace_path = str(tmp_path / "trace.npz")
    tiny_trace.save(trace_path)
    outputs = {}
    for engine in ("scalar", "batched"):
        assert (
            main(
                [
                    "measure",
                    "--trace",
                    trace_path,
                    "--sram-kb",
                    "1.0",
                    "--cache-kb",
                    "0.5",
                    "--top",
                    "3",
                    "--engine",
                    engine,
                ]
            )
            == 0
        )
        outputs[engine] = capsys.readouterr().out
    assert outputs["scalar"] == outputs["batched"]
    assert "top 3 flows" in outputs["batched"]
