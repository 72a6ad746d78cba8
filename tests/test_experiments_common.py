"""Tests for the shared experiment plumbing (experiments/common.py)."""

import pytest

from repro.experiments.common import accuracy_table, build_caesar, build_case, build_rcs
from repro.experiments.trace_setup import ExperimentSetup
from repro.traffic.trace import default_paper_trace


@pytest.fixture(scope="module")
def setup() -> ExperimentSetup:
    return ExperimentSetup(
        trace=default_paper_trace(scale=0.004, seed=11), scale=0.004, seed=11
    )


class TestBuilders:
    def test_build_caesar_respects_budgets(self, setup):
        caesar = build_caesar(setup)
        assert caesar.config.sram_kilobytes <= setup.sram_kb_main
        assert caesar.config.cache_kilobytes <= setup.cache_kb
        assert caesar.counters.total_mass == setup.trace.num_packets

    def test_build_caesar_overrides(self, setup):
        caesar = build_caesar(setup, k=5, sram_kb=2 * setup.sram_kb_main)
        assert caesar.config.k == 5
        assert caesar.config.sram_kilobytes <= 2 * setup.sram_kb_main

    def test_build_caesar_remainder_policy(self, setup):
        caesar = build_caesar(setup, remainder="even")
        assert caesar.config.remainder == "even"
        assert caesar.counters.total_mass == setup.trace.num_packets

    def test_build_rcs_default_lossless(self, setup):
        rcs = build_rcs(setup)
        assert rcs.num_packets == setup.trace.num_packets
        assert rcs.counters.total_mass == setup.trace.num_packets

    def test_build_rcs_custom_packets(self, setup):
        rcs = build_rcs(setup, packets=setup.trace.packets[:1000])
        assert rcs.num_packets == 1000

    def test_build_case(self, setup):
        case = build_case(setup, sram_kb=setup.sram_kb_case)
        assert case.num_packets == setup.trace.num_packets
        est = case.estimate(setup.trace.flows.ids)
        assert (est >= 0).all()


class TestAccuracyTable:
    def test_structure(self, setup):
        truth = setup.trace.flows.sizes
        table, qualities = accuracy_table(
            "demo",
            truth,
            {"perfect": truth.astype(float), "off": truth * 2.0},
        )
        assert "demo" in table
        assert "perfect ARE" in table and "off ARE" in table
        assert qualities["perfect"].per_flow_are == pytest.approx(0.0)
        assert qualities["off"].per_flow_are == pytest.approx(1.0)

    def test_bias_columns_signed(self, setup):
        truth = setup.trace.flows.sizes
        _, qualities = accuracy_table(
            "demo", truth, {"under": truth * 0.5}
        )
        assert qualities["under"].mean_signed_rel_error == pytest.approx(-0.5)
