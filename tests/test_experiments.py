"""Experiment-harness tests: every registered experiment runs on a tiny
setup and reproduces the paper's qualitative findings."""

import pytest

from repro.errors import ConfigError
from repro.experiments.base import ExperimentResult
from repro.experiments.registry import get_experiment, list_experiments, run_experiment
from repro.experiments.trace_setup import ExperimentSetup, configured_scale, standard_setup
from repro.traffic.trace import default_paper_trace


@pytest.fixture(scope="module")
def setup() -> ExperimentSetup:
    return ExperimentSetup(
        trace=default_paper_trace(scale=0.01, seed=5), scale=0.01, seed=5
    )


class TestRegistry:
    def test_all_figures_registered(self):
        names = list_experiments()
        for fig in ("fig3", "fig4", "fig5", "fig6", "fig7", "fig8"):
            assert fig in names
        assert "headline" in names
        assert "ablations" in names

    def test_unknown_experiment(self):
        with pytest.raises(ConfigError):
            get_experiment("fig99")


class TestTraceSetup:
    def test_budgets_scale(self, setup):
        assert setup.sram_kb_main == pytest.approx(91.55 * 0.01)
        assert setup.sram_kb_case == pytest.approx(183.11 * 0.01)
        assert setup.cache_kb == pytest.approx(97.66 * 0.01)

    def test_entry_capacity_rule(self, setup):
        y = setup.entry_capacity
        assert y == int(2 * setup.trace.num_packets / setup.trace.num_flows)

    def test_standard_setup_cached(self):
        a = standard_setup(scale=0.005, seed=3)
        b = standard_setup(scale=0.005, seed=3)
        assert a is b

    def test_configured_scale_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.25")
        assert configured_scale() == 0.25
        monkeypatch.setenv("REPRO_SCALE", "garbage")
        with pytest.raises(ConfigError):
            configured_scale()
        monkeypatch.setenv("REPRO_SCALE", "2.0")
        with pytest.raises(ConfigError):
            configured_scale()

    def test_describe(self, setup):
        assert "n=" in setup.describe() and "k=3" in setup.describe()


class TestFig3(object):
    def test_heavy_tail_reproduced(self, setup):
        r = run_experiment("fig3", setup)
        assert isinstance(r, ExperimentResult)
        assert r.measured["fraction_flows_below_mean"] > 0.88
        assert r.measured["fraction_flows_below_y"] > 0.9
        assert r.measured["tail_exponent_loglog_slope"] < -0.8
        assert r.render()  # renders without error


class TestFig4(object):
    def test_caesar_findings(self, setup):
        r = run_experiment("fig4", setup)
        # CSM ~ MLM and LRU ~ random (paper Section 6.3.1).
        assert r.measured["lru_vs_random_are_gap"] < 0.3
        # CSM near-unbiased in packet terms. The sample mean over
        # counter-correlated flows is itself noisy at tiny scale, so
        # the bound is loose; the tight aggregate-unbiasedness check
        # lives in test_core_caesar.
        assert abs(r.measured["csm_bias_over_mu"]) < 2.0
        # Elephants tracked accurately at the paper budget.
        assert r.measured["csm_are_top"] < 0.5
        # y = 2 mu makes overflow evictions a small minority of misses.
        assert r.measured["cache_hit_rate"] > 0.5


class TestFig5(object):
    def test_case_collapse(self, setup):
        r = run_experiment("fig5", setup)
        assert r.measured["small_budget_frac_estimated_zero"] > 0.6
        assert (
            r.measured["big_budget_frac_within_30pct"]
            > r.measured["small_budget_frac_within_30pct"]
        )
        assert r.measured["big_budget_bits_per_counter"] > r.measured[
            "small_budget_bits_per_counter"
        ]


class TestFig6(object):
    def test_rcs_matches_caesar_lossless(self, setup):
        r = run_experiment("fig6", setup)
        # "quite similar": same order of magnitude of binned ARE.
        gap = r.measured["rcs_vs_caesar_are_gap"]
        assert gap < 0.5 * max(
            r.measured["rcs_csm_are_bin"], r.measured["caesar_csm_are_bin"]
        )


class TestFig7(object):
    def test_loss_rates_dominate_large_flows(self, setup):
        r = run_experiment("fig7", setup)
        assert r.measured["are_loss_2_3_large_flows"] == pytest.approx(2 / 3, abs=0.1)
        assert r.measured["are_loss_9_10_large_flows"] == pytest.approx(0.9, abs=0.05)
        # More loss, more error (paper ordering).
        assert (
            r.measured["are_loss_9_10_large_flows"]
            > r.measured["are_loss_2_3_large_flows"]
        )


class TestFig8(object):
    def test_timing_findings(self, setup):
        r = run_experiment("fig8", setup)
        assert r.measured["max_speedup_vs_rcs"] > 0.8  # paper: up to 90 %
        assert r.measured["mean_speedup_vs_case"] > 0.5  # paper: 74.8 %
        assert r.measured["rcs_line_rate_loss"] == pytest.approx(0.9)
        assert r.measured["fulltrace_speedup_vs_case"] > 0.0
        assert r.measured["fulltrace_speedup_vs_rcs"] > 0.0


class TestHeadline(object):
    def test_orderings(self, setup):
        r = run_experiment("headline", setup)
        # CAESAR beats lossy RCS on elephant accuracy at the same SRAM.
        assert r.measured["caesar_csm_are_top"] < r.measured["rcs_lossy_9_10_are"]
        assert r.measured["caesar_csm_are_top"] < r.measured["rcs_lossy_2_3_are"]
        assert r.measured["mean_speedup_vs_case"] > 0.0
        assert r.measured["mean_speedup_vs_rcs"] > 0.0


class TestAblations(object):
    def test_runs_and_reports(self, setup):
        r = run_experiment("ablations", setup)
        assert r.measured["overflow_frac_at_2mu"] < 0.6
        assert r.measured["lru_random_gap"] < 1.0
        assert len(r.tables) == 5


class TestExtensions(object):
    def test_runs(self, setup):
        r = run_experiment("extensions", setup)
        assert "caesar_are_packet" in r.measured
        assert r.tables


class TestTheoryValidation(object):
    def test_closed_forms_validated(self, setup):
        r = run_experiment("theory", setup)
        assert r.measured["eviction_count_rel_err"] < 0.05
        assert r.measured["portion_mean_rel_err"] < 0.02
        # Mechanism variance matches the exact form, and the paper's
        # published Eq. 14 is ~k times it.
        assert r.measured["portion_var_vs_exact"] == pytest.approx(1.0, abs=0.25)
        assert r.measured["portion_var_vs_paper"] == pytest.approx(1 / 3, abs=0.1)
        # The noise-only CSM variance model lands within ~35 %.
        assert r.measured["csm_var_ratio_noise_model"] == pytest.approx(1.0, abs=0.35)


class TestVolume(object):
    def test_byte_path(self, setup):
        r = run_experiment("volume", setup)
        assert r.measured["volume_mass_conserved"] == 1.0
        assert r.measured["volume_size_correlation"] > 0.99
        assert r.measured["mean_bytes_per_packet"] == pytest.approx(340.3, abs=8)
        # Volume accuracy comparable to size accuracy (same mechanism).
        assert r.measured["volume_are_top"] < r.measured["size_are_top"] + 0.2


class TestEventsimValidation(object):
    def test_analytic_model_validated(self, setup):
        r = run_experiment("eventsim", setup)
        assert r.measured["worst_ingress_rel_diff"] < 0.05
        assert r.measured["loss_3x_event"] == pytest.approx(2 / 3, abs=0.03)
        assert r.measured["loss_10x_event"] == pytest.approx(0.9, abs=0.03)
        assert r.measured["caesar_ingress_per_packet"] == pytest.approx(1.0, rel=0.05)


class TestArrivalPatterns(object):
    def test_order_independence_of_accuracy(self, setup):
        r = run_experiment("arrivals", setup)
        assert r.measured["accuracy_spread_across_patterns"] < 0.05
        assert r.measured["hit_rate_bursty"] > r.measured["hit_rate_uniform"]
        assert r.measured["loss_bursty"] <= r.measured["loss_uniform"]


class TestScaling(object):
    def test_scale_invariance(self, setup):
        from repro.experiments import scaling

        r = scaling.run(setup, scales=(0.005, 0.01))
        assert r.measured["top_are_spread_across_scales"] < 0.5
        # At every scale elephants remain well-tracked.
        assert r.measured["top_are_smallest_scale"] < 0.6
        assert r.measured["top_are_largest_scale"] < 0.6


class TestRobustness(object):
    def test_sweeps(self, setup):
        from repro.experiments import robustness

        r = robustness.run(setup, num_seeds=3)
        assert r.measured["seed_top_are_spread"] < 0.3
        assert r.measured["family_top_are_gap"] < 0.3
        # Clustering noise is tail-driven (traffic-weighted view).
        assert r.measured["light_tail_pkt_are"] < r.measured["heavy_tail_pkt_are"]


class TestBenchParity(object):
    def test_every_experiment_has_a_benchmark(self):
        """Deliverable (d): every table/figure experiment must have a
        regenerating benchmark file."""
        import pathlib

        bench_dir = pathlib.Path(__file__).parent.parent / "benchmarks"
        bench_sources = " ".join(p.read_text() for p in bench_dir.glob("bench_*.py"))
        import repro.experiments.registry as registry

        for name, runner in registry._REGISTRY.items():
            module = runner.__module__.rsplit(".", 1)[1]
            assert module in bench_sources, f"no benchmark regenerates {name!r}"


class TestExperimentResult(object):
    def test_render_includes_reference(self):
        r = ExperimentResult(
            experiment_id="x",
            title="t",
            tables=["tab"],
            measured={"a": 1.0},
            paper_reference={"a": "one", "b": "qualitative"},
            notes=["n"],
        )
        text = r.render()
        assert "paper: one" in text
        assert "b: qualitative" in text
        assert "note: n" in text
