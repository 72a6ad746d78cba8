"""Benchmark-suite smoke tests.

The micro-benchmarks are part of the reproduction artifact (CI publishes
``BENCH_micro.json``), so they must stay runnable, and the checked-in
results file must stay in sync with the bench functions it claims to
describe. Timing itself is *not* asserted here — only that the suite
collects, runs on a tiny workload, and emits/validates the expected
schema.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_FILE = REPO_ROOT / "benchmarks" / "bench_micro.py"
BENCH_JSON = REPO_ROOT / "BENCH_micro.json"

#: stats fields pytest-benchmark guarantees per benchmark entry.
REQUIRED_STATS = ("min", "max", "mean", "stddev", "median", "rounds")


def _bench_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    env["REPRO_SCALE"] = "0.003"
    return env


def _defined_bench_names() -> set[str]:
    import ast

    tree = ast.parse(BENCH_FILE.read_text())
    return {
        node.name
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name.startswith("bench_")
    }


class TestBenchResultsSchema:
    @pytest.fixture(scope="class")
    def results(self) -> dict:
        return json.loads(BENCH_JSON.read_text())

    def test_top_level_shape(self, results):
        for key in ("machine_info", "benchmarks", "datetime", "version"):
            assert key in results, key
        assert isinstance(results["benchmarks"], list) and results["benchmarks"]

    def test_each_entry_has_positive_stats(self, results):
        for entry in results["benchmarks"]:
            assert entry["name"].startswith("bench_"), entry["name"]
            stats = entry["stats"]
            for field in REQUIRED_STATS:
                assert field in stats, f"{entry['name']} missing {field}"
            assert stats["min"] > 0
            assert stats["min"] <= stats["mean"] <= stats["max"]
            assert stats["rounds"] >= 1

    def test_recorded_benches_still_exist(self, results):
        """Every bench the artifact describes must still be defined —
        a rename/removal must come with a regenerated BENCH_micro.json."""
        recorded = {entry["name"] for entry in results["benchmarks"]}
        assert recorded <= _defined_bench_names(), (
            "BENCH_micro.json is stale: "
            f"{sorted(recorded - _defined_bench_names())}"
        )

    def test_engine_and_metrics_benches_recorded(self, results):
        recorded = {entry["name"] for entry in results["benchmarks"]}
        assert "bench_caesar_construction_scalar" in recorded
        assert "bench_caesar_construction_batched" in recorded

    def test_cache_kernel_benches_recorded(self, results):
        """The kernel/scalar-reference pairs back the cache-loop speedup
        claims in docs/performance.md — all six must be present in the
        artifact."""
        recorded = {entry["name"] for entry in results["benchmarks"]}
        for stream in ("zipf", "bursty", "uniform"):
            assert f"bench_cache_kernel_{stream}" in recorded, stream
            assert f"bench_cache_scalar_{stream}" in recorded, stream

    def test_runtime_transport_benches_recorded(self, results):
        """Both transports' worker-scaling curves must be in the
        artifact — 1/2/4 workers each over queues and shm rings."""
        recorded = {entry["name"] for entry in results["benchmarks"]}
        for w in (1, 2, 4):
            assert f"bench_runtime_ingest_{w}w" in recorded, w
            assert f"bench_runtime_ingest_{w}w_shm" in recorded, w

    def test_shm_workers_scale_forward(self, results):
        """The point of the zero-copy transport: with pickling off the
        hot path, four shard workers must beat one (smaller per-shard
        structures), not lose to transport overhead.

        Compared on the median: the CI box shares its core with other
        processes whose bursts produce large one-sided outliers, which
        the mean of a handful of rounds inherits and the median does
        not."""
        stats = {
            entry["name"]: entry["stats"] for entry in results["benchmarks"]
        }
        assert (
            stats["bench_runtime_ingest_4w_shm"]["median"]
            < stats["bench_runtime_ingest_1w_shm"]["median"]
        ), "shm 4-worker ingest is not faster than 1-worker"

    def test_checkpoint_benches_recorded(self, results):
        """The durability-cadence trio backing docs/resilience.md: sync
        (baseline stall), async (background write), delta (incremental
        background write) at a checkpoint-per-chunk cadence."""
        recorded = {entry["name"] for entry in results["benchmarks"]}
        for mode in ("sync", "async", "delta"):
            assert f"bench_checkpoint_{mode}" in recorded, mode

    def test_async_checkpoint_off_hot_path(self, results):
        """The point of the background writer: at an identical cadence,
        ingest+drain with async checkpoints must be materially faster
        than with synchronous ones, because compression and fsync
        overlap the next chunk instead of stalling it.

        Compared on the median for the same reason as the shm scaling
        assert — CI-box bursts produce one-sided outliers that a
        handful-of-rounds mean inherits."""
        stats = {
            entry["name"]: entry["stats"] for entry in results["benchmarks"]
        }
        assert (
            stats["bench_checkpoint_async"]["median"]
            < stats["bench_checkpoint_sync"]["median"]
        ), "async checkpointing is not faster than sync at equal cadence"

    def test_artifact_built_from_clean_tree(self, results):
        """A benchmark artifact recorded against uncommitted edits is
        unreproducible — reject it so regeneration happens post-commit."""
        commit = results["commit_info"]
        assert commit["dirty"] is False, (
            "BENCH_micro.json was generated from a dirty working tree "
            f"(commit {commit.get('id', '?')}); regenerate it after "
            "committing."
        )


class TestBenchSuiteRuns:
    def test_whole_suite_collects(self):
        proc = subprocess.run(
            # -o addopts= neutralizes the repo's "-q" so node ids print
            [sys.executable, "-m", "pytest", str(BENCH_FILE),
             "--collect-only", "-q", "-o", "addopts="],
            env=_bench_env(), capture_output=True, text=True, cwd=REPO_ROOT,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        for name in _defined_bench_names():
            assert name in proc.stdout, f"{name} not collected"

    def test_subset_runs_on_tiny_workload(self):
        """Run the cheap benches (plus the metrics-overhead one) with
        timing disabled — each function executes exactly once."""
        proc = subprocess.run(
            [
                sys.executable, "-m", "pytest", str(BENCH_FILE),
                "--benchmark-disable", "-q", "-p", "no:cacheprovider",
                "-k", "split or banked or metrics_enabled or bitpacked"
                      " or cache_kernel_zipf",
            ],
            env=_bench_env(), capture_output=True, text=True, cwd=REPO_ROOT,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "failed" not in proc.stdout
