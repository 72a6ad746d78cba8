"""Single box vs fused multi-vantage fabric (library extension).

The paper measures on one box; the fabric experiment deploys the same
total workload over a 6-node PATH topology — every flow observed at
each vantage on its hashed (ingress, egress) route, each vantage a
full CAESAR at the Fig. 4 budget with an independent seed — and fuses
the per-vantage estimates at query time (min / inverse-variance /
weighted MLE, :mod:`repro.fabric.fusion`).

What it demonstrates: per-vantage observations carry quasi-independent
sharing noise (different seeds *and* different background traffic), so
fusing them averages the noise down — on the best single vantage's own
flow subset, the MLE fuser beats that vantage's mean relative error,
which is the headline number the fabric tests assert.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import CaesarConfig
from repro.experiments.base import ExperimentResult
from repro.experiments.common import accuracy_table, build_caesar
from repro.experiments.trace_setup import ExperimentSetup, standard_setup
from repro.fabric import FUSION_METHODS, Fabric, path_topology

#: The evaluation topology: a 6-hop path (ISSUE shape, PATH:6).
PATH_NODES = 6


def run(setup: ExperimentSetup | None = None) -> ExperimentResult:
    setup = setup or standard_setup()
    trace = setup.trace

    # Single-box baseline: the Fig. 4 CAESAR over the whole stream.
    single = build_caesar(setup)
    est_single = single.estimate(trace.flows.ids)

    # The fabric: one same-budget CAESAR per PATH node. Vantage seeds
    # derive from the box config's, so the comparison is seed-for-seed.
    config = CaesarConfig.for_budgets(
        sram_kb=setup.sram_kb_main,
        cache_kb=setup.cache_kb,
        num_packets=trace.num_packets,
        num_flows=trace.num_flows,
        k=setup.k,
        seed=setup.seed,
        engine=setup.engine,
    )
    fabric = Fabric(
        config, path_topology(PATH_NODES), registry=setup.registry
    )
    fabric.ingest_stream(trace.packets)
    result = fabric.drain()

    estimates = {"single box": np.maximum(est_single, 0.0)}
    reports = {}
    for method in FUSION_METHODS:
        reports[method] = fabric.report(
            trace.flows.ids, trace.flows.sizes, fusion=method
        )
        estimates[f"fused {method}"] = np.maximum(
            fabric.query(trace.flows.ids, fusion=method), 0.0
        )
    table, qualities = accuracy_table(
        f"Single box vs {PATH_NODES}-vantage PATH fusion ({setup.describe()})",
        trace.flows.sizes,
        estimates,
    )
    mle = reports["mle"]
    coverage = format_coverage(result, mle)
    single_are = float(
        np.abs(
            (est_single - trace.flows.sizes) / trace.flows.sizes
        ).mean()
    )

    # Like-for-like headline: each vantage is scored only on the flows
    # its routes carry, so compare the fused vector on the *best
    # vantage's own* flow subset — every flow there has that vantage's
    # observation plus whatever the rest of the path adds.
    fused_mle, observations = fabric.query_detail(trace.flows.ids)
    best_obs = next(
        o for o in observations if o.vantage == mle.best_vantage
    )
    seen = best_obs.observed
    truth_seen = trace.flows.sizes[seen]
    mle_on_best = float(
        np.abs((fused_mle[seen] - truth_seen) / truth_seen).mean()
    )
    return ExperimentResult(
        experiment_id="fabric",
        title="Multi-vantage fabric: topology-routed flows + query fusion",
        tables=[table, coverage],
        measured={
            "single_box_are": single_are,
            "best_vantage_are": mle.best_vantage_are,
            "fused_min_are": reports["min"].fused_are,
            "fused_ivw_are": reports["ivw"].fused_are,
            "fused_mle_are": reports["mle"].fused_are,
            "fused_mle_are_on_best_subset": mle_on_best,
            "mle_beats_best_vantage": float(
                mle_on_best < mle.best_vantage_are
            ),
            "observations_per_packet": result.total_observations
            / max(1, result.num_packets),
        },
        paper_reference={
            "mle_beats_best_vantage": "1.0: on the best vantage's own "
            "flows, fusing quasi-independent observers averages sharing "
            "noise down (library extension)",
            "single_box_are": "the Fig. 4 single-instance accuracy",
        },
        notes=[
            "Each vantage runs at the full Fig. 4 budget with its own "
            "seed; flows route over hashed (ingress, egress) pairs, so "
            "vantages observe overlapping but distinct substreams.",
            "Per-flow quality of the fused estimators: "
            + ", ".join(
                f"{name} ARE {q.per_flow_are:.4f}"
                for name, q in qualities.items()
            ),
        ],
    )


def format_coverage(result, report) -> str:
    """Per-vantage observation/accuracy ledger for the report tables."""
    from repro.analysis.tables import format_table

    rows = [
        [
            f"vantage {v}",
            result.observed_packets[v],
            report.per_vantage_flows[v],
            report.per_vantage_are[v],
        ]
        for v in sorted(report.per_vantage_are)
    ]
    rows.append(
        ["fused (mle)", result.total_observations, report.fused_flows,
         report.fused_are]
    )
    return format_table(
        ["observer", "packets", "flows", "ARE"],
        rows,
        title="Per-vantage coverage and accuracy",
    )
