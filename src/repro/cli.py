"""Command-line entry point.

Subcommands::

    caesar-repro run fig4                  # one paper experiment
    caesar-repro run all --export-dir out  # everything + CSV artifacts
    caesar-repro list                      # available experiments
    caesar-repro trace --out t.npz         # generate/save a workload
    caesar-repro measure --trace t.npz --sram-kb 4 --cache-kb 4 --top 10
    caesar-repro serve --trace t.npz --workers 4 --sram-kb 4 --cache-kb 4
    caesar-repro fabric --topology PATH:6 --fusion mle
    caesar-repro stats m.json              # pretty-print a metrics snapshot

(``repro`` is an alias of ``caesar-repro`` — same entry point.)

``serve`` streams a saved trace through the supervised shard-worker
runtime (:mod:`repro.runtime`): one shared-memory ring per shard
(``--ring-kb``) with a backpressure policy, optional live queries
mid-ingest (``--query-every``), deterministic fault injection by
SIGKILLing a worker mid-stream (``--chaos-kill SHARD:CHUNK``), live
elastic shard splits — scripted (``--reshard SHARD:AT_CHUNK``) or
hot-shard-triggered (``--reshard-above FILL``) — and
``--verify-offline`` proving the result bit-identical to a
single-process sharded run under the final shard map — the CI
serve-smoke job runs exactly this (see docs/runtime.md).

``fabric`` deploys one CAESAR per node of a routed topology
(:mod:`repro.fabric`): flows hash to (ingress, egress) attachment
pairs, every vantage on the route observes them (optionally sampled),
and queries fuse the per-vantage estimates (``--fusion min|ivw|mle``).
``--vantage-workers N`` runs each vantage through the streaming
runtime; ``--chaos-kill VANTAGE:SHARD:CHUNK`` plus ``--verify-offline``
is the fabric-smoke CI job's recovery proof (see docs/fabric.md).

``run``, ``report``, and ``measure`` accept ``--metrics-out PATH``:
observability is switched on (a :class:`~repro.obs.MetricsRegistry`
threaded through every scheme built) and the final snapshot is written
as JSON — deterministic counters/histograms under a fixed seed, wall
clock only inside timer ``seconds`` (see docs/observability.md).

They also accept ``--inject SPEC`` (deterministic fault injection, e.g.
``--inject drop=0.1,stuck=3``), and ``measure`` additionally speaks the
checkpoint protocol: ``--checkpoint-every N --checkpoint-out ck.npz``
writes crash-consistent checkpoints while measuring, and
``--resume-from ck.npz`` continues a killed run bit-identically (see
docs/resilience.md).

Library errors (:class:`~repro.errors.ReproError`) exit with status 2
and a one-line message; unexpected exceptions keep their traceback.

For backwards compatibility a bare experiment name still works::

    python -m repro fig4 --scale 0.02
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from repro.errors import ConfigError, ReproError
from repro.experiments.registry import list_experiments, run_experiment
from repro.experiments.trace_setup import DEFAULT_SEED, ExperimentSetup, configured_scale
from repro.obs.registry import MetricsRegistry
from repro.resilience.faults import parse_fault_spec
from repro.runtime.transport import DEFAULT_RING_BYTES
from repro.traffic.trace import Trace, default_paper_trace


def _add_workload_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scale",
        type=float,
        default=None,
        help="fraction of the paper's 1.01M flows to simulate "
        "(default: REPRO_SCALE env var or 0.05)",
    )
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED, help="workload seed")


def _add_engine_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--engine",
        choices=["scalar", "batched"],
        default="batched",
        help="construction engine: 'batched' (compiled cache kernel and "
        "array-native eviction pipeline, default) or 'scalar' (per-eviction "
        "reference); results are bit-identical",
    )


def _add_metrics_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--metrics-out",
        default=None,
        metavar="PATH",
        help="enable observability and write the metrics snapshot as JSON here "
        "(counters/histograms are deterministic under a fixed seed)",
    )


def _add_inject_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--inject",
        default=None,
        metavar="SPEC",
        help="deterministic fault injection, e.g. "
        "'drop=0.1,dup=0.05,flip=0.01,wipe=5000+9000,stuck=3,seed=7' "
        "(see docs/resilience.md for the fault taxonomy)",
    )


def _registry_from(args: argparse.Namespace) -> MetricsRegistry | None:
    return MetricsRegistry() if getattr(args, "metrics_out", None) else None


def _plan_from(args: argparse.Namespace):
    spec = getattr(args, "inject", None)
    return parse_fault_spec(spec) if spec else None


def _maybe_write_metrics(
    args: argparse.Namespace, registry: MetricsRegistry | None
) -> None:
    if registry is None:
        return
    from repro.analysis.export import export_metrics

    print(f"[wrote {export_metrics(args.metrics_out, registry)}]")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="caesar-repro",
        description="Reproduce the CAESAR (ICPP 2018) evaluation.",
    )
    sub = parser.add_subparsers(dest="command")

    run_p = sub.add_parser("run", help="run one experiment (or 'all')")
    run_p.add_argument("experiment", choices=[*list_experiments(), "all"])
    _add_workload_args(run_p)
    _add_engine_arg(run_p)
    run_p.add_argument(
        "--export-dir",
        default=None,
        help="also write <id>_measured.csv and <id>_report.txt here",
    )
    _add_metrics_arg(run_p)
    _add_inject_arg(run_p)

    sub.add_parser("list", help="list available experiments")

    trace_p = sub.add_parser("trace", help="generate and save a synthetic workload")
    _add_workload_args(trace_p)
    trace_p.add_argument("--out", required=True, help="output .npz path")

    report_p = sub.add_parser(
        "report", help="run every experiment and write one markdown report"
    )
    _add_workload_args(report_p)
    _add_engine_arg(report_p)
    report_p.add_argument("--out", default="REPORT.md", help="output markdown path")
    _add_metrics_arg(report_p)
    _add_inject_arg(report_p)

    measure_p = sub.add_parser("measure", help="run CAESAR over a saved trace")
    measure_p.add_argument("--trace", required=True, help="input .npz trace")
    measure_p.add_argument(
        "--sram-kb", type=float, default=None, help="SRAM budget (omit when resuming)"
    )
    measure_p.add_argument(
        "--cache-kb", type=float, default=None, help="cache budget (omit when resuming)"
    )
    measure_p.add_argument("--k", type=int, default=3)
    measure_p.add_argument("--replacement", choices=["lru", "random"], default="lru")
    measure_p.add_argument("--method", choices=["csm", "mlm", "median"], default="csm")
    measure_p.add_argument("--top", type=int, default=10, help="print the top-N flows")
    _add_engine_arg(measure_p)
    _add_metrics_arg(measure_p)
    _add_inject_arg(measure_p)
    measure_p.add_argument(
        "--checkpoint-every",
        type=int,
        default=None,
        metavar="N",
        help="write a crash-consistent checkpoint every N packets "
        "(requires --checkpoint-out)",
    )
    measure_p.add_argument(
        "--checkpoint-out",
        default=None,
        metavar="PATH",
        help="checkpoint .npz path (written by --checkpoint-every)",
    )
    measure_p.add_argument(
        "--checkpoint-level",
        type=int,
        default=1,
        metavar="L",
        help="zlib level for saved checkpoints, 0-9 (0 = store-only)",
    )
    measure_p.add_argument(
        "--resume-from",
        default=None,
        metavar="PATH",
        help="restore a saved checkpoint and measure the remainder of the "
        "trace (bit-identical to an uninterrupted run)",
    )

    serve_p = sub.add_parser(
        "serve",
        help="stream a saved trace through the shard-worker runtime "
        "(one shared-memory ring per shard)",
    )
    serve_p.add_argument("--trace", required=True, help="input .npz trace")
    serve_p.add_argument(
        "--workers", type=int, default=2, help="number of shard worker processes"
    )
    serve_p.add_argument("--sram-kb", type=float, required=True, help="SRAM budget")
    serve_p.add_argument("--cache-kb", type=float, required=True, help="cache budget")
    serve_p.add_argument("--k", type=int, default=3)
    _add_engine_arg(serve_p)
    serve_p.add_argument(
        "--chunk-packets",
        type=int,
        default=8192,
        help="packets per ingest chunk (the unit of queuing and recovery)",
    )
    serve_p.add_argument(
        "--ring-kb",
        type=int,
        default=DEFAULT_RING_BYTES // 1024,
        metavar="KB",
        help="size of each shard's shared-memory ring, the data plane "
        "every chunk crosses, in KiB (default %(default)s)",
    )
    serve_p.add_argument(
        "--backpressure",
        choices=["block", "shed", "error"],
        default="block",
        help="full-ring policy: block the producer, shed the chunk, or error",
    )
    serve_p.add_argument(
        "--checkpoint-every",
        type=int,
        default=4,
        metavar="N",
        help="per-shard checkpoint cadence in chunks (0 disables)",
    )
    serve_p.add_argument(
        "--checkpoint-level",
        type=int,
        default=1,
        metavar="L",
        help="zlib level for worker checkpoints, 0-9 (0 = store-only)",
    )
    serve_p.add_argument(
        "--query-every",
        type=int,
        default=0,
        metavar="N",
        help="issue a live query to every shard every N chunks (0 = never)",
    )
    serve_p.add_argument(
        "--chaos-kill",
        default=None,
        metavar="SHARD:CHUNK",
        help="SIGKILL shard worker SHARD just before ingesting chunk CHUNK "
        "(crash-recovery demo; the run must still finish bit-identically)",
    )
    serve_p.add_argument(
        "--reshard",
        default=None,
        metavar="SHARD:AT_CHUNK",
        help="split shard SHARD live just before ingesting chunk AT_CHUNK "
        "(elastic scale-out demo; other shards keep ingesting, and with "
        "--verify-offline the result must equal an offline run under the "
        "final shard map)",
    )
    serve_p.add_argument(
        "--reshard-above",
        type=float,
        default=None,
        metavar="FILL",
        help="hot-shard detection: split any shard whose data-plane fill "
        "fraction stays at or above FILL (0..1) for a few consecutive "
        "ingests",
    )
    serve_p.add_argument(
        "--max-shards",
        type=int,
        default=None,
        metavar="N",
        help="upper bound on shards after splits (default: unlimited)",
    )
    serve_p.add_argument(
        "--inject-worker",
        action="append",
        default=None,
        metavar="SHARD:SPEC",
        help="inject a runtime fault into one shard worker, e.g. "
        "'1:hang=6' (hang applying chunk 6), '0:slow=0.05' (sleep per "
        "chunk), '0:crash=5,crash_limit=2' (crash on chunk 5, twice); "
        "repeatable, one per shard (see docs/resilience.md)",
    )
    serve_p.add_argument(
        "--hang-timeout",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="watchdog: seconds without a heartbeat before a worker is "
        "declared hung and escalated nudge -> SIGTERM -> SIGKILL "
        "(0 disables the watchdog)",
    )
    serve_p.add_argument(
        "--quarantine-after",
        type=int,
        default=3,
        metavar="N",
        help="quarantine a chunk after N worker crashes attributed to it "
        "(0 disables poison-chunk quarantine)",
    )
    serve_p.add_argument(
        "--restart-refill",
        type=float,
        default=0.0,
        metavar="PER_S",
        help="restart-budget token refill rate per shard (tokens/second); "
        "0 keeps the hard max-restarts cap",
    )
    serve_p.add_argument(
        "--verify-offline",
        action="store_true",
        help="after the drain, rerun single-process ShardedCaesar and assert "
        "estimates and per-shard checkpoint digests are bit-identical "
        "(quarantined chunks are excluded from the offline twin)",
    )
    serve_p.add_argument(
        "--state-dir",
        default=None,
        help="directory for worker checkpoints/WALs (default: a temp dir)",
    )
    serve_p.add_argument("--top", type=int, default=5, help="print the top-N flows")
    _add_metrics_arg(serve_p)

    fabric_p = sub.add_parser(
        "fabric",
        help="run a multi-vantage measurement fabric over a routed topology",
    )
    fabric_p.add_argument(
        "--topology",
        default="PATH:6",
        metavar="SPEC",
        help="topology spec: PATH:n, TREE:DEPTHxBRANCHING, or FAT-TREE:k "
        "(default PATH:6; see docs/fabric.md)",
    )
    fabric_p.add_argument(
        "--fusion",
        choices=["min", "ivw", "mle"],
        default="mle",
        help="query-time fusion estimator (default mle; see docs/fabric.md)",
    )
    fabric_p.add_argument(
        "--vantage-workers",
        type=int,
        default=0,
        metavar="N",
        help="shard worker processes per vantage (0 = in-process, default); "
        "N >= 1 runs each vantage through the supervised streaming runtime",
    )
    fabric_p.add_argument(
        "--shards",
        type=int,
        default=1,
        metavar="W",
        help="in-process shards per vantage (ignored with --vantage-workers)",
    )
    fabric_p.add_argument(
        "--sample-rate",
        type=float,
        default=1.0,
        metavar="P",
        help="per-hop observation probability in (0, 1] — each vantage "
        "independently observes each routed packet with probability P "
        "(deterministic thinning; estimates are unbiased back by 1/P)",
    )
    fabric_p.add_argument(
        "--trace",
        default=None,
        help="input .npz trace (requires --sram-kb/--cache-kb); "
        "default: generate the scaled paper workload",
    )
    _add_workload_args(fabric_p)
    fabric_p.add_argument(
        "--sram-kb",
        type=float,
        default=None,
        help="per-vantage SRAM budget (default: the scaled Fig. 4 budget)",
    )
    fabric_p.add_argument(
        "--cache-kb",
        type=float,
        default=None,
        help="per-vantage cache budget (default: the scaled Fig. 4 budget)",
    )
    fabric_p.add_argument("--k", type=int, default=3)
    _add_engine_arg(fabric_p)
    fabric_p.add_argument(
        "--chunk-packets",
        type=int,
        default=8192,
        help="packets per ingest chunk (the unit of routing and recovery)",
    )
    fabric_p.add_argument(
        "--chaos-kill",
        default=None,
        metavar="VANTAGE:SHARD:CHUNK",
        help="SIGKILL vantage VANTAGE's shard worker SHARD just before "
        "ingesting chunk CHUNK (needs --vantage-workers >= 1; the run "
        "must still finish bit-identically)",
    )
    fabric_p.add_argument(
        "--verify-offline",
        action="store_true",
        help="after the drain, rerun an in-process fabric twin and assert "
        "fused estimates and every vantage's per-shard checkpoint "
        "digests are bit-identical",
    )
    fabric_p.add_argument(
        "--state-dir",
        default=None,
        help="directory for worker checkpoints/WALs (default: a temp dir)",
    )
    fabric_p.add_argument("--top", type=int, default=5, help="print the top-N flows")
    _add_metrics_arg(fabric_p)

    stats_p = sub.add_parser(
        "stats", help="pretty-print a metrics snapshot written by --metrics-out"
    )
    stats_p.add_argument("snapshot", help="metrics JSON file")
    return parser


def _setup_from(args: argparse.Namespace) -> ExperimentSetup:
    scale = args.scale if args.scale is not None else configured_scale()
    return ExperimentSetup(
        trace=default_paper_trace(scale=scale, seed=args.seed),
        scale=scale,
        seed=args.seed,
        engine=getattr(args, "engine", "batched"),
        registry=_registry_from(args),
        fault_plan=_plan_from(args),
    )


def _cmd_run(args: argparse.Namespace) -> int:
    setup = _setup_from(args)
    names = list_experiments() if args.experiment == "all" else [args.experiment]
    for name in names:
        t0 = time.perf_counter()
        result = run_experiment(name, setup)
        elapsed = time.perf_counter() - t0
        print(result.render())
        print(f"[{name} completed in {elapsed:.1f}s]")
        print()
        if args.export_dir:
            from repro.analysis.export import export_result

            for path in export_result(result, args.export_dir):
                print(f"[wrote {path}]")
    _maybe_write_metrics(args, setup.registry)
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    setup = _setup_from(args)
    setup.trace.save(args.out)
    print(
        f"wrote {args.out}: {setup.trace.num_packets} packets, "
        f"{setup.trace.num_flows} flows, mean size {setup.trace.mean_flow_size:.2f}"
    )
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from pathlib import Path

    setup = _setup_from(args)
    lines = [
        "# CAESAR reproduction report",
        "",
        f"Workload: `{setup.describe()}`",
        "",
        "Generated by `caesar-repro report`. Paper-vs-measured analysis in",
        "EXPERIMENTS.md; experiment definitions in `repro/experiments/`.",
        "",
    ]
    for name in list_experiments():
        t0 = time.perf_counter()
        result = run_experiment(name, setup)
        elapsed = time.perf_counter() - t0
        print(f"[{name} completed in {elapsed:.1f}s]")
        lines.append(f"## {name}: {result.title}")
        lines.append("")
        lines.append("```")
        lines.append(result.render())
        lines.append("```")
        lines.append("")
    Path(args.out).write_text("\n".join(lines))
    print(f"wrote {args.out}")
    _maybe_write_metrics(args, setup.registry)
    return 0


def _cmd_measure(args: argparse.Namespace) -> int:
    from repro.analysis.metrics import evaluate
    from repro.core.caesar import Caesar
    from repro.core.config import CaesarConfig

    trace = Trace.load(args.trace)
    registry = _registry_from(args)
    if args.checkpoint_every is not None:
        if args.checkpoint_every < 1:
            raise ConfigError(
                f"--checkpoint-every must be >= 1, got {args.checkpoint_every}"
            )
        if args.checkpoint_out is None:
            raise ConfigError("--checkpoint-every requires --checkpoint-out")
    if args.resume_from is not None:
        caesar = Caesar.resume(args.resume_from, registry=registry)
        packets = trace.packets[caesar.num_packets :]
        print(
            f"resumed {caesar.config.describe()} from {args.resume_from} "
            f"at packet {caesar.num_packets}"
        )
    else:
        if args.sram_kb is None or args.cache_kb is None:
            raise ConfigError("--sram-kb and --cache-kb are required unless resuming")
        config = CaesarConfig.for_budgets(
            sram_kb=args.sram_kb,
            cache_kb=args.cache_kb,
            num_packets=trace.num_packets,
            num_flows=trace.num_flows,
            k=args.k,
            replacement=args.replacement,
            engine=args.engine,
        )
        print(f"measuring with {config.describe()}")
        caesar = Caesar(config, registry=registry, fault_plan=_plan_from(args))
        packets = trace.packets
    if args.checkpoint_every is None:
        caesar.process(packets)
    else:
        for start in range(0, len(packets), args.checkpoint_every):
            caesar.process(packets[start : start + args.checkpoint_every])
            caesar.save_checkpoint(args.checkpoint_out, level=args.checkpoint_level)
        print(f"[checkpointed to {args.checkpoint_out} every {args.checkpoint_every}]")
    caesar.finalize()
    estimates = caesar.estimate(trace.flows.ids, args.method, clip_negative=True)
    quality = evaluate(estimates, trace.flows.sizes)
    print(quality.summary())
    order = np.argsort(estimates)[::-1][: args.top]
    print(f"\ntop {args.top} flows by estimate (estimate / actual):")
    for i in order:
        print(
            f"  {int(trace.flows.ids[i]):>20d}  "
            f"{estimates[i]:>12.1f}  {int(trace.flows.sizes[i]):>10d}"
        )
    _maybe_write_metrics(args, registry)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import os
    import signal as signal_mod
    import tempfile

    from repro.analysis.metrics import evaluate
    from repro.core.config import CaesarConfig
    from repro.core.sharded import ShardedCaesar
    from repro.runtime.client import StreamingRuntime
    from repro.runtime.partitioner import chunk_stream
    from repro.runtime.watchdog import offline_twin_excluding

    trace = Trace.load(args.trace)
    registry = _registry_from(args)
    config = CaesarConfig.for_budgets(
        sram_kb=args.sram_kb,
        cache_kb=args.cache_kb,
        num_packets=trace.num_packets,
        num_flows=trace.num_flows,
        k=args.k,
        engine=args.engine,
    )
    chaos: tuple[int, int] | None = None
    if args.chaos_kill:
        try:
            shard_s, chunk_s = args.chaos_kill.split(":")
            chaos = (int(shard_s), int(chunk_s))
        except ValueError:
            raise ConfigError(
                f"--chaos-kill wants SHARD:CHUNK, got {args.chaos_kill!r}"
            ) from None
        if not 0 <= chaos[0] < args.workers:
            raise ConfigError(f"--chaos-kill shard {chaos[0]} out of range")
    reshard: tuple[int, int] | None = None
    if args.reshard:
        try:
            shard_s, chunk_s = args.reshard.split(":")
            reshard = (int(shard_s), int(chunk_s))
        except ValueError:
            raise ConfigError(
                f"--reshard wants SHARD:AT_CHUNK, got {args.reshard!r}"
            ) from None
        if not 0 <= reshard[0] < args.workers:
            raise ConfigError(f"--reshard shard {reshard[0]} out of range")
    worker_faults = {}
    for spec_s in args.inject_worker or ():
        try:
            shard_s, fault_s = spec_s.split(":", 1)
            shard = int(shard_s)
        except ValueError:
            raise ConfigError(
                f"--inject-worker wants SHARD:SPEC, got {spec_s!r}"
            ) from None
        if not 0 <= shard < args.workers:
            raise ConfigError(f"--inject-worker shard {shard} out of range")
        worker_faults[shard] = parse_fault_spec(fault_s)
    print(
        f"serving {args.trace} over {args.workers} shard workers "
        f"({config.describe()}, ring={args.ring_kb} KiB, "
        f"chunk={args.chunk_packets}, backpressure={args.backpressure})"
    )
    tmp = None
    state_dir = args.state_dir
    if state_dir is None:
        tmp = tempfile.TemporaryDirectory(prefix="repro-serve-")
        state_dir = tmp.name
    watch = trace.flows.ids[: min(8, len(trace.flows.ids))]
    # Graceful shutdown: the first SIGTERM/SIGINT finishes the current
    # chunk, drains, and reports as usual (exit 0); a second signal
    # while that drain runs force-exits with status 2. The force-exit
    # must take the worker processes down too: ``os._exit`` alone would
    # orphan them holding inherited fds (our stdout pipe) and any live
    # shared-memory segments.
    interrupted = False
    runtime_box: list = []

    def _on_signal(signum: int, frame: object) -> None:
        nonlocal interrupted
        if interrupted:
            for run in runtime_box:
                op = run.supervisor._reshard
                successors = [] if op is None else op.successors
                for h in (*run.supervisor.handles, *successors):
                    try:
                        if h.process.pid is not None:
                            os.kill(h.process.pid, signal_mod.SIGKILL)
                    except (OSError, ValueError):
                        pass
            os._exit(2)
        interrupted = True
        name = signal_mod.Signals(signum).name
        print(
            f"[{name}: draining and reporting — signal again to force-exit]",
            flush=True,
        )

    prev_handlers = {
        sig: signal_mod.signal(sig, _on_signal)
        for sig in (signal_mod.SIGTERM, signal_mod.SIGINT)
    }
    try:
        with StreamingRuntime(
            config,
            args.workers,
            state_dir=state_dir,
            ring_bytes=args.ring_kb * 1024,
            backpressure=args.backpressure,
            checkpoint_every=args.checkpoint_every,
            checkpoint_level=args.checkpoint_level,
            registry=registry,
            reshard_above=args.reshard_above,
            max_shards=args.max_shards,
            hang_timeout=args.hang_timeout if args.hang_timeout > 0 else None,
            quarantine_after=args.quarantine_after,
            restart_refill_per_s=args.restart_refill,
            worker_faults=worker_faults or None,
        ) as rt:
            runtime_box.append(rt)
            for i, (pkts, lens) in enumerate(
                chunk_stream(trace.packets, chunk_packets=args.chunk_packets)
            ):
                if interrupted:
                    break
                if chaos is not None and i == chaos[1]:
                    print(f"[chaos: SIGKILL shard {chaos[0]} worker at chunk {i}]")
                    rt.kill_worker(chaos[0])
                if reshard is not None and i == reshard[1]:
                    print(f"[reshard: splitting shard {reshard[0]} at chunk {i}]")
                    rt.begin_reshard(reshard[0])
                rt.ingest(pkts, lens)
                if args.query_every and i % args.query_every == 0:
                    est = rt.query(watch, detail=True)
                    print(
                        f"[chunk {i}: live estimates "
                        f"{np.round(np.asarray(est), 1).tolist()} "
                        f"degraded={est.degraded}]"
                    )
            result = rt.drain()
            if interrupted:
                print("[drained after signal]")
            print(
                f"ingested {result.num_packets} packets; "
                f"worker restarts: {result.restarts}"
            )
            ages = rt.checkpoint_ages()
            if ages:
                print(
                    "durability lag at drain: "
                    + ", ".join(
                        f"shard {s}: {age:.1f}s" for s, age in sorted(ages.items())
                    )
                )
            if result.reshards:
                print(
                    f"resharded {result.reshards}x — final map "
                    f"{result.shard_map.describe()}"
                )
            if result.quarantined:
                print(
                    f"quarantined {result.quarantined_chunks} poison chunk(s) "
                    f"({result.quarantined_packets} packets): "
                    + ", ".join(
                        f"shard {s} seq {q}" for s, q, _ in result.quarantined
                    )
                )
            for s, digest in enumerate(result.shard_digests):
                print(f"  shard {s}: final digest {digest[:16]}…")
            estimates = rt.query(trace.flows.ids)
    finally:
        for sig, handler in prev_handlers.items():
            signal_mod.signal(sig, handler)
        if tmp is not None:
            tmp.cleanup()
    quality = evaluate(estimates, trace.flows.sizes)
    print(quality.summary())
    order = np.argsort(estimates)[::-1][: args.top]
    print(f"\ntop {args.top} flows by estimate (estimate / actual):")
    for i in order:
        print(
            f"  {int(trace.flows.ids[i]):>20d}  "
            f"{estimates[i]:>12.1f}  {int(trace.flows.sizes[i]):>10d}"
        )
    if args.verify_offline:
        if interrupted:
            print(
                "offline verification skipped: the run was interrupted "
                "mid-stream, so the offline twin would see more input"
            )
        else:
            if result.quarantined:
                if result.reshards:
                    print(
                        "offline verification with quarantined chunks is not "
                        "supported on a resharded run (per-shard sequence "
                        "numbers change under a split map)",
                        file=sys.stderr,
                    )
                    return 1
                # The twin replays the stream skipping exactly the
                # quarantined (shard, seq) chunks the runtime never
                # applied — the degraded run must still be bit-identical
                # to an offline run over the same surviving input.
                offline = offline_twin_excluding(
                    config,
                    result.shard_map,
                    trace.packets,
                    chunk_packets=args.chunk_packets,
                    quarantined={(s, q) for s, q, _ in result.quarantined},
                )
            else:
                # Build the offline twin under the runtime's *final*
                # shard map, so resharded runs verify against the
                # post-split deployment.
                offline = ShardedCaesar(config, shard_map=result.shard_map)
                offline.process(trace.packets)
                offline.finalize()
            base = offline.estimate(trace.flows.ids, "csm", clip_negative=True)
            digests = tuple(s.checkpoint().digest for s in offline.shards)
            if not np.array_equal(estimates, base) or digests != result.shard_digests:
                print(
                    "offline verification FAILED: runtime result diverges from "
                    "the single-process sharded run",
                    file=sys.stderr,
                )
                return 1
            print(
                "offline verification: bit-identical to single-process "
                "ShardedCaesar (estimates and per-shard digests)"
            )
    _maybe_write_metrics(args, registry)
    return 0


def _cmd_fabric(args: argparse.Namespace) -> int:
    import tempfile

    from repro.analysis.metrics import evaluate
    from repro.core.config import CaesarConfig
    from repro.experiments.trace_setup import PAPER_CACHE_KB, PAPER_SRAM_KB_MAIN
    from repro.fabric import Fabric, parse_topology
    from repro.runtime.partitioner import chunk_stream

    if args.trace:
        if args.sram_kb is None or args.cache_kb is None:
            raise ConfigError("--trace needs explicit --sram-kb and --cache-kb")
        trace = Trace.load(args.trace)
        sram_kb, cache_kb = args.sram_kb, args.cache_kb
    else:
        scale = args.scale if args.scale is not None else configured_scale()
        trace = default_paper_trace(scale=scale, seed=args.seed)
        sram_kb = args.sram_kb if args.sram_kb is not None else PAPER_SRAM_KB_MAIN * scale
        cache_kb = args.cache_kb if args.cache_kb is not None else PAPER_CACHE_KB * scale
    topology = parse_topology(args.topology)
    config = CaesarConfig.for_budgets(
        sram_kb=sram_kb,
        cache_kb=cache_kb,
        num_packets=trace.num_packets,
        num_flows=trace.num_flows,
        k=args.k,
        seed=args.seed,
        engine=args.engine,
    )
    chaos: tuple[int, int, int] | None = None
    if args.chaos_kill:
        try:
            vantage_s, shard_s, chunk_s = args.chaos_kill.split(":")
            chaos = (int(vantage_s), int(shard_s), int(chunk_s))
        except ValueError:
            raise ConfigError(
                f"--chaos-kill wants VANTAGE:SHARD:CHUNK, got {args.chaos_kill!r}"
            ) from None
        if args.vantage_workers < 1:
            raise ConfigError("--chaos-kill needs --vantage-workers >= 1")
        if not 0 <= chaos[0] < topology.num_nodes:
            raise ConfigError(f"--chaos-kill vantage {chaos[0]} out of range")
        if not 0 <= chaos[1] < args.vantage_workers:
            raise ConfigError(f"--chaos-kill shard {chaos[1]} out of range")
    # One registry per vantage plus one for the facade: the merged
    # export namespaces them (vantage<i>. prefixes) so per-vantage
    # cache/pipeline counters don't collide in one artifact.
    fabric_registry = _registry_from(args)
    vantage_registries = (
        [MetricsRegistry() for _ in range(topology.num_nodes)]
        if fabric_registry is not None
        else None
    )
    print(
        f"fabric over {topology.describe()} "
        f"(per-vantage {config.describe()}, fusion={args.fusion}, "
        f"{'in-process' if not args.vantage_workers else f'{args.vantage_workers}w runtime'}"
        f", sample_rate={args.sample_rate})"
    )
    tmp = None
    state_dir = args.state_dir
    if state_dir is None and args.vantage_workers:
        tmp = tempfile.TemporaryDirectory(prefix="repro-fabric-")
        state_dir = tmp.name
    fabric = Fabric(
        config,
        topology,
        fusion=args.fusion,
        shards_per_vantage=args.shards,
        vantage_workers=args.vantage_workers,
        state_dir=state_dir,
        sample_rate=args.sample_rate,
        registry=fabric_registry,
        vantage_registries=vantage_registries,
    )
    try:
        for i, (pkts, lens) in enumerate(
            chunk_stream(trace.packets, chunk_packets=args.chunk_packets)
        ):
            if chaos is not None and i == chaos[2]:
                print(
                    f"[chaos: SIGKILL vantage {chaos[0]} shard {chaos[1]} "
                    f"worker at chunk {i}]"
                )
                fabric.kill_worker(chaos[0], chaos[1])
            fabric.ingest(pkts, lens)
        result = fabric.drain()
    finally:
        fabric.shutdown()
        if tmp is not None:
            tmp.cleanup()
    print(
        f"routed {result.num_packets} packets into "
        f"{result.total_observations} observations; "
        f"worker restarts: {result.restarts}"
    )
    for v, (count, digests) in enumerate(
        zip(result.observed_packets, result.shard_digests)
    ):
        print(
            f"  vantage {v}: {count} packets, digests "
            + " ".join(f"{d[:12]}…" for d in digests)
        )
    if result.degraded:
        print(f"degraded vantages (lost input): {result.degraded_vantages}")
    report = fabric.report(trace.flows.ids, trace.flows.sizes)
    print(report.summary())
    estimates = fabric.query(trace.flows.ids, clip_negative=True)
    print(evaluate(estimates, trace.flows.sizes).summary())
    order = np.argsort(estimates)[::-1][: args.top]
    print(f"\ntop {args.top} flows by fused estimate (estimate / actual):")
    for i in order:
        print(
            f"  {int(trace.flows.ids[i]):>20d}  "
            f"{estimates[i]:>12.1f}  {int(trace.flows.sizes[i]):>10d}"
        )
    if args.verify_offline:
        twin = Fabric(
            config,
            topology,
            fusion=args.fusion,
            shards_per_vantage=(
                args.vantage_workers if args.vantage_workers else args.shards
            ),
            sample_rate=args.sample_rate,
        )
        twin.ingest_stream(trace.packets, chunk_packets=args.chunk_packets)
        twin_result = twin.drain()
        twin_estimates = twin.query(trace.flows.ids, clip_negative=True)
        if (
            not np.array_equal(estimates, twin_estimates)
            or twin_result.shard_digests != result.shard_digests
        ):
            print(
                "offline verification FAILED: fabric result diverges from "
                "the in-process twin",
                file=sys.stderr,
            )
            return 1
        print(
            "offline verification: bit-identical to the in-process fabric "
            "(fused estimates and every vantage's per-shard digests)"
        )
    if fabric_registry is not None:
        from repro.analysis.export import export_metrics, merge_snapshots

        merged = merge_snapshots(
            {
                "fabric": fabric_registry,
                **{
                    f"vantage{v}": reg
                    for v, reg in enumerate(vantage_registries or [])
                },
            }
        )
        print(f"[wrote {export_metrics(args.metrics_out, merged)}]")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from repro.analysis.export import format_metrics

    snapshot = json.loads(Path(args.snapshot).read_text())
    print(format_metrics(snapshot))
    return 0


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "list":
        for name in list_experiments():
            print(name)
        return 0
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "report":
        return _cmd_report(args)
    if args.command == "measure":
        return _cmd_measure(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "fabric":
        return _cmd_fabric(args)
    if args.command == "stats":
        return _cmd_stats(args)
    build_parser().print_help()
    return 2


_SUBCOMMANDS = ("run", "list", "trace", "report", "measure", "serve", "fabric", "stats")


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # Backwards compatibility: a bare experiment name means `run` —
    # unless it names a subcommand too (the `fabric` experiment shares
    # its name with the `fabric` subcommand; run it via `run fabric`).
    if (
        argv
        and argv[0] not in _SUBCOMMANDS
        and argv[0] in (*list_experiments(), "all")
    ):
        argv = ["run", *argv]
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except ReproError as exc:
        # Library errors are user-facing: one line, exit 2, no traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
