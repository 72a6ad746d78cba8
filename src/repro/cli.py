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
import tempfile
import time
from contextlib import nullcontext

import numpy as np

from repro.errors import ConfigError, ReproError
from repro.experiments.registry import list_experiments, run_experiment
from repro.experiments.trace_setup import DEFAULT_SEED, ExperimentSetup, configured_scale
from repro.obs.registry import MetricsRegistry
from repro.resilience.faults import parse_fault_spec
from repro.runtime.transport import DEFAULT_RING_BYTES
from repro.traffic.trace import Trace, default_paper_trace


#: Options more than one subcommand takes, each defined once. A
#: subcommand passes what differs for it (``required``, ``default``,
#: ``help``) to :func:`_add_options`.
_SHARED_OPTIONS: dict[str, dict] = {
    "--trace": dict(help="input .npz trace"),
    "--scale": dict(
        type=float,
        help="fraction of the paper's 1.01M flows to simulate "
        "(default: REPRO_SCALE env var or 0.05)",
    ),
    "--seed": dict(type=int, default=DEFAULT_SEED, help="workload seed"),
    "--sram-kb": dict(type=float, help="SRAM budget"),
    "--cache-kb": dict(type=float, help="cache budget"),
    "--k": dict(type=int, default=3),
    "--engine": dict(
        choices=["scalar", "batched"],
        default="batched",
        help="construction engine: 'batched' (compiled cache kernel and "
        "array-native eviction pipeline, default) or 'scalar' (per-eviction "
        "reference); results are bit-identical",
    ),
    "--chunk-packets": dict(
        type=int,
        default=8192,
        help="packets per ingest chunk (the unit of queuing, routing and recovery)",
    ),
    "--checkpoint-level": dict(
        type=int,
        default=1,
        metavar="L",
        help="zlib level for saved checkpoints, 0-9 (0 = store-only)",
    ),
    "--state-dir": dict(help="directory for worker checkpoints/WALs (default: a temp dir)"),
    "--verify-offline": dict(
        action="store_true",
        help="after the drain, rerun the trace through an in-process twin and assert "
        "estimates and every per-shard checkpoint digest are bit-identical",
    ),
    "--top": dict(type=int, default=5, help="print the top-N flows"),
    "--metrics-out": dict(
        metavar="PATH",
        help="enable observability and write the metrics snapshot as JSON here "
        "(counters/histograms are deterministic under a fixed seed)",
    ),
    "--inject": dict(
        metavar="SPEC",
        help="deterministic fault injection, e.g. "
        "'drop=0.1,dup=0.05,flip=0.01,wipe=5000+9000,stuck=3,seed=7' "
        "(see docs/resilience.md for the fault taxonomy)",
    ),
}


def _add_options(parser: argparse.ArgumentParser, *flags: str, **overrides) -> None:
    """Add the shared ``flags``, each with ``overrides`` applied."""
    for flag in flags:
        parser.add_argument(flag, **{**_SHARED_OPTIONS[flag], **overrides})


def _registry_from(args: argparse.Namespace) -> MetricsRegistry | None:
    return MetricsRegistry() if getattr(args, "metrics_out", None) else None


def _plan_from(args: argparse.Namespace):
    spec = getattr(args, "inject", None)
    return parse_fault_spec(spec) if spec else None


def _maybe_write_metrics(args: argparse.Namespace, source: MetricsRegistry | dict | None) -> None:
    if source is None:
        return
    from repro.analysis.export import export_metrics

    print(f"[wrote {export_metrics(args.metrics_out, source)}]")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="caesar-repro",
        description="Reproduce the CAESAR (ICPP 2018) evaluation.",
    )
    sub = parser.add_subparsers(dest="command")

    run_p = sub.add_parser("run", help="run one experiment (or 'all')")
    run_p.set_defaults(func=_cmd_run)
    run_p.add_argument("experiment", choices=[*list_experiments(), "all"])
    _add_options(run_p, "--scale", "--seed", "--engine", "--metrics-out", "--inject")
    run_p.add_argument(
        "--export-dir",
        help="also write <id>_measured.csv and <id>_report.txt here",
    )

    sub.add_parser("list", help="list available experiments").set_defaults(func=_cmd_list)

    trace_p = sub.add_parser("trace", help="generate and save a synthetic workload")
    trace_p.set_defaults(func=_cmd_trace)
    _add_options(trace_p, "--scale", "--seed")
    trace_p.add_argument("--out", required=True, help="output .npz path")

    report_p = sub.add_parser(
        "report", help="run every experiment and write one markdown report"
    )
    report_p.set_defaults(func=_cmd_report)
    _add_options(report_p, "--scale", "--seed", "--engine", "--metrics-out", "--inject")
    report_p.add_argument("--out", default="REPORT.md", help="output markdown path")

    measure_p = sub.add_parser("measure", help="run CAESAR over a saved trace")
    measure_p.set_defaults(func=_cmd_measure)
    _add_options(measure_p, "--trace", required=True)
    _add_options(measure_p, "--sram-kb", help="SRAM budget (omit when resuming)")
    _add_options(measure_p, "--cache-kb", help="cache budget (omit when resuming)")
    _add_options(
        measure_p, "--k", "--engine", "--checkpoint-level", "--metrics-out", "--inject"
    )
    _add_options(measure_p, "--top", default=10)
    measure_p.add_argument("--replacement", choices=["lru", "random"], default="lru")
    measure_p.add_argument("--method", choices=["csm", "mlm", "median"], default="csm")
    measure_p.add_argument(
        "--checkpoint-every",
        type=int,
        metavar="N",
        help="write a crash-consistent checkpoint every N packets "
        "(requires --checkpoint-out)",
    )
    measure_p.add_argument(
        "--checkpoint-out",
        metavar="PATH",
        help="checkpoint .npz path (written by --checkpoint-every)",
    )
    measure_p.add_argument(
        "--resume-from",
        metavar="PATH",
        help="restore a saved checkpoint and measure the remainder of the "
        "trace (bit-identical to an uninterrupted run)",
    )

    serve_p = sub.add_parser(
        "serve",
        help="stream a saved trace through the shard-worker runtime "
        "(one shared-memory ring per shard)",
    )
    serve_p.set_defaults(func=_cmd_serve)
    _add_options(serve_p, "--trace", "--sram-kb", "--cache-kb", required=True)
    _add_options(
        serve_p,
        "--k",
        "--engine",
        "--chunk-packets",
        "--checkpoint-level",
        "--verify-offline",
        "--state-dir",
        "--top",
        "--metrics-out",
    )
    serve_p.add_argument(
        "--workers", type=int, default=2, help="number of shard worker processes"
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
        "--query-every",
        type=int,
        default=0,
        metavar="N",
        help="issue a live query to every shard every N chunks (0 = never)",
    )
    serve_p.add_argument(
        "--chaos-kill",
        metavar="SHARD:CHUNK",
        help="SIGKILL shard worker SHARD just before ingesting chunk CHUNK "
        "(crash-recovery demo; the run must still finish bit-identically)",
    )
    serve_p.add_argument(
        "--reshard",
        metavar="SHARD:AT_CHUNK",
        help="split shard SHARD live just before ingesting chunk AT_CHUNK "
        "(elastic scale-out demo; other shards keep ingesting, and with "
        "--verify-offline the result must equal an offline run under the "
        "final shard map)",
    )
    serve_p.add_argument(
        "--reshard-above",
        type=float,
        metavar="FILL",
        help="hot-shard detection: split any shard whose data-plane fill "
        "fraction stays at or above FILL (0..1) for a few consecutive "
        "ingests",
    )
    serve_p.add_argument(
        "--max-shards",
        type=int,
        metavar="N",
        help="upper bound on shards after splits (default: unlimited)",
    )
    serve_p.add_argument(
        "--inject-worker",
        action="append",
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
        "(0 disables poison-chunk quarantine; --verify-offline leaves "
        "quarantined chunks out of its twin)",
    )
    serve_p.add_argument(
        "--restart-refill",
        type=float,
        default=0.0,
        metavar="PER_S",
        help="restart-budget token refill rate per shard (tokens/second); "
        "0 keeps the hard max-restarts cap",
    )

    fabric_p = sub.add_parser(
        "fabric",
        help="run a multi-vantage measurement fabric over a routed topology",
    )
    fabric_p.set_defaults(func=_cmd_fabric)
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
    _add_options(
        fabric_p,
        "--trace",
        help="input .npz trace (requires --sram-kb/--cache-kb); "
        "default: generate the scaled paper workload",
    )
    for flag, memory in (("--sram-kb", "SRAM"), ("--cache-kb", "cache")):
        _add_options(
            fabric_p,
            flag,
            help=f"per-vantage {memory} budget (default: the scaled Fig. 4 budget)",
        )
    _add_options(
        fabric_p,
        "--scale",
        "--seed",
        "--k",
        "--engine",
        "--chunk-packets",
        "--verify-offline",
        "--state-dir",
        "--top",
        "--metrics-out",
    )
    fabric_p.add_argument(
        "--chaos-kill",
        metavar="VANTAGE:SHARD:CHUNK",
        help="SIGKILL vantage VANTAGE's shard worker SHARD just before "
        "ingesting chunk CHUNK (needs --vantage-workers >= 1; the run "
        "must still finish bit-identically)",
    )

    stats_p = sub.add_parser(
        "stats", help="pretty-print a metrics snapshot written by --metrics-out"
    )
    stats_p.set_defaults(func=_cmd_stats)
    stats_p.add_argument("snapshot", help="metrics JSON file")
    return parser


def _parse_spec(flag: str, spec: str | None, metavar: str, **bounds: int) -> list | None:
    """Split ``spec`` into the colon-separated fields ``metavar`` names
    (None when the flag is absent).

    Every field is an int except a trailing ``SPEC``, which keeps the
    rest of the string. A field named (lower-case) in ``bounds`` must
    lie in ``[0, bound)``.
    """
    if spec is None:
        return None
    names = metavar.split(":")
    parts = spec.split(":", len(names) - 1)
    try:
        # A missing field fails the strict zip, a stray colon the int().
        values = [p if n == "SPEC" else int(p) for n, p in zip(names, parts, strict=True)]
    except ValueError:
        raise ConfigError(f"{flag} wants {metavar}, got {spec!r}") from None
    for name, value in zip(names, values):
        bound = bounds.get(name.lower())
        if bound is not None and not 0 <= value < bound:
            raise ConfigError(f"{flag} {name.lower()} {value} out of range")
    return values


def _paper_trace(args: argparse.Namespace) -> tuple[Trace, float]:
    """The scaled paper workload ``--scale`` and ``--seed`` name, and its scale."""
    scale = args.scale if args.scale is not None else configured_scale()
    return default_paper_trace(scale=scale, seed=args.seed), scale


def _sized_config(
    args: argparse.Namespace, trace: Trace, sram_kb: float, cache_kb: float, **fields
):
    """The paper's sizing of the budgets for ``trace``, with ``--k`` and
    ``--engine``; ``fields`` are further ``for_budgets`` arguments."""
    from repro.core.config import CaesarConfig

    return CaesarConfig.for_budgets(
        sram_kb=sram_kb,
        cache_kb=cache_kb,
        num_packets=trace.num_packets,
        num_flows=trace.num_flows,
        k=args.k,
        engine=args.engine,
        **fields,
    )


def _print_quality(trace: Trace, estimates: np.ndarray, top: int, kind: str) -> None:
    """The accuracy summary, then the ``top`` flows by estimate."""
    from repro.analysis.metrics import evaluate

    print(evaluate(estimates, trace.flows.sizes).summary())
    print(f"\ntop {top} flows by {kind} (estimate / actual):")
    for i in np.argsort(estimates)[::-1][:top]:
        print(
            f"  {int(trace.flows.ids[i]):>20d}  "
            f"{estimates[i]:>12.1f}  {int(trace.flows.sizes[i]):>10d}"
        )


def _state_dir(args: argparse.Namespace, prefix: str, needed: bool = True):
    """``--state-dir``, else (when ``needed``) a temporary directory that
    is removed on exit, as a context manager giving the path."""
    if args.state_dir is None and needed:
        return tempfile.TemporaryDirectory(prefix=prefix)
    return nullcontext(args.state_dir)


def _twin_matches(
    estimates: np.ndarray,
    digests: tuple,
    twin_estimates: np.ndarray,
    twin_digests: tuple,
    twin: str,
) -> bool:
    """Report whether a run is bit-identical to its offline ``twin``."""
    if np.array_equal(estimates, twin_estimates) and digests == twin_digests:
        print(f"offline verification: bit-identical to {twin}")
        return True
    print(f"offline verification FAILED: the result diverges from {twin}", file=sys.stderr)
    return False


def _setup_from(args: argparse.Namespace) -> ExperimentSetup:
    trace, scale = _paper_trace(args)
    return ExperimentSetup(
        trace=trace,
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


def _cmd_list(args: argparse.Namespace) -> int:
    for name in list_experiments():
        print(name)
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
    from repro.core.caesar import Caesar

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
        config = _sized_config(
            args, trace, args.sram_kb, args.cache_kb, replacement=args.replacement
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
    _print_quality(trace, estimates, args.top, "estimate")
    _maybe_write_metrics(args, registry)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import os
    import signal as signal_mod

    from repro.runtime.client import StreamingRuntime
    from repro.runtime.partitioner import chunk_stream
    from repro.runtime.watchdog import offline_twin_excluding

    trace = Trace.load(args.trace)
    registry = _registry_from(args)
    config = _sized_config(args, trace, args.sram_kb, args.cache_kb)
    chaos = _parse_spec("--chaos-kill", args.chaos_kill, "SHARD:CHUNK", shard=args.workers)
    reshard = _parse_spec("--reshard", args.reshard, "SHARD:AT_CHUNK", shard=args.workers)
    worker_faults = {}
    for spec in args.inject_worker or ():
        shard, fault = _parse_spec("--inject-worker", spec, "SHARD:SPEC", shard=args.workers)
        worker_faults[shard] = parse_fault_spec(fault)
    print(
        f"serving {args.trace} over {args.workers} shard workers "
        f"({config.describe()}, ring={args.ring_kb} KiB, "
        f"chunk={args.chunk_packets}, backpressure={args.backpressure})"
    )
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
                for h in run.supervisor._all_handles():
                    try:
                        if h.process is not None and h.process.pid is not None:
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
        with _state_dir(args, "repro-serve-") as state_dir, StreamingRuntime(
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
    _print_quality(trace, estimates, args.top, "estimate")
    if args.verify_offline and interrupted:
        print(
            "offline verification skipped: the run was interrupted "
            "mid-stream, so the offline twin would see more input"
        )
    elif args.verify_offline:
        if result.quarantined and result.reshards:
            print(
                "offline verification with quarantined chunks is not "
                "supported on a resharded run (per-shard sequence "
                "numbers change under a split map)",
                file=sys.stderr,
            )
            return 1
        # The twin replays the stream under the runtime's *final* shard
        # map, skipping exactly the quarantined (shard, seq) chunks the
        # runtime never applied: a resharded or degraded run must still
        # be bit-identical to an offline run over the surviving input.
        offline = offline_twin_excluding(
            config,
            result.shard_map,
            trace.packets,
            chunk_packets=args.chunk_packets,
            quarantined={(s, q) for s, q, _ in result.quarantined},
        )
        if not _twin_matches(
            estimates,
            result.shard_digests,
            offline.estimate(trace.flows.ids, "csm", clip_negative=True),
            tuple(s.checkpoint().digest for s in offline.shards),
            "single-process ShardedCaesar (estimates and per-shard digests)",
        ):
            return 1
    _maybe_write_metrics(args, registry)
    return 0


def _cmd_fabric(args: argparse.Namespace) -> int:
    from repro.experiments.trace_setup import PAPER_CACHE_KB, PAPER_SRAM_KB_MAIN
    from repro.fabric import Fabric, parse_topology
    from repro.runtime.partitioner import chunk_stream

    if args.trace:
        if args.sram_kb is None or args.cache_kb is None:
            raise ConfigError("--trace needs explicit --sram-kb and --cache-kb")
        trace = Trace.load(args.trace)
        sram_kb, cache_kb = args.sram_kb, args.cache_kb
    else:
        trace, scale = _paper_trace(args)
        sram_kb = args.sram_kb if args.sram_kb is not None else PAPER_SRAM_KB_MAIN * scale
        cache_kb = args.cache_kb if args.cache_kb is not None else PAPER_CACHE_KB * scale
    topology = parse_topology(args.topology)
    config = _sized_config(args, trace, sram_kb, cache_kb, seed=args.seed)
    if args.chaos_kill is not None and args.vantage_workers < 1:
        raise ConfigError("--chaos-kill needs --vantage-workers >= 1")
    chaos = _parse_spec(
        "--chaos-kill",
        args.chaos_kill,
        "VANTAGE:SHARD:CHUNK",
        vantage=topology.num_nodes,
        shard=args.vantage_workers,
    )
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
    with _state_dir(args, "repro-fabric-", needed=bool(args.vantage_workers)) as state_dir:
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
    print(fabric.report(trace.flows.ids, trace.flows.sizes).summary())
    estimates = fabric.query(trace.flows.ids, clip_negative=True)
    _print_quality(trace, estimates, args.top, "fused estimate")
    if args.verify_offline:
        twin = Fabric(
            config,
            topology,
            fusion=args.fusion,
            shards_per_vantage=args.vantage_workers or args.shards,
            sample_rate=args.sample_rate,
        )
        twin.ingest_stream(trace.packets, chunk_packets=args.chunk_packets)
        twin_digests = twin.drain().shard_digests
        if not _twin_matches(
            estimates,
            result.shard_digests,
            twin.query(trace.flows.ids, clip_negative=True),
            twin_digests,
            "the in-process fabric "
            "(fused estimates and every vantage's per-shard digests)",
        ):
            return 1
    if fabric_registry is not None:
        from repro.analysis.export import merge_snapshots

        vantages = {f"vantage{v}": reg for v, reg in enumerate(vantage_registries or [])}
        _maybe_write_metrics(args, merge_snapshots({"fabric": fabric_registry, **vantages}))
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from repro.analysis.export import format_metrics

    snapshot = json.loads(Path(args.snapshot).read_text())
    print(format_metrics(snapshot))
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    # Backwards compatibility: a bare experiment name means `run` —
    # unless it names a subcommand too (the `fabric` experiment shares
    # its name with the `fabric` subcommand; run it via `run fabric`).
    # argparse keeps its subcommand table on the subparsers action.
    (subcommands,) = (a.choices for a in parser._actions if isinstance(a.choices, dict))
    if argv and argv[0] not in subcommands and argv[0] in (*list_experiments(), "all"):
        argv = ["run", *argv]
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    try:
        return args.func(args)
    except ReproError as exc:
        # Library errors are user-facing: one line, exit 2, no traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
