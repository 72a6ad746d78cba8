#!/usr/bin/env python3
"""Run the benchmark once per seed and report each metric's spread.

For every workload and end-to-end metric this prints the median, the
first and third quartiles (``statistics.quantiles(values, n=4)``) and
the spread ``(q3 - q1) / median``, next to the metric's bound from
``BENCHMARK.json``. A spread below a third of the bound is "steady"
(``setup_s`` is exempt, as its spread is not a regression gate)::

    python3 perfbench/steadiness.py --runs 10 --out steadiness.json
    python3 perfbench/steadiness.py --workloads fabric-path6 --runs 5

The JSON written to ``--out`` keeps every run's values. ``--compare``
checks that a second set's medians are no worse than a first set's by
more than each metric's bound::

    python3 perfbench/steadiness.py --compare first.json second.json
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [
            sys.executable,
            str(HERE / "run.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", "0",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=180,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(
            f"{workload} seed {seed} failed (exit {proc.returncode}):\n{proc.stderr}"
        )
    return json.loads(lines[-1])


def summarize(values: list[float]) -> dict:
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else float("inf"),
    }


def compare(first: dict, second: dict, spec: dict) -> bool:
    """Is every second-set median within its bound of the first set's,
    in the metric's worse direction?"""
    agree = True
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        sign = 1.0 if metric["better"] == "lower" else -1.0
        for workload, per_metric in first["workloads"].items():
            a = per_metric[name]["median"]
            b = second["workloads"][workload][name]["median"]
            worse = sign * (b - a) / a
            ok = worse <= bound
            agree &= ok
            print(
                f"{workload:16} {name:16} first {a:<14.6g} second {b:<14.6g} "
                f"worse by {worse:+.4f} bound {bound}{'' if ok else '  DISAGREE'}"
            )
    return agree


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="*", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", type=Path, default=None)
    parser.add_argument(
        "--compare", nargs=2, type=Path, metavar=("FIRST", "SECOND"),
        help="compare the medians of two saved reports instead of running",
    )
    args = parser.parse_args()
    if args.compare:
        first, second = (json.loads(p.read_text()) for p in args.compare)
        return 0 if compare(first, second, spec) else 1

    report: dict = {"runs": args.runs, "seconds": args.seconds, "workloads": {}}
    steady = True
    for workload in args.workloads:
        results = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            result = run_once(workload, seed, args.seconds)
            results.append(result)
            print(f"{workload} seed {seed}: done", file=sys.stderr, flush=True)
        per_metric = {}
        for name in bounds:
            values = [r["metrics"][name]["value"] for r in results]
            per_metric[name] = {**summarize(values), "bound": bounds[name], "values": values}
            s = per_metric[name]
            ok = name == "setup_s" or s["spread"] <= bounds[name] / 3
            steady &= ok
            print(
                f"{workload:16} {name:16} median {s['median']:<14.6g} "
                f"q1 {s['q1']:<14.6g} q3 {s['q3']:<14.6g} "
                f"spread {s['spread']:.4f} bound {bounds[name]}"
                f"{'' if ok else '  NOT STEADY'}"
            )
        report["workloads"][workload] = per_metric
    if args.out is not None:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
