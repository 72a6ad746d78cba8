"""In-memory span tracing for the traced benchmark run.

Timing wrappers are installed around calls into each layer's public
functions (plus the worker-module helpers the runtime calls by name)
from the benchmark's side; nothing in ``src/`` changes. A span is
``(id, parent_id, name, start, end)`` on ``time.perf_counter()``, which
is the system-wide monotonic clock on Linux, so worker spans line up
with the supervisor's ingest window.

Shard workers are forked after :meth:`Tracer.install`, so they inherit the
wrappers. Each worker starts from an empty span list and writes its
spans to ``<span_dir>/worker-<pid>.json`` just before it leaves through
``os._exit`` (or on a crash), because a forked worker never returns to
the benchmark. Span ids are unique only within one process's list, so
parent links are resolved per process.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable

# (module, class or None, attribute, span name)
SUPERVISOR_TARGETS = (
    ("repro.runtime.client", "StreamingRuntime", "ingest", "client.ingest"),
    ("repro.runtime.client", "StreamingRuntime", "drain", "supervisor.drain"),
    ("repro.runtime.client", "StreamingRuntime", "query", "client.query"),
    ("repro.runtime.partitioner", "StreamPartitioner", "partition", "partitioner.partition"),
    ("repro.runtime.supervisor", "ShardSupervisor", "send_chunk", "supervisor.send_chunk"),
    ("repro.runtime.supervisor", "ShardSupervisor", "try_collect_reply", "supervisor.reply_wait"),
)
WORKER_TARGETS = (
    ("repro.runtime.worker", None, "append_ingest_chunk", "worker.wal_append"),
    ("repro.runtime.worker", None, "_answer_query", "worker.query"),
    ("repro.runtime.worker", None, "_save_checkpoint_atomic", "checkpoint.final_save"),
    ("repro.resilience.async_ckpt", "ShardCheckpointer", "capture", "checkpoint.capture"),
    ("repro.resilience.async_ckpt", "ShardCheckpointer", "wait_idle", "checkpoint.wait_idle"),
)
SCHEME_TARGETS = (
    ("repro.core.caesar", "Caesar", "process", "caesar.process"),
    ("repro.cachesim.cache", "FlowCache", "process_into", "cachesim.process_into"),
    ("repro.hashing.family", "BankedIndexMemo", "indices_for", "caesar.index"),
    ("repro.core.caesar", None, "split_batch", "caesar.split"),
    ("repro.sram.counterarray", "BankedCounterArray", "add_at", "sram.scatter_add"),
)
FABRIC_TARGETS = (
    ("repro.fabric.fabric", "Fabric", "ingest", "fabric.ingest"),
    ("repro.fabric.fabric", "Fabric", "drain", "fabric.drain"),
    ("repro.fabric.fabric", "Fabric", "query", "fabric.query"),
    ("repro.fabric.vantage", "VantagePoint", "process", "fabric.vantage_process"),
    ("repro.fabric.vantage", "VantagePoint", "estimate_detail", "fabric.estimate"),
    ("repro.fabric.fabric", None, "fuse", "fabric.fuse"),
)


class Tracer:
    """Collects spans and counts for the process it lives in, and owns
    the wrappers it installed."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int | None, str, float, float]] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._ids = itertools.count()
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.spans = []
        self.counts = defaultdict(int)

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            sid = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                self.spans.append((sid, parent, name, t0, t1))

        return traced

    def count_outcomes(self, name: str, fn: Callable) -> Callable:
        """Wrap a predicate so each call counts as ``name.true|false``."""

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            out = fn(*args, **kwargs)
            self.counts[f"{name}.{'true' if out else 'false'}"] += 1
            return out

        return counted

    def _patch(self, owner: object, attr: str, replacement: object) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self, span_dir: Path) -> None:
        """Install every wrapper; forked workers dump spans into ``span_dir``."""
        if self._saved:
            raise RuntimeError("tracing wrappers are already installed")
        targets = SUPERVISOR_TARGETS + WORKER_TARGETS + SCHEME_TARGETS + FABRIC_TARGETS
        for module, cls, attr, name in targets:
            owner = _resolve(module, cls)
            self._patch(owner, attr, self.wrap(name, owner.__dict__[attr]))
        cache_mod = _resolve("repro.cachesim.cache", None)
        self._patch(
            cache_mod,
            "should_coalesce",
            self.count_outcomes("cachesim.coalesce", cache_mod.should_coalesce),
        )
        supervisor_mod = _resolve("repro.runtime.supervisor", None)
        worker_main = supervisor_mod.worker_main
        span_dir = Path(span_dir)

        def traced_worker_main(spec, transport, compute_gate=None):
            # Runs in the forked child: start an empty span list, and
            # write it out on the way out (the stop path is os._exit).
            self.reset()
            real_exit = os._exit

            def dump() -> None:
                (span_dir / f"worker-{os.getpid()}.json").write_text(
                    json.dumps(
                        {
                            "shard": spec.shard_id,
                            "spans": self.spans,
                            "counts": dict(self.counts),
                        }
                    )
                )

            def exit_after_dump(code: int) -> None:
                dump()
                real_exit(code)

            os._exit = exit_after_dump
            try:
                worker_main(spec, transport, compute_gate)
            finally:
                dump()

        self._patch(supervisor_mod, "worker_main", traced_worker_main)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def _resolve(module: str, cls: str | None) -> object:
    mod = __import__(module, fromlist=["_"])
    return mod if cls is None else getattr(mod, cls)


def load_worker_spans(span_dir: Path) -> list[dict]:
    return [json.loads(p.read_text()) for p in sorted(Path(span_dir).glob("worker-*.json"))]


def in_window(spans, t0: float, t1: float) -> list:
    """Spans that start inside ``[t0, t1]``."""
    return [s for s in spans if t0 <= s[3] <= t1]


def self_times(spans) -> dict[str, float]:
    """Per-name self time: duration minus what wrapped children cover."""
    covered: dict[int, float] = defaultdict(float)
    for _sid, parent, _name, t0, t1 in spans:
        if parent is not None:
            covered[parent] += t1 - t0
    out: dict[str, float] = defaultdict(float)
    for sid, _parent, name, t0, t1 in spans:
        out[name] += (t1 - t0) - covered.get(sid, 0.0)
    return out


def inclusive_times(spans) -> dict[str, float]:
    """Per-name total duration of outermost calls of that name."""
    names = {sid: name for sid, _p, name, _t0, _t1 in spans}
    out: dict[str, float] = defaultdict(float)
    for _sid, parent, name, t0, t1 in spans:
        if names.get(parent) != name:
            out[name] += t1 - t0
    return out


def child_totals(spans, parent_name: str, child_name: str) -> list[float]:
    """Per ``parent_name`` span: total duration of its ``child_name`` children."""
    parents = {sid for sid, _p, name, _t0, _t1 in spans if name == parent_name}
    totals: dict[int, float] = {sid: 0.0 for sid in parents}
    for _sid, parent, name, t0, t1 in spans:
        if name == child_name and parent in totals:
            totals[parent] += t1 - t0
    return list(totals.values())


def durations(spans, name: str) -> list[float]:
    return [t1 - t0 for _sid, _p, n, t0, t1 in spans if n == name]


def top_level_total(spans) -> float:
    return sum(t1 - t0 for _sid, parent, _n, t0, t1 in spans if parent is None)
