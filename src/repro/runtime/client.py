"""The streaming runtime facade: ingest, query, drain, recover.

:class:`StreamingRuntime` is the deployment-shaped entry point the
one-shot paths lack: ``W`` long-lived worker processes (one CAESAR
shard each, configs derived exactly as :class:`~repro.core.sharded.
ShardedCaesar` derives them), fed through one zero-copy shared-memory
ring per shard with a backpressure policy, answering live queries
mid-ingest, and supervised — a SIGKILLed worker is restarted from its
newest checkpoint plus ingest-WAL replay, then re-fed whatever it
lost, finishing bit-identically to a run that never crashed.

Usage::

    config = CaesarConfig.for_budgets(...)
    with StreamingRuntime(config, num_shards=4, state_dir=d) as rt:
        for chunk in packet_source:
            rt.ingest(chunk)
            live = rt.query(watchlist)        # mid-ingest estimates
        result = rt.drain()                   # finalize all shards
        final = rt.query(all_flows)           # offline estimates
    offline = result.load_scheme()            # local ShardedCaesar twin

Determinism contract (docs/runtime.md): with the default ``"block"``
backpressure policy, ``rt.drain()``'s per-shard states — estimates *and*
checkpoint digests — equal a single-process
``ShardedCaesar(config, W).process(stream)`` run bit for bit, for every
engine, regardless of chunk sizes, ring capacities, scheduling
interleave, or how many workers were killed along the way.
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np
import numpy.typing as npt

from repro.core.caesar import Caesar
from repro.core.config import CaesarConfig
from repro.core.sharded import ShardedCaesar, shard_caesar_config
from repro.errors import ConfigError, IngestError
from repro.obs.registry import MetricsRegistry, resolve_registry
from repro.runtime.partitioner import (
    DEFAULT_CHUNK_PACKETS,
    DEFAULT_SHARD_SEED,
    ShardMap,
    StreamPartitioner,
    chunk_stream,
)
from repro.runtime.planner import DEFAULT_SUSTAIN, ReshardPlanner
from repro.runtime.supervisor import ShardSupervisor
from repro.runtime.transport import DEFAULT_ACK_EVERY, DEFAULT_RING_BYTES
from repro.runtime.watchdog import (
    DEFAULT_HANG_TIMEOUT,
    DEFAULT_HEARTBEAT_EVERY,
    DEFAULT_QUARANTINE_AFTER,
    PartialEstimate,
    ShardQueryStatus,
    WatchdogConfig,
)
from repro.runtime.worker import WorkerSpec
from repro.resilience.faults import FaultPlan
from repro.types import FlowIdArray


@dataclass(frozen=True)
class RuntimeResult:
    """What :meth:`StreamingRuntime.drain` returns.

    Carries the per-shard final checkpoint digests (the bit-identity
    witnesses) and enough provenance to rebuild an offline twin of the
    deployment with :meth:`load_scheme`.
    """

    config: CaesarConfig
    num_shards: int
    divide_budget: bool
    shard_seed: int
    shard_digests: tuple[str, ...]
    checkpoint_paths: tuple[str, ...]
    num_packets: int
    restarts: int
    shard_map: ShardMap | None = None  # the final (possibly split) map
    reshards: int = 0  # splits performed during the run
    # Chunks the watchdog quarantined as poison: (shard, seq, n_packets).
    # Their packets were never applied — account for them (or replay them
    # after a fix) via repro.runtime.watchdog.load_quarantine.
    quarantined: tuple[tuple[int, int, int], ...] = ()

    @property
    def degraded(self) -> bool:
        """True when the run finished without some of its input (poison
        chunks were quarantined instead of applied)."""
        return bool(self.quarantined)

    @property
    def quarantined_packets(self) -> int:
        return sum(n for _, _, n in self.quarantined)

    @property
    def quarantined_chunks(self) -> int:
        return len(self.quarantined)

    def load_scheme(self, *, registry: MetricsRegistry | None = None) -> ShardedCaesar:
        """Rebuild the deployment locally from the final checkpoints.

        The returned :class:`ShardedCaesar` is finalized and queryable
        offline, and is bit-identical to the workers' final states —
        the runtime's answer to "hand me the finished measurement". A
        resharded run rebuilds under its *final* shard map, so query
        routing matches the split deployment exactly.
        """
        scheme = ShardedCaesar(
            self.config,
            self.num_shards if self.shard_map is None else None,
            divide_budget=self.divide_budget,
            shard_seed=self.shard_seed,
            shard_map=self.shard_map,
            registry=registry,
        )
        scheme.shards = [Caesar.resume(path) for path in self.checkpoint_paths]
        scheme._finalized = True
        return scheme


class StreamingRuntime:
    """``W`` supervised shard workers behind one ingest/query facade."""

    def __init__(
        self,
        config: CaesarConfig,
        num_shards: int,
        *,
        state_dir: str | Path,
        divide_budget: bool = True,
        shard_seed: int = DEFAULT_SHARD_SEED,
        ring_bytes: int = DEFAULT_RING_BYTES,
        backpressure: str = "block",
        checkpoint_every: int = 4,
        checkpoint_level: int = 1,
        ack_every: int = DEFAULT_ACK_EVERY,
        registry: MetricsRegistry | None = None,
        start_method: str | None = None,
        max_restarts: int = 3,
        compute_slots: int | None = None,
        reshard_above: float | None = None,
        reshard_sustain: int = DEFAULT_SUSTAIN,
        max_shards: int | None = None,
        heartbeat_every: float = DEFAULT_HEARTBEAT_EVERY,
        hang_timeout: float | None = DEFAULT_HANG_TIMEOUT,
        restart_refill_per_s: float = 0.0,
        restart_backoff_base: float = 0.25,
        quarantine_after: int = DEFAULT_QUARANTINE_AFTER,
        query_deadline: float = 60.0,
        worker_faults: "dict[int, FaultPlan] | None" = None,
    ) -> None:
        self.config = config
        self.num_shards = int(num_shards)
        self.divide_budget = divide_budget
        self.shard_seed = shard_seed
        self.state_dir = Path(state_dir)
        self.partitioner = StreamPartitioner(num_shards, shard_seed=shard_seed)
        self.checkpoint_every = checkpoint_every
        if checkpoint_every < 0:
            raise ConfigError(
                f"checkpoint_every must be >= 0 (0 disables), got {checkpoint_every}"
            )
        if not 0 <= int(checkpoint_level) <= 9:
            raise ConfigError(
                f"checkpoint_level must be in [0, 9], got {checkpoint_level}"
            )
        self.checkpoint_level = int(checkpoint_level)
        self.ack_every = ack_every
        if max_shards is not None and max_shards < self.num_shards:
            raise ConfigError(
                f"max_shards={max_shards} is below num_shards={num_shards}"
            )
        self.max_shards = max_shards
        # Hot-shard detection: watch sustained data-plane fill and split
        # the offender (see repro.runtime.planner). Off unless asked for.
        self._planner = (
            None
            if reshard_above is None
            else ReshardPlanner(
                threshold=reshard_above,
                sustain=reshard_sustain,
                max_shards=max_shards,
            )
        )
        self.metrics = resolve_registry(registry)
        self.heartbeat_every = heartbeat_every
        self.query_deadline = query_deadline
        faults = worker_faults or {}
        specs = [
            self._worker_spec(i, f"shard{i}", fault_plan=faults.get(i))
            for i in range(self.num_shards)
        ]
        self.supervisor = ShardSupervisor(
            specs,
            ring_bytes=ring_bytes,
            backpressure=backpressure,
            registry=registry,
            max_restarts=max_restarts,
            start_method=start_method,
            compute_slots=compute_slots,
            restart_refill_per_s=restart_refill_per_s,
            restart_backoff_base=restart_backoff_base,
            quarantine_after=quarantine_after,
            watchdog=(
                None if hang_timeout is None else WatchdogConfig.for_timeout(hang_timeout)
            ),
        )
        self._started = False
        self._drained = False
        self._result: RuntimeResult | None = None
        self._next_qid = 0
        self._t0 = 0.0

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> "StreamingRuntime":
        """Spawn (or recover) every shard worker; idempotent."""
        if not self._started:
            self.state_dir.mkdir(parents=True, exist_ok=True)
            self.supervisor.start()
            self._started = True
            self._t0 = time.perf_counter()
        return self

    def __enter__(self) -> "StreamingRuntime":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.shutdown()

    def shutdown(self) -> None:
        """Stop all workers (graceful, then hard). State files remain —
        a new runtime over the same ``state_dir`` recovers them."""
        if self._started:
            self.supervisor.stop()
            self._started = False

    def _require(self, started: bool = True, not_drained: bool = False) -> None:
        if started and not self._started:
            raise IngestError("runtime is not started (call start() or use `with`)")
        if not_drained and self._drained:
            raise IngestError("runtime is drained; no further ingest is possible")

    # -- ingest -------------------------------------------------------------

    def ingest(
        self,
        packets: FlowIdArray,
        lengths: npt.NDArray[np.int64] | None = None,
    ) -> int:
        """Partition one chunk across the shard rings.

        Returns the number of packets accepted (less than ``len(packets)``
        only under the ``"shed"`` backpressure policy).
        """
        self._require(not_drained=True)
        packets = np.asarray(packets, dtype=np.uint64)
        if lengths is not None:
            lengths = np.asarray(lengths, dtype=np.int64)
        accepted = 0
        pending: tuple | None = (packets, lengths)
        while pending is not None:
            pkts_all, lens_all = pending
            version = self.partitioner.version
            parts = self.partitioner.partition(pkts_all, lens_all)
            pending = None
            for shard, (pkts, lens) in enumerate(parts):
                if not len(pkts):
                    continue
                if self.supervisor.send_chunk(shard, pkts, lens):
                    accepted += len(pkts)
                if self.partitioner.version != version:
                    # A reshard cut over mid-call (a blocked send pumps
                    # the supervisor, and the pump may finish a split):
                    # the not-yet-sent remainder was partitioned under
                    # the retired map — re-partition it under the new
                    # one. Refinement makes this safe: non-donor
                    # subchunks land on the same shard either way, and
                    # per-flow order is preserved (each flow lives in
                    # exactly one unsent subchunk).
                    rest = [p for p in parts[shard + 1 :] if len(p[0])]
                    if rest:
                        pending = (
                            np.concatenate([p for p, _ in rest]),
                            None
                            if lens_all is None
                            else np.concatenate([ln for _, ln in rest]),
                        )
                    break
        self._maybe_plan_reshard()
        return accepted

    def _maybe_plan_reshard(self) -> None:
        """One hot-shard planner observation per ingest call."""
        if (
            self._planner is None
            or self._drained
            or self.supervisor.reshard_in_progress
        ):
            return
        donor = self._planner.observe(self.supervisor.shard_fills())
        if donor is not None and (
            self.max_shards is None or self.num_shards < self.max_shards
        ):
            self.begin_reshard(donor)

    def ingest_stream(
        self,
        stream: FlowIdArray | Iterable,
        *,
        lengths: npt.NDArray[np.int64] | None = None,
        chunk_packets: int = DEFAULT_CHUNK_PACKETS,
    ) -> int:
        """Feed a whole stream (any :func:`chunk_stream` shape) chunk by
        chunk; returns total packets accepted."""
        accepted = 0
        for pkts, lens in chunk_stream(
            stream, lengths=lengths, chunk_packets=chunk_packets
        ):
            accepted += self.ingest(pkts, lens)
        return accepted

    def _worker_spec(self, shard_id: int, dirname: str, **fields) -> WorkerSpec:
        """Shard ``shard_id``'s boot spec under this runtime's settings;
        ``fields`` are the rest (a split successor's ancestry, or an
        initial shard's injected faults).

        The budget divides by the map's *base* count, which no split
        changes: a split scales out, and untouched shards' configs never
        move.
        """
        return WorkerSpec(
            shard_id=shard_id,
            config=shard_caesar_config(
                self.config,
                shard_id,
                self.partitioner.shard_map.num_base,
                divide_budget=self.divide_budget,
            ),
            state_dir=str(self.state_dir / dirname),
            checkpoint_every=self.checkpoint_every,
            checkpoint_level=self.checkpoint_level,
            ack_every=self.ack_every,
            heartbeat_every=self.heartbeat_every,
            **fields,
        )

    # -- elastic resharding --------------------------------------------------

    @property
    def shard_map(self) -> ShardMap:
        """The versioned flow → shard map currently in force."""
        return self.partitioner.shard_map

    @property
    def reshard_in_progress(self) -> bool:
        return self.supervisor.reshard_in_progress

    def begin_reshard(self, donor: int) -> None:
        """Split shard ``donor`` live: seal it, boot two successors from
        its checkpointed WAL history, flip to the next map version, and
        re-feed anything held in flight — all while the other shards
        keep ingesting. Asynchronous: driven forward by subsequent
        :meth:`ingest` / :meth:`query` / :meth:`drain` calls (or
        :meth:`finish_reshard` to block on completion).
        """
        self._require(not_drained=True)
        if self.max_shards is not None and self.num_shards >= self.max_shards:
            raise IngestError(
                f"cannot split: already at max_shards={self.max_shards}"
            )
        new_map = self.partitioner.shard_map.split(donor)
        child = new_map.num_shards - 1
        donor_spec = self.supervisor.handles[donor].spec
        version = new_map.version

        def make_specs(sealed_seq: int) -> tuple[WorkerSpec, WorkerSpec]:
            # The successors' ancestry: every WAL the donor itself was
            # born from, plus the donor's own (sealed, now-immutable)
            # WAL — recursive splits just grow the chain.
            history = (*donor_spec.history_wals, str(donor_spec.wal_path))
            spec_a, spec_b = (
                self._worker_spec(
                    sid,
                    f"shard{sid}.v{version}",
                    history_wals=history,
                    history_through=sealed_seq,
                    shard_map=new_map,
                )
                for sid in (donor, child)
            )
            return spec_a, spec_b

        def on_cutover(map_: ShardMap) -> None:
            self.partitioner = StreamPartitioner(shard_map=map_)
            self.num_shards = map_.num_shards

        self.supervisor.begin_reshard(donor, make_specs, on_cutover)

    def finish_reshard(self, timeout: float = 300.0) -> None:
        """Block until any in-flight reshard fully completes."""
        self._require()
        self.supervisor.finish_reshard(timeout=timeout)

    # -- queries ------------------------------------------------------------

    def query(
        self,
        flow_ids: FlowIdArray,
        method: str = "csm",
        *,
        deadline: float | None = None,
        detail: bool = False,
    ) -> "npt.NDArray[np.float64] | PartialEstimate":
        """Per-flow estimates from the live workers, in input order.

        Mid-ingest this is the approximate online estimate (flushed SRAM
        state plus cached residue — see ``Caesar.estimate_online``);
        after :meth:`drain` it is the exact offline estimate.

        The query plane degrades instead of hanging: shards that are
        mid-restart or behind an open circuit breaker are *skipped*, and
        shards that miss the per-query ``deadline`` (default: the
        runtime's ``query_deadline``) get exactly one retry with a fresh
        window before their flows are reported as ``NaN``. Pass
        ``detail=True`` to get a :class:`PartialEstimate` carrying the
        per-shard status and mass coverage alongside the estimates;
        otherwise just the (possibly NaN-holed) array is returned.

        Each call is timed as the ``runtime.query`` stage.
        """
        self._require()
        with self.metrics.timer("runtime.query"):
            return self._query(flow_ids, method, deadline, detail)

    def _query(
        self,
        flow_ids: FlowIdArray,
        method: str,
        deadline: float | None,
        detail: bool,
    ) -> "npt.NDArray[np.float64] | PartialEstimate":
        window = self.query_deadline if deadline is None else float(deadline)
        t_end = time.monotonic() + window
        flow_ids = np.asarray(flow_ids, dtype=np.uint64)
        owners = self.partitioner.shard_of(flow_ids)
        out = np.full(len(flow_ids), np.nan, dtype=np.float64)
        statuses: dict[int, str] = {}
        masks: dict[int, npt.NDArray[np.bool_]] = {}
        asked = []
        for shard in range(self.num_shards):
            mask = owners == shard
            if not mask.any():
                continue
            masks[shard] = mask
            if not self.supervisor.shard_available(shard):
                statuses[shard] = "skipped"
                continue
            qid = self._next_qid
            self._next_qid += 1
            self.supervisor.ask(shard, qid, flow_ids[mask], method)
            asked.append((shard, qid, mask))
        timed_out = []
        for shard, qid, mask in asked:
            reply = self.supervisor.try_collect_reply(shard, qid, t_end)
            if reply is None:
                self.supervisor.cancel_query(shard, qid)
                timed_out.append((shard, mask))
            else:
                out[mask] = reply
                statuses[shard] = "ok"
        # One retry round for shards that missed the window (typically
        # mid-restart when first asked): fresh qid, fresh window.
        if timed_out:
            t_retry = time.monotonic() + window
            for shard, mask in timed_out:
                if not self.supervisor.shard_available(shard):
                    statuses[shard] = "timeout"
                    continue
                qid = self._next_qid
                self._next_qid += 1
                self.supervisor.ask(shard, qid, flow_ids[mask], method)
                reply = self.supervisor.try_collect_reply(shard, qid, t_retry)
                if reply is None:
                    self.supervisor.cancel_query(shard, qid)
                    statuses[shard] = "timeout"
                else:
                    out[mask] = reply
                    statuses[shard] = "ok"
        shards = tuple(
            ShardQueryStatus(
                shard=s,
                status=statuses[s],
                coverage=self.supervisor.shard_coverage(s),
            )
            for s in sorted(statuses)
        )
        degraded = any(s.status != "ok" or s.coverage < 1.0 for s in shards)
        if degraded:
            self.metrics.counter("runtime.query.degraded").inc()
        if not detail:
            return out
        # Overall coverage: per-flow-weighted mass coverage, with flows
        # on unanswered shards contributing zero.
        total = len(flow_ids)
        covered = sum(
            int(masks[s.shard].sum()) * (s.coverage if s.status == "ok" else 0.0)
            for s in shards
        )
        return PartialEstimate(
            estimates=out,
            degraded=degraded,
            coverage=covered / total if total else 1.0,
            shards=shards,
        )

    # -- drain --------------------------------------------------------------

    def drain(self, timeout: float = 300.0) -> RuntimeResult:
        """Flush every shard to its final state and finalize (idempotent).

        Workers stay alive afterwards to answer offline queries until
        :meth:`shutdown`.
        """
        self._require()
        if self._result is not None:
            return self._result
        self.supervisor.send_drain()
        self.supervisor.wait_finalized(timeout=timeout)
        # Land the durability-lag gauges in the final metrics export.
        self.supervisor.checkpoint_ages()
        elapsed = max(time.perf_counter() - self._t0, 1e-9)
        packets_sent = self.metrics.counter("runtime.packets_sent").value
        self.metrics.gauge("runtime.ingest.packets_per_second").set(
            packets_sent / elapsed
        )
        handles = self.supervisor.handles
        quarantined = tuple(
            (h.spec.shard_id, seq, n_packets)
            for h in handles
            for seq, n_packets in h.quarantined
        )
        self._result = RuntimeResult(
            config=self.config,
            num_shards=self.num_shards,
            divide_budget=self.divide_budget,
            shard_seed=self.shard_seed,
            shard_digests=tuple(h.finalized[0] for h in handles),
            checkpoint_paths=tuple(h.finalized[1] for h in handles),
            num_packets=sum(h.finalized[2] for h in handles),
            restarts=sum(h.restarts for h in handles),
            shard_map=self.partitioner.shard_map,
            reshards=self.partitioner.shard_map.version,
            quarantined=quarantined,
        )
        self._drained = True
        return self._result

    # -- chaos / introspection ----------------------------------------------

    def worker_pid(self, shard: int) -> int:
        """The live process ID of one shard worker (chaos testing)."""
        self._require()
        return int(self.supervisor.handles[shard].process.pid)

    def kill_worker(self, shard: int, sig: int = signal.SIGKILL) -> None:
        """Send a signal to one worker — the fault-injection entry point
        for crash-recovery tests and the CI runtime-smoke job. The
        supervisor detects the death and recovers on its next pump."""
        os.kill(self.worker_pid(shard), sig)

    @property
    def restarts(self) -> int:
        """Worker restarts so far across all shards."""
        return sum(h.restarts for h in self.supervisor.handles)

    def checkpoint_ages(self) -> dict[int, float]:
        """Seconds since each shard's last reported checkpoint (the
        operator-facing durability lag; see
        :meth:`ShardSupervisor.checkpoint_ages`)."""
        self._require()
        return self.supervisor.checkpoint_ages()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "drained" if self._drained else ("live" if self._started else "new")
        return f"StreamingRuntime(W={self.num_shards}, {state})"
