"""Shard-worker supervision: spawn, feed, monitor, restart, re-feed.

The supervisor owns the runtime's process tree. Per shard it keeps a
:class:`WorkerHandle` — the live process, its data-plane channel
(:class:`~repro.runtime.transport.ShardChannel`), and a *retention
buffer* of every chunk sent but not yet acknowledged. The durability
split is exact:

- chunks the worker **acked** are in the worker's ingest WAL on disk —
  the supervisor drops its copy, and crash recovery replays them from
  the WAL (after restoring the newest checkpoint);
- chunks **not yet acked** (in the ring, in flight, or lost with a dying
  process) stay retained here and are re-fed, in sequence order, to the
  restarted worker — which skips any it already made durable.

Acks are *cumulative* (``ack seq`` covers every chunk up to ``seq``,
valid because each shard's chunks are applied strictly in sequence
order), which is what lets workers batch them without weakening the
split: a batched ack arriving late just means a few more chunks ride
the retention buffer until it lands.

Either way each chunk reaches the shard's scheme exactly once, in
order, so the recovered shard is bit-identical to one that never
crashed (tests/test_runtime.py kills workers with SIGKILL to prove it).

Worker death is detected by liveness polls woven into every wait loop —
including blocked backpressure sends, so a crashed consumer can never
wedge the producer. Each restart gets a fresh shared-memory ring,
doorbell and message queues: a process killed mid-transfer can leave
them unusable, and abandoning them sidesteps that entirely.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import numpy.typing as npt

from repro.errors import ConfigError, IngestError
from repro.obs.registry import MetricsRegistry, resolve_registry
from repro.runtime.partitioner import ShardMap, StreamPartitioner
from repro.runtime.transport import (
    BACKPRESSURE_POLICIES,
    DEFAULT_RING_BYTES,
    MIN_RING_BYTES,
    STALL_SLICE_SECONDS,
    ShardChannel,
)
from repro.runtime.watchdog import (
    DEFAULT_JITTER_SEED,
    DEFAULT_QUARANTINE_AFTER,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    CircuitBreaker,
    RestartBudget,
    Watchdog,
    WatchdogConfig,
    quarantine_chunk,
    sweep_stale_tmp,
)
from repro.runtime.worker import WorkerSpec, worker_main

#: Seconds a worker gets to boot/recover before the supervisor gives up.
READY_TIMEOUT = 60.0

#: Seconds a stopped worker gets to exit before it is SIGKILLed.
STOP_TIMEOUT = 5.0


def _join_or_kill(process: "mp.process.BaseProcess") -> None:
    """Bounded join of a worker sent ``stop``; SIGKILL if it overstays."""
    process.join(timeout=STOP_TIMEOUT)
    if process.is_alive():  # pragma: no cover - hard fallback
        process.kill()
        process.join(timeout=5.0)


def _core_budget() -> int:
    """CPUs actually available to this process (container/affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


@dataclass
class WorkerHandle:
    """Supervisor-side state of one shard worker."""

    spec: WorkerSpec
    channel: ShardChannel
    process: "mp.process.BaseProcess | None" = None
    next_seq: int = 0  # next chunk sequence number to assign
    retained: dict[int, tuple] = field(default_factory=dict)  # seq -> (pkts, lens)
    restarts: int = 0
    last_checkpoint_seq: int = -1
    last_checkpoint_digest: str | None = None
    last_checkpoint_at: float = 0.0  # monotonic time of the last ckpt msg
    finalized: tuple | None = None  # (digest, ck_path, num_packets)
    last_error: str | None = None
    pending_queries: dict[int, tuple] = field(default_factory=dict)
    replies: dict[int, tuple] = field(default_factory=dict)
    drain_sent: bool = False
    seal_sent: bool = False  # reshard seal marker sent (re-sent on restart)
    sealed: tuple | None = None  # (sealed_seq, digest) once the worker sealed
    ready_seq: int | None = None  # async-observed boot report (successors)
    # -- watchdog / restart-discipline state (repro.runtime.watchdog) -------
    last_seen: float = 0.0  # monotonic time of the last worker message
    hang_stage: int = 0  # 0 healthy, 1 nudged, 2 SIGTERMed
    breaker: CircuitBreaker = field(default_factory=CircuitBreaker)
    budget: RestartBudget | None = None  # set by the supervisor at build
    packets_sent: int = 0  # total packet mass routed to this shard
    suspects: dict[int, int] = field(default_factory=dict)  # seq -> crash count
    quarantined: list[tuple[int, int]] = field(default_factory=list)  # (seq, n)


#: Reshard phases, in order. ``sealing``: the donor is flushing acks and
#: cutting its durable checkpoint; its inbound chunks are held. ``replaying``:
#: both successors are booting (history-chain replay); donor still answers
#: queries. ``refeed``: cutover happened — the map flipped, the donor is
#: retired — and the held chunks drain to the successors under the new map.
RESHARD_PHASES = ("sealing", "replaying", "refeed")


@dataclass
class ReshardOp:
    """Supervisor-side state of one in-flight shard split."""

    donor: int
    make_specs: Callable[[int], tuple[WorkerSpec, WorkerSpec]]
    on_cutover: Callable[[ShardMap], None] | None = None
    phase: str = "sealing"
    held: list[tuple] = field(default_factory=list)  # [(packets, lengths), ...]
    sealed_seq: int = -1
    sealed_digest: str | None = None
    successors: list[WorkerHandle] = field(default_factory=list)
    new_map: ShardMap | None = None
    started_at: float = field(default_factory=time.monotonic)


class ShardSupervisor:
    """Spawns and babysits one worker process per shard."""

    def __init__(
        self,
        specs: list[WorkerSpec],
        *,
        ring_bytes: int = DEFAULT_RING_BYTES,
        backpressure: str = "block",
        registry: MetricsRegistry | None = None,
        max_restarts: int = 3,
        start_method: str | None = None,
        compute_slots: int | None = None,
        restart_refill_per_s: float = 0.0,
        restart_backoff_base: float = 0.25,
        restart_backoff_max: float = 30.0,
        restart_jitter_seed: int = DEFAULT_JITTER_SEED,
        quarantine_after: int = DEFAULT_QUARANTINE_AFTER,
        watchdog: WatchdogConfig | None = WatchdogConfig(),
    ) -> None:
        if backpressure not in BACKPRESSURE_POLICIES:
            raise ConfigError(
                f"backpressure must be one of {BACKPRESSURE_POLICIES}, "
                f"got {backpressure!r}"
            )
        if ring_bytes < MIN_RING_BYTES:
            raise IngestError(
                f"ring_bytes must be >= {MIN_RING_BYTES}, got {ring_bytes}"
            )
        self.metrics = resolve_registry(registry)
        self.backpressure = backpressure
        self.ring_bytes = ring_bytes
        self.max_restarts = max_restarts
        # Restart discipline: per-shard token bucket + backoff + breaker.
        # The defaults (no refill, immediate first retry) reproduce the
        # historic bare-counter behavior exactly.
        self.restart_refill_per_s = restart_refill_per_s
        self.restart_backoff_base = restart_backoff_base
        self.restart_backoff_max = restart_backoff_max
        self.restart_jitter_seed = restart_jitter_seed
        self.quarantine_after = quarantine_after
        self._watchdog = (
            None if watchdog is None else Watchdog(watchdog, self.metrics)
        )
        if start_method is None:
            start_method = (
                "fork" if "fork" in mp.get_all_start_methods() else "spawn"
            )
        self._ctx = mp.get_context(start_method)
        # Oversubscription guard: when shard workers outnumber the core
        # budget, uncoordinated compute thrashes the shared caches (see
        # worker._compute_slot). One counting semaphore, sized to the
        # budget, is shared by every worker across all restarts; when
        # the cores cover the workers it is skipped entirely.
        if compute_slots is not None and compute_slots < 1:
            raise ConfigError(
                f"compute_slots must be >= 1, got {compute_slots}"
            )
        slots = _core_budget() if compute_slots is None else compute_slots
        self._compute_gate = (
            self._ctx.Semaphore(slots) if len(specs) > slots else None
        )
        self.handles = [self._make_handle(spec) for spec in specs]
        self._pumping = False
        self._stopped = False
        self._reshard: ReshardOp | None = None
        self._refeeding = False

    def _make_handle(self, spec: WorkerSpec) -> WorkerHandle:
        return WorkerHandle(
            spec=spec,
            channel=ShardChannel(
                spec.shard_id,
                ring_bytes=self.ring_bytes,
                ctx=self._ctx,
                policy=self.backpressure,
                registry=self.metrics,
                stall_hook=self.pump,
            ),
            budget=RestartBudget(self.max_restarts, self.restart_refill_per_s),
        )

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        # Spawn everyone first, then collect readies: worker boot
        # (fork, recover, attach) overlaps across shards instead of
        # paying W serial round-trips.
        for handle in self.handles:
            self._spawn(handle)
        for handle in self.handles:
            self._wait_ready(handle)

    def _spawn(self, handle: WorkerHandle) -> None:
        endpoint = handle.channel.open()
        handle.process = self._ctx.Process(
            target=worker_main,
            args=(handle.spec, endpoint, self._compute_gate),
            daemon=True,
            name=f"repro-shard-{handle.spec.shard_id}",
        )
        handle.process.start()
        # Liveness baseline: boot time counts against the hang timeout
        # only from here, never from a stale pre-restart timestamp.
        handle.last_seen = time.monotonic()
        handle.hang_stage = 0

    def _wait_ready(self, handle: WorkerHandle) -> int:
        """Block until the (re)started worker reports its recovery point."""
        deadline = time.monotonic() + READY_TIMEOUT
        while True:
            msg = handle.channel.recv(timeout=0.05)
            if msg is None:
                if not handle.process.is_alive():
                    raise IngestError(
                        f"shard {handle.spec.shard_id} died during boot"
                        + (f":\n{handle.last_error}" if handle.last_error else "")
                    )
                if time.monotonic() > deadline:
                    raise IngestError(
                        f"shard {handle.spec.shard_id} did not become ready "
                        f"within {READY_TIMEOUT:.0f}s"
                    )
                continue
            if msg[0] == "ready":
                handle.last_seen = time.monotonic()
                handle.hang_stage = 0
                return int(msg[2])  # last durable chunk seq
            if msg[0] == "error":
                handle.last_error = msg[2]
            # anything else (stale ack/reply) is absorbed by _handle_msg
            else:
                self._handle_msg(handle, msg)

    def _all_handles(self) -> list[WorkerHandle]:
        """Every live handle, including not-yet-cutover split successors."""
        out = list(self.handles)
        if self._reshard is not None:
            out.extend(self._reshard.successors)
        return out

    def stop(self) -> None:
        """Graceful shutdown: stop every worker, join, hard-kill stragglers."""
        self._stopped = True
        for handle in self._all_handles():
            if handle.process is None:
                continue
            if handle.process.is_alive():
                try:
                    handle.channel.send_control(("stop",))
                except (OSError, ValueError):  # pragma: no cover
                    pass
        for handle in self._all_handles():
            if handle.process is None:
                continue
            _join_or_kill(handle.process)
            handle.channel.close()

    # -- message pump and crash recovery ------------------------------------

    def _handle_msg(self, handle: WorkerHandle, msg: tuple) -> None:
        kind = msg[0]
        # Any message is a sign of life: refresh the watchdog's liveness
        # view, cancel any in-flight escalation, and close a half-open
        # breaker — the restarted worker demonstrably works.
        handle.last_seen = time.monotonic()
        handle.hang_stage = 0
        if kind != "error" and handle.breaker.state == BREAKER_HALF_OPEN:
            handle.breaker.record_success()
            self._set_breaker_gauge(handle)
        if kind == "heartbeat":
            return  # receipt alone is the payload
        if kind == "ack":
            # Cumulative: everything up to the acked seq is durable
            # worker-side (chunks apply strictly in seq order).
            through = int(msg[2])
            for seq in [s for s in handle.retained if s <= through]:
                handle.retained.pop(seq)
        elif kind == "checkpoint":
            handle.last_checkpoint_seq = int(msg[2])
            handle.last_checkpoint_digest = msg[3]
            handle.last_checkpoint_at = time.monotonic()
            self.metrics.gauge(
                f"runtime.shard{handle.spec.shard_id}.last_checkpoint_seq"
            ).set(handle.last_checkpoint_seq)
            if len(msg) > 4 and isinstance(msg[4], dict):
                self._record_checkpoint_metrics(msg[4])
        elif kind == "finalized":
            handle.finalized = (msg[2], msg[3], int(msg[4]))
        elif kind == "reply":
            _kind, _shard, qid, est, err = msg
            if qid in handle.pending_queries:
                handle.pending_queries.pop(qid)
                handle.replies[qid] = (est, err)
        elif kind == "sealed":
            handle.sealed = (int(msg[2]), msg[3])
        elif kind == "ready":
            # Successors boot asynchronously (pump polls them); the
            # initial blocking start path consumes "ready" directly in
            # _wait_ready and never reaches here.
            handle.ready_seq = int(msg[2])
        elif kind == "error":
            handle.last_error = msg[2]

    def pump(self) -> None:
        """Drain worker messages; detect and recover dead workers.

        Called from every wait loop (including blocked backpressure
        sends). Re-entrant calls — a restart's re-feed blocking on a
        *different* shard's full channel — collapse to a no-op.
        """
        if self._pumping or self._stopped:
            return
        self._pumping = True
        try:
            for handle in self.handles:
                for msg in handle.channel.poll():
                    self._handle_msg(handle, msg)
                if handle.process is not None and not handle.process.is_alive():
                    self._on_worker_death(handle)
                elif self._watchdog is not None and handle.finalized is None:
                    # Active until the shard finalizes: a worker hung (or
                    # SIGSTOPped) at drain time must still be recovered
                    # or wait_finalized would spin out its full timeout.
                    if self._watchdog.check(handle):
                        # Escalated all the way to SIGKILL: recover in
                        # this pump instead of waiting a cycle.
                        self._on_worker_death(handle)
            self._advance_reshard()
        finally:
            self._pumping = False

    def _record_checkpoint_metrics(self, info: dict) -> None:
        """Fold one checkpoint completion report into the registry.

        Totals (writes, bytes, ingest stall) accumulate as counters;
        per-write shapes (snapshot/write seconds) land as latest-value
        gauges.
        """
        m = self.metrics
        m.counter("checkpoint.writes").inc()
        m.counter("checkpoint.bytes").inc(int(info.get("bytes", 0)))
        stall = float(info.get("stall_seconds", 0.0))
        if stall:
            m.counter("checkpoint.ingest_stall_us").inc(int(stall * 1e6))
        m.gauge("checkpoint.snapshot_seconds").set(
            float(info.get("snapshot_seconds", 0.0))
        )
        m.gauge("checkpoint.write_seconds").set(float(info.get("write_seconds", 0.0)))

    def _set_breaker_gauge(self, handle: WorkerHandle) -> None:
        self.metrics.gauge(
            f"runtime.shard{handle.spec.shard_id}.breaker"
        ).set(handle.breaker.level)

    def _on_worker_death(self, handle: WorkerHandle) -> int | None:
        """A worker is dead: open the breaker (once per death), then
        restart now or schedule the attempt per backoff + budget.

        Returns the recovery point when a restart actually happened,
        ``None`` when it was deferred (breaker open, waiting on backoff
        or a budget token — the next pump retries)."""
        now = time.monotonic()
        breaker = handle.breaker
        if breaker.state != BREAKER_OPEN:
            delay = breaker.record_failure(
                now,
                base=self.restart_backoff_base,
                max_delay=self.restart_backoff_max,
                seed=self.restart_jitter_seed,
                shard=handle.spec.shard_id,
            )
            self._set_breaker_gauge(handle)
            self.metrics.counter("runtime.breaker.opens").inc()
            if delay > 0:
                self.metrics.gauge(
                    f"runtime.shard{handle.spec.shard_id}.backoff_seconds"
                ).set(delay)
        return self._maybe_restart(handle, now)

    def _maybe_restart(self, handle: WorkerHandle, now: float) -> int | None:
        """Attempt a scheduled restart if backoff has elapsed and the
        token bucket allows it; raise when the budget is exhausted and
        can never refill (the configured die-instead-of-degrade mode)."""
        breaker = handle.breaker
        if now < breaker.next_attempt:
            return None
        assert handle.budget is not None
        if not handle.budget.take(now):
            wait = handle.budget.wait_for_token(now)
            if wait is None:
                raise IngestError(
                    f"shard {handle.spec.shard_id} exceeded "
                    f"max_restarts={self.max_restarts}"
                    + (
                        f"; last error:\n{handle.last_error}"
                        if handle.last_error
                        else ""
                    )
                )
            breaker.next_attempt = now + wait
            return None
        breaker.record_probation()
        self._set_breaker_gauge(handle)
        return self._restart(handle)

    def _restart(self, handle: WorkerHandle) -> int:
        """Restart a dead worker and re-feed everything it lost."""
        shard = handle.spec.shard_id
        handle.process.join(timeout=1.0)
        # A process killed mid-transfer can leave the channel's resources
        # unusable (a half-written ring, a half-read queue pipe) — abandon
        # them all; _spawn builds fresh ones. The dead incarnation can also
        # have leaked artifacts (a checkpoint temp file, an orphaned shm
        # segment raced past abandon): sweep them while nothing runs.
        handle.channel.abandon()
        handle.channel.sweep_orphans()
        sweep_stale_tmp(handle.spec.state_dir)
        handle.restarts += 1
        self.metrics.counter("runtime.restarts").inc()
        self.metrics.counter(f"runtime.shard{shard}.restarts").inc()
        self._spawn(handle)
        recovered_through = self._wait_ready(handle)
        self._attribute_crash(handle, recovered_through)
        refed = 0
        process = handle.process
        dead_again = lambda: not process.is_alive()  # noqa: E731
        for seq in sorted(handle.retained):
            if seq <= recovered_through:
                # Durable in the worker's WAL before the crash: the boot
                # replay already applied it.
                handle.retained.pop(seq)
                continue
            if dead_again():
                # Crashed again mid-re-feed (a poison chunk re-fed just
                # above kills every incarnation until quarantined). The
                # rest stays retained; the next pump's death recovery
                # goes back through the breaker/budget and re-feeds it.
                break
            pkts, lens = handle.retained[seq]
            if not handle.channel.send_chunk_required(
                seq, pkts, lens, abort=dead_again
            ):
                break
            refed += 1
        self.metrics.counter("runtime.refed_chunks").inc(refed)
        for query_msg in list(handle.pending_queries.values()):
            handle.channel.send_control(query_msg)
        if handle.seal_sent and handle.sealed is None:
            # Crashed between seal send and the sealed report: re-seal
            # after the re-feed (in-band, so it lands after every chunk;
            # the worker seals the same recovered state idempotently).
            handle.channel.send_seal()
        if handle.drain_sent:
            handle.channel.send_drain()
        return recovered_through

    # -- poison-chunk quarantine ---------------------------------------------

    def _attribute_crash(self, handle: WorkerHandle, recovered_through: int) -> None:
        """Blame the death on the chunk the worker was applying.

        Injected runtime faults (and real poison chunks) fire *before*
        the WAL append, so the killing chunk is never durable: it is the
        lowest retained seq past the recovery point. The same chunk
        blamed ``quarantine_after`` times in a row gets quarantined;
        a crash blamed on a different chunk resets nothing (counts are
        per-seq), and a restart with nothing suspicious pending clears
        the slate — ordinary SIGKILL chaos never accumulates blame.
        """
        if not self.quarantine_after:
            return
        suspect = min(
            (s for s in handle.retained if s > recovered_through), default=None
        )
        if suspect is None:
            handle.suspects.clear()
            return
        count = handle.suspects.get(suspect, 0) + 1
        handle.suspects[suspect] = count
        if count >= self.quarantine_after:
            self._quarantine(handle, suspect, count)

    def _quarantine(self, handle: WorkerHandle, seq: int, crashes: int) -> None:
        """Spill one poison chunk to the quarantine WAL and drop it from
        retention — the restarted worker never sees it again."""
        shard = handle.spec.shard_id
        packets, lengths = handle.retained.pop(seq)
        handle.suspects.pop(seq, None)
        quarantine_chunk(
            handle.spec.state_dir,
            shard,
            seq,
            packets,
            lengths,
            crashes=crashes,
            reason=handle.last_error or "repeated worker crashes on this chunk",
        )
        handle.quarantined.append((seq, len(packets)))
        self.metrics.counter("runtime.quarantine.chunks").inc()
        self.metrics.counter("runtime.quarantine.packets").inc(len(packets))
        self.metrics.gauge(f"runtime.shard{shard}.quarantined_packets").set(
            sum(n for _, n in handle.quarantined)
        )

    # -- elastic resharding --------------------------------------------------

    @property
    def reshard_in_progress(self) -> bool:
        return self._reshard is not None

    @property
    def reshard_phase(self) -> str | None:
        return None if self._reshard is None else self._reshard.phase

    def begin_reshard(
        self,
        donor: int,
        make_specs: Callable[[int], tuple[WorkerSpec, WorkerSpec]],
        on_cutover: Callable[[ShardMap], None] | None = None,
    ) -> None:
        """Start splitting shard ``donor`` into itself + a new shard.

        ``make_specs(sealed_seq)`` is called once the donor seals; it
        must return the two successor :class:`WorkerSpec`\\ s — first the
        donor's heir (same shard id) then the new child (id equal to the
        current shard count) — both carrying the new versioned
        ``shard_map`` and the donor's WAL chain. ``on_cutover`` fires at
        the instant the map flips (the caller swaps its partitioner
        there). The split runs asynchronously through :meth:`pump`;
        other shards keep ingesting throughout, and chunks bound for the
        donor are held and re-fed under the new map after cutover.
        """
        if self._stopped:
            raise IngestError("cannot reshard a stopped supervisor")
        if self._reshard is not None:
            raise IngestError(
                f"reshard of shard {self._reshard.donor} already in progress"
            )
        if not 0 <= donor < len(self.handles):
            raise ConfigError(
                f"reshard donor {donor} out of range for {len(self.handles)} shards"
            )
        handle = self.handles[donor]
        if handle.drain_sent or handle.finalized is not None:
            raise IngestError(f"cannot reshard drained shard {donor}")
        self._reshard = ReshardOp(
            donor=donor, make_specs=make_specs, on_cutover=on_cutover
        )
        handle.seal_sent = True
        handle.sealed = None
        handle.channel.send_seal()
        self.metrics.counter("runtime.reshards").inc()
        self.metrics.gauge("runtime.reshard.in_progress").set(1)
        self.pump()

    def _advance_reshard(self) -> None:
        """Drive the split state machine one step (called from pump,
        inside the re-entrancy guard — state transitions only, never
        chunk sends; the refeed drains in _flush_reshard_refeed)."""
        op = self._reshard
        if op is None:
            return
        if op.phase == "sealing":
            donor = self.handles[op.donor]
            if donor.sealed is None:
                return
            op.sealed_seq, op.sealed_digest = donor.sealed
            spec_a, spec_b = op.make_specs(op.sealed_seq)
            if spec_a.shard_id != op.donor or spec_b.shard_id != len(self.handles):
                raise ConfigError(
                    f"successor specs must carry shard ids {op.donor} and "
                    f"{len(self.handles)}, got {spec_a.shard_id}/{spec_b.shard_id}"
                )
            if spec_b.shard_map is None:
                raise ConfigError("successor specs must carry the new shard map")
            op.new_map = spec_b.shard_map
            for spec in (spec_a, spec_b):
                successor = self._make_handle(spec)
                self._spawn(successor)
                op.successors.append(successor)
            op.phase = "replaying"
            return
        if op.phase == "replaying":
            for successor in op.successors:
                for msg in successor.channel.poll():
                    self._handle_msg(successor, msg)
                if successor.ready_seq is None and not successor.process.is_alive():
                    # Died mid history replay/boot: plain respawn — no
                    # retained chunks, queries, or markers to re-feed.
                    # Goes through the breaker/budget like any death;
                    # a deferred (backed-off) attempt retries next pump.
                    recovered = self._on_worker_death(successor)
                    if recovered is not None:
                        successor.ready_seq = recovered
            donor = self.handles[op.donor]
            if any(s.ready_seq is None for s in op.successors):
                return
            if donor.pending_queries:
                # Queries still routed to the donor under the old map
                # must be answered by the donor; hold the cutover.
                return
            self._cutover(op)
            return
        # phase == "refeed": drains outside the pump guard, in
        # _flush_reshard_refeed (chunk sends must keep pumping).

    def _cutover(self, op: ReshardOp) -> None:
        """Retire the donor and swap in the successors atomically (from
        the caller's perspective: no chunk send happens in between)."""
        donor = self.handles[op.donor]
        succ_a, succ_b = op.successors
        # Retire the donor: everything through sealed_seq is covered by
        # the successors' history replay, so nothing it holds is needed.
        if donor.process is not None and donor.process.is_alive():
            try:
                donor.channel.send_control(("stop",))
            except (OSError, ValueError):  # pragma: no cover
                pass
            _join_or_kill(donor.process)
        donor.channel.close()
        donor.retained.clear()
        for successor in op.successors:
            # Both successors continue the donor's chunk numbering: every
            # seq <= sealed_seq is covered by history replay, so the
            # duplicate-re-feed dedup logic works across the split.
            successor.next_seq = op.sealed_seq + 1
        # Answered-but-uncollected replies move to the heir so late
        # collect_reply() lookups through handles[donor] still find them.
        succ_a.replies.update(donor.replies)
        self.handles[op.donor] = succ_a
        self.handles.append(succ_b)
        op.successors.clear()
        op.phase = "refeed"
        if op.on_cutover is not None:
            op.on_cutover(op.new_map)

    def _flush_reshard_refeed(self) -> None:
        """Re-feed the chunks held during the split, re-partitioned
        under the new map. Runs *outside* pump's re-entrancy guard: a
        blocked re-feed send must still detect dead successors through
        its stall hook. Completes the reshard when the backlog drains.
        """
        op = self._reshard
        if op is None or op.phase != "refeed" or self._refeeding or self._pumping:
            return
        self._refeeding = True
        try:
            partitioner = StreamPartitioner(shard_map=op.new_map)
            child = op.new_map.num_shards - 1
            while op.held:
                parts = partitioner.partition(*op.held.pop(0))
                for sid in (op.donor, child):
                    packets, lengths = parts[sid]
                    if len(packets):
                        self.send_chunk(sid, packets, lengths)
                        self.metrics.counter("runtime.reshard.refed_chunks").inc()
            self._reshard = None
            self.metrics.gauge("runtime.reshard.in_progress").set(0)
            self.metrics.gauge("runtime.reshard.last_seconds").set(
                time.monotonic() - op.started_at
            )
        finally:
            self._refeeding = False

    def finish_reshard(self, timeout: float = 300.0) -> None:
        """Block until the in-flight reshard (if any) fully completes."""
        deadline = time.monotonic() + timeout
        while self._reshard is not None:
            self.pump()
            self._flush_reshard_refeed()
            if self._reshard is None:
                return
            if time.monotonic() > deadline:
                raise IngestError(
                    f"reshard of shard {self._reshard.donor} stuck in phase "
                    f"{self._reshard.phase!r} after {timeout:.0f}s"
                )
            time.sleep(0.005)

    # -- feeding ------------------------------------------------------------

    def send_chunk(
        self,
        shard: int,
        packets: npt.NDArray[np.uint64],
        lengths: npt.NDArray[np.int64] | None,
    ) -> bool:
        """Enqueue one subchunk on its shard (backpressure applies).

        Returns ``False`` when the shed policy dropped it. During a
        reshard, chunks bound for the split donor are *held* (accepted
        but not yet delivered) and re-fed under the new map after
        cutover; any pending re-feed backlog drains first, so per-flow
        order is preserved across the split.
        """
        self._flush_reshard_refeed()
        op = self._reshard
        if op is not None and shard == op.donor and op.phase in (
            "sealing",
            "replaying",
        ):
            op.held.append((packets, lengths))
            self.metrics.counter("runtime.reshard.held_chunks").inc()
            self.metrics.counter("runtime.reshard.held_packets").inc(len(packets))
            self.pump()
            self._flush_reshard_refeed()
            return True
        handle = self.handles[shard]
        if handle.breaker.state == BREAKER_OPEN or (
            handle.process is not None and not handle.process.is_alive()
        ):
            # Fail-slow: the shard is between incarnations (crashed and
            # backing off, or waiting on a restart token). Accept the
            # chunk into retention without touching the channel — a
            # blocked send to a dead consumer would stall the whole
            # ingest plane — and let the eventual restart's re-feed
            # deliver everything in seq order. pump() below may be the
            # restart itself.
            seq = handle.next_seq
            handle.next_seq = seq + 1
            handle.retained[seq] = (packets, lengths)
            handle.packets_sent += len(packets)
            self.metrics.counter("runtime.chunks_sent").inc()
            self.metrics.counter(f"runtime.shard{shard}.chunks_sent").inc()
            self.metrics.counter("runtime.packets_sent").inc(len(packets))
            self.metrics.counter("runtime.breaker.held_chunks").inc()
            self.pump()
            return True
        seq = handle.next_seq
        # Retain *before* sending: a blocked send pumps the message loop,
        # which may deliver this very chunk's ack mid-send — the ack must
        # find the retention entry to drop it.
        handle.retained[seq] = (packets, lengths)
        accepted = handle.channel.send_chunk(seq, packets, lengths)
        if accepted:
            handle.next_seq = seq + 1
            handle.packets_sent += len(packets)
            self.metrics.counter("runtime.chunks_sent").inc()
            self.metrics.counter(f"runtime.shard{shard}.chunks_sent").inc()
            self.metrics.counter("runtime.packets_sent").inc(len(packets))
        else:
            handle.retained.pop(seq, None)
        self.pump()
        return accepted

    def send_drain(self, timeout: float = 60.0) -> None:
        # A split must fully land before the stream can end: drain
        # markers are routed per-shard, and held chunks still owe the
        # successors their packets.
        self.finish_reshard()
        for handle in self.handles:
            self._force_restart(handle, timeout=timeout)
            handle.drain_sent = True
            handle.channel.send_drain()

    def _force_restart(self, handle: WorkerHandle, timeout: float) -> None:
        """Bring a dead/backing-off shard up *now* (drain path): backoff
        is waived — the stream is over, latency no longer buys safety —
        but the budget still applies, so a shard configured to die dead
        stays dead (and raises) rather than flapping forever."""
        deadline = time.monotonic() + timeout
        while handle.process is not None and not handle.process.is_alive():
            handle.breaker.next_attempt = 0.0
            if self._on_worker_death(handle) is not None:
                return
            if time.monotonic() > deadline:
                raise IngestError(
                    f"shard {handle.spec.shard_id} could not be restarted "
                    f"for drain within {timeout:.0f}s"
                )
            time.sleep(0.01)

    def _await(self, handle: WorkerHandle, deadline: float) -> None:
        """Block until ``handle``'s worker sends a message, one stall
        slice, or ``deadline`` — whichever comes first — then pump.

        The wait wakes on the message itself instead of sleeping between
        polls; the pump every slice keeps death detection and the
        watchdog running for every shard meanwhile."""
        wait = min(STALL_SLICE_SECONDS, deadline - time.monotonic())
        if wait > 0:
            msg = handle.channel.recv(wait)
            if msg is not None:
                self._handle_msg(handle, msg)
        self.pump()

    def wait_finalized(self, timeout: float = 300.0) -> None:
        deadline = time.monotonic() + timeout
        self.pump()
        while missing := [h for h in self.handles if h.finalized is None]:
            if time.monotonic() > deadline:
                raise IngestError(
                    f"shards {[h.spec.shard_id for h in missing]} "
                    f"did not finalize in {timeout:.0f}s"
                )
            self._await(missing[0], deadline)
        # Drained and quiet: reclaim whatever any dead incarnation
        # leaked along the way (checkpoint temp files, orphaned shm
        # segments) while every worker is provably past writing them.
        for handle in self.handles:
            sweep_stale_tmp(handle.spec.state_dir)
            handle.channel.sweep_orphans()

    def shard_fills(self) -> dict[int, float]:
        """Ring occupancy per shard in ``[0, 1]`` — the hot-shard signal
        the reshard planner watches. A shard whose channel is abandoned
        (mid-restart) is omitted."""
        fills: dict[int, float] = {}
        for i, handle in enumerate(self.handles):
            fill = handle.channel.data_fill()
            if fill is not None:
                fills[i] = fill
                self.metrics.gauge(f"runtime.shard{i}.fill").set(fill)
        return fills

    def checkpoint_ages(self) -> dict[int, float]:
        """Seconds since each shard's last reported checkpoint — the
        operator's durability-lag signal. Shards that have never
        checkpointed (fresh boot, or ``checkpoint_every=0``) are
        omitted. Also lands per-shard ``checkpoint_age_seconds``
        gauges in the registry."""
        now = time.monotonic()
        ages: dict[int, float] = {}
        for i, handle in enumerate(self.handles):
            if handle.last_checkpoint_at <= 0:
                continue
            age = max(0.0, now - handle.last_checkpoint_at)
            ages[i] = age
            self.metrics.gauge(f"runtime.shard{i}.checkpoint_age_seconds").set(age)
        return ages

    # -- queries ------------------------------------------------------------

    def shard_available(self, shard: int) -> bool:
        """Whether this shard can plausibly answer a query right now —
        alive and not breaker-open (mid-backoff). Half-open counts as
        available: the restarted worker answers queries fine."""
        handle = self.handles[shard]
        return (
            handle.process is not None
            and handle.process.is_alive()
            and handle.breaker.state != BREAKER_OPEN
        )

    def shard_coverage(self, shard: int) -> float:
        """Fraction of the packet mass sent to this shard that reached
        its counters (quarantined chunks subtract; 1.0 when clean)."""
        handle = self.handles[shard]
        if not handle.packets_sent:
            return 1.0
        missing = sum(n for _, n in handle.quarantined)
        return max(0.0, 1.0 - missing / handle.packets_sent)

    def cancel_query(self, shard: int, qid: int) -> None:
        """Forget one in-flight query (deadline passed): it must not be
        re-sent on the next restart, and a late reply is dropped."""
        handle = self.handles[shard]
        handle.pending_queries.pop(qid, None)
        handle.replies.pop(qid, None)

    def ask(
        self,
        shard: int,
        qid: int,
        flow_ids: npt.NDArray[np.uint64],
        method: str,
    ) -> None:
        handle = self.handles[shard]
        message = ("query", qid, flow_ids, method)
        handle.pending_queries[qid] = message
        handle.channel.send_control(message)
        self.metrics.counter("runtime.queries").inc()

    def collect_reply(
        self, shard: int, qid: int, timeout: float = 60.0
    ) -> npt.NDArray[np.float64]:
        est = self.try_collect_reply(shard, qid, time.monotonic() + timeout)
        if est is None:
            raise IngestError(
                f"shard {shard} did not answer query {qid} in {timeout:.0f}s"
            )
        return est

    def try_collect_reply(
        self, shard: int, qid: int, deadline: float
    ) -> npt.NDArray[np.float64] | None:
        """Like :meth:`collect_reply` against an absolute monotonic
        deadline, but a missed deadline returns ``None`` (the partial-
        answer path) instead of raising; a shard that *answered* with an
        error still raises — that is a genuine query failure, not a
        liveness problem."""
        handle = self.handles[shard]
        self.pump()
        while qid not in handle.replies:
            if time.monotonic() > deadline:
                return None
            self._await(handle, deadline)
        est, err = handle.replies.pop(qid)
        if err is not None:
            raise IngestError(f"shard {shard} query failed: {err}")
        return est
