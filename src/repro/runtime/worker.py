"""The long-lived shard worker process.

One worker owns one :class:`~repro.core.caesar.Caesar` instance and
lives for the whole deployment: it consumes packet chunks from its
shared-memory ring, answers live queries from a control channel
mid-ingest, and keeps enough durable state on disk — an *ingest*
write-ahead log plus periodic checkpoints — that the supervisor can
SIGKILL it at any instant and restart it bit-identically.

Durability protocol (per chunk, in order):

1. append the chunk (packets + optional lengths, tagged with its shard
   chunk sequence number) to the ingest WAL and flush;
2. feed it to the scheme;
3. every ``ack_every`` chunks (and on checkpoint, drain, stop, or a
   duplicate re-feed) send a *cumulative* ack — everything up to the
   acked sequence number is durable here, so the supervisor may drop
   those retained copies. Batching trades a little extra retention
   (at most ``ack_every`` chunks ride the supervisor's buffer) for
   ``ack_every``-fold fewer control messages; the recovery split is
   unchanged because un-acked-but-durable chunks are deduplicated on
   re-feed anyway;
4. every ``checkpoint_every`` chunks, snapshot the scheme and hand a
   :class:`~repro.resilience.checkpoint.Checkpoint` named by the
   sequence number to the background writer, which publishes it
   atomically; the ingest WAL's role shrinks back to "since the last
   checkpoint".

Recovery on boot inverts the protocol. :func:`recover`, the package's
one recovery function (``repro.recover``), restores the newest readable
checkpoint and replays ingest-WAL chunks past its sequence number (the
checkpoint restores the cache and the split RNG exactly, so replay is
bit-identical); the worker then reports the last recovered sequence
number — the supervisor re-feeds anything newer from its retention
buffer. A chunk therefore reaches the scheme exactly once, in order,
across any number of crashes.

Each chunk is one ingest record of
:class:`~repro.resilience.wal.WriteAheadLog`: the chunk seq in the
record header, then the packets and any byte lengths as received.
"""

from __future__ import annotations

import os
import re
import signal
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np
import numpy.typing as npt

from repro.core.caesar import Caesar
from repro.core.config import CaesarConfig
from repro.errors import IngestError, TraceFormatError
from repro.resilience.async_ckpt import CheckpointDone, ShardCheckpointer
from repro.resilience.atomic import atomic_publish
from repro.resilience.checkpoint import Checkpoint
from repro.resilience.faults import FaultPlan
from repro.resilience.wal import WriteAheadLog
from repro.runtime.partitioner import ShardMap
from repro.runtime.transport import DEFAULT_ACK_EVERY
from repro.runtime.watchdog import DEFAULT_HEARTBEAT_EVERY

if TYPE_CHECKING:  # pragma: no cover - typing only
    from multiprocessing.synchronize import Semaphore
    from typing import Callable

    from repro.runtime.transport import WorkerTransport

#: Longest idle data wait before the loop comes round for heartbeats and
#: checkpoint reports; data and control messages end it at once.
POLL_SECONDS = 0.05

#: Longest a worker waits for a compute slot before proceeding anyway.
#: The slot is an optimization (see :func:`_compute_slot`), never a
#: correctness device — a SIGKILLed holder must not wedge the others.
GATE_TIMEOUT = 1.0


@contextmanager
def _compute_slot(gate: "Semaphore | None", tick: "Callable[[], None] | None" = None):
    """Hold one oversubscription-guard slot for a heavy compute section.

    When shard workers outnumber cores, letting them all chew
    concurrently just interleaves them through the scheduler — total
    throughput cannot rise, but every context switch refills caches and
    TLBs, so total *work* does (measured ~30-40% CPU inflation with 4
    workers on 1 core). The supervisor hands every worker one counting
    semaphore sized to the core budget; holding it through chunk
    processing and finalize/checkpoint keeps at most ``cores`` workers
    computing while the rest sleep in a futex, preserving the per-shard
    cache locality that sharding buys. With ``workers <= cores`` no
    gate is created and this is a no-op — true parallelism passes
    through untouched.

    The acquire is bounded by :data:`GATE_TIMEOUT` and the section runs
    regardless: a slot lost to a SIGKILLed holder degrades back to
    concurrent compute instead of deadlocking (crash tests kill workers
    at arbitrary instants, including mid-hold).

    ``tick`` is called between acquire slices so the worker can keep
    heartbeating while it waits: a futex wait is the one legitimately
    long silent span in the loop, and without the ticks a contended
    gate (workers > cores, neighbors replaying after a crash) reads as
    a hang to the watchdog — whose SIGTERM then starts the wait over
    in a fresh incarnation, sustaining a kill loop.
    """
    if gate is None:
        yield
        return
    deadline = time.monotonic() + GATE_TIMEOUT
    got = gate.acquire(block=False)
    while not got and time.monotonic() < deadline:
        if tick is not None:
            tick()
        got = gate.acquire(timeout=0.05)
    try:
        yield
    finally:
        if got:
            gate.release()

_CKPT_RE = re.compile(r"ck_(\d{10})(_final)?\.npz$")


@dataclass(frozen=True)
class WorkerSpec:
    """Everything a shard worker needs to boot (picklable, spawn-safe).

    A split successor additionally carries its ancestry: the ordered
    chain of ancestor ingest WALs (``history_wals``), the sealed
    sequence number through which that history runs
    (``history_through``), and the versioned flow map it was born under
    (``shard_map``). On a fresh boot the successor rebuilds its
    substream by replaying the chain filtered to the flows the map
    assigns to ``shard_id`` — bit-identical to an offline shard built
    under the same map, because ancestor WALs are complete, immutable
    records of their substreams and partitioning is per-packet and
    stateless.
    """

    shard_id: int
    config: CaesarConfig
    state_dir: str
    checkpoint_every: int = 4  # chunks between checkpoints; 0 disables
    checkpoint_level: int = 1  # zlib level; 0 = store-only
    ack_every: int = DEFAULT_ACK_EVERY  # chunks between cumulative acks
    history_wals: tuple[str, ...] = ()  # ancestor ingest WALs, oldest first
    history_through: int = -1  # last seq covered by the history chain
    shard_map: ShardMap | None = None  # the map this worker was born under
    heartbeat_every: float = DEFAULT_HEARTBEAT_EVERY  # seconds; 0 disables
    fault_plan: FaultPlan | None = None  # runtime-level injected faults

    @property
    def wal_path(self) -> Path:
        return Path(self.state_dir) / "ingest.wal"

    def checkpoint_path(self, seq: int, *, final: bool = False) -> Path:
        suffix = "_final" if final else ""
        return Path(self.state_dir) / f"ck_{seq:010d}{suffix}.npz"


# -- ingest-WAL records -------------------------------------------------------


def append_ingest_chunk(
    wal: WriteAheadLog,
    seq: int,
    packets: npt.NDArray[np.uint64],
    lengths: npt.NDArray[np.int64] | None,
) -> None:
    """Append one input chunk as an ingest record under ``seq``, and flush."""
    wal.append_ingest(seq, packets, lengths)
    wal.flush()


# -- injected runtime faults --------------------------------------------------


def _apply_runtime_faults(plan: FaultPlan, spec: WorkerSpec, seq: int) -> None:
    """Execute the plan's runtime-level faults for one chunk.

    Runs *before* the chunk is appended to the ingest WAL, so an
    injected hang or crash never makes the poison chunk durable: it
    stays in the supervisor's retention buffer, is re-fed to each
    restarted incarnation, and can therefore be attributed and
    quarantined. Hang fires once per state dir (sentinel file) so the
    post-kill incarnation sails past; crash counts its firings in a
    state-dir file so ``crash_limit`` survives restarts
    (``crash_limit=0`` means always — a truly poison chunk).
    """
    if plan.slow_apply > 0:
        time.sleep(plan.slow_apply)
    if plan.hang_at_chunk == seq:
        sentinel = Path(spec.state_dir) / ".fault_hang_done"
        if not sentinel.exists():
            sentinel.touch()
            while True:  # hang until the watchdog escalates to SIGKILL
                time.sleep(3600)
    if plan.crash_on_seq == seq:
        counter = Path(spec.state_dir) / ".fault_crash_count"
        crashes = int(counter.read_text()) if counter.exists() else 0
        if plan.crash_limit <= 0 or crashes < plan.crash_limit:
            counter.write_text(str(crashes + 1))
            raise IngestError(
                f"injected crash applying chunk seq {seq} "
                f"(firing {crashes + 1}, limit {plan.crash_limit or 'none'})"
            )


# -- boot / recovery ----------------------------------------------------------


def _saved_checkpoints(state_dir: Path) -> list[tuple[int, bool, Path]]:
    """All checkpoint files, newest last: ``(seq, is_final, path)``."""
    found = []
    for path in state_dir.glob("ck_*.npz"):
        m = _CKPT_RE.search(path.name)
        if m:
            found.append((int(m.group(1)), m.group(2) == "_final", path))
    return sorted(found)


def _replay_history(scheme: Caesar, spec: WorkerSpec) -> int:
    """Rebuild a split successor's substream from its ancestor WALs.

    Replays every chunk of the (sealed, immutable) ancestor chain,
    filtered to the flows ``spec.shard_map`` assigns to this shard.
    Read-only: the donor may still be alive serving queries — never
    truncate or touch its files. Idempotent: a crash mid-replay leaves
    no checkpoint, so the next boot simply replays again.
    """
    if spec.shard_map is None:
        raise TraceFormatError(
            f"shard {spec.shard_id} has history WALs but no shard map"
        )
    replayed = 0
    for wal_path in spec.history_wals:
        path = Path(wal_path)
        if not path.exists() or path.stat().st_size == 0:
            continue
        for seq, packets, lengths in WriteAheadLog.iter_records(path):
            if seq > spec.history_through:
                continue  # beyond the sealed cut (defensive; never post-seal)
            mask = spec.shard_map.owner_of(packets) == spec.shard_id
            if not mask.any():
                continue
            scheme.process(
                packets[mask], lengths[mask] if lengths is not None else None
            )
            replayed += 1
    return replayed


def recover(spec: WorkerSpec) -> tuple[Caesar, int, int]:
    """Checkpoint + ingest replay → this shard's scheme as it stood at
    the crash: the one recovery path.

    Returns ``(scheme, last_seq, replayed)``: the live instance, the
    last chunk sequence number durably applied (``-1`` for a fresh
    boot), and how many WAL chunks were replayed. Restores the newest
    readable ``ck_<seq>.npz``; unreadable (torn) checkpoints fall back
    to the previous one — the WAL bridges the extra gap automatically.
    With none readable it starts from a fresh :class:`Caesar`. Then it
    re-processes every ingest-WAL chunk past that seq. The checkpoint
    restores the cache residents, the split RNG and the fault injector
    exactly, so the result equals the uninterrupted run bit for bit.

    A split successor with no readable checkpoint first replays its
    ancestor WAL chain (filtered by flow ownership), checkpoints that
    rebuilt state at ``history_through``, and only then replays its own
    WAL — so once any own-WAL chunk exists, a checkpoint covering the
    history does too, and recovery never replays history twice.
    """
    state_dir = Path(spec.state_dir)
    state_dir.mkdir(parents=True, exist_ok=True)
    scheme: Caesar | None = None
    last_seq = -1
    for seq, _final, path in reversed(_saved_checkpoints(state_dir)):
        try:
            scheme = Caesar.resume(Checkpoint.load(path))
            last_seq = seq
            break
        except TraceFormatError:
            continue
    replayed = 0
    if scheme is None:
        scheme = Caesar(spec.config)
        if spec.history_wals:
            replayed += _replay_history(scheme, spec)
            last_seq = spec.history_through
            if last_seq >= 0:
                # Durable cut over the rebuilt history: named by the
                # sealed seq so own-WAL replay resumes past it. Skipped
                # at seq -1 (an empty donor) — a "state after chunk 0"
                # checkpoint name must never describe pre-chunk-0 state.
                _save_checkpoint_atomic(
                    scheme,
                    spec.checkpoint_path(last_seq),
                    level=spec.checkpoint_level,
                )
    wal_path = spec.wal_path
    if wal_path.exists() and wal_path.stat().st_size > 0:
        # Replay stops at a torn tail; the WriteAheadLog the worker
        # opens next cuts it before appending.
        for seq, packets, lengths in WriteAheadLog.iter_records(wal_path):
            if seq <= last_seq:
                continue
            scheme.process(packets, lengths)
            last_seq = seq
            replayed += 1
    return scheme, last_seq, replayed


def boot_shard(spec: WorkerSpec) -> tuple[Caesar, int, int]:
    """:func:`recover` this shard's scheme, then ready the process for
    ingest; returns what :func:`recover` does."""
    scheme, last_seq, replayed = recover(spec)
    # Long-lived process: absorb the banks' first-touch page faults
    # here, not inside the first chunks' scatter-adds.
    scheme.counters.prefault()
    _warm_code_paths(Path(spec.state_dir))
    return scheme, last_seq, replayed


def _warm_code_paths(state_dir: Path) -> None:
    """Run the whole chunk pipeline once on a throwaway toy scheme.

    A forked worker inherits the parent's heap copy-on-write; the first
    traversal of each code path then takes a spray of CoW faults (every
    refcount bump writes a page) right inside the first real chunk.
    Exercising process → finalize → checkpoint on a tiny scheme at boot
    moves those one-time faults off the measurement path. Costs a few
    milliseconds once per process lifetime.
    """
    toy = Caesar(
        CaesarConfig(cache_entries=8, entry_capacity=8, k=2, bank_size=64)
    )
    toy.process(np.arange(64, dtype=np.uint64))
    toy.finalize()
    ckpt = Checkpoint.capture(toy)
    _ = ckpt.digest
    warm_path = state_dir / ".warmup.npz"
    try:
        ckpt.save(warm_path)
    finally:
        warm_path.unlink(missing_ok=True)


def _save_checkpoint_atomic(scheme: Caesar, target: Path, *, level: int = 1) -> str:
    """Checkpoint → tmp file → durable atomic publish; returns the digest.

    The publish (fsync + rename + parent-dir fsync, see
    :func:`~repro.resilience.atomic.atomic_publish`) guarantees a reader
    (the recovering successor process) only ever sees complete
    checkpoint files, even across a power cut; a crash mid-write leaves
    the previous checkpoint intact plus a ``.tmp_`` leftover for the
    sweeps.
    """
    ckpt = scheme.checkpoint()
    tmp = target.parent / f".tmp_{target.name}"
    written = ckpt.save(tmp, level=level)
    atomic_publish(written, target)
    return ckpt.digest


def _prune_checkpoints(state_dir: Path, keep: int = 2) -> None:
    """Drop all but the ``keep`` newest checkpoints (bounded disk)."""
    for _seq, _final, path in _saved_checkpoints(state_dir)[:-keep]:
        path.unlink(missing_ok=True)


# -- the worker loop ----------------------------------------------------------


def _answer_query(
    scheme: Caesar, flow_ids: npt.NDArray[np.uint64], method: str
) -> npt.NDArray[np.float64]:
    """Live query mid-ingest, offline query after finalize."""
    if scheme._finalized:
        return scheme.estimate(flow_ids, method, clip_negative=True)
    return scheme.estimate_online(flow_ids)


def worker_main(
    spec: WorkerSpec,
    transport: "WorkerTransport",
    compute_gate: "Semaphore | None" = None,
) -> None:
    """Entry point of one shard worker process (module-level: picklable
    under any multiprocessing start method). ``transport`` is the
    worker-side endpoint the supervisor's channel built for this
    incarnation: the ring to read chunks from, plus the control and
    message queues. ``compute_gate`` is
    the supervisor's oversubscription guard (see :func:`_compute_slot`),
    or ``None`` when the core budget covers every worker."""
    # Shed any signal handlers inherited from the supervisor process
    # (fork start method): SIGTERM must actually terminate — it is the
    # watchdog's middle escalation stage — and SIGINT is ignored so a
    # terminal Ctrl-C (delivered to the whole foreground process group)
    # interrupts only the supervisor, which then drains gracefully.
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    shard = spec.shard_id
    try:
        transport.open()
        scheme, last_seq, replayed = boot_shard(spec)
        wal = WriteAheadLog(spec.wal_path)
        unacked = 0
        # Background checkpoint writer, one per incarnation.
        ckptr: ShardCheckpointer | None = None
        if spec.checkpoint_every:
            slow = (
                spec.fault_plan.slow_ckpt_write
                if spec.fault_plan is not None
                else 0.0
            )
            ckptr = ShardCheckpointer(level=spec.checkpoint_level, slow_write=slow)

        def flush_ack() -> None:
            nonlocal unacked
            if unacked:
                transport.send(("ack", shard, last_seq))
                unacked = 0

        def report_checkpoints(done: "list[CheckpointDone]") -> None:
            # Completed background writes: prune (the new file is now
            # durable, older ones may drop) and tell the supervisor.
            # All transport.send calls stay on this thread — the writer
            # thread never touches the transport.
            if not done:
                return
            _prune_checkpoints(Path(spec.state_dir))
            for d in done:
                transport.send(("checkpoint", shard, d.seq, d.digest, d.info))

        transport.send(("ready", shard, last_seq, replayed))
        last_heartbeat = time.monotonic()

        def beat() -> None:
            # Heartbeat on the message plane — never the data plane, so
            # the no-fault bit-identity contract is untouched. Called at
            # the loop top (at least every POLL_SECONDS when idle, once
            # per chunk when busy) and between compute-gate acquire
            # slices, which bounds heartbeat jitter even when the gate
            # is contended.
            nonlocal last_heartbeat
            if spec.heartbeat_every <= 0:
                return
            now = time.monotonic()
            if now - last_heartbeat >= spec.heartbeat_every:
                transport.send(("heartbeat", shard, last_seq, now))
                last_heartbeat = now

        while True:
            beat()
            if ckptr is not None:
                report_checkpoints(ckptr.poll())
            # Control first: queries stay responsive however deep the
            # data plane is, and stop wins over queued work.
            while (msg := transport.recv_control()) is not None:
                if msg[0] == "stop":
                    flush_ack()
                    if ckptr is not None:
                        # Finish any in-flight write durably; no point
                        # reporting it — the supervisor is tearing down
                        # and boot discovers the file on disk anyway.
                        ckptr.close(tick=beat)
                    wal.close()
                    transport.close()  # unmaps the ring
                    # Everything is durable and flushed; skip interpreter
                    # teardown (GC over the forked heap costs ~10ms per
                    # worker, serialized on small machines).
                    os._exit(0)
                if msg[0] == "query":
                    _kind, qid, flow_ids, method = msg
                    try:
                        est = _answer_query(scheme, flow_ids, method)
                        transport.send(("reply", shard, qid, est, None))
                    except Exception as exc:  # noqa: BLE001 - reported to caller
                        transport.send(("reply", shard, qid, None, repr(exc)))
            item = transport.recv_data(POLL_SECONDS)
            if item is None:
                continue
            if item[0] == "chunk":
                _kind, seq, packets, lengths = item
                if seq <= last_seq:
                    # Duplicate re-feed of an already-durable chunk: ack
                    # cumulatively (again) so the supervisor's retained
                    # copies — this one included — all drop.
                    unacked = 1
                    flush_ack()
                    continue
                if spec.fault_plan is not None and spec.fault_plan.runtime_enabled:
                    # Before the WAL append: an injected hang/crash must
                    # not make the poison chunk durable (see
                    # _apply_runtime_faults).
                    _apply_runtime_faults(spec.fault_plan, spec, seq)
                with _compute_slot(compute_gate, tick=beat):
                    append_ingest_chunk(wal, seq, packets, lengths)
                    scheme.process(packets, lengths)
                last_seq = seq
                unacked += 1
                if unacked >= max(spec.ack_every, 1):
                    flush_ack()
                if ckptr is not None and (seq + 1) % spec.checkpoint_every == 0:
                    # Back-pressure: at most one write in flight. The
                    # wait is the only stall a checkpoint ever charges
                    # to ingest, and it is zero whenever the previous
                    # write finished between checkpoints.
                    done, _stall = ckptr.wait_idle(tick=beat)
                    report_checkpoints(done)
                    with _compute_slot(compute_gate, tick=beat):
                        ckptr.capture(scheme, seq, spec.checkpoint_path(seq))
                    flush_ack()  # checkpointed ⊇ durable: retention can drop
            elif item[0] == "seal":
                # Reshard seal: ordered after every chunk sent before it,
                # so the ingest WAL is now a complete record of this
                # shard's substream. Flush acks, cut a durable
                # checkpoint, and report the sealed seq + digest; stay
                # alive answering queries until the supervisor retires
                # this worker at cutover. Idempotent across re-sends
                # (a restart mid-reshard re-seals the same state).
                unacked = 1
                flush_ack()
                if ckptr is not None:
                    # The seal checkpoint must be the newest durable
                    # state, so land the in-flight write first.
                    done, _stall = ckptr.wait_idle(tick=beat)
                    report_checkpoints(done)
                with _compute_slot(compute_gate, tick=beat):
                    digest = _save_checkpoint_atomic(
                        scheme,
                        spec.checkpoint_path(max(last_seq, 0)),
                        level=spec.checkpoint_level,
                    )
                _prune_checkpoints(Path(spec.state_dir))
                transport.send(("sealed", shard, last_seq, digest))
            elif item[0] == "drain":
                flush_ack()
                if ckptr is not None:
                    # Join the writer before the final checkpoint: the
                    # drain contract is "everything durable on return".
                    done, _stall = ckptr.wait_idle(tick=beat)
                    report_checkpoints(done)
                with _compute_slot(compute_gate, tick=beat):
                    scheme.finalize()  # idempotent across drain re-sends
                    digest = _save_checkpoint_atomic(
                        scheme,
                        spec.checkpoint_path(max(last_seq, 0), final=True),
                        level=spec.checkpoint_level,
                    )
                transport.send(
                    (
                        "finalized",
                        shard,
                        digest,
                        str(spec.checkpoint_path(max(last_seq, 0), final=True)),
                        scheme.num_packets,
                    )
                )
    except Exception:  # noqa: BLE001 - crash surface: report, then die
        transport.send(("error", shard, traceback.format_exc()))
        raise
