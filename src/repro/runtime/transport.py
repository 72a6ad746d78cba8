"""The runtime's data plane: one shared-memory ring per shard.

Every chunk the supervisor sends crosses a
``multiprocessing.shared_memory`` **ring buffer** owned by the
receiving shard: the producer writes the raw NumPy packet bytes
straight into the ring (one memcpy), the worker copies them straight
out (one memcpy), and no pickling, framing allocation, or pipe syscall
touches the hot path. Control and worker messages stay on small
``multiprocessing`` queues — they are rare and tiny; only chunk
payloads earn shared memory.

Two endpoints per shard:

- :class:`ShardChannel` — the supervisor side. Lives for the whole
  runtime; each worker (re)spawn calls :meth:`~ShardChannel.open` to
  build a fresh segment, doorbell and queues and hand back the
  worker's :class:`WorkerTransport`. A blocked send that straddles a
  restart retries against the fresh resources automatically (it
  re-reads the channel's state every stall slice).
- :class:`WorkerTransport` — the worker-process side: receive data
  (chunks + the in-band drain and seal markers), read the control
  plane (queries, stop), send acks/checkpoints/replies back.

The planes are deliberately split:

- **data plane** (``send_chunk`` → ``recv_data``): ordered, bounded,
  policy-governed; carries chunk payloads and the in-band ``drain``
  and reshard ``seal`` markers (in-band so they are ordered after
  every chunk);
- **control plane** (``send_control`` → ``recv_control``): small,
  unordered relative to data; carries queries and ``stop`` so they
  never wait behind queued chunks;
- **message plane** (worker ``send`` → supervisor ``poll``): acks
  (cumulative, batched), checkpoint digests, query replies, errors.

Ring layout (all offsets in bytes)::

    [0 ..  8)   head  — monotonic write counter, producer-owned
    [64 .. 72)  tail  — monotonic read counter, consumer-owned
    [128 .. 128+capacity)  data area

Head and tail are free-running ``uint64`` byte counters (position =
``counter % capacity``), each written by exactly one process — the
classic single-producer/single-consumer ring, no locks. They live 64
bytes apart so the two writers never share a cache line.

Records are 32-byte aligned. Each starts with a fixed-width header row

    ``kind:u32  flags:u32  seq:u64  n_packets:u64  nbytes:u64``

followed by ``nbytes`` of payload: the packet array bytes, then the
length array bytes when present (``FLAG_HAS_LENGTHS``). A record never
straddles the wrap point: when the tail of the buffer is too short,
the producer writes a ``KIND_WRAP`` filler record and continues at
offset zero. Alignment guarantees the filler header always fits.

Chunks larger than half the ring are **fragmented**: split into
``FLAG_MORE``-chained records the worker reassembles before its loop
ever sees the chunk — WAL framing and sequence semantics stay
untouched. (Half the ring, because a wrap filler may precede a record;
``need + fill <= 2*need <= capacity`` guarantees a drained ring always
has room, so the block policy can always make progress.) Under
``shed``/``error`` an oversized chunk can never fit atomically, so it
is shed/raised outright.

Lifecycle: the supervisor's channel owns every segment — it creates a
fresh, uniquely-named ring per worker incarnation, unlinks the old one
on crash restart (a producer killed mid-write leaves an unparseable
ring; abandoning it sidesteps torn records entirely), and unlinks on
close. Workers only ever *attach* and are told not to track the
segment, so no cleanup races and no leaked ``/dev/shm`` entries.
"""

from __future__ import annotations

import queue as queue_mod
import struct
import threading
import time
import uuid
from collections import deque
from dataclasses import dataclass, field
from multiprocessing import shared_memory
from pathlib import Path
from typing import TYPE_CHECKING, Callable

import numpy as np
import numpy.typing as npt

from repro.errors import IngestError
from repro.obs.registry import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - typing only
    import multiprocessing.context
    from multiprocessing.queues import Queue
    from multiprocessing.synchronize import Semaphore

#: Accepted values for the runtime's ``backpressure=`` option.
BACKPRESSURE_POLICIES = ("block", "shed", "error")

#: The data plane's name, as run reports label it.
DEFAULT_TRANSPORT = "shm"

#: Default data capacity of each shard's ring (bytes).
DEFAULT_RING_BYTES = 4 * 1024 * 1024

#: Smallest sane ring: room for the control block plus a few records.
MIN_RING_BYTES = 256

#: Seconds per blocked-send slice; between slices the stall hook runs
#: (the supervisor uses it to keep detecting dead workers while blocked).
STALL_SLICE_SECONDS = 0.05

#: How many processed chunks a worker may accumulate before it must
#: flush a cumulative ack (it also flushes on checkpoint, drain, stop,
#: and duplicate re-feeds).
DEFAULT_ACK_EVERY = 8

#: Record header: kind, flags, seq, n_packets, payload bytes.
HEADER = struct.Struct("<IIQQQ")

#: Record alignment; equals the header size so a wrap filler always fits.
ALIGN = HEADER.size  # 32

#: Byte offset of the data area (head at 0, tail at 64, one cache line apart).
CTRL_BYTES = 128

KIND_CHUNK = 1
KIND_DRAIN = 2
KIND_WRAP = 3
KIND_SEAL = 4

FLAG_HAS_LENGTHS = 1
FLAG_MORE = 2  # more fragments of this chunk follow

#: Sleep between ring polls (both sides); short because ring operations
#: are memcpys, not syscalls — latency matters more than wakeup cost.
RING_POLL_SECONDS = 0.0005


def _align(n: int) -> int:
    return (n + ALIGN - 1) & ~(ALIGN - 1)


class _RingView:
    """Shared head/tail accounting over one mapped segment."""

    def __init__(self, buf: memoryview, capacity: int) -> None:
        self.buf = buf
        self.capacity = capacity

    @property
    def head(self) -> int:
        return struct.unpack_from("<Q", self.buf, 0)[0]

    @property
    def tail(self) -> int:
        return struct.unpack_from("<Q", self.buf, 64)[0]

    def used(self) -> int:
        return self.head - self.tail


class RingProducer(_RingView):
    """Single-producer side: write records, publish head last."""

    def try_write(
        self,
        kind: int,
        flags: int,
        seq: int,
        n_packets: int,
        payloads: "list[memoryview | bytes]",
        nbytes: int,
    ) -> bool:
        """Write one whole record if it fits *right now*; else ``False``.

        The payload bytes are copied in before the head counter is
        published, so the consumer can never observe a half-written
        record.
        """
        head, tail = self.head, self.tail
        need = _align(HEADER.size + nbytes)
        pos = head % self.capacity
        rem = self.capacity - pos
        fill = rem if rem < need else 0
        if self.capacity - (head - tail) < need + fill:
            return False
        if fill:
            HEADER.pack_into(
                self.buf, CTRL_BYTES + pos, KIND_WRAP, 0, 0, 0, fill - HEADER.size
            )
            head += fill
            pos = 0
        HEADER.pack_into(self.buf, CTRL_BYTES + pos, kind, flags, seq, n_packets, nbytes)
        off = CTRL_BYTES + pos + HEADER.size
        for view in payloads:
            view = memoryview(view).cast("B")
            self.buf[off : off + view.nbytes] = view
            off += view.nbytes
        struct.pack_into("<Q", self.buf, 0, head + need)
        return True


class RingConsumer(_RingView):
    """Single-consumer side: read records, publish tail last."""

    def try_read(self) -> tuple | None:
        """One record as ``(kind, flags, seq, n_packets, payload)`` —
        the payload copied out into a fresh writable buffer — or
        ``None`` when the ring is empty."""
        while True:
            tail = self.tail
            if tail == self.head:
                return None
            pos = tail % self.capacity
            kind, flags, seq, n_packets, nbytes = HEADER.unpack_from(
                self.buf, CTRL_BYTES + pos
            )
            if kind == KIND_WRAP:
                struct.pack_into("<Q", self.buf, 64, tail + HEADER.size + nbytes)
                continue
            start = CTRL_BYTES + pos + HEADER.size
            payload = bytearray(self.buf[start : start + nbytes])
            struct.pack_into("<Q", self.buf, 64, tail + _align(HEADER.size + nbytes))
            return kind, flags, seq, n_packets, payload


def _encode_payload(
    packets: npt.NDArray[np.uint64],
    lengths: npt.NDArray[np.int64] | None,
) -> tuple[list, int, int]:
    """Chunk arrays → (payload views, total bytes, flags); no copies."""
    views: list = [np.ascontiguousarray(packets)]
    nbytes = packets.size * 8
    flags = 0
    if lengths is not None:
        views.append(np.ascontiguousarray(lengths))
        nbytes += lengths.size * 8
        flags |= FLAG_HAS_LENGTHS
    return views, nbytes, flags


def _decode_payload(
    payload: bytearray, n_packets: int, flags: int
) -> tuple[npt.NDArray[np.uint64], npt.NDArray[np.int64] | None]:
    """Invert :func:`_encode_payload` over the copied-out buffer."""
    packets = np.frombuffer(payload, dtype=np.uint64, count=n_packets)
    lengths = None
    if flags & FLAG_HAS_LENGTHS:
        lengths = np.frombuffer(
            payload, dtype=np.int64, count=n_packets, offset=n_packets * 8
        )
    return packets, lengths


@dataclass
class WorkerTransport:
    """Worker end of one shard's link (picklable, spawn-safe).

    Built by :meth:`ShardChannel.open` in the supervisor process and
    shipped to the worker as a ``Process`` argument; the worker calls
    :meth:`open` once before use to map the ring and start the control
    listener.

    ``doorbell`` is a semaphore the producer releases once per record
    written, and the control listener once per control message: the
    worker blocks on it (futex wait, zero CPU) instead of sleep-polling
    the ring — on few-core machines a polling consumer steals exactly
    the cycles the busy shard needs.

    Control and worker messages ride ``multiprocessing`` queues
    (``control``, ``outbox``). A queue's ``put`` hands the payload to a
    feeder thread, so a doorbell released alongside a control message
    could land before the message is readable. The worker loop
    therefore never polls ``control`` itself: :meth:`open` starts one
    listener thread per incarnation that blocks on it, appends each
    message to a local deque, and only *then* rings the doorbell the
    loop already sleeps on. The loop sees the message at its next
    control check — at once when idle, after the chunk in flight when
    busy — and answers it on the main thread.
    """

    shm_name: str
    capacity: int
    doorbell: "Semaphore"
    control: "Queue"
    outbox: "Queue"
    _shm: shared_memory.SharedMemory | None = field(default=None, repr=False)
    _ring: RingConsumer | None = field(default=None, repr=False)

    def open(self) -> None:
        """Attach in the worker process and start the control listener."""
        self._attach()
        self._inbound: deque[tuple] = deque()
        threading.Thread(
            target=self._listen_control, name="repro-control", daemon=True
        ).start()

    def _attach(self) -> None:
        try:
            # 3.13+: opt out of resource tracking at attach; the
            # supervisor's channel owns the segment's lifetime.
            self._shm = shared_memory.SharedMemory(name=self.shm_name, track=False)
        except TypeError:
            # Older interpreters register attaches too, but the resource
            # tracker is one process shared across the tree and its cache
            # is a set — the supervisor's unlink unregisters exactly once.
            self._shm = shared_memory.SharedMemory(name=self.shm_name)
        self._ring = RingConsumer(self._shm.buf, self.capacity)

    def _listen_control(self) -> None:
        while True:
            try:
                message = self.control.get()
            except (EOFError, OSError, ValueError):
                return
            self._inbound.append(message)
            self.doorbell.release()

    def recv_data(self, timeout: float) -> tuple | None:
        """Next data-plane message — ``("chunk", seq, packets, lengths)``,
        ``("drain",)`` or ``("seal",)`` — or ``None`` after ``timeout``
        seconds or a doorbell release with no record behind it."""
        deadline = time.monotonic() + timeout
        frags: bytearray | None = None
        waited = False
        while True:
            rec = self._ring.try_read()
            if rec is None:
                if frags is not None:
                    # Mid-chunk the producer is actively writing (we are
                    # the only consumer, so it cannot be blocked on us):
                    # wait for the rest instead of surfacing a torn chunk.
                    self.doorbell.acquire(timeout=RING_POLL_SECONDS)
                    continue
                remaining = deadline - time.monotonic()
                if waited or remaining <= 0:
                    # A wake without a record means the control listener
                    # rang for a control message — surface so the
                    # caller's loop reads it instead of riding out the
                    # timeout.
                    return None
                self.doorbell.acquire(timeout=remaining)
                waited = True
                continue
            waited = False
            kind, flags, seq, n_packets, payload = rec
            if kind == KIND_DRAIN:
                return ("drain",)
            if kind == KIND_SEAL:
                return ("seal",)
            if frags is None and not flags & FLAG_MORE:
                packets, lengths = _decode_payload(payload, n_packets, flags)
                return ("chunk", seq, packets, lengths)
            frags = payload if frags is None else frags + payload
            if flags & FLAG_MORE:
                continue
            packets, lengths = _decode_payload(frags, n_packets, flags)
            return ("chunk", seq, packets, lengths)

    def recv_control(self) -> tuple | None:
        """Next control-plane message (``("query", ...)`` / ``("stop",)``)
        the listener has delivered, or ``None``; never blocks."""
        try:
            return self._inbound.popleft()
        except IndexError:
            return None

    def send(self, message: tuple) -> None:
        """Ship one message (ack/checkpoint/reply/...) to the supervisor."""
        self.outbox.put(message)

    def close(self) -> None:
        """Unmap the ring (never unlinks it — the supervisor's channel
        owns the segment's lifetime)."""
        self._ring = None
        if self._shm is not None:
            self._shm.close()
            self._shm = None


class ShardChannel:
    """Supervisor end of one shard's link.

    One instance per shard per runtime. The *underlying* resources (the
    ring segment, its doorbell, the control and message queues) are
    per-worker-incarnation: :meth:`open` builds fresh ones for each
    (re)spawn, :meth:`abandon` discards the current set (a process
    killed mid-transfer can leave them unusable), :meth:`close` is the
    final cleanup. Sends in progress across a restart re-read the
    channel's state every stall slice, so they transparently retry
    against the replacement.

    Backpressure (``block`` / ``shed`` / ``error``) is applied here, in
    :meth:`send_chunk`; the supervisor validates the policy before it
    builds any channel.
    """

    def __init__(
        self,
        shard_id: int,
        *,
        ring_bytes: int,
        ctx: "multiprocessing.context.BaseContext",
        policy: str = "block",
        registry: MetricsRegistry,
        stall_hook: Callable[[], None] | None = None,
    ) -> None:
        self.shard_id = shard_id
        self.policy = policy
        self.metrics = registry
        self._stall_hook = stall_hook
        self.incarnation = 0
        self.capacity = ring_bytes & ~(ALIGN - 1)
        # A record (header + payload + possible wrap filler) must fit a
        # drained ring, so single records are capped at half capacity.
        self.max_payload = self.capacity // 2 - 2 * HEADER.size
        self._ctx = ctx
        # Per-channel namespace: every incarnation's segment shares this
        # prefix and no other channel's (not even the same shard id in a
        # concurrent runtime), so sweep_orphans can reclaim crashed
        # incarnations' leaks without ever touching a stranger's segment.
        # Kept short: POSIX shm names have tight limits on some OSes.
        self.segment_prefix = f"repro-s{shard_id}-{uuid.uuid4().hex[:6]}-"
        self._shm: shared_memory.SharedMemory | None = None
        self._ring: RingProducer | None = None
        self._doorbell: "Semaphore | None" = None
        self._control: "Queue | None" = None
        self._outbox: "Queue | None" = None

    # -- lifecycle (per worker incarnation) ---------------------------------

    def open(self) -> WorkerTransport:
        """Build a fresh segment, doorbell and queues; return the
        worker's end."""
        self.incarnation += 1
        name = f"{self.segment_prefix}i{self.incarnation}-{uuid.uuid4().hex[:6]}"
        self._shm = shared_memory.SharedMemory(
            name=name, create=True, size=CTRL_BYTES + self.capacity
        )
        self._shm.buf[:CTRL_BYTES] = bytes(CTRL_BYTES)  # head = tail = 0
        self._ring = RingProducer(self._shm.buf, self.capacity)
        self._doorbell = self._ctx.Semaphore(0)
        self._control = self._ctx.Queue()
        self._outbox = self._ctx.Queue()
        return WorkerTransport(
            name, self.capacity, self._doorbell, self._control, self._outbox
        )

    def abandon(self) -> None:
        """Discard the current resources (crash path; no reuse)."""
        self._ring = None
        if self._shm is not None:
            self._shm.close()
            try:
                self._shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
            self._shm = None
        for q in (self._control, self._outbox):
            if q is not None:
                q.close()
                q.cancel_join_thread()
        self._control = self._outbox = self._doorbell = None

    def close(self) -> None:
        """Final teardown: unlink the live segment and any orphans."""
        self.abandon()
        self.sweep_orphans()

    def sweep_orphans(self) -> int:
        """Unlink segments from this channel's *past* incarnations.

        ``abandon`` already unlinks on the normal restart path; this
        catches what slips through it — a supervisor process that died
        between ``open`` and ``abandon``, or an unlink raced by a crash
        — by scanning ``/dev/shm`` for this channel's unique namespace
        prefix. The live incarnation's segment is skipped; unlinking is
        a plain file remove, so no resource-tracker registration churn.
        Returns how many were swept.
        """
        shm_dir = Path("/dev/shm")
        if not shm_dir.is_dir():  # pragma: no cover - non-Linux
            return 0
        live = None if self._shm is None else self._shm.name
        swept = 0
        for path in shm_dir.glob(f"{self.segment_prefix}*"):
            if path.name == live:
                continue
            try:
                path.unlink()
                swept += 1
            except OSError:  # pragma: no cover - raced by another sweep
                continue
        return swept

    # -- data plane ---------------------------------------------------------

    def _offer_chunk(
        self,
        seq: int,
        packets: npt.NDArray[np.uint64],
        lengths: npt.NDArray[np.int64] | None,
        wait: float,
    ) -> bool:
        """Try to write one whole chunk record, waiting at most ``wait``
        seconds for room; ``False`` means "full"."""
        views, nbytes, flags = _encode_payload(packets, lengths)
        deadline = time.monotonic() + wait
        while True:
            ring = self._ring
            if ring is not None and ring.try_write(
                KIND_CHUNK, flags, seq, len(packets), views, nbytes
            ):
                self._doorbell.release()
                return True
            if wait <= 0 or time.monotonic() >= deadline:
                return False
            time.sleep(RING_POLL_SECONDS)

    def _chunk_fits(
        self,
        packets: npt.NDArray[np.uint64],
        lengths: npt.NDArray[np.int64] | None,
    ) -> bool:
        nbytes = len(packets) * (8 if lengths is None else 16)
        return nbytes <= self.max_payload

    def send_chunk(
        self,
        seq: int,
        packets: npt.NDArray[np.uint64],
        lengths: npt.NDArray[np.int64] | None,
    ) -> bool:
        """Send one chunk under the configured backpressure policy.

        Returns ``True`` if accepted, ``False`` if the shed policy
        dropped it; raises :class:`IngestError` under ``"error"``. A
        chunk over the record cap streams through in fragments under
        ``"block"`` and is shed or raised outright otherwise.
        """
        fits = self._chunk_fits(packets, lengths)
        if self.policy == "block":
            if fits:
                while not self._offer_chunk(
                    seq, packets, lengths, STALL_SLICE_SECONDS
                ):
                    self._record_stall(STALL_SLICE_SECONDS)
            else:
                self._stream_fragments(seq, packets, lengths)
            self._observe_depth()
            return True
        if fits and self._offer_chunk(seq, packets, lengths, 0.0):
            self._observe_depth()
            return True
        if self.policy == "error":
            if not fits:
                raise IngestError(
                    f"shard {self.shard_id}: chunk of {len(packets)} packets "
                    f"exceeds the ring's {self.max_payload}-byte record cap; "
                    "raise ring_bytes or lower chunk_packets (backpressure "
                    "policy 'error')"
                )
            raise IngestError(
                f"shard {self.shard_id} ingest channel is full "
                "(backpressure policy 'error')"
            )
        self.metrics.counter("runtime.backpressure.shed_chunks").inc()
        self.metrics.counter("runtime.backpressure.shed_packets").inc(len(packets))
        return False

    def send_chunk_required(
        self,
        seq: int,
        packets: npt.NDArray[np.uint64],
        lengths: npt.NDArray[np.int64] | None,
        timeout: float = 60.0,
        abort: "Callable[[], bool] | None" = None,
    ) -> bool:
        """Send one chunk, blocking regardless of the data policy —
        the restart re-feed path, where a shed would lose a chunk the
        contract promised to deliver. ``abort`` (when given) is polled
        while stalled; returning True gives up and returns ``False``
        instead of blocking out the timeout — the re-feed target died
        again (e.g. a poison chunk re-crashed it) and the caller keeps
        the chunk retained for the next incarnation."""
        if not self._chunk_fits(packets, lengths):
            # Oversized fragment streaming has no abort hook: a dead
            # reader is detected by the stall hook's pump swapping the
            # ring, and the bounded timeout still applies.
            self._stream_fragments(seq, packets, lengths, timeout=timeout)
            return True
        deadline = time.monotonic() + timeout
        while not self._offer_chunk(seq, packets, lengths, STALL_SLICE_SECONDS):
            self._record_stall(STALL_SLICE_SECONDS, count=False)
            if abort is not None and abort():
                return False
            if time.monotonic() > deadline:
                raise IngestError(
                    f"shard {self.shard_id} channel stayed full for {timeout:.0f}s"
                )
        return True

    def _stream_fragments(
        self,
        seq: int,
        packets: npt.NDArray[np.uint64],
        lengths: npt.NDArray[np.int64] | None,
        timeout: float | None = None,
    ) -> None:
        """Stream one oversized chunk as ``FLAG_MORE``-chained records.

        If a worker restart swaps the ring mid-chunk (the stall hook
        runs the supervisor pump), partially written fragments died
        with the old segment — start the whole chunk over on the fresh
        one; the worker only ever sees complete reassembled chunks.
        """
        _views, _nbytes, base_flags = _encode_payload(packets, lengths)
        blob = b"".join(memoryview(v).cast("B") for v in _views)
        step = self.max_payload & ~(ALIGN - 1)
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            incarnation = self.incarnation
            restarted = False
            for start in range(0, len(blob), step):
                frag = memoryview(blob)[start : start + step]
                more = FLAG_MORE if start + step < len(blob) else 0
                while not self._ring.try_write(
                    KIND_CHUNK, base_flags | more, seq, len(packets), [frag], frag.nbytes
                ):
                    self._record_stall(RING_POLL_SECONDS)
                    time.sleep(RING_POLL_SECONDS)
                    if deadline is not None and time.monotonic() > deadline:
                        raise IngestError(
                            f"shard {self.shard_id} ring stayed full for {timeout:.0f}s"
                        )
                    if self.incarnation != incarnation:
                        restarted = True
                        break
                if restarted:
                    break
                self._doorbell.release()
            if not restarted:
                return

    def _send_marker(self, kind: int, timeout: float) -> None:
        incarnation = self.incarnation
        deadline = time.monotonic() + timeout
        while not self._ring.try_write(kind, 0, 0, 0, [], 0):
            self._record_stall(RING_POLL_SECONDS, count=False)
            if self.incarnation != incarnation:
                return  # restarted while stalled; the restart re-sent it
            time.sleep(RING_POLL_SECONDS)
            if time.monotonic() > deadline:
                raise IngestError(
                    f"shard {self.shard_id} ring stayed full for {timeout:.0f}s"
                )
        self._doorbell.release()

    def send_drain(self, timeout: float = 60.0) -> None:
        """Append the drain marker *in-band* after all sent chunks;
        blocks for room regardless of policy (never shed)."""
        self._send_marker(KIND_DRAIN, timeout)

    def send_seal(self, timeout: float = 60.0) -> None:
        """Append the reshard *seal* marker in-band after all sent
        chunks (never shed). The worker answers it by flushing acks,
        checkpointing, and reporting ``("sealed", shard, last_seq,
        digest)`` — the point at which its ingest WAL is a complete,
        immutable record of the shard's substream, ready for split
        successors to replay."""
        self._send_marker(KIND_SEAL, timeout)

    # -- control plane ------------------------------------------------------

    def send_control(self, message: tuple) -> None:
        """Ship one control message (query / stop); never blocks on data
        backpressure. The worker's control listener rings the doorbell
        once the message is readable (see :class:`WorkerTransport`)."""
        self._control.put(message)

    def nudge(self) -> None:
        """Release the worker's doorbell once more (best effort,
        idempotent) — the watchdog's first escalation stage for a
        silent worker, before SIGTERM. A spurious ring costs the worker
        one empty ring read plus one control check."""
        if self._doorbell is not None:
            self._doorbell.release()

    # -- message plane (worker -> supervisor) -------------------------------

    def poll(self) -> list[tuple]:
        """Drain all pending worker messages without blocking (``[]`` on
        an abandoned channel)."""
        out: list[tuple] = []
        if self._outbox is None:
            return out
        while True:
            try:
                out.append(self._outbox.get_nowait())
            except (queue_mod.Empty, OSError, ValueError):
                return out

    def recv(self, timeout: float) -> tuple | None:
        """One worker message, waiting at most ``timeout`` seconds;
        ``None`` on timeout or on an abandoned channel."""
        outbox = self._outbox
        if outbox is None:
            return None
        try:
            return outbox.get(timeout=timeout)
        except (queue_mod.Empty, OSError, ValueError):
            return None

    # -- observability ------------------------------------------------------

    def data_depth(self) -> int | None:
        """Bytes in the ring, or ``None`` on an abandoned channel."""
        ring = self._ring
        return None if ring is None else ring.used()

    def data_fill(self) -> float | None:
        """Ring occupancy as a fraction of capacity in ``[0, 1]`` — the
        hot-shard signal the :class:`~repro.runtime.planner.
        ReshardPlanner` watches — or ``None`` on an abandoned channel."""
        depth = self.data_depth()
        return None if depth is None else min(depth / self.capacity, 1.0)

    @property
    def segment_name(self) -> str | None:
        """The live segment's name (introspection/leak tests)."""
        return None if self._shm is None else self._shm.name

    def _observe_depth(self) -> None:
        depth = self.data_depth()
        if depth is not None:
            self.metrics.gauge(f"runtime.shard{self.shard_id}.queue_depth").set(depth)

    def _record_stall(self, slice_seconds: float, *, count: bool = True) -> None:
        if count:
            self.metrics.counter("runtime.backpressure.stalls").inc()
            stalled = self.metrics.gauge("runtime.backpressure.stall_seconds")
            stalled.set(stalled.value + slice_seconds)
        if self._stall_hook is not None:
            self._stall_hook()
