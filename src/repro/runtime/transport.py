"""The pluggable transport layer between supervisor and shard workers.

The runtime's data plane used to be hard-coded to bounded
``multiprocessing`` queues; every chunk was pickled, piped, and
unpickled, which made transport cost swamp shard parallelism
(BENCH_micro.json's backwards worker scaling). This module extracts
what the supervisor and worker actually need from the plumbing into a
small protocol, so the queue machinery becomes one implementation
(:class:`~repro.runtime.queues.QueueTransport`) and a zero-copy
shared-memory ring (:class:`~repro.runtime.shm.SharedMemoryRingTransport`)
becomes another — with supervision, retention, crash recovery, and
backpressure written once, against the protocol.

Three roles:

- :class:`Transport` — the picklable *factory* carrying transport
  configuration (queue depth, ring bytes). One per runtime; makes one
  :class:`ShardChannel` per shard.
- :class:`ShardChannel` — the supervisor-side endpoint of one shard's
  link. Lives for the whole runtime; each worker (re)spawn calls
  :meth:`~ShardChannel.open` to build fresh underlying resources and
  hand back the worker's :class:`WorkerTransport`. A blocked send that
  straddles a restart retries against the fresh resources automatically
  (it re-reads the channel's state every stall slice).
- :class:`WorkerTransport` — the worker-process side: receive data
  (chunks + the in-band drain marker), poll the control plane (queries,
  stop), send acks/checkpoints/replies back.

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

Backpressure (``block`` / ``shed`` / ``error``) is implemented here,
once, in :meth:`ShardChannel.send_chunk`; concrete transports only
supply :meth:`ShardChannel._offer_chunk` ("take this chunk now or
within one stall slice").
"""

from __future__ import annotations

import queue as queue_mod
import threading
import time
from abc import ABC, abstractmethod
from collections import deque
from typing import TYPE_CHECKING, Callable

import numpy as np
import numpy.typing as npt

from repro.errors import ConfigError, IngestError
from repro.obs.registry import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - typing only
    import multiprocessing.context
    from multiprocessing.queues import Queue

#: Accepted values for the runtime's ``backpressure=`` option.
BACKPRESSURE_POLICIES = ("block", "shed", "error")

#: Accepted values for the runtime's ``transport=`` option.
TRANSPORTS = ("queue", "shm")

#: The runtime's default transport (the zero-copy data plane).
DEFAULT_TRANSPORT = "shm"

#: Seconds per blocked-send slice; between slices the stall hook runs
#: (the supervisor uses it to keep detecting dead workers while blocked).
STALL_SLICE_SECONDS = 0.05

#: How many processed chunks a worker may accumulate before it must
#: flush a cumulative ack (it also flushes on checkpoint, drain, stop,
#: and duplicate re-feeds).
DEFAULT_ACK_EVERY = 8


class WorkerTransport(ABC):
    """Worker-process side of one shard's link (picklable, spawn-safe).

    Built by :meth:`ShardChannel.open` in the supervisor process and
    shipped to the worker as a ``Process`` argument; the worker calls
    :meth:`open` once before use to attach process-local resources.

    Both transports carry control and worker messages on
    ``multiprocessing`` queues (``control``, ``outbox``). A queue's
    ``put`` hands the payload to a feeder thread, so a wake-up sent
    alongside a control message could land before the message is
    readable. The worker loop therefore never polls ``control`` itself:
    :meth:`open` starts one listener thread per incarnation that blocks
    on it, appends each message to a local deque, and only *then* rings
    :meth:`_wake`, the data-plane wake the loop already sleeps on. The
    loop sees the message at its next control check — at once when
    idle, after the chunk in flight when busy — and answers it on the
    main thread.
    """

    control: "Queue"
    outbox: "Queue"

    def open(self) -> None:
        """Attach in the worker process and start the control listener."""
        self._attach()
        self._inbound: deque[tuple] = deque()
        threading.Thread(
            target=self._listen_control, name="repro-control", daemon=True
        ).start()

    @abstractmethod
    def _attach(self) -> None:
        """Attach process-local resources (e.g. map the shared ring)."""

    @abstractmethod
    def _wake(self) -> None:
        """End a :meth:`recv_data` wait early (best effort; called from
        the listener thread)."""

    def _listen_control(self) -> None:
        while True:
            try:
                message = self.control.get()
            except (EOFError, OSError, ValueError):
                return
            self._inbound.append(message)
            self._wake()

    @abstractmethod
    def recv_data(
        self, timeout: float
    ) -> tuple | None:
        """Next data-plane message — ``("chunk", seq, packets, lengths)``
        or ``("drain",)`` — or ``None`` after ``timeout`` seconds or a
        :meth:`_wake`."""

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

    @abstractmethod
    def close(self) -> None:
        """Detach process-local resources (never destroys shared state —
        lifecycle ownership stays with the supervisor's channel)."""


class ShardChannel(ABC):
    """Supervisor-side endpoint of one shard's link.

    One instance per shard per runtime. The *underlying* resources
    (queues, shared-memory segments) are per-worker-incarnation:
    :meth:`open` builds fresh ones for each (re)spawn, :meth:`abandon`
    discards the current set (a process killed mid-transfer can leave
    them unusable), :meth:`close` is the final cleanup. Sends in
    progress across a restart re-read the channel's state every stall
    slice, so they transparently retry against the replacement.

    Every transport keeps the control and message planes on two
    ``multiprocessing`` queues (``_control``, ``_outbox``), which
    :meth:`open` creates and :meth:`abandon` drops back to ``None``;
    the plumbing over them lives here, once.
    """

    def __init__(
        self,
        shard_id: int,
        *,
        policy: str = "block",
        registry: MetricsRegistry,
        stall_hook: Callable[[], None] | None = None,
    ) -> None:
        if policy not in BACKPRESSURE_POLICIES:
            raise ConfigError(
                f"backpressure must be one of {BACKPRESSURE_POLICIES}, got {policy!r}"
            )
        self.shard_id = shard_id
        self.policy = policy
        self.metrics = registry
        self._stall_hook = stall_hook
        self.incarnation = 0
        self._control: "Queue | None" = None
        self._outbox: "Queue | None" = None

    # -- lifecycle (per worker incarnation) ---------------------------------

    @abstractmethod
    def open(self) -> WorkerTransport:
        """Build fresh underlying resources; return the worker's end."""

    @abstractmethod
    def abandon(self) -> None:
        """Discard the current resources (crash path; no reuse)."""

    @abstractmethod
    def close(self) -> None:
        """Final teardown — release every OS resource this channel owns
        (for shared memory: unlink the segment; nothing may leak)."""

    def sweep_orphans(self) -> int:
        """Remove leaked per-incarnation OS resources this channel's
        past incarnations may have left behind (e.g. shm segments
        orphaned by a crash racing ``abandon``). Never touches the live
        incarnation or another channel's resources. Returns how many
        were swept; the default (resource-less transports) is none."""
        return 0

    # -- data plane ---------------------------------------------------------

    @abstractmethod
    def _offer_chunk(
        self,
        seq: int,
        packets: npt.NDArray[np.uint64],
        lengths: npt.NDArray[np.int64] | None,
        wait: float,
    ) -> bool:
        """Try to hand one chunk to the transport, waiting at most
        ``wait`` seconds for capacity; ``False`` means "full"."""

    @abstractmethod
    def send_drain(self, timeout: float = 60.0) -> None:
        """Append the drain marker *in-band* after all sent chunks;
        blocks for capacity regardless of policy (never shed)."""

    @abstractmethod
    def send_seal(self, timeout: float = 60.0) -> None:
        """Append the reshard *seal* marker in-band after all sent
        chunks (never shed). The worker answers it by flushing acks,
        checkpointing, and reporting ``("sealed", shard, last_seq,
        digest)`` — the point at which its ingest WAL is a complete,
        immutable record of the shard's substream, ready for split
        successors to replay."""

    def send_chunk(
        self,
        seq: int,
        packets: npt.NDArray[np.uint64],
        lengths: npt.NDArray[np.int64] | None,
    ) -> bool:
        """Send one chunk under the configured backpressure policy.

        Returns ``True`` if accepted, ``False`` if the shed policy
        dropped it; raises :class:`IngestError` under ``"error"``.
        """
        if self.policy == "block":
            while not self._offer_chunk(seq, packets, lengths, STALL_SLICE_SECONDS):
                self._record_stall(STALL_SLICE_SECONDS)
            self._observe_depth()
            return True
        if self._offer_chunk(seq, packets, lengths, 0.0):
            self._observe_depth()
            return True
        if self.policy == "error":
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

    # -- control plane ------------------------------------------------------

    def send_control(self, message: tuple) -> None:
        """Ship one control message (query / stop); never blocks on data
        backpressure. The worker's control listener wakes its loop once
        the message is readable (see :class:`WorkerTransport`)."""
        self._control.put(message)

    def nudge(self) -> None:
        """Ring the worker's data-plane wake once more (best effort,
        idempotent) — the watchdog's first escalation stage for a
        silent worker, before SIGTERM. The default is a no-op."""
        return None

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
        """How much data is in flight (transport-specific unit), or
        ``None`` when the transport cannot tell."""
        return None

    def data_fill(self) -> float | None:
        """Data-plane occupancy as a fraction of capacity in ``[0, 1]``
        — the transport-neutral hot-shard signal the
        :class:`~repro.runtime.planner.ReshardPlanner` watches — or
        ``None`` when the transport cannot tell."""
        return None

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


class Transport(ABC):
    """Factory + configuration for one transport flavor.

    Carries only picklable configuration; the supervisor calls
    :meth:`channel` once per shard at startup.
    """

    #: Short name, one of :data:`TRANSPORTS`.
    name: str

    @abstractmethod
    def channel(
        self,
        shard_id: int,
        *,
        ctx: "multiprocessing.context.BaseContext",
        policy: str,
        registry: MetricsRegistry,
        stall_hook: Callable[[], None] | None = None,
    ) -> ShardChannel:
        """Build the supervisor-side channel for one shard."""


def resolve_transport(
    transport: "str | Transport",
    *,
    queue_depth: int | None = None,
    ring_bytes: int | None = None,
) -> Transport:
    """Normalize the user-facing ``transport=`` option to an instance.

    Strings pick a built-in flavor (configured from ``queue_depth`` /
    ``ring_bytes``); a ready-made :class:`Transport` instance passes
    through (its own configuration wins, the kwargs are ignored).
    """
    if isinstance(transport, Transport):
        return transport
    if transport == "queue":
        from repro.runtime.queues import DEFAULT_QUEUE_DEPTH, QueueTransport

        return QueueTransport(
            queue_depth=DEFAULT_QUEUE_DEPTH if queue_depth is None else queue_depth
        )
    if transport == "shm":
        from repro.runtime.shm import DEFAULT_RING_BYTES, SharedMemoryRingTransport

        return SharedMemoryRingTransport(
            ring_bytes=DEFAULT_RING_BYTES if ring_bytes is None else ring_bytes
        )
    raise ConfigError(
        f"transport must be one of {TRANSPORTS} or a Transport instance, "
        f"got {transport!r}"
    )
