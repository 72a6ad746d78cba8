"""The bounded-queue transport: pickled chunks over ``mp.Queue``.

This is the runtime's original data plane, refactored to conform to
the :mod:`~repro.runtime.transport` protocol. Each shard gets three
``multiprocessing`` queues — a bounded data inbox (*bounded* is the
point: an unbounded queue turns a slow shard into unbounded
producer-side memory growth), an unbounded control channel, and an
unbounded outbox for worker messages. Every payload is pickled through
a pipe, which is what makes this transport portable and debuggable —
and what the shared-memory ring (:mod:`~repro.runtime.shm`) exists to
avoid on the hot path. A worker waiting on its inbox is woken for a
control message by a :data:`WAKE` marker its own control listener
puts there.

Restart semantics: a process killed mid-``put`` can leave a queue's
pipe unusable, so :meth:`QueueShardChannel.open` builds three fresh
queues per worker incarnation and :meth:`~QueueShardChannel.abandon`
discards the old ones; a blocked send straddling the swap retries
against the replacements on its next stall slice.
"""

from __future__ import annotations

import queue as queue_mod
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

import numpy as np
import numpy.typing as npt

from repro.obs.registry import MetricsRegistry
from repro.runtime.transport import (
    BACKPRESSURE_POLICIES,
    STALL_SLICE_SECONDS,
    ShardChannel,
    Transport,
    WorkerTransport,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    import multiprocessing.context
    from multiprocessing.queues import Queue

__all__ = [
    "BACKPRESSURE_POLICIES",
    "DEFAULT_QUEUE_DEPTH",
    "QueueShardChannel",
    "QueueTransport",
    "QueueWorkerTransport",
    "STALL_SLICE_SECONDS",
]

#: Default bound of each shard's inbox (chunks).
DEFAULT_QUEUE_DEPTH = 8


#: The marker a worker's control listener puts on its own inbox to end
#: a data wait; :meth:`QueueWorkerTransport.recv_data` swallows it.
WAKE = ("wake",)


@dataclass
class QueueWorkerTransport(WorkerTransport):
    """Worker end: three plain queues (picklable as ``Process`` args)."""

    inbox: "Queue"
    control: "Queue"
    outbox: "Queue"

    def _attach(self) -> None:
        # Wake markers ride this process's feeder thread; flushing one
        # into a full pipe must never hold up the worker's exit.
        self.inbox.cancel_join_thread()

    def _wake(self) -> None:
        # On a full inbox the marker is dropped: the loop then has a
        # chunk to read and is back at its control check within one.
        try:
            self.inbox.put_nowait(WAKE)
        except queue_mod.Full:
            pass

    def recv_data(self, timeout: float) -> tuple | None:
        try:
            item = self.inbox.get(timeout=timeout)
        except queue_mod.Empty:
            return None
        return None if item == WAKE else item

    def close(self) -> None:  # teardown is the supervisor's job
        return None


class QueueShardChannel(ShardChannel):
    """Supervisor end of one shard's queue-based link."""

    def __init__(
        self,
        shard_id: int,
        *,
        queue_depth: int,
        ctx: "multiprocessing.context.BaseContext",
        policy: str = "block",
        registry: MetricsRegistry,
        stall_hook: Callable[[], None] | None = None,
    ) -> None:
        super().__init__(
            shard_id, policy=policy, registry=registry, stall_hook=stall_hook
        )
        self.queue_depth = queue_depth
        self._ctx = ctx
        self._inbox: "Queue | None" = None

    # -- lifecycle ----------------------------------------------------------

    def open(self) -> QueueWorkerTransport:
        self.incarnation += 1
        self._inbox = self._ctx.Queue(maxsize=self.queue_depth)
        self._control = self._ctx.Queue()
        self._outbox = self._ctx.Queue()
        return QueueWorkerTransport(self._inbox, self._control, self._outbox)

    def abandon(self) -> None:
        for q in (self._inbox, self._control, self._outbox):
            if q is not None:
                q.close()
                q.cancel_join_thread()
        self._inbox = self._control = self._outbox = None

    def close(self) -> None:
        self.abandon()

    # -- data plane ---------------------------------------------------------

    def _offer_chunk(
        self,
        seq: int,
        packets: npt.NDArray[np.uint64],
        lengths: npt.NDArray[np.int64] | None,
        wait: float,
    ) -> bool:
        try:
            if wait > 0:
                self._inbox.put(("chunk", seq, packets, lengths), timeout=wait)
            else:
                self._inbox.put_nowait(("chunk", seq, packets, lengths))
            return True
        except queue_mod.Full:
            return False

    def _send_marker(self, marker: tuple, timeout: float) -> None:
        # In-band on the inbox so it is ordered after every sent chunk.
        import time

        incarnation = self.incarnation
        deadline = time.monotonic() + timeout
        while True:
            try:
                self._inbox.put(marker, timeout=STALL_SLICE_SECONDS)
                return
            except queue_mod.Full:
                self._record_stall(STALL_SLICE_SECONDS, count=False)
                if self.incarnation != incarnation:
                    return  # restarted while stalled; the restart re-sent it
                if time.monotonic() > deadline:
                    from repro.errors import IngestError

                    raise IngestError(
                        f"shard {self.shard_id} queue stayed full for {timeout:.0f}s"
                    ) from None

    def send_drain(self, timeout: float = 60.0) -> None:
        self._send_marker(("drain",), timeout)

    def send_seal(self, timeout: float = 60.0) -> None:
        self._send_marker(("seal",), timeout)

    # -- observability ------------------------------------------------------

    def data_depth(self) -> int | None:
        if self._inbox is None:
            return None
        try:
            return self._inbox.qsize()
        except NotImplementedError:  # pragma: no cover - macOS qsize
            return None

    def data_fill(self) -> float | None:
        depth = self.data_depth()
        return None if depth is None else min(depth / self.queue_depth, 1.0)


@dataclass(frozen=True)
class QueueTransport(Transport):
    """The portable default-depth bounded-queue transport."""

    queue_depth: int = DEFAULT_QUEUE_DEPTH
    name: str = field(default="queue", init=False)

    def __post_init__(self) -> None:
        if self.queue_depth < 1:
            from repro.errors import IngestError

            raise IngestError(
                f"queue_depth must be >= 1, got {self.queue_depth}"
            )

    def channel(
        self,
        shard_id: int,
        *,
        ctx: "multiprocessing.context.BaseContext",
        policy: str,
        registry: MetricsRegistry,
        stall_hook: Callable[[], None] | None = None,
    ) -> QueueShardChannel:
        return QueueShardChannel(
            shard_id,
            queue_depth=self.queue_depth,
            ctx=ctx,
            policy=policy,
            registry=registry,
            stall_hook=stall_hook,
        )
