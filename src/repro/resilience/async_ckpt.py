"""Asynchronous checkpointing.

PRs 3–6 made checkpoints crash-consistent and cheap-ish (zlib level 1),
but the worker still paid the whole encode+compress+fsync bill inside
its ingest loop — a periodic full stop that grows with counter-bank
size. This module splits the work the way training-stack checkpointers
do:

* **Snapshot** (synchronous, fast): ``Checkpoint.capture`` already
  copies every array out of the live scheme — a memcpy-shaped cost.
  That is the *only* part the ingest loop waits for.
* **Write** (asynchronous): digest, compress, fsync, and atomic-rename
  happen on a :class:`CheckpointWriter` background thread. One write in
  flight at a time; the next capture back-pressures until the previous
  write lands, so a slow disk degrades smoothly to a synchronous write
  instead of queueing unbounded copies of the SRAM.

Crash safety is inherited unchanged: writes go to ``.tmp_``-prefixed
siblings and are published with
:func:`~repro.resilience.atomic.atomic_publish`, so a SIGKILL mid-write
leaves exactly the torn-``.tmp_`` leftover the sweeps already collect.
The files are ordinary full checkpoints, read back with
:meth:`~repro.resilience.checkpoint.Checkpoint.load`.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Callable

from repro.resilience.atomic import atomic_publish

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.caesar import Caesar


# -- the background writer ----------------------------------------------------


@dataclass
class CheckpointDone:
    """Completion record of one background checkpoint write."""

    seq: int
    digest: str
    path: Path
    info: dict = field(default_factory=dict)


class CheckpointWriter:
    """One background thread that runs checkpoint write jobs.

    Single producer (the worker main thread), one job in flight at a
    time. :meth:`submit` requires the writer to be idle — callers
    back-pressure through :meth:`wait` first, which is where the ingest
    stall (if any) is actually paid and measured. A job that raises
    stores its exception, re-raised to the producer at the next
    :meth:`poll`/:meth:`wait` — a failed durability write must kill the
    worker loudly, not rot silently.
    """

    def __init__(self, name: str = "ckpt-writer") -> None:
        self._lock = threading.Lock()
        self._job: Callable[[], CheckpointDone] | None = None
        self._results: list[CheckpointDone] = []
        self._error: BaseException | None = None
        self._has_job = threading.Event()
        self._idle = threading.Event()
        self._idle.set()
        self._closed = False
        self._thread = threading.Thread(target=self._run, name=name, daemon=True)
        self._thread.start()

    def _run(self) -> None:
        while True:
            self._has_job.wait()
            with self._lock:
                job = self._job
                self._job = None
                self._has_job.clear()
                closed = self._closed
            if job is None:
                if closed:
                    self._idle.set()
                    return
                continue
            try:
                result = job()
            except BaseException as exc:  # noqa: BLE001 - re-raised to producer
                with self._lock:
                    self._error = exc
            else:
                with self._lock:
                    self._results.append(result)
            self._idle.set()

    @property
    def idle(self) -> bool:
        return self._idle.is_set()

    def submit(self, job: Callable[[], CheckpointDone]) -> None:
        if not self._idle.is_set():
            raise RuntimeError("previous checkpoint write still in flight")
        with self._lock:
            if self._closed:
                raise RuntimeError("checkpoint writer is closed")
            self._idle.clear()
            self._job = job
            self._has_job.set()

    def poll(self) -> list[CheckpointDone]:
        """Collect finished writes without blocking; re-raise a failure."""
        with self._lock:
            results, self._results = self._results, []
            error, self._error = self._error, None
        if error is not None:
            raise error
        return results

    def wait(
        self, tick: Callable[[], None] | None = None, poll_interval: float = 0.05
    ) -> list[CheckpointDone]:
        """Block until idle (calling ``tick`` while waiting), then poll.

        ``tick`` lets the worker keep heartbeating through a long wait —
        a back-pressured write is the one legitimately silent span the
        watchdog must not mistake for a hang.
        """
        if tick is None:
            self._idle.wait()
        else:
            while not self._idle.wait(poll_interval):
                tick()
        return self.poll()

    def close(self, tick: Callable[[], None] | None = None) -> list[CheckpointDone]:
        """Finish the in-flight write (if any), stop the thread, poll."""
        results = self.wait(tick)
        with self._lock:
            if self._closed:
                return results
            self._closed = True
            self._has_job.set()
        self._thread.join(timeout=30)
        return results + self.poll()


# -- per-shard orchestration --------------------------------------------------


class ShardCheckpointer:
    """Drives background checkpoints for one shard.

    The worker calls :meth:`wait_idle` (back-pressure + completion
    collection), then :meth:`capture` inside its compute slot — the
    synchronous cost is ``Checkpoint.capture``. Everything else runs on
    the writer thread.
    """

    def __init__(self, *, level: int = 1, slow_write: float = 0.0) -> None:
        self.level = int(level)
        self.slow_write = float(slow_write)
        self.writer = CheckpointWriter()

    def poll(self) -> list[CheckpointDone]:
        """Non-blocking completion collection (worker loop top)."""
        return self.writer.poll()

    def wait_idle(
        self, tick: Callable[[], None] | None = None
    ) -> tuple[list[CheckpointDone], float]:
        """Block until no write is in flight.

        Returns ``(completions, stall_seconds)`` — the stall is the
        back-pressure actually charged to the ingest path, attributed to
        the write that caused it (the first completion's info).
        """
        t0 = time.perf_counter()
        done = self.writer.wait(tick)
        stall = time.perf_counter() - t0
        if done:
            done[0].info["stall_seconds"] = done[0].info.get("stall_seconds", 0.0) + stall
        return done, stall

    def capture(self, scheme: "Caesar", seq: int, target: Path) -> None:
        """Snapshot ``scheme`` now; write it to ``target`` durably in the
        background. The writer must be idle (call :meth:`wait_idle`
        first)."""
        t0 = time.perf_counter()
        ckpt = scheme.checkpoint()
        snapshot_seconds = time.perf_counter() - t0
        level, slow = self.level, self.slow_write

        def job() -> CheckpointDone:
            t1 = time.perf_counter()
            digest = ckpt.digest
            tmp = target.parent / f".tmp_{target.name}"
            ckpt.save(tmp, level=level)
            if slow > 0:
                # Injected fault (slow_ckpt_write): stretch the window
                # between the tmp write and publication, so chaos tests
                # can reliably SIGKILL mid-write and exercise the torn-
                # .tmp_ sweep path.
                time.sleep(slow)
            atomic_publish(tmp, target)
            return CheckpointDone(
                seq=seq,
                digest=digest,
                path=target,
                info={
                    "snapshot_seconds": snapshot_seconds,
                    "write_seconds": time.perf_counter() - t1,
                    "bytes": target.stat().st_size,
                    "stall_seconds": 0.0,
                },
            )

        self.writer.submit(job)

    def close(self, tick: Callable[[], None] | None = None) -> list[CheckpointDone]:
        """Join the writer, finishing any in-flight write durably."""
        return self.writer.close(tick)
