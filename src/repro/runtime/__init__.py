"""Streaming ingest runtime: long-lived shard workers behind one facade.

The one-shot paths (``Caesar.process``, ``ShardedCaesar.process``)
assume the whole trace is an array in hand. This package is the
deployment shape instead: ``W`` long-lived worker processes, one CAESAR
shard each, fed packet chunks through one shared-memory ring per shard
with a backpressure policy, answering live queries mid-ingest, and
supervised — a worker killed at any instant is restarted from its
newest checkpoint plus ingest-WAL replay and re-fed what it lost,
finishing bit-identically to a run that never crashed. See ``docs/runtime.md``
for the architecture and the determinism argument.

Module map:

- :mod:`~repro.runtime.partitioner` — RSS-style flow → shard hash
  partitioning and stream chunking (shared with
  :class:`~repro.core.sharded.ShardedScheme` so both ingest paths agree
  bit for bit);
- :mod:`~repro.runtime.transport` — the data plane: one zero-copy
  shared-memory ring per shard (raw NumPy chunk bytes, fixed-width
  headers, fragmentation of oversized chunks) with block/shed/error
  backpressure, control and message planes on ``multiprocessing``
  queues, and a restart-safe per-incarnation lifecycle;
- :mod:`~repro.runtime.worker` — the shard worker process: ingest WAL,
  periodic atomic checkpoints, and :func:`recover`, the one recovery
  path (newest checkpoint + ingest-WAL replay);
- :mod:`~repro.runtime.supervisor` — process babysitting: crash
  detection, restart, retained-chunk re-feed, and the live shard-split
  state machine (seal → replay → cutover → refeed);
- :mod:`~repro.runtime.planner` — hot-shard detection
  (:class:`ReshardPlanner`): sustained data-plane fill picks the shard
  to split;
- :mod:`~repro.runtime.watchdog` — liveness and graceful degradation:
  heartbeat hang detection with nudge → SIGTERM → SIGKILL escalation,
  restart token budgets with backoff + per-shard circuit breakers,
  poison-chunk quarantine, and partial query results;
- :mod:`~repro.runtime.client` — :class:`StreamingRuntime`, the
  user-facing facade.
"""

from repro.runtime.partitioner import (
    DEFAULT_CHUNK_PACKETS,
    DEFAULT_SHARD_SEED,
    ShardMap,
    ShardSplit,
    StreamPartitioner,
    chunk_stream,
)
from repro.runtime.planner import DEFAULT_SUSTAIN, ReshardPlanner
from repro.runtime.supervisor import ShardSupervisor
from repro.runtime.transport import (
    BACKPRESSURE_POLICIES,
    DEFAULT_ACK_EVERY,
    DEFAULT_RING_BYTES,
    DEFAULT_TRANSPORT,
)
from repro.runtime.watchdog import (
    DEFAULT_HANG_TIMEOUT,
    DEFAULT_HEARTBEAT_EVERY,
    DEFAULT_QUARANTINE_AFTER,
    CircuitBreaker,
    PartialEstimate,
    QuarantineRecord,
    RestartBudget,
    ShardQueryStatus,
    Watchdog,
    WatchdogConfig,
    backoff_delay,
    load_quarantine,
    offline_twin_excluding,
)
from repro.runtime.worker import WorkerSpec, boot_shard, recover


def __getattr__(name: str) -> object:
    """Lazy-load the facade: :mod:`~repro.runtime.client` pulls in
    :mod:`repro.core.sharded`, which itself imports this package's
    partitioner — importing it eagerly here would close that cycle."""
    if name in ("StreamingRuntime", "RuntimeResult"):
        from repro.runtime import client

        return getattr(client, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "BACKPRESSURE_POLICIES",
    "CircuitBreaker",
    "DEFAULT_ACK_EVERY",
    "DEFAULT_CHUNK_PACKETS",
    "DEFAULT_HANG_TIMEOUT",
    "DEFAULT_HEARTBEAT_EVERY",
    "DEFAULT_QUARANTINE_AFTER",
    "DEFAULT_RING_BYTES",
    "DEFAULT_SHARD_SEED",
    "DEFAULT_SUSTAIN",
    "DEFAULT_TRANSPORT",
    "PartialEstimate",
    "QuarantineRecord",
    "ReshardPlanner",
    "RestartBudget",
    "RuntimeResult",
    "ShardMap",
    "ShardQueryStatus",
    "ShardSplit",
    "ShardSupervisor",
    "StreamPartitioner",
    "StreamingRuntime",
    "Watchdog",
    "WatchdogConfig",
    "WorkerSpec",
    "backoff_delay",
    "boot_shard",
    "chunk_stream",
    "load_quarantine",
    "offline_twin_excluding",
    "recover",
]
