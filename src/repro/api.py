"""One-call convenience API.

For users who want per-flow estimates from a packet stream without
assembling the components: :func:`measure` runs the whole CAESAR
pipeline and returns a queryable result. Passing ``stream=`` instead of
a packet array measures incrementally (chunk by chunk, never holding
the whole trace); adding ``workers=W`` runs the streaming runtime —
``W`` supervised shard worker processes (:mod:`repro.runtime`) — and
returns a :class:`StreamMeasurementResult`. The class-based API
(:class:`repro.Caesar`) remains the right tool for epochs, volume, or
bespoke sharded use.
"""

from __future__ import annotations

import tempfile
import time
from dataclasses import dataclass, replace
from typing import Iterable

import numpy as np
import numpy.typing as npt

from repro.core.caesar import Caesar
from repro.core.config import CaesarConfig
from repro.core.planner import plan
from repro.errors import ConfigError
from repro.obs.registry import MetricsRegistry
from repro.obs.schemes import observe_scheme
from repro.obs.trace import EvictionTrace
from repro.resilience.faults import FaultPlan
from repro.types import FlowIdArray


@dataclass(frozen=True)
class MeasurementResult:
    """A finished measurement: query it, inspect it."""

    caesar: Caesar
    num_packets: int
    num_flows_seen: int

    def estimate(
        self, flow_ids: FlowIdArray, method: str = "csm"
    ) -> npt.NDArray[np.float64]:
        """Per-flow size estimates (clipped at zero)."""
        return self.caesar.estimate(
            np.asarray(flow_ids, dtype=np.uint64), method, clip_negative=True
        )

    def top_flows(self, k: int = 10) -> list[tuple[int, float]]:
        """The k largest flows among those observed, by estimate.

        Uses the flow IDs the cache ever saw (memoized on eviction), so
        no external flow list is needed.
        """
        seen = self.caesar.flows_seen()
        if len(seen) == 0:
            return []
        est = self.estimate(seen)
        order = np.argsort(est)[::-1][:k]
        return [(int(seen[i]), float(est[i])) for i in order]

    def confidence_interval(
        self, flow_ids: FlowIdArray, alpha: float = 0.95
    ) -> tuple[npt.NDArray[np.float64], npt.NDArray[np.float64]]:
        """Clustering-aware (empirical) intervals — the variant that
        actually covers; see docs/theory.md."""
        return self.caesar.confidence_interval(
            np.asarray(flow_ids, dtype=np.uint64),
            "csm",
            alpha=alpha,
            variance_model="empirical",
        )


@dataclass(frozen=True)
class StreamMeasurementResult:
    """A finished *streaming* measurement (``measure(stream=, workers=)``).

    ``scheme`` is the offline twin rebuilt from the workers' final
    checkpoints — bit-identical to a single-process
    ``ShardedCaesar.process`` of the same stream (docs/runtime.md) —
    and ``runtime`` carries the run's provenance: per-shard checkpoint
    digests, worker restart count, packets ingested.
    """

    scheme: object  # ShardedCaesar (typed loosely: repro.api stays import-light)
    runtime: object  # repro.runtime.RuntimeResult
    num_packets: int
    num_flows_seen: int
    # Graceful degradation (docs/runtime.md): when the watchdog
    # quarantined poison chunks, the run finished without that mass and
    # the result says so instead of pretending the input was complete.
    degraded: bool = False
    quarantined_packets: int = 0

    def estimate(
        self, flow_ids: FlowIdArray, method: str = "csm"
    ) -> npt.NDArray[np.float64]:
        """Per-flow size estimates (clipped at zero), routed per shard."""
        return self.scheme.estimate(
            np.asarray(flow_ids, dtype=np.uint64), method, clip_negative=True
        )

    def top_flows(self, k: int = 10) -> list[tuple[int, float]]:
        """The k largest flows any shard observed, by estimate."""
        seen = np.unique(self.scheme.flows_seen())
        if len(seen) == 0:
            return []
        est = self.estimate(seen)
        order = np.argsort(est)[::-1][:k]
        return [(int(seen[i]), float(est[i])) for i in order]


def _measure_stream(
    stream: object,
    lengths: npt.NDArray[np.int64] | None,
    config: CaesarConfig,
    *,
    workers: int,
    chunk_packets: int,
    state_dir: str | None,
    transport: str | None,
    registry: MetricsRegistry | None,
    num_flows: int | None,
    checkpoint_mode: str = "async",
    checkpoint_level: int = 1,
) -> StreamMeasurementResult:
    """The ``workers=W`` arm of :func:`measure`: run the streaming
    runtime over the stream, then rebuild the offline twin."""
    from repro.runtime.client import StreamingRuntime
    from repro.runtime.transport import DEFAULT_TRANSPORT

    tmp: tempfile.TemporaryDirectory | None = None
    if state_dir is None:
        tmp = tempfile.TemporaryDirectory(prefix="repro-runtime-")
        state_dir = tmp.name
    try:
        with StreamingRuntime(
            config,
            workers,
            state_dir=state_dir,
            transport=transport if transport is not None else DEFAULT_TRANSPORT,
            checkpoint_mode=checkpoint_mode,
            checkpoint_level=checkpoint_level,
            registry=registry,
        ) as rt:
            rt.ingest_stream(stream, lengths=lengths, chunk_packets=chunk_packets)
            result = rt.drain()
        scheme = result.load_scheme(registry=registry)
    finally:
        if tmp is not None:
            tmp.cleanup()
    seen = num_flows if num_flows is not None else len(np.unique(scheme.flows_seen()))
    return StreamMeasurementResult(
        scheme=scheme,
        runtime=result,
        num_packets=result.num_packets,
        num_flows_seen=seen,
        degraded=result.degraded,
        quarantined_packets=result.quarantined_packets,
    )


def measure(
    packets: FlowIdArray | None = None,
    *,
    stream: FlowIdArray | Iterable | None = None,
    workers: int | None = None,
    expected_packets: int | None = None,
    expected_flows: int | None = None,
    chunk_packets: int | None = None,
    state_dir: str | None = None,
    transport: str | None = None,
    sram_kb: float | None = None,
    cache_kb: float | None = None,
    target_rel_error: float | None = None,
    size_of_interest: int | None = None,
    k: int = 3,
    lengths: npt.NDArray[np.int64] | None = None,
    seed: int = 0xA91,
    engine: str = "batched",
    registry: MetricsRegistry | None = None,
    eviction_trace: EvictionTrace | None = None,
    fault_plan: FaultPlan | None = None,
    checkpoint_every: int | None = None,
    checkpoint_path: str | None = None,
    checkpoint_mode: str = "async",
    checkpoint_level: int = 1,
    resume_from: str | None = None,
) -> MeasurementResult | StreamMeasurementResult:
    """Measure a packet stream end to end.

    Either give explicit memory budgets (``sram_kb`` + ``cache_kb``,
    the paper's setup) or an accuracy goal (``target_rel_error`` +
    ``size_of_interest``, solved by :mod:`repro.core.planner`).

    ``engine`` picks the construction path: ``"batched"`` (default,
    compiled cache kernel plus array-native eviction pipeline) or
    ``"scalar"`` (per-eviction reference). Both are bit-identical under
    the same seed.

    ``registry`` (optional :class:`~repro.obs.MetricsRegistry`) turns on
    observability: stage timers, eviction counters/histograms, and
    uniform ``measure.*`` scheme gauges including construction
    throughput. ``eviction_trace`` attaches a bounded ring capturing the
    tail of the eviction stream. Neither changes measurement results.

    Resilience (docs/resilience.md): ``fault_plan`` injects a seeded
    fault workload into the eviction pipeline; ``checkpoint_every``
    (packets) writes a crash-consistent checkpoint to
    ``checkpoint_path`` periodically and at the end; ``resume_from``
    restores a saved checkpoint and continues with the *remainder* of
    ``packets`` (the first ``num_packets`` of the stream are skipped —
    pass the same stream the original run saw), finishing
    bit-identically to an uninterrupted run. ``checkpoint_level`` sets
    the zlib level of every checkpoint written (0 = store-only); with
    ``workers=``, ``checkpoint_mode`` picks how shard workers persist:
    ``"sync"`` (write on the ingest path), ``"async"`` (background
    writer, the default), or ``"delta"`` (background writer plus
    incremental changed-stripe checkpoints).

    Streaming (docs/runtime.md): pass ``stream=`` instead of a packet
    array — a flat array, or any iterable of packet arrays /
    ``(packets, lengths)`` pairs — and the trace is measured chunk by
    chunk (``chunk_packets`` each) without ever being materialized.
    With an iterable, give ``expected_packets`` + ``expected_flows`` so
    the sizing rules can run before the stream is consumed. Adding
    ``workers=W`` fans ingest out over ``W`` supervised shard worker
    processes (the :mod:`repro.runtime` runtime — bounded queues,
    live queries, crash recovery) and returns a
    :class:`StreamMeasurementResult` whose estimates are bit-identical
    to the single-process sharded run; ``state_dir`` keeps the workers'
    checkpoints/WALs (default: a temporary directory, removed after
    the run); ``transport`` picks how chunks reach the workers —
    ``"shm"`` (default, zero-copy shared-memory rings) or ``"queue"``
    (bounded pickled queues) — without changing results.
    """
    if (packets is None) == (stream is None):
        raise ConfigError("give exactly one of packets= or stream=")
    if stream is None and not (
        workers is None
        and chunk_packets is None
        and state_dir is None
        and transport is None
    ):
        raise ConfigError(
            "workers/chunk_packets/state_dir/transport apply only with stream="
        )
    if transport is not None and workers is None:
        raise ConfigError("transport= applies only with workers=")
    if stream is not None:
        if checkpoint_every is not None or resume_from is not None:
            raise ConfigError(
                "checkpointing flags apply to the array path; the streaming "
                "runtime checkpoints per shard on its own"
            )
        if workers is not None and (
            fault_plan is not None or eviction_trace is not None
        ):
            raise ConfigError(
                "fault_plan/eviction_trace are single-process features; "
                "not available with workers="
            )
        if isinstance(stream, np.ndarray):
            stream = np.asarray(stream, dtype=np.uint64)
            if len(stream) == 0:
                raise ConfigError("cannot measure an empty stream")
            num_flows = (
                expected_flows
                if expected_flows is not None
                else len(np.unique(stream))
            )
            num_units = (
                expected_packets
                if expected_packets is not None
                else int(lengths.sum()) if lengths is not None else len(stream)
            )
        else:
            if expected_packets is None or expected_flows is None:
                raise ConfigError(
                    "expected_packets and expected_flows are required when "
                    "stream= is an iterable (sizing runs before ingest)"
                )
            num_flows, num_units = expected_flows, expected_packets
    else:
        packets = np.asarray(packets, dtype=np.uint64)
        if len(packets) == 0:
            raise ConfigError("cannot measure an empty stream")
        if checkpoint_every is not None:
            if checkpoint_every < 1:
                raise ConfigError(
                    f"checkpoint_every must be >= 1, got {checkpoint_every}"
                )
            if checkpoint_path is None:
                raise ConfigError("checkpoint_path is required with checkpoint_every")
        num_flows = len(np.unique(packets))
        num_units = int(lengths.sum()) if lengths is not None else len(packets)

    if resume_from is not None:
        # Sizing comes from the checkpoint's own config; skip planning.
        caesar = Caesar.resume(resume_from, registry=registry)
        done = caesar.num_packets
        if done > len(packets):
            raise ConfigError(
                f"checkpoint has already seen {done} packets, stream has {len(packets)}"
            )
        packets = packets[done:]
        lengths = lengths[done:] if lengths is not None else None
    elif target_rel_error is not None:
        if size_of_interest is None:
            raise ConfigError("size_of_interest is required with target_rel_error")
        config = replace(
            plan(
                num_packets=num_units,
                num_flows=num_flows,
                target_rel_error=target_rel_error,
                size_of_interest=size_of_interest,
                k=k,
                seed=seed,
            ).config,
            engine=engine,
        )
    elif sram_kb is not None and cache_kb is not None:
        config = CaesarConfig.for_budgets(
            sram_kb=sram_kb,
            cache_kb=cache_kb,
            num_packets=num_units,
            num_flows=num_flows,
            k=k,
            seed=seed,
            engine=engine,
        )
    else:
        raise ConfigError(
            "give either sram_kb+cache_kb, target_rel_error+size_of_interest, "
            "or resume_from"
        )

    if stream is not None:
        from repro.runtime.partitioner import DEFAULT_CHUNK_PACKETS, chunk_stream

        cp = chunk_packets if chunk_packets is not None else DEFAULT_CHUNK_PACKETS
        if workers is not None:
            return _measure_stream(
                stream,
                lengths,
                config,
                workers=workers,
                chunk_packets=cp,
                state_dir=state_dir,
                transport=transport,
                registry=registry,
                num_flows=num_flows,
                checkpoint_mode=checkpoint_mode,
                checkpoint_level=checkpoint_level,
            )
        caesar = Caesar(
            config,
            registry=registry,
            eviction_trace=eviction_trace,
            fault_plan=fault_plan,
        )
        t0 = time.perf_counter()
        for pkts, lens in chunk_stream(stream, lengths=lengths, chunk_packets=cp):
            caesar.process(pkts, lens)
        caesar.finalize()
        if registry is not None:
            observe_scheme(
                registry, caesar, "measure", elapsed_seconds=time.perf_counter() - t0
            )
        return MeasurementResult(
            caesar=caesar, num_packets=caesar.num_packets, num_flows_seen=num_flows
        )

    if resume_from is None:
        caesar = Caesar(
            config,
            registry=registry,
            eviction_trace=eviction_trace,
            fault_plan=fault_plan,
        )
    t0 = time.perf_counter()
    if checkpoint_every is None:
        caesar.process(packets, lengths)
    else:
        for start in range(0, len(packets), checkpoint_every):
            stop = start + checkpoint_every
            caesar.process(
                packets[start:stop],
                lengths[start:stop] if lengths is not None else None,
            )
            caesar.save_checkpoint(checkpoint_path, level=checkpoint_level)
    caesar.finalize()
    if registry is not None:
        observe_scheme(
            registry, caesar, "measure", elapsed_seconds=time.perf_counter() - t0
        )
    return MeasurementResult(
        caesar=caesar, num_packets=caesar.num_packets, num_flows_seen=num_flows
    )
