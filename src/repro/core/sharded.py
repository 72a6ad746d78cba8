"""Sharded measurement for multi-queue line cards (library extension).

Modern NICs/line cards spread packets over ``W`` hardware queues by
hashing the flow key (RSS). Measurement then runs one independent
scheme instance per queue: flows are *partitioned* (a flow's packets
always land in its own shard), so shards never share counters and the
paper's single-instance analysis applies per shard unchanged.

:class:`ShardedScheme` manages the partitioning and query routing for
*any* :class:`~repro.core.scheme.MeasurementScheme`; :class:`ShardedCaesar`
specializes it to CAESAR with the paper's budget-splitting rule. Since
the sharded layer only speaks the scheme protocol, each shard runs
whatever construction engine its config selects — the batched eviction
pipeline by default.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Iterable, Sequence

import numpy as np
import numpy.typing as npt

from repro.core.caesar import Caesar
from repro.core.config import CaesarConfig
from repro.core.scheme import MeasurementScheme
from repro.errors import ConfigError, QueryError
from repro.obs.registry import MetricsRegistry, resolve_registry
from repro.obs.schemes import observe_scheme
from repro.runtime.partitioner import (
    DEFAULT_CHUNK_PACKETS,
    DEFAULT_SHARD_SEED,
    ShardMap,
    StreamPartitioner,
    chunk_stream,
)
from repro.types import FlowIdArray

#: Per-shard seed stride (distinct seeds keep shards hash-independent).
SHARD_SEED_STRIDE = 0x9E37


def shard_caesar_config(
    config: CaesarConfig,
    shard_index: int,
    num_shards: int,
    *,
    divide_budget: bool = True,
) -> CaesarConfig:
    """Shard ``shard_index``'s config under the paper's budget split.

    The one derivation rule shared by :class:`ShardedCaesar` and the
    streaming runtime (:mod:`repro.runtime`) — both must build
    byte-identical shard instances or the bit-identity contract between
    the one-shot and streaming paths breaks.

    For resharded deployments ``num_shards`` is the map's *base* shard
    count (``ShardMap.num_base``), never the post-split count: a split
    adds memory (scale-out), it does not silently re-budget the
    survivors — and shard ``i``'s seed must not move when some *other*
    shard splits, or every untouched shard's state would change.
    """
    if divide_budget:
        config = replace(
            config,
            cache_entries=max(1, config.cache_entries // num_shards),
            bank_size=max(1, config.bank_size // num_shards),
        )
    return replace(config, seed=config.seed + SHARD_SEED_STRIDE * shard_index)


def shard_configs_for_map(
    config: CaesarConfig,
    shard_map: ShardMap,
    *,
    divide_budget: bool = True,
) -> list[CaesarConfig]:
    """Per-shard configs for every shard of a (possibly split) map."""
    return [
        shard_caesar_config(
            config, i, shard_map.num_base, divide_budget=divide_budget
        )
        for i in range(shard_map.num_shards)
    ]


class ShardedScheme:
    """``num_shards`` independent scheme instances behind one facade.

    ``make_shard`` builds shard ``i``'s instance; give each shard a
    distinct seed so shards stay hash-independent.
    """

    def __init__(
        self,
        make_shard: Callable[[int], MeasurementScheme],
        num_shards: int | None = None,
        *,
        shard_seed: int = DEFAULT_SHARD_SEED,
        registry: MetricsRegistry | None = None,
        shard_map: ShardMap | None = None,
    ) -> None:
        # The flow → shard map is shared with the streaming runtime so
        # both ingest paths agree bit for bit (docs/runtime.md). A
        # resharded deployment hands its final versioned map in here.
        if shard_map is None:
            if num_shards is None or num_shards < 1:
                raise ConfigError(f"num_shards must be >= 1, got {num_shards}")
            self.partitioner = StreamPartitioner(num_shards, shard_seed=shard_seed)
        else:
            self.partitioner = StreamPartitioner(shard_map=shard_map)
        self.num_shards = self.partitioner.num_shards
        # One registry observes the whole deployment: stage metrics from
        # shards sharing it aggregate naturally across shards.
        self.metrics = resolve_registry(registry)
        self.shards: Sequence[MeasurementScheme] = [
            make_shard(i) for i in range(self.num_shards)
        ]
        self._finalized = False

    @property
    def shard_map(self) -> ShardMap:
        """The (possibly versioned) flow → shard map in force."""
        return self.partitioner.shard_map

    # -- partitioning --------------------------------------------------------

    def shard_of(self, flow_ids: FlowIdArray) -> npt.NDArray[np.int64]:
        """Which shard owns each flow (RSS-style hash partition)."""
        return self.partitioner.shard_of(flow_ids)

    # -- construction phase ------------------------------------------------------

    def process(
        self,
        packets: FlowIdArray,
        lengths: npt.NDArray[np.int64] | None = None,
    ) -> None:
        """Run the construction phase, shard by shard in this process
        (:class:`repro.runtime.StreamingRuntime` runs shards in worker
        processes)."""
        if self._finalized:
            raise QueryError("cannot process packets after finalize()")
        packets = np.asarray(packets, dtype=np.uint64)
        with self.metrics.timer("sharded.process"):
            self._feed(packets, lengths)

    def _feed(
        self,
        packets: npt.NDArray[np.uint64],
        lengths: npt.NDArray[np.int64] | None,
    ) -> None:
        """Partition one chunk and feed the shards, in shard order.

        One shard takes the chunk as it is: no shard keeps its input,
        so the partitioner's fresh copy (which the runtime's re-feed
        needs) would buy nothing here.
        """
        if self.num_shards == 1:
            if lengths is not None:
                lengths = np.asarray(lengths)
                if len(lengths) != len(packets):
                    raise ConfigError("lengths must align with packets")
            parts = [(packets, lengths)]
        else:
            parts = self.partitioner.partition(packets, lengths)
        for shard, (pkts, lens) in zip(self.shards, parts):
            if not len(pkts):
                continue
            if lens is None:
                shard.process(pkts)
            else:
                shard.process(pkts, lens)  # type: ignore[call-arg]

    def process_stream(
        self,
        stream: FlowIdArray | Iterable,
        *,
        lengths: npt.NDArray[np.int64] | None = None,
        chunk_packets: int = DEFAULT_CHUNK_PACKETS,
    ) -> None:
        """Chunked construction: partition and feed as the stream arrives.

        Accepts the same stream shapes as
        :func:`repro.runtime.partitioner.chunk_stream` — a flat array
        (sliced into ``chunk_packets`` chunks) or an iterable of packet
        arrays / ``(packets, lengths)`` pairs — and never materializes
        the whole stream, removing :meth:`process`'s full-array-up-front
        memory requirement. Because partitioning is per-packet and
        stateless and each shard sees its substream in order, the final
        state is bit-identical to a one-shot :meth:`process` of the
        concatenated stream; the streaming runtime
        (:class:`repro.runtime.StreamingRuntime`) rides this same
        partition-and-feed path.
        """
        if self._finalized:
            raise QueryError("cannot process packets after finalize()")
        with self.metrics.timer("sharded.process"):
            for pkts, lens in chunk_stream(
                stream, lengths=lengths, chunk_packets=chunk_packets
            ):
                self._feed(pkts, lens)

    def finalize(self) -> None:
        """Finalize every shard (idempotent); records the aggregate and
        per-shard protocol gauges."""
        for shard in self.shards:
            shard.finalize()
        self._finalized = True
        if self.metrics.enabled:
            observe_scheme(self.metrics, self, "sharded")
            for i, shard in enumerate(self.shards):
                observe_scheme(self.metrics, shard, f"sharded.shard{i}")

    # -- query phase ----------------------------------------------------------------

    def estimate(
        self,
        flow_ids: FlowIdArray,
        *args: object,
        **kwargs: object,
    ) -> npt.NDArray[np.float64]:
        """Route each query to its owning shard; results in input order.

        Extra arguments (e.g. CAESAR's ``method``/``clip_negative``)
        pass through to the shard's ``estimate``.
        """
        if not self._finalized:
            raise QueryError("call finalize() before estimating")
        flow_ids = np.asarray(flow_ids, dtype=np.uint64)
        owners = self.shard_of(flow_ids)
        out = np.empty(len(flow_ids), dtype=np.float64)
        for s in range(self.num_shards):
            mask = owners == s
            if mask.any():
                out[mask] = self.shards[s].estimate(flow_ids[mask], *args, **kwargs)
        return out

    @property
    def num_packets(self) -> int:
        return sum(s.num_packets for s in self.shards)

    @property
    def memory_bits(self) -> int:
        """Total modeled footprint across all shards."""
        return sum(s.memory_bits for s in self.shards)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ShardedScheme(W={self.num_shards}, {type(self.shards[0]).__name__})"


class ShardedCaesar(ShardedScheme):
    """``num_shards`` independent CAESAR instances behind one facade,
    with the paper's memory accounting: ``divide_budget=True`` splits
    one total budget evenly so a W-way deployment stays
    budget-comparable to a single big instance."""

    def __init__(
        self,
        config: CaesarConfig,
        num_shards: int | None = None,
        *,
        divide_budget: bool = True,
        shard_seed: int = DEFAULT_SHARD_SEED,
        registry: MetricsRegistry | None = None,
        shard_map: ShardMap | None = None,
    ) -> None:
        if shard_map is None:
            if num_shards is None or num_shards < 1:
                raise ConfigError(f"num_shards must be >= 1, got {num_shards}")
            shard_map = ShardMap(num_base=int(num_shards), shard_seed=int(shard_seed))
        # Budget splits over the map's *base* count: a split scales the
        # deployment out (more total memory), it never re-budgets the
        # untouched shards (see shard_caesar_config).
        num_base = shard_map.num_base
        if divide_budget:
            shard_config = replace(
                config,
                cache_entries=max(1, config.cache_entries // num_base),
                bank_size=max(1, config.bank_size // num_base),
            )
        else:
            shard_config = config
        self.shard_config = shard_config
        # Distinct per-shard seeds so shards are hash-independent; all
        # shards report into the same registry (aggregated stage totals).
        # The derivation is shard_caesar_config's — shared with the
        # streaming runtime's workers.
        super().__init__(
            lambda i: Caesar(
                shard_caesar_config(config, i, num_base, divide_budget=divide_budget),
                registry=registry,
            ),
            shard_map=shard_map,
            registry=registry,
        )

    def flows_seen(self) -> npt.NDArray[np.uint64]:
        """Every flow any shard ever saw (union of shard memos)."""
        return np.concatenate(
            [s.flows_seen() for s in self.shards]  # type: ignore[attr-defined]
        )

    @property
    def recorded_mass(self) -> int:
        return sum(s.recorded_mass for s in self.shards)  # type: ignore[attr-defined]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ShardedCaesar(W={self.num_shards}, {self.shard_config.describe()})"
