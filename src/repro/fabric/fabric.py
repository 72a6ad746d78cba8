"""The measurement fabric facade: route, observe, drain, fuse.

A :class:`Fabric` deploys one :class:`~repro.fabric.vantage.
VantagePoint` per node of a :class:`~repro.fabric.topology.Topology`
and runs the full multi-vantage pipeline:

- **ingest** — each chunk is routed by hashing every packet's flow to
  its (ingress, egress) attachment pair; every vantage on the pair's
  route observes the packet (optionally thinned by per-vantage
  sampling), preserving stream order per vantage. The compiled kernel
  routes each whole chunk (:meth:`Topology.route
  <repro.fabric.topology.Topology.route>`), so the fabric needs the
  kernel whatever the construction engine. A vantage's observed
  substream is a pure function of ``(seed, trace)`` — independent of
  chunking, of other vantages, and of scheduling — which is the whole
  determinism argument.
- **drain** — finalize every vantage (any order; they share nothing)
  and collect per-vantage packet counts, checkpoint digests, restart
  and degradation accounting into a :class:`FabricResult`.
- **query** — collect each route vantage's estimate of every queried
  flow (deduplicating multi-observation flows to one output row) and
  fuse them with :mod:`repro.fabric.fusion`; per-vantage sampling is
  unbiased away (estimate scaled by ``1/rate``, variance by
  ``1/rate²`` plus the Binomial thinning term).

The degenerate case is the contract: ``Fabric(config, path_topology(1))``
ingests every packet into vantage 0 unsampled under the *unchanged*
base seed, so its estimates and per-shard checkpoint digests are
bit-identical to a plain ``ShardedCaesar`` over the same stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np
import numpy.typing as npt

from repro.core.config import CaesarConfig
from repro.errors import ConfigError, QueryError
from repro.fabric.fusion import (
    FUSION_METHODS,
    FusionReport,
    VantageObservation,
    fuse,
    fusion_report,
)
from repro.fabric.topology import Topology
from repro.fabric.vantage import VantagePoint
from repro.hashing.family import HashFamily
from repro.obs.registry import MetricsRegistry, resolve_registry
from repro.runtime.partitioner import (
    DEFAULT_CHUNK_PACKETS,
    DEFAULT_SHARD_SEED,
    chunk_stream,
)
from repro.types import FlowIdArray

#: Seed-mixing constant for the per-vantage sampling hash (distinct
#: from the attachment and shard hash domains).
_SAMPLE_SEED_XOR = 0x5A3917

#: Sampling decisions compare the top 53 bits of the hash (exact in a
#: float64) against ``rate * 2^53``.
_SAMPLE_BITS = 53


@dataclass(frozen=True)
class FabricResult:
    """What :meth:`Fabric.drain` returns: the network-wide ledger."""

    num_packets: int  #: packets offered to the fabric (pre-routing)
    observed_packets: tuple[int, ...]  #: per-vantage observed counts
    shard_digests: tuple[tuple[str, ...], ...]  #: per-vantage, per-shard
    restarts: int  #: worker restarts across all vantages
    degraded_vantages: tuple[int, ...]  #: vantages that lost input

    @property
    def degraded(self) -> bool:
        return bool(self.degraded_vantages)

    @property
    def total_observations(self) -> int:
        """Sum of per-vantage observations (a packet on an h-hop route
        counts h times)."""
        return sum(self.observed_packets)


class Fabric:
    """A multi-vantage measurement network behind one facade.

    ``sample_rate`` is the per-hop observation probability — a float
    applied at every vantage, or a ``{node: rate}`` mapping (missing
    nodes observe everything). ``vantage_workers=0`` keeps every
    vantage in-process; ``N >= 1`` runs each vantage as ``N``
    supervised shard workers under ``state_dir`` (a runtime per vantage
    for free, per the runtime's own contracts).
    """

    def __init__(
        self,
        config: CaesarConfig,
        topology: Topology,
        *,
        fusion: str = "mle",
        shards_per_vantage: int = 1,
        vantage_workers: int = 0,
        state_dir: str | Path | None = None,
        sample_rate: float | Mapping[int, float] = 1.0,
        divide_budget: bool = True,
        shard_seed: int = DEFAULT_SHARD_SEED,
        registry: MetricsRegistry | None = None,
        vantage_registries: Sequence[MetricsRegistry | None] | None = None,
        runtime_options: Mapping[str, object] | None = None,
    ) -> None:
        if fusion not in FUSION_METHODS:
            raise ConfigError(
                f"unknown fusion method {fusion!r}; use one of {FUSION_METHODS}"
            )
        if vantage_workers and state_dir is None:
            raise ConfigError("vantage_workers >= 1 needs state_dir=")
        if vantage_registries is not None and len(vantage_registries) != (
            topology.num_nodes
        ):
            raise ConfigError(
                f"vantage_registries must have one entry per node "
                f"({topology.num_nodes}), got {len(vantage_registries)}"
            )
        self.config = config
        self.topology = topology
        self.fusion = fusion
        self.metrics = resolve_registry(registry)
        self._rates = self._resolve_rates(sample_rate, topology.num_nodes)
        # The router's sampling test: member v of this hash family thins
        # vantage v's observations by the top-53-bit rule, and a limit of
        # 2^53 keeps everything. Seeded off the config so two fabrics over
        # the same topology but different measurements sample
        # independently.
        self._sampling = None
        if any(r < 1.0 for r in self._rates):
            family = HashFamily(topology.num_nodes, seed=config.seed ^ _SAMPLE_SEED_XOR)
            self._sampling = (
                np.array(family.seeds, dtype=np.uint64),
                np.array([int(r * (1 << _SAMPLE_BITS)) for r in self._rates], dtype=np.uint64),
            )
        self.vantages = [
            VantagePoint(
                node,
                config,
                shards=shards_per_vantage,
                workers=vantage_workers,
                state_dir=(
                    None if state_dir is None else Path(state_dir) / f"vantage{node}"
                ),
                divide_budget=divide_budget,
                shard_seed=shard_seed,
                registry=(
                    registry
                    if vantage_registries is None
                    else vantage_registries[node]
                ),
                runtime_options=runtime_options if vantage_workers else None,
            )
            for node in range(topology.num_nodes)
        ]
        self._offset = 0  # global packet index (sampling determinism)
        self._drained: FabricResult | None = None

    @staticmethod
    def _resolve_rates(
        sample_rate: float | Mapping[int, float], num_nodes: int
    ) -> tuple[float, ...]:
        if isinstance(sample_rate, Mapping):
            rates = tuple(
                float(sample_rate.get(node, 1.0)) for node in range(num_nodes)
            )
        else:
            rates = (float(sample_rate),) * num_nodes
        for node, rate in enumerate(rates):
            if not 0.0 < rate <= 1.0:
                raise ConfigError(
                    f"sample rate for vantage {node} must be in (0, 1], got {rate}"
                )
        return rates

    @property
    def num_vantages(self) -> int:
        return len(self.vantages)

    # -- ingest --------------------------------------------------------------

    def ingest(
        self,
        packets: FlowIdArray,
        lengths: npt.NDArray[np.int64] | None = None,
    ) -> None:
        """Route one chunk through the topology to its observers."""
        if self._drained is not None:
            raise QueryError("cannot ingest after drain()")
        packets = np.asarray(packets, dtype=np.uint64)
        if lengths is not None and len(lengths) != len(packets):
            raise ConfigError("lengths must align with packets")
        if len(packets) == 0:
            return
        with self.metrics.timer("fabric.ingest"):
            observed = self.topology.route(
                packets, lengths, offset=self._offset, sampling=self._sampling
            )
            for node, (vantage, (pkts, lens)) in enumerate(zip(self.vantages, observed)):
                if len(pkts):
                    vantage.process(pkts, lens)
                    self.metrics.counter(f"fabric.vantage{node}.observed").inc(len(pkts))
        self._offset += len(packets)

    def ingest_stream(
        self,
        stream: FlowIdArray | Iterable,
        *,
        lengths: npt.NDArray[np.int64] | None = None,
        chunk_packets: int = DEFAULT_CHUNK_PACKETS,
    ) -> None:
        """Chunked ingest of any stream shape :func:`chunk_stream` takes."""
        for pkts, lens in chunk_stream(
            stream, lengths=lengths, chunk_packets=chunk_packets
        ):
            self.ingest(pkts, lens)

    # -- lifecycle -----------------------------------------------------------

    def drain(self) -> FabricResult:
        """Finalize every vantage and return the network-wide ledger.

        Idempotent; vantages already finalized out-of-band (tests drain
        them in shuffled orders) are left as-is — the ledger is
        identical either way because vantages share no state.
        """
        if self._drained is None:
            for vantage in self.vantages:
                vantage.finalize()
            self._drained = FabricResult(
                num_packets=self._offset,
                observed_packets=tuple(v.num_packets for v in self.vantages),
                shard_digests=tuple(v.checkpoint_digests() for v in self.vantages),
                restarts=sum(v.restarts for v in self.vantages),
                degraded_vantages=tuple(
                    v.node for v in self.vantages if v.degraded
                ),
            )
        return self._drained

    def shutdown(self) -> None:
        """Tear down every vantage's workers without draining."""
        for vantage in self.vantages:
            vantage.shutdown()

    def kill_worker(self, vantage: int, shard: int) -> None:
        """Chaos hook: SIGKILL one shard worker of one vantage."""
        if not 0 <= vantage < self.num_vantages:
            raise ConfigError(f"vantage {vantage} out of range")
        self.vantages[vantage].kill_worker(shard)

    # -- query ---------------------------------------------------------------

    def observations(self, flow_ids: FlowIdArray) -> list[VantageObservation]:
        """Each vantage's view of the queried flows (NaN off-route).

        The query vector is used as given — callers wanting the
        dedup-union semantics go through :meth:`query` /
        :meth:`query_detail`, which unique-ify first. Sampling is
        unbiased away here: a rate-``p`` vantage's estimate targets
        ``p·x``, so the estimate scales by ``1/p`` and the variance by
        ``1/p²``, plus the Binomial thinning variance ``x(1-p)/p``
        folded into the slope (it is linear in ``x``).
        """
        self.drain()
        flow_ids = np.asarray(flow_ids, dtype=np.uint64)
        pair = self.topology.pair_of(flow_ids)
        out: list[VantageObservation] = []
        nan = np.full(len(flow_ids), np.nan)
        for node, vantage in enumerate(self.vantages):
            mask = self.topology.observation_matrix[pair, node]
            est = nan.copy()
            slope = np.zeros(len(flow_ids))
            floor = np.zeros(len(flow_ids))
            if mask.any():
                detail = vantage.estimate_detail(flow_ids[mask])
                rate = self._rates[node]
                if rate < 1.0:
                    est[mask] = detail.estimates / rate
                    slope[mask] = detail.var_slope / rate + (1.0 - rate) / rate
                    floor[mask] = detail.var_floor / (rate * rate)
                else:
                    est[mask] = detail.estimates
                    slope[mask] = detail.var_slope
                    floor[mask] = detail.var_floor
            out.append(
                VantageObservation(
                    vantage=node, estimates=est, var_slope=slope, var_floor=floor
                )
            )
        return out

    def query(
        self,
        flow_ids: FlowIdArray,
        *,
        fusion: str | None = None,
        clip_negative: bool = False,
    ) -> npt.NDArray[np.float64]:
        """Fused per-flow estimates, aligned with ``flow_ids``.

        Flows appearing several times in ``flow_ids`` (or observed at
        several vantages) are deduplicated: each distinct flow is fused
        exactly once and the result scattered back to input order.
        """
        flow_ids = np.asarray(flow_ids, dtype=np.uint64)
        uniq, inverse = np.unique(flow_ids, return_inverse=True)
        fused = fuse(self.observations(uniq), fusion or self.fusion)
        if clip_negative:
            fused = np.maximum(fused, 0.0)
        return fused[inverse]

    def query_detail(
        self, flow_ids: FlowIdArray, *, fusion: str | None = None
    ) -> tuple[npt.NDArray[np.float64], list[VantageObservation]]:
        """Fused estimates plus the raw per-vantage observations.

        No dedup here: rows align 1:1 with ``flow_ids``, which callers
        computing error reports want (their truth vector aligns too).
        """
        flow_ids = np.asarray(flow_ids, dtype=np.uint64)
        obs = self.observations(flow_ids)
        return fuse(obs, fusion or self.fusion), obs

    def report(
        self,
        flow_ids: FlowIdArray,
        truth: npt.NDArray[np.int64],
        *,
        fusion: str | None = None,
    ) -> FusionReport:
        """Per-vantage + network-wide accuracy against ground truth."""
        method = fusion or self.fusion
        fused, obs = self.query_detail(flow_ids, fusion=method)
        return fusion_report(truth, obs, fused, method=method)

    def flows_seen(self) -> npt.NDArray[np.uint64]:
        """Every flow any vantage observed (deduplicated union)."""
        self.drain()
        return np.unique(np.concatenate([v.flows_seen() for v in self.vantages]))

    @property
    def memory_bits(self) -> int:
        """Total modeled footprint across all vantages."""
        return sum(v.memory_bits for v in self.vantages)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Fabric({self.topology.name}, fusion={self.fusion}, "
            f"{self.num_vantages} vantages)"
        )
