"""One measurement vantage point: a CAESAR deployment on a topology node.

A :class:`VantagePoint` is the fabric's unit of deployment — one
measurement box on one topology node, wrapping either an in-process
:class:`~repro.core.sharded.ShardedCaesar` (``workers=0``, the
deterministic default) or a supervised
:class:`~repro.runtime.StreamingRuntime` (``workers >= 1``, one worker
process per shard) behind one ingest/finalize/estimate surface. Either
way the box speaks the :class:`~repro.core.scheme.MeasurementScheme`
protocol, and a drained runtime-backed vantage rebuilds its offline
twin via :meth:`~repro.runtime.client.RuntimeResult.load_scheme`, so
queries and checkpoint digests are identical across both modes.

Seeding: vantage ``v`` runs under ``config.seed + VANTAGE_SEED_STRIDE
* v``, so distinct vantages are hash-independent observers (their
sharing noise decorrelates — the property fusion banks on) while
**vantage 0 keeps the base seed unchanged**. That last part is the
one-vantage bit-identity contract: a degenerate fabric's single
vantage builds exactly the ``ShardedCaesar`` a single-box deployment
would, estimates and per-shard checkpoint digests included.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import Mapping

import numpy as np
import numpy.typing as npt

from repro.core import theory
from repro.core.config import CaesarConfig
from repro.core.sharded import ShardedCaesar
from repro.errors import ConfigError, QueryError
from repro.obs.registry import MetricsRegistry
from repro.runtime.partitioner import DEFAULT_SHARD_SEED
from repro.types import FlowIdArray

#: Per-vantage seed stride. Deliberately not a small multiple of the
#: per-shard stride (0x9E37), so no (vantage, shard) pair in a
#: realistic deployment collides with another pair's derived seed.
VANTAGE_SEED_STRIDE = 0x51D7B3


def vantage_caesar_config(config: CaesarConfig, node: int) -> CaesarConfig:
    """Vantage ``node``'s config: base seed offset by the vantage stride.

    Node 0's config is returned unchanged (same object semantics as the
    shard rule: the degenerate deployment must be bit-identical to the
    single-box one).
    """
    if node < 0:
        raise ConfigError(f"vantage node must be >= 0, got {node}")
    if node == 0:
        return config
    return replace(config, seed=config.seed + VANTAGE_SEED_STRIDE * node)


@dataclass(frozen=True)
class VantageEstimate:
    """A vantage's estimates plus its linearized Eq. 22 variance model
    (``Var(x) = var_slope * x + var_floor``, per queried flow)."""

    estimates: npt.NDArray[np.float64]
    var_slope: npt.NDArray[np.float64]
    var_floor: npt.NDArray[np.float64]


class VantagePoint:
    """One CAESAR box on topology node ``node``.

    ``workers=0`` runs ``shards`` in-process CAESAR shards;
    ``workers=N`` runs ``N`` supervised shard-worker processes through
    the streaming runtime (``state_dir`` required — checkpoints and
    WALs live there). ``runtime_options`` passes through to
    :class:`~repro.runtime.StreamingRuntime` (ring size, checkpoint
    cadence, fault injection, ...).
    """

    def __init__(
        self,
        node: int,
        config: CaesarConfig,
        *,
        shards: int = 1,
        workers: int = 0,
        state_dir: str | Path | None = None,
        divide_budget: bool = True,
        shard_seed: int = DEFAULT_SHARD_SEED,
        registry: MetricsRegistry | None = None,
        runtime_options: Mapping[str, object] | None = None,
    ) -> None:
        if workers < 0:
            raise ConfigError(f"workers must be >= 0, got {workers}")
        self.node = int(node)
        self.config = vantage_caesar_config(config, node)
        self.workers = int(workers)
        self._registry = registry
        self._scheme: ShardedCaesar | None = None
        self._runtime = None
        self._result = None
        self._digests: tuple[str, ...] | None = None
        self._finalized = False
        if self.workers == 0:
            if runtime_options:
                raise ConfigError("runtime_options require workers >= 1")
            self._scheme = ShardedCaesar(
                self.config,
                shards,
                divide_budget=divide_budget,
                shard_seed=shard_seed,
                registry=registry,
            )
        else:
            if state_dir is None:
                raise ConfigError("a runtime-backed vantage needs state_dir=")
            from repro.runtime.client import StreamingRuntime

            self._runtime = StreamingRuntime(
                self.config,
                self.workers,
                state_dir=state_dir,
                divide_budget=divide_budget,
                shard_seed=shard_seed,
                registry=registry,
                **dict(runtime_options or {}),
            )

    # -- ingest --------------------------------------------------------------

    def process(
        self,
        packets: FlowIdArray,
        lengths: npt.NDArray[np.int64] | None = None,
    ) -> None:
        """Feed one chunk of this vantage's observed substream."""
        if self._finalized:
            raise QueryError("cannot process packets after finalize()")
        if len(packets) == 0:
            return
        if self._runtime is not None:
            self._runtime.start()
            self._runtime.ingest(packets, lengths)
        else:
            assert self._scheme is not None
            self._scheme.process(packets, lengths)

    def finalize(self) -> None:
        """Drain/finalize the box; idempotent, in any cross-vantage order.

        A runtime-backed vantage drains its workers, records their final
        checkpoint digests, and rebuilds the offline twin all subsequent
        queries run against.
        """
        if self._finalized:
            return
        if self._runtime is not None:
            self._runtime.start()  # a zero-traffic vantage still drains
            self._result = self._runtime.drain()
            self._digests = self._result.shard_digests
            self._scheme = self._result.load_scheme(registry=self._registry)
            self._runtime.shutdown()
        else:
            assert self._scheme is not None
            self._scheme.finalize()
        self._finalized = True

    def shutdown(self) -> None:
        """Tear down worker processes without draining (abandon ship)."""
        if self._runtime is not None:
            self._runtime.shutdown()

    def kill_worker(self, shard: int) -> None:
        """Chaos hook: SIGKILL one shard worker (runtime mode only)."""
        if self._runtime is None:
            raise ConfigError("kill_worker needs a runtime-backed vantage")
        self._runtime.kill_worker(shard)

    # -- query ---------------------------------------------------------------

    @property
    def scheme(self) -> ShardedCaesar:
        """The finalized (or in-progress, if ``workers=0``) deployment."""
        if self._scheme is None:
            raise QueryError("call finalize() before querying a runtime vantage")
        return self._scheme

    def estimate(
        self, flow_ids: FlowIdArray, *args: object, **kwargs: object
    ) -> npt.NDArray[np.float64]:
        if not self._finalized:
            raise QueryError("call finalize() before estimating")
        return self.scheme.estimate(flow_ids, *args, **kwargs)

    def estimate_detail(self, flow_ids: FlowIdArray) -> VantageEstimate:
        """CSM estimates plus the per-flow Eq. 22 variance linearization.

        Slope and floor come from the *owning shard*'s geometry (its
        bank size and effective traffic mass differ per shard), which
        is what fusion's inverse-variance weights need.
        """
        if not self._finalized:
            raise QueryError("call finalize() before estimating")
        scheme = self.scheme
        flow_ids = np.asarray(flow_ids, dtype=np.uint64)
        est = scheme.estimate(flow_ids, "csm", clip_negative=False)
        owners = scheme.shard_of(flow_ids)
        slope = np.empty(len(flow_ids), dtype=np.float64)
        floor = np.empty(len(flow_ids), dtype=np.float64)
        for s in range(scheme.num_shards):
            mask = owners == s
            if not mask.any():
                continue
            shard = scheme.shards[s]
            kw = dict(
                k=shard.config.k,
                entry_capacity=shard.config.entry_capacity,
                bank_size=shard.config.bank_size,
                num_packets=shard.effective_mass,  # type: ignore[attr-defined]
            )
            v0 = float(theory.csm_variance(0.0, **kw))
            v1 = float(theory.csm_variance(1.0, **kw))
            slope[mask] = v1 - v0
            floor[mask] = v0
        return VantageEstimate(estimates=est, var_slope=slope, var_floor=floor)

    # -- accounting ----------------------------------------------------------

    @property
    def finalized(self) -> bool:
        return self._finalized

    @property
    def num_packets(self) -> int:
        """Packets this vantage observed (0 pre-drain in runtime mode)."""
        if self._scheme is not None:
            return self._scheme.num_packets
        return 0

    @property
    def memory_bits(self) -> int:
        if self._scheme is not None:
            return self._scheme.memory_bits
        return 0

    @property
    def restarts(self) -> int:
        """Worker restarts absorbed by this vantage's supervisor."""
        return 0 if self._result is None else self._result.restarts

    @property
    def degraded(self) -> bool:
        """True when the vantage finished without some of its input
        (the runtime quarantined poison chunks)."""
        return self._result is not None and self._result.degraded

    def checkpoint_digests(self) -> tuple[str, ...]:
        """Per-shard checkpoint digests — the bit-identity witnesses.

        Runtime mode reports the workers' final digests verbatim;
        in-process mode captures a checkpoint of each shard (cached:
        the digest of a finalized shard never changes).
        """
        if not self._finalized:
            raise QueryError("call finalize() before taking digests")
        if self._digests is None:
            self._digests = tuple(
                s.checkpoint().digest for s in self.scheme.shards  # type: ignore[attr-defined]
            )
        return self._digests

    def flows_seen(self) -> npt.NDArray[np.uint64]:
        """Every flow this vantage's shards ever cached."""
        return self.scheme.flows_seen()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        mode = f"{self.workers}w runtime" if self._runtime is not None else "in-process"
        return f"VantagePoint(node={self.node}, {mode})"
