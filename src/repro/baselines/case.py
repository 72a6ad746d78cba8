"""CASE — Cache-Assisted Stretchable Estimator (Li et al., INFOCOM 2016).

The cache-assisted baseline of the paper's Figure 5. CASE uses the
same on-chip cache front end as CAESAR, but off-chip it keeps **one
DISCO-compressed counter per flow** (one-to-one mapping — so the
counter count must be at least the flow count, which at a fixed SRAM
budget forces the per-counter width down to a bit or two; that is
precisely why its estimates collapse to ~0 at 183.11 KB in the paper).

Eviction path: fold the evicted cache value into the flow's compressed
counter via the DISCO curve — ``c' = inverse(rep(c) + value)`` — the
power operation the paper charges CASE's processing time with. Like
CAESAR, CASE runs either engine: ``"batched"`` (default) drains the
eviction buffer chunk-wise into one vectorized compressed fold,
``"scalar"`` folds per eviction; both are bit-identical under a fixed
seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import numpy.typing as npt

from repro.baselines.compression.base import CompressedCounterArray
from repro.baselines.compression.disco import DiscoCurve
from repro.cachesim.base import EvictionReason
from repro.cachesim.buffer import EvictionBuffer
from repro.cachesim.cache import FlowCache
from repro.errors import ConfigError, QueryError
from repro.hashing.family import HashFamily
from repro.obs.registry import MetricsRegistry, resolve_registry
from repro.obs.schemes import observe_cache_stats, observe_scheme
from repro.obs.trace import EvictionTrace
from repro.resilience.faults import FaultInjector, FaultPlan
from repro.sram.layout import cache_entries_for_budget
from repro.types import FlowIdArray


@dataclass(frozen=True)
class CaseConfig:
    """Parameters of one CASE instance."""

    cache_entries: int
    entry_capacity: int
    num_counters: int
    counter_capacity: int
    max_value: float
    gamma: float = 2.0
    replacement: str = "lru"
    seed: int = 0xCA5E
    engine: str = "batched"

    def __post_init__(self) -> None:
        if self.cache_entries < 1:
            raise ConfigError(f"cache_entries must be >= 1, got {self.cache_entries}")
        if self.entry_capacity < 1:
            raise ConfigError(f"entry_capacity must be >= 1, got {self.entry_capacity}")
        if self.num_counters < 1:
            raise ConfigError(f"num_counters must be >= 1, got {self.num_counters}")
        if self.counter_capacity < 1:
            raise ConfigError(f"counter_capacity must be >= 1, got {self.counter_capacity}")
        if self.replacement not in ("lru", "random"):
            raise ConfigError(f"replacement must be 'lru' or 'random', got {self.replacement!r}")
        if self.engine not in ("batched", "scalar"):
            raise ConfigError(f"engine must be 'batched' or 'scalar', got {self.engine!r}")

    @classmethod
    def for_budgets(
        cls,
        *,
        sram_kb: float,
        cache_kb: float,
        num_packets: int,
        num_flows: int,
        max_value: float,
        gamma: float = 2.0,
        replacement: str = "lru",
        seed: int = 0xCA5E,
        engine: str = "batched",
    ) -> "CaseConfig":
        """Size CASE the paper's way: one counter per flow, so the SRAM
        budget fixes the per-counter width ``floor(bits / Q)``; the
        cache uses the paper's ``y = floor(2 n / Q)`` rule."""
        budget_bits = int(sram_kb * 8192)
        bits = budget_bits // num_flows
        if bits < 1:
            raise ConfigError(
                f"{sram_kb} KB cannot give {num_flows} flows even 1-bit counters"
            )
        num_counters = budget_bits // bits
        y = max(2, int(2 * num_packets / num_flows))
        return cls(
            cache_entries=cache_entries_for_budget(cache_kb, y),
            entry_capacity=y,
            num_counters=num_counters,
            counter_capacity=(1 << bits) - 1,
            max_value=max_value,
            gamma=gamma,
            replacement=replacement,
            seed=seed,
            engine=engine,
        )


class Case:
    """One CASE instance: cache front end, DISCO counters behind."""

    def __init__(
        self,
        config: CaseConfig,
        *,
        registry: MetricsRegistry | None = None,
        eviction_trace: EvictionTrace | None = None,
        fault_plan: FaultPlan | None = None,
    ) -> None:
        self.config = config
        self.metrics = resolve_registry(registry)
        self.cache = FlowCache(
            num_entries=config.cache_entries,
            entry_capacity=config.entry_capacity,
            policy=config.replacement,
            seed=config.seed ^ 0xCACE,
            registry=registry,
            trace=eviction_trace,
        )
        self.curve = DiscoCurve(config.gamma, config.counter_capacity, config.max_value)
        self.array = CompressedCounterArray(
            self.curve,
            config.num_counters,
            config.counter_capacity,
            seed=config.seed ^ 0x50FF,
        )
        self._family = HashFamily(1, seed=config.seed)
        self.engine = config.engine
        self._buffer = EvictionBuffer()
        self._packets_seen = 0
        self._finalized = False
        #: Power operations performed (eviction folds) — the cost the
        #: paper's Figure 8 charges CASE with.
        self.power_operations = 0
        # Transfer faults only: CASE's compressed counters have no
        # meaningful bit-flip/stuck-at surface (docs/resilience.md), so
        # the injector binds to the cache alone (drop/duplicate/wipe).
        self._injector: FaultInjector | None = (
            FaultInjector(fault_plan).attach(cache=self.cache)
            if fault_plan is not None and fault_plan.enabled
            else None
        )
        if self._injector is not None:
            self._drain_fn = self._injector.wrap_drain(self._drain)
            self._sink_fn = self._injector.wrap_sink(self._sink)
        else:
            self._drain_fn = self._drain
            self._sink_fn = self._sink

    def _slot(self, flow_id: int) -> int:
        return int(self._family.hash_one(0, flow_id) % self.config.num_counters)

    def _slots(self, flow_ids: FlowIdArray) -> npt.NDArray[np.int64]:
        h = self._family.hash_array(0, np.asarray(flow_ids, np.uint64))
        return (h % np.uint64(self.config.num_counters)).astype(np.int64)

    def _sink(self, flow_id: int, value: int, reason: EvictionReason) -> None:
        self.array.add_value(self._slot(flow_id), value)
        self.power_operations += 1

    def _drain(
        self,
        ids: npt.NDArray[np.uint64],
        values: npt.NDArray[np.int64],
        reasons: npt.NDArray[np.uint8],
    ) -> None:
        """Batched eviction drain: one vectorized fold per chunk."""
        with self.metrics.timer("case.fold"):
            self.array.add_values(self._slots(ids), values)
        self.power_operations += len(ids)

    # -- construction phase ---------------------------------------------------

    def process(self, packets: FlowIdArray) -> None:
        """Feed a packet batch through the cache + compress pipeline."""
        if self._finalized:
            raise QueryError("cannot process packets after finalize()")
        with self.metrics.timer("case.process"):
            if self.engine == "scalar":
                self.cache.process(packets, self._sink_fn)
            else:
                self.cache.process_into(packets, self._buffer, self._drain_fn)
        self._packets_seen += len(packets)

    def finalize(self) -> None:
        """Dump resident cache entries into the compressed counters."""
        if self._finalized:
            return
        with self.metrics.timer("case.finalize"):
            if self.engine == "scalar":
                self.cache.dump(self._sink_fn)
            else:
                self.cache.dump_into(self._buffer, self._drain_fn)
        self._finalized = True
        observe_cache_stats(self.metrics, self.cache.stats, "case.cache")
        observe_scheme(self.metrics, self, "case")
        self.metrics.gauge("case.power_operations").set(self.power_operations)

    # -- query phase --------------------------------------------------------------

    @property
    def num_packets(self) -> int:
        return self._packets_seen

    @property
    def memory_bits(self) -> int:
        """Modeled footprint, paper accounting: cache count fields plus
        the compressed counter array."""
        return self.cache.memory_bits(flow_id_bits=0) + (
            self.array.num_counters * self.array.bits_per_counter
        )

    def estimate(self, flow_ids: FlowIdArray) -> npt.NDArray[np.float64]:
        """Decompressed per-flow estimates (offline query)."""
        if not self._finalized:
            raise QueryError("call finalize() before estimating")
        return self.array.estimate(self._slots(flow_ids))

    @property
    def sram_kilobytes(self) -> float:
        return self.array.memory_kilobytes
