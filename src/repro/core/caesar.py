"""The CAESAR measurement scheme (construction + query orchestration).

Wires together the on-chip :class:`~repro.cachesim.FlowCache`, the
banked :class:`~repro.sram.BankedCounterArray`, the collision-free
:class:`~repro.hashing.BankedIndexer`, and the eviction-value splitter
into the two-phase architecture of Figure 1:

- :meth:`Caesar.process` — online construction: packets hit the cache;
  every eviction is split over the flow's ``k`` fixed counters;
- :meth:`Caesar.finalize` — dump resident cache entries to SRAM
  (required before querying; the query phase is strictly offline);
- :meth:`Caesar.estimate` — offline query via CSM or MLM.

Two construction engines implement the same dataflow:

- ``engine="batched"`` (default) — the compiled cache kernel
  (:mod:`repro.cachesim.kernel`) streams evictions through a
  preallocated :class:`~repro.cachesim.EvictionBuffer`; each drained
  chunk lands on the SRAM in one more kernel call
  (:meth:`~repro.sram.BankedCounterArray.land`), which memoizes the
  chunk's new flows in the array-backed
  :class:`~repro.hashing.family.BankedIndexMemo`, splits every value
  over its flow's k counters and adds the parts with saturation;
- ``engine="scalar"`` — the per-eviction callback reference path.

Both are *bit-identical* under a fixed seed: the kernel replays exactly
the per-packet semantics, and the drain draws each chunk's remainder
slots in one block exactly as the scalar loop draws them one eviction
at a time, so evictions, counters, statistics, and generator state all
match (enforced by ``tests/test_engine_equivalence.py``; the land is
pinned to its numpy reference by ``tests/test_land.py``).
"""

from __future__ import annotations

import numpy as np
import numpy.typing as npt

from repro.cachesim.base import EvictionReason
from repro.cachesim.buffer import DEFAULT_BUFFER_CAPACITY, EvictionBuffer
from repro.cachesim.cache import FlowCache
from repro.core import csm as csm_mod
from repro.core import mlm as mlm_mod
from repro.core.config import CaesarConfig
from repro.core.split import split_evenly, split_value

# Kept only because perfbench's ``--trace 1`` hook wraps this name.
from repro.core.split import split_batch  # noqa: F401
from repro.errors import ConfigError, QueryError
from repro.hashing.family import BankedIndexer, BankedIndexMemo
from repro.obs.registry import MetricsRegistry, resolve_registry
from repro.obs.schemes import observe_cache_stats, observe_scheme
from repro.obs.trace import EvictionTrace
from repro.resilience.faults import FaultInjector, FaultPlan
from repro.resilience.health import observe_health
from repro.resilience.wal import WriteAheadLog
from repro.sram.counterarray import BankedCounterArray
from repro.types import FlowIdArray


_NO_SLOTS = np.empty(0, dtype=np.int64)


def _discard_drain(
    ids: npt.NDArray[np.uint64],
    values: npt.NDArray[np.int64],
    reasons: npt.NDArray[np.uint8],
) -> None:
    """Drain that drops the chunk (epoch reset discards cache residue)."""


class Caesar:
    """One CAESAR instance: build from a :class:`CaesarConfig`, feed the
    packet stream, finalize, query.

    Example
    -------
    >>> cfg = CaesarConfig(cache_entries=1024, entry_capacity=54, bank_size=512)
    >>> caesar = Caesar(cfg)
    >>> caesar.process(trace.packets)
    >>> caesar.finalize()
    >>> est = caesar.estimate(trace.flows.ids)          # CSM (default)
    >>> est = caesar.estimate(trace.flows.ids, "mlm")   # MLM
    """

    def __init__(
        self,
        config: CaesarConfig,
        *,
        buffer_capacity: int = DEFAULT_BUFFER_CAPACITY,
        registry: MetricsRegistry | None = None,
        eviction_trace: EvictionTrace | None = None,
        fault_plan: FaultPlan | None = None,
        wal: WriteAheadLog | None = None,
    ) -> None:
        self.config = config
        # Observability (off by default): stage timers + counters go to
        # ``registry``; ``eviction_trace`` rides on the cache stats.
        # Neither perturbs measurement results (tests/test_obs.py).
        self.metrics = resolve_registry(registry)
        self.cache = FlowCache(
            num_entries=config.cache_entries,
            entry_capacity=config.entry_capacity,
            policy=config.replacement,
            seed=config.seed ^ 0xCACE,
            registry=registry,
            trace=eviction_trace,
        )
        self.indexer = BankedIndexer(config.k, config.bank_size, seed=config.seed)
        self.counters = BankedCounterArray(
            k=config.k,
            bank_size=config.bank_size,
            counter_capacity=config.counter_capacity,
        )
        self._rng = np.random.default_rng(config.seed ^ 0x5011D)
        self.engine = config.engine
        self._buffer = EvictionBuffer(buffer_capacity)
        self._packets_seen = 0
        self._mass_seen = 0  # == packets when counting packets; bytes when counting volume
        self._finalized = False
        # Resilience attachments (both off by default; the healthy path
        # with neither is byte-for-byte the pre-resilience hot path).
        self._injector: FaultInjector | None = (
            FaultInjector(fault_plan).attach(cache=self.cache, counters=self.counters)
            if fault_plan is not None and fault_plan.enabled
            else None
        )
        self._wal = wal
        self._last_checkpoint_mass = 0
        self._epoch = 0
        self._rebuild_io_chain()

    def _rebuild_io_chain(self) -> None:
        """Compose the eviction drain/sink with the resilience wrappers.

        Layering (innermost first): the scheme's own ``_drain``/``_sink``,
        then fault injection, then the write-ahead log *outermost* — the
        WAL records what the cache emitted, so even a chunk the injector
        drops is recoverable by checkpoint + replay.
        """
        drain = self._drain
        sink = self._sink
        if self._injector is not None:
            drain = self._injector.wrap_drain(drain)
            sink = self._injector.wrap_sink(sink)
        if self._wal is not None:
            wal = self._wal
            inner_drain = drain
            inner_sink = sink

            def logged_drain(
                ids: npt.NDArray[np.uint64],
                values: npt.NDArray[np.int64],
                reasons: npt.NDArray[np.uint8],
            ) -> None:
                wal.append_chunk(ids, values, reasons)
                inner_drain(ids, values, reasons)

            def logged_sink(flow_id: int, value: int, reason: EvictionReason) -> None:
                wal.append_event(flow_id, value, reason.code)
                inner_sink(flow_id, value, reason)

            drain = logged_drain
            sink = logged_sink
        self._drain_fn = drain
        self._sink_fn = sink

    @property
    def indexer(self) -> BankedIndexer:
        """The flow → k-counter index mapper.

        Assignable before processing starts (the hash-family ablation
        swaps in a tabulation indexer); assignment rebuilds the index
        memos of both engines so construction and query stay consistent.
        """
        return self._indexer

    @indexer.setter
    def indexer(self, indexer: BankedIndexer) -> None:
        self._indexer = indexer
        # Flows are mapped to k *fixed* counters across all their
        # evictions (Section 3.1), so both engines memoize the mapping:
        # the scalar reference in a per-flow dict of index rows, the
        # batched engine in one growing array-backed table.
        self._index_memo: dict[int, np.ndarray] = {}
        self._memo = BankedIndexMemo(indexer)

    # -- construction phase ----------------------------------------------------

    def _sink(self, flow_id: int, value: int, reason: EvictionReason) -> None:
        """Scalar eviction sink: split the value over the flow's k counters."""
        idx = self._index_memo.get(flow_id)
        if idx is None:
            idx = self.indexer.indices_one(flow_id)
            self._index_memo[flow_id] = idx
        if self.config.remainder == "random":
            parts = split_value(value, self.config.k, self._rng)
        else:
            parts = split_evenly(value, self.config.k)
        # k is tiny (typically 3): scalar adds beat a vectorized
        # scatter-add here by an order of magnitude in call overhead.
        add_one = self.counters.add_one
        for r in range(self.config.k):
            add_one(int(idx[r]), int(parts[r]))

    def _drain(
        self,
        ids: npt.NDArray[np.uint64],
        values: npt.NDArray[np.int64],
        reasons: npt.NDArray[np.uint8],
    ) -> None:
        """Batched eviction drain: land one buffer chunk on the SRAM.

        One kernel call (:meth:`BankedCounterArray.land`) memoizes the
        chunk's new flows, splits every value over its flow's k
        counters and adds the parts with saturation, regardless of
        chunk size. The random remainder's slots are drawn here first,
        one block per chunk exactly as :func:`split_batch` draws them,
        so the generator stream is the scalar loop's. The land runs
        under the ``caesar.land`` timer; the enclosing ``cache.drain``
        timer (started by the cache's flush) covers the whole chunk
        hand-off.
        """
        k = self.config.k
        with self.metrics.timer("caesar.land"):
            if len(values) and values.min() < 0:
                raise ConfigError("evicted values must be >= 0")
            slots = None
            if self.config.remainder == "random":
                total = int((values % k).sum())
                slots = self._rng.integers(0, k, size=total) if total else _NO_SLOTS
            self.counters.land(self._memo, ids, values, slots)

    def process(
        self,
        packets: FlowIdArray,
        lengths: npt.NDArray[np.int64] | None = None,
    ) -> None:
        """Feed a batch of packets (flow IDs) through the online phase.

        With ``lengths`` (per-packet byte counts, aligned with
        ``packets``) the instance measures flow *volume* instead of
        flow size — Section 3.1's "counted in either packets or
        bytes". Size the config accordingly: ``entry_capacity`` and
        ``counter_capacity`` must then hold byte totals.
        """
        if self._finalized:
            raise QueryError("cannot process packets after finalize()")
        with self.metrics.timer("caesar.process"):
            if self.engine == "scalar":
                self.cache.process(packets, self._sink_fn, weights=lengths)
            else:
                self.cache.process_into(
                    packets, self._buffer, self._drain_fn, weights=lengths
                )
        self._packets_seen += len(packets)
        self._mass_seen += int(lengths.sum()) if lengths is not None else len(packets)

    def finalize(self) -> None:
        """Dump all resident cache entries to SRAM (end of measurement).

        Idempotent; must be called before :meth:`estimate`.
        """
        if self._finalized:
            return
        with self.metrics.timer("caesar.finalize"):
            if self.engine == "scalar":
                self.cache.dump(self._sink_fn)
            else:
                self.cache.dump_into(self._buffer, self._drain_fn)
        self._finalized = True
        if self._wal is not None:
            self._wal.flush()
        observe_cache_stats(self.metrics, self.cache.stats, "caesar.cache")
        observe_scheme(self.metrics, self, "caesar")
        observe_health(self.metrics, self, "caesar")

    # -- query phase -------------------------------------------------------------

    @property
    def num_packets(self) -> int:
        """Packets processed so far."""
        return self._packets_seen

    @property
    def recorded_mass(self) -> int:
        """Total counted units — packets, or bytes when measuring volume.

        This is the ``n = Q * mu`` the estimators de-noise with.
        """
        return self._mass_seen

    @property
    def effective_mass(self) -> int:
        """Mass actually landed in the counters.

        Equals :attr:`recorded_mass` on the healthy path; under fault
        injection the injector's net delta (duplicated − lost ± flips)
        is applied, so estimator de-noising subtracts the noise that is
        really there rather than the noise that should have been — the
        degraded-mode compensation of docs/resilience.md.
        """
        if self._injector is None:
            return self._mass_seen
        return max(self._mass_seen + self._injector.mass_delta, 0)

    @property
    def checkpoint_lag(self) -> int:
        """Mass recorded since the last checkpoint (crash exposure)."""
        return self._mass_seen - self._last_checkpoint_mass

    @property
    def memory_bits(self) -> int:
        """Modeled footprint, paper accounting: on-chip cache count
        fields plus the off-chip SRAM counter array."""
        return self.cache.memory_bits(flow_id_bits=0) + self.counters.memory_bits

    def flows_seen(self) -> npt.NDArray[np.uint64]:
        """Every flow the cache ever evicted or dumped (after
        :meth:`finalize`: every flow that appeared in the stream)."""
        if self.engine != "scalar":
            return self._memo.flows()
        return np.fromiter(
            self._index_memo, dtype=np.uint64, count=len(self._index_memo)
        )

    def counter_values(self, flow_ids: FlowIdArray) -> npt.NDArray[np.int64]:
        """The raw mapped-counter values ``S_f[r]``, shape ``(F, k)``."""
        return self.counters.gather(self.indexer.indices(np.asarray(flow_ids, np.uint64)))

    def estimate(
        self,
        flow_ids: FlowIdArray,
        method: str = "csm",
        *,
        clip_negative: bool = False,
        compensate: bool = True,
    ) -> npt.NDArray[np.float64]:
        """Estimate the size of each queried flow (offline query phase).

        ``method`` is ``"csm"`` (default, as the paper chooses),
        ``"mlm"``, or ``"median"`` (robust counter-median, a library
        extension — see :func:`repro.core.csm.counter_median_estimate`).
        Raises :class:`QueryError` if :meth:`finalize` has not been
        called — querying with values still in the cache would silently
        under-count.

        Under fault injection the de-noising mass defaults to
        :attr:`effective_mass` (known-lost mass subtracted, duplicated
        mass added); ``compensate=False`` de-noises with the raw
        recorded mass instead — the uncompensated estimator the fault
        sweep compares against. Without an injector the two are equal.
        """
        if not self._finalized:
            raise QueryError("call finalize() before estimating (offline query phase)")
        mass = self.effective_mass if compensate else self._mass_seen
        w = self.counter_values(flow_ids)
        if method == "csm":
            return csm_mod.csm_estimate(
                w, mass, self.config.bank_size, clip_negative=clip_negative
            )
        if method == "median":
            return csm_mod.counter_median_estimate(
                w, mass, self.config.bank_size, clip_negative=clip_negative
            )
        if method == "mlm":
            return mlm_mod.mlm_estimate(
                w,
                mass,
                self.config.bank_size,
                entry_capacity=self.config.entry_capacity,
                clip_negative=clip_negative,
            )
        raise ConfigError(
            f"unknown estimation method {method!r}; use 'csm', 'mlm', or 'median'"
        )

    def estimate_online(
        self,
        flow_ids: FlowIdArray,
        *,
        clip_negative: bool = True,
    ) -> npt.NDArray[np.float64]:
        """Approximate point query *during* the construction phase
        (library extension — the paper's query phase is strictly offline).

        Combines what has already been flushed to SRAM (CSM-decoded
        against the flushed mass only) with the flow's still-cached
        residue — one vectorized gather against the cache's resident
        table — so a monitoring loop can watch flows grow without
        stopping the measurement.
        """
        flow_ids = np.asarray(flow_ids, dtype=np.uint64)
        w = self.counter_values(flow_ids)
        flushed_mass = self.counters.total_mass
        est = csm_mod.csm_estimate(
            w, flushed_mass, self.config.bank_size, clip_negative=False
        )
        est = est + self.cache.resident_values(flow_ids)
        return np.maximum(est, 0.0) if clip_negative else est

    def reset(self) -> None:
        """Clear all measurement state for a fresh epoch.

        The hash mapping (and therefore each flow's k counters) is
        preserved — Section 3.1's fixed mapping — but counters, cache,
        statistics, and the recorded-mass accounting start over.
        """
        if self.engine == "scalar":
            self.cache.dump(lambda fid, value, reason: None)
        else:
            self.cache.dump_into(self._buffer, _discard_drain)
        self.cache.reset_stats()
        self.counters.reset()
        self._packets_seen = 0
        self._mass_seen = 0
        self._finalized = False
        self._last_checkpoint_mass = 0
        self._epoch += 1
        if self._wal is not None:
            self._wal.begin_epoch(self._epoch)

    # -- crash consistency ---------------------------------------------------

    def checkpoint(self):
        """Capture a crash-consistent snapshot of this instance.

        Returns a :class:`repro.resilience.checkpoint.Checkpoint`
        covering *everything* construction depends on — counters, cache
        contents and policy order, generator states, index memo,
        statistics, the pending eviction chunk, and fault-injector
        state — so a :meth:`resume` continues bit-identically. An
        attached WAL is flushed first so the checkpoint's replay cursor
        (``wal_seq``) points at durable records.
        """
        from repro.resilience.checkpoint import Checkpoint

        if self._wal is not None:
            self._wal.flush()
        ckpt = Checkpoint.capture(self)
        self._last_checkpoint_mass = self._mass_seen
        return ckpt

    def save_checkpoint(self, path, *, level: int = 1):
        """:meth:`checkpoint` + :meth:`~repro.resilience.checkpoint.Checkpoint.save`.

        Returns the path actually written (``.npz`` appended if absent).
        """
        return self.checkpoint().save(path, level=level)

    @classmethod
    def resume(
        cls,
        source,
        *,
        registry: MetricsRegistry | None = None,
        wal: WriteAheadLog | None = None,
    ) -> "Caesar":
        """Rebuild an instance from a checkpoint (path or object).

        The resumed instance is bit-identical to the captured one:
        feeding it the remainder of the stream produces the same
        counters, statistics, and estimates as a run that was never
        interrupted (tests/test_resilience.py property-tests this at
        every chunk boundary, on both engines).
        """
        from repro.resilience.checkpoint import Checkpoint

        ckpt = source if isinstance(source, Checkpoint) else Checkpoint.load(source)
        return ckpt.restore(registry=registry, wal=wal)

    def confidence_interval(
        self,
        flow_ids: FlowIdArray,
        method: str = "csm",
        alpha: float = 0.95,
        variance_model: str = "paper",
    ) -> tuple[npt.NDArray[np.float64], npt.NDArray[np.float64]]:
        """Confidence interval for each queried flow.

        ``variance_model="paper"`` uses the published Eqs. 26/32;
        ``variance_model="empirical"`` (CSM only, library extension)
        estimates the per-counter noise from the deployed array — the
        variant whose coverage actually approaches ``alpha`` on
        heavy-tailed traffic (see EXPERIMENTS.md).
        """
        est = self.estimate(flow_ids, method, clip_negative=False)
        if variance_model == "empirical":
            if method != "csm":
                raise ConfigError("empirical intervals are defined for CSM only")
            return csm_mod.empirical_confidence_interval(
                est, self.counters.values, k=self.config.k, alpha=alpha
            )
        if variance_model != "paper":
            raise ConfigError(
                f"unknown variance_model {variance_model!r}; use 'paper' or 'empirical'"
            )
        kwargs = dict(
            k=self.config.k,
            entry_capacity=self.config.entry_capacity,
            bank_size=self.config.bank_size,
            num_packets=self.effective_mass,
            alpha=alpha,
        )
        if method == "csm":
            return csm_mod.csm_confidence_interval(est, **kwargs)
        if method == "mlm":
            return mlm_mod.mlm_confidence_interval(est, **kwargs)
        raise ConfigError(f"unknown estimation method {method!r}; use 'csm' or 'mlm'")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "finalized" if self._finalized else f"{self._packets_seen} packets"
        return f"Caesar({self.config.describe()}, {self.engine}, {state})"
