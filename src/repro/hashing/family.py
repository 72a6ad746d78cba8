"""Seeded hash families and banked counter-index derivation.

A :class:`HashFamily` holds ``k`` independent hash functions derived
from one master seed; a :class:`BankedIndexer` specializes the family to
the banked SRAM layout described in DESIGN.md: the SRAM is organized as
``k`` banks of ``bank_size`` counters, and hash ``r`` selects flow
``f``'s counter inside bank ``r``. Distinct banks make the ``k`` mapped
counters collision-free by construction, exactly realizing the paper's
"k different collision-free hash functions".

Both scalar and batched (whole flow-ID array) lookups are provided; the
batched path returns a ``(num_flows, k)`` matrix of *global* counter
indices and is what the query phase and the vectorized update paths use.
"""

from __future__ import annotations

import numpy as np
import numpy.typing as npt

from repro.cachesim.kernel import MemoIndex
from repro.errors import ConfigError
from repro.hashing import mix


class HashFamily:
    """``k`` independent 64-bit hash functions derived from one seed.

    Function ``r`` is ``h_r(x) = splitmix64(seed_r ^ x)`` where the
    per-function seeds are themselves produced by iterating splitmix64
    on the master seed, so families with different master seeds or
    different ``r`` are (empirically) independent.
    """

    def __init__(self, k: int, seed: int = 0x5EED) -> None:
        if k < 1:
            raise ConfigError(f"hash family needs k >= 1, got {k}")
        self.k = int(k)
        self.seed = int(seed)
        # Derive one well-mixed sub-seed per function.
        s = self.seed
        seeds = []
        for _ in range(self.k):
            s = mix.splitmix64(s)
            seeds.append(s)
        self._seeds = tuple(seeds)
        self._seed_arr = np.array(seeds, dtype=np.uint64)

    @property
    def seeds(self) -> tuple[int, ...]:
        """The per-function seeds: ``h_r(x) = splitmix64(seeds[r] ^ x)``."""
        return self._seeds

    def hash_one(self, r: int, x: int) -> int:
        """Apply function ``r`` to a single value."""
        return mix.combine(self._seeds[r], x)

    def hash_array(self, r: int, x: npt.NDArray[np.uint64]) -> npt.NDArray[np.uint64]:
        """Apply function ``r`` elementwise to an array of values."""
        return mix.combine_array(self._seeds[r], x)

    def hash_all(self, x: npt.NDArray[np.uint64]) -> npt.NDArray[np.uint64]:
        """Apply all ``k`` functions to an array; returns shape ``(len(x), k)``."""
        x = np.asarray(x, dtype=np.uint64)
        with np.errstate(over="ignore"):
            # Broadcast (n, 1) ^ (k,) -> (n, k), then mix elementwise.
            return mix.splitmix64_array(x[:, None] ^ self._seed_arr[None, :])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"HashFamily(k={self.k}, seed={self.seed:#x})"


class BankedIndexer:
    """Maps flow IDs to ``k`` distinct counters in a banked array.

    Bank ``r`` occupies global indices ``[r * bank_size, (r+1) * bank_size)``.
    Flow ``f``'s counter in bank ``r`` is ``r * bank_size + h_r(f) % bank_size``.
    """

    def __init__(self, k: int, bank_size: int, seed: int = 0x5EED) -> None:
        if bank_size < 1:
            raise ConfigError(f"bank_size must be >= 1, got {bank_size}")
        self.family = HashFamily(k, seed)
        self.k = int(k)
        self.bank_size = int(bank_size)
        self.total_counters = self.k * self.bank_size
        self._offsets = (np.arange(self.k, dtype=np.int64) * self.bank_size)

    def indices_one(self, flow_id: int) -> np.ndarray:
        """The ``k`` global counter indices for one flow (int64, shape (k,))."""
        out = np.empty(self.k, dtype=np.int64)
        for r in range(self.k):
            out[r] = r * self.bank_size + self.family.hash_one(r, flow_id) % self.bank_size
        return out

    def indices(self, flow_ids: npt.NDArray[np.uint64]) -> npt.NDArray[np.int64]:
        """Global counter indices for many flows; shape ``(len(flow_ids), k)``.

        Row ``i`` holds flow ``i``'s counters ordered by bank; all k are
        distinct because banks are disjoint.
        """
        h = self.family.hash_all(np.asarray(flow_ids, dtype=np.uint64))
        local = (h % np.uint64(self.bank_size)).astype(np.int64)
        return local + self._offsets[None, :]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BankedIndexer(k={self.k}, bank_size={self.bank_size}, "
            f"total={self.total_counters}, seed={self.family.seed:#x})"
        )


class BankedIndexMemo:
    """Growing array-backed memo of flow → k-counter mappings.

    The batched construction engine's replacement for the per-flow
    ``dict[int, ndarray]`` memo of the scalar reference: mapped-counter
    rows live in one contiguous ``(capacity, k)`` int64 table (doubled
    amortized), and a compiled open-addressing index
    (:class:`~repro.cachesim.kernel.MemoIndex`) maps flow IDs to rows. A
    drained eviction chunk resolves to counter indices with one kernel
    probe, one vectorized hash of the flows it saw first, and one 2-D
    gather — no per-eviction hashing. The indexer stays the only hash
    implementation, so banked and tabulation families both work.

    Flows are mapped to k *fixed* counters for the whole measurement
    (Section 3.1), so the memo doubles as the record of every flow the
    cache ever evicted or dumped (:meth:`flows`), in first-seen order —
    the scalar engine's dict order.
    """

    def __init__(self, indexer: BankedIndexer, initial_capacity: int = 1024) -> None:
        if initial_capacity < 1:
            raise ConfigError(f"initial_capacity must be >= 1, got {initial_capacity}")
        self.indexer = indexer
        self._initial_capacity = initial_capacity
        # Both allocated on first use: the scalar engine builds a memo
        # it never uses, and a fabric builds one per vantage.
        self._index: MemoIndex | None = None
        self._table: npt.NDArray[np.int64] | None = None

    def __len__(self) -> int:
        """Number of distinct flows memoized."""
        return 0 if self._index is None else len(self._index)

    def _rows(self, flow_ids: npt.NDArray[np.uint64]) -> npt.NDArray[np.int64]:
        """Each flow's table row, memoizing unseen flows in
        first-occurrence order."""
        if self._index is None:
            self._index = MemoIndex(self._initial_capacity)
            self._table = np.empty((self._initial_capacity, self.indexer.k), dtype=np.int64)
        base = len(self._index)
        rows = self._index.rows(flow_ids)
        length = len(self._index)
        if length > base:
            if length > len(self._table):
                capacity = len(self._table)
                while capacity < length:
                    capacity *= 2
                table = np.empty((capacity, self.indexer.k), dtype=np.int64)
                table[:base] = self._table[:base]
                self._table = table
            self._table[base:length] = self.indexer.indices(self._index.ids()[base:])
        return rows

    def indices_for(self, flow_ids: npt.NDArray[np.uint64]) -> npt.NDArray[np.int64]:
        """Global counter indices for a batch of (possibly repeated)
        flow IDs; shape ``(len(flow_ids), k)``, rows ordered by bank."""
        rows = self._rows(flow_ids)  # may grow the table
        return self._table[rows]

    def preload(self, flow_ids: npt.NDArray[np.uint64]) -> None:
        """Bulk-insert flows in the given order (checkpoint restore).

        ``flow_ids`` must be distinct and not yet memoized — exactly the
        shape :meth:`flows` returns — so a resumed instance reproduces
        both the mapping *and* the first-seen ordering of the original.
        A rejected batch leaves the memo unchanged.
        """
        flow_ids = np.asarray(flow_ids, dtype=np.uint64)
        if len(flow_ids) == 0:
            return
        if len(np.unique(flow_ids)) != len(flow_ids) or np.isin(flow_ids, self.flows()).any():
            raise ConfigError("preload requires distinct, unseen flow IDs")
        self._rows(flow_ids)

    def flows(self) -> npt.NDArray[np.uint64]:
        """Every flow ID memoized so far, in first-seen order."""
        if self._index is None:
            return np.empty(0, dtype=np.uint64)
        return self._index.ids().copy()

    def __getstate__(self) -> dict:
        return {
            "indexer": self.indexer,
            "initial_capacity": self._initial_capacity,
            "flows": self.flows(),
        }

    def __setstate__(self, saved: dict) -> None:
        self.__init__(saved["indexer"], saved["initial_capacity"])
        self.preload(saved["flows"])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BankedIndexMemo({len(self)} flows, {self.indexer!r})"
