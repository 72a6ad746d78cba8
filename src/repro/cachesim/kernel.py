"""Compiled flow-cache kernel: build, load, and the resident table.

The batched cache loop (:meth:`~repro.cachesim.cache.FlowCache.process_into`)
runs in C (``_kernel.c``) over a :class:`ResidentTable`: numpy arrays
holding flow ids and counts per slot (resident entries fill slots
``[0, size)``; for random replacement the slots are
:class:`RandomPolicy`'s position array), insertion-order links (the
scalar path's dict order, which fixes final-dump and checkpoint order),
LRU recency links, and an open-addressing index.

The kernel returns whenever an eviction row fills the
:class:`~repro.cachesim.buffer.EvictionBuffer`, so the drain runs in
Python between calls; a return can fall between a victim's row and the
new flow's insert, and the next call reruns that packet, which misses
again and takes the freed room.

Random victims: a victim is drawn only when the table is full, so every
draw is ``integers(M)`` with the same ``M``. A copy of the policy's
generator draws a look-ahead block per chunk; afterwards the real
generator draws exactly as many as the kernel used. numpy gives the
same values and generator state for ``integers(M, size=c)`` as for
``c`` scalar calls, so victims and generator state match the scalar
path (``tests/test_cachesim_runs.py`` pins that).

:class:`MemoIndex` reuses the table's ids array, index and probe for
the batched drain's flow → row memo
(:class:`~repro.hashing.family.BankedIndexMemo`): ``fc_rows`` resolves
a drained chunk's flow ids to rows and appends unseen ids in
first-occurrence order, and ``fc_land`` does the same while it adds
every row's split value to the flow's counters, hashing each appended
flow's counters with a copy of the
:class:`~repro.hashing.family.BankedIndexer` formula.

:class:`RouteTable` is the multi-vantage fabric's router
(:mod:`repro.fabric.topology`): ``fr_pairs`` hashes flows to their
attachment pairs and counts each pair's packets, and ``fr_route``
writes every node's observed substream of a chunk, sampling included.
:class:`ShardTable` is a shard map's copy
(:class:`~repro.runtime.partitioner.ShardMap`): ``sm_owners`` hashes
flows to their owners and counts each shard's packets, and
``fr_route`` over one-node routes scatters a chunk by shard.

Importing this module compiles ``_kernel.c`` with the system C compiler
into the per-user cache directory, keyed by a hash of the source, the
compiler, the flags and the machine type, and published atomically
(compile to a temporary name, then rename); later imports only load it
with :mod:`ctypes`. If the build fails the import still succeeds (the
scalar path needs no kernel), but the batched path, the fabric router
and the partition of a multi-shard map raise
:class:`~repro.errors.KernelBuildError` with the compiler's message.
docs/performance.md has the full layout and argument.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import subprocess
import tempfile
from pathlib import Path
from typing import Callable

import numpy as np
import numpy.typing as npt

from repro.cachesim.base import CachePolicy
from repro.cachesim.buffer import EvictionBuffer
from repro.cachesim.lru import LRUPolicy
from repro.cachesim.random_replace import RandomPolicy
from repro.errors import ConfigError, KernelBuildError

SOURCE = Path(__file__).with_name("_kernel.c")
COMPILER = "cc"
CFLAGS = ("-O3", "-std=c99", "-shared", "-fPIC")

_I64 = ctypes.c_int64
_U64 = ctypes.c_uint64
_PTR = ctypes.c_void_p
_NIL = -1
_NO_DRAWS = np.empty(0, dtype=np.int64)


class _Table(ctypes.Structure):
    """Mirror of the C ``Table`` (field order must match ``_kernel.c``)."""

    _fields_ = [
        (name, _I64)
        for name in "num_entries capacity random index_shift index_mask size"
        " order_head order_tail lru_head lru_tail".split()
    ] + [
        (name, _PTR)
        for name in "ids counts order_prev order_next lru_prev lru_next index".split()
    ]


class _Chunk(ctypes.Structure):
    """Mirror of the C ``Chunk``: one call's input, cursor and output."""

    _fields_ = [
        ("packets", _PTR),
        ("weights", _PTR),
        ("n", _I64),
        ("pos", _I64),
        ("hits", _I64),
        ("draws", _PTR),
        ("draws_len", _I64),
        ("draws_used", _I64),
        ("out_ids", _PTR),
        ("out_values", _PTR),
        ("out_reasons", _PTR),
        ("out_len", _I64),
        ("out_cap", _I64),
    ]


class _Land(ctypes.Structure):
    """Mirror of the C ``Land``: one drained chunk, the memo's counter
    rows, the SRAM, and the clipped mass out."""

    _fields_ = [
        ("k", _I64),
        ("bank_size", _I64),
        ("seeds", _PTR),
        ("indices", _PTR),
        ("counters", _PTR),
        ("capacity", _I64),
        ("ids", _PTR),
        ("values", _PTR),
        ("n", _I64),
        ("random", _I64),
        ("slots", _PTR),
        ("clipped", _I64),
    ]


class _Routes(ctypes.Structure):
    """Mirror of the C ``Routes``: attachment hashes and the CSR route table."""

    _fields_ = [
        ("entry_seed", _U64),
        ("exit_seed", _U64),
        ("num_entries", _U64),
        ("num_exits", _U64),
        ("route_start", _PTR),
        ("route_nodes", _PTR),
    ]


class _Shards(ctypes.Structure):
    """Mirror of the C ``Shards``: a shard map's hash seeds and split chain."""

    _fields_ = [
        ("num_base", _U64),
        ("num_splits", _I64),
        ("seeds", _PTR),
        ("donors", _PTR),
    ]


def _cache_dir() -> Path:
    """The per-user build cache (``$XDG_CACHE_HOME/repro``, by default
    ``~/.cache/repro``; a private temp directory if that is read-only)."""
    base = os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache"
    path = Path(base) / "repro"
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError:
        path = Path(tempfile.gettempdir()) / f"repro-{os.getuid()}"
        path.mkdir(mode=0o700, exist_ok=True)
    return path


def build() -> Path:
    """Compile the kernel into the build cache unless it is already
    there; returns the shared object's path."""
    source = SOURCE.read_bytes()
    key = hashlib.sha256(
        b"\0".join(
            (source, COMPILER.encode(), " ".join(CFLAGS).encode(), platform.machine().encode())
        )
    ).hexdigest()[:16]
    target = _cache_dir() / f"flowcache-{key}.so"
    if target.exists():
        return target
    fd, tmp = tempfile.mkstemp(prefix=".flowcache-", suffix=".so", dir=target.parent)
    os.close(fd)
    try:
        try:
            proc = subprocess.run(
                [COMPILER, *CFLAGS, "-o", tmp, "-x", "c", "-"],
                input=source,
                capture_output=True,
            )
        except OSError as exc:
            raise KernelBuildError(f"cannot run the C compiler {COMPILER!r}: {exc}") from exc
        if proc.returncode != 0:
            raise KernelBuildError(
                f"{COMPILER} failed to compile {SOURCE.name} (exit {proc.returncode}):\n"
                + proc.stderr.decode(errors="replace").strip()
            )
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return target


def _load() -> tuple[ctypes.CDLL | None, str]:
    try:
        lib = ctypes.CDLL(str(build()))
    except (KernelBuildError, OSError) as exc:
        return None, str(exc)
    table, chunk = ctypes.POINTER(_Table), ctypes.POINTER(_Chunk)
    lib.fc_run.argtypes = (table, chunk)
    lib.fc_run.restype = _I64
    lib.fc_clear.argtypes = (table,)
    lib.fc_clear.restype = None
    lib.fc_load.argtypes = (table, _PTR, _PTR, _I64, _PTR)
    lib.fc_load.restype = _I64
    lib.fc_export.argtypes = (table, _PTR, _PTR, _PTR)
    lib.fc_export.restype = None
    lib.fc_rows.argtypes = (table, _PTR, _I64, _PTR)
    lib.fc_rows.restype = None
    lib.fc_land.argtypes = (table, ctypes.POINTER(_Land))
    lib.fc_land.restype = _I64
    routes = ctypes.POINTER(_Routes)
    lib.fr_pairs.argtypes = (routes, _PTR, _I64, _PTR, _PTR)
    lib.fr_pairs.restype = None
    lib.fr_route.argtypes = (routes, _PTR, _PTR, _I64, _U64, _PTR, _PTR, _PTR, _PTR, _PTR, _PTR)
    lib.fr_route.restype = None
    lib.sm_owners.argtypes = (ctypes.POINTER(_Shards), _PTR, _I64, _PTR, _PTR)
    lib.sm_owners.restype = None
    return lib, ""


_LIB, _BUILD_ERROR = _load()

#: Most flows a :class:`MemoIndex` holds (its int32 index stores row + 1).
MAX_MEMO_FLOWS = 2**30


def _require_kernel(user: str) -> None:
    if _LIB is None:
        raise KernelBuildError(
            f"{user} needs the compiled flow-cache kernel, "
            f"which could not be built:\n{_BUILD_ERROR}"
        )


class ResidentTable:
    """A flow cache's resident entries in the kernel's layout.

    Allocated on first batched use (construction stays as cheap as an
    empty dict). Its canonical form is :meth:`export_state`, the same
    document :meth:`FlowCache.export_state` produces on the scalar path.
    """

    def __init__(self, num_entries: int, entry_capacity: int, policy: CachePolicy) -> None:
        _require_kernel("the batched cache engine")
        if isinstance(policy, RandomPolicy):
            self._random = True
        elif isinstance(policy, LRUPolicy):
            self._random = False
        else:
            raise ConfigError(
                "the batched cache engine supports LRU and random replacement, "
                f"not {type(policy).__name__}"
            )
        if num_entries >= 2**30:
            raise ConfigError(f"the batched cache engine holds < 2**30 entries, got {num_entries}")
        self.num_entries = num_entries
        self.entry_capacity = entry_capacity
        self._policy = policy
        bits = max(1, (2 * num_entries - 1).bit_length())
        links = () if self._random else ("lru_prev", "lru_next")
        self._arrays = {
            "ids": np.empty(num_entries, dtype=np.uint64),
            "counts": np.empty(num_entries, dtype=np.int64),
            **{
                name: np.empty(num_entries, dtype=np.int32)
                for name in ("order_prev", "order_next", *links)
            },
            "index": np.zeros(1 << bits, dtype=np.int32),
        }
        state = _Table(
            num_entries=num_entries,
            capacity=entry_capacity,
            random=self._random,
            index_shift=64 - bits,
            index_mask=(1 << bits) - 1,
            size=0,
            order_head=_NIL,
            order_tail=_NIL,
            lru_head=_NIL,
            lru_tail=_NIL,
        )
        for name, array in self._arrays.items():
            setattr(state, name, array.ctypes.data)
        self._state = state
        self._state_ref = ctypes.pointer(state)
        self._chunk = _Chunk()
        self._chunk_ref = ctypes.pointer(self._chunk)
        if self._random:
            self._shadow = np.random.Generator(type(policy.rng.bit_generator)())

    @property
    def size(self) -> int:
        return self._state.size

    def live(self) -> tuple[npt.NDArray[np.uint64], npt.NDArray[np.int64]]:
        """Views of the resident ids and counts, in slot order."""
        n = self._state.size
        return self._arrays["ids"][:n], self._arrays["counts"][:n]

    def _draws(self, n_packets: int) -> npt.NDArray[np.int64]:
        """Look-ahead victim slots for one chunk, drawn on a copy of
        the policy's generator: at most one per packet that can miss a
        full table."""
        need = n_packets - (self.num_entries - self._state.size)
        if not self._random or need <= 0:
            return _NO_DRAWS
        self._shadow.bit_generator.state = self._policy.rng.bit_generator.state
        return self._shadow.integers(self.num_entries, size=need)

    def run(
        self,
        packets: npt.NDArray[np.uint64],
        weights: npt.NDArray[np.int64] | None,
        buffer: EvictionBuffer,
        flush: Callable[[], None],
    ) -> int:
        """Feed one chunk through the kernel, calling ``flush`` whenever
        the buffer fills; returns the number of hits."""
        chunk = self._chunk
        chunk.packets = packets.ctypes.data
        chunk.weights = weights.ctypes.data if weights is not None else None
        chunk.n = len(packets)
        chunk.pos = chunk.hits = chunk.draws_used = 0
        draws = self._draws(len(packets))
        chunk.draws = draws.ctypes.data
        chunk.draws_len = len(draws)
        chunk.out_ids = buffer.ids.ctypes.data
        chunk.out_values = buffer.values.ctypes.data
        chunk.out_reasons = buffer.reasons.ctypes.data
        chunk.out_cap = buffer.capacity
        try:
            if buffer.is_full:
                flush()
            while True:
                chunk.out_len = buffer.length
                status = _LIB.fc_run(self._state_ref, self._chunk_ref)
                buffer.length = chunk.out_len
                if status == 0:
                    return chunk.hits
                if status < 0:
                    raise RuntimeError("flow-cache kernel ran out of look-ahead victim draws")
                flush()
        finally:
            if chunk.draws_used:
                # Advance the real generator past exactly the draws used.
                self._policy.rng.integers(self.num_entries, size=chunk.draws_used)

    def clear(self) -> None:
        _LIB.fc_clear(self._state_ref)

    def export_state(self) -> dict:
        """Entries in insertion order plus the policy's state, in the
        policy's own :meth:`export_state` format."""
        n = self._state.size
        ids = np.empty(n, dtype=np.uint64)
        counts = np.empty(n, dtype=np.int64)
        order = np.empty(n, dtype=np.uint64)
        _LIB.fc_export(self._state_ref, ids.ctypes.data, counts.ctypes.data, order.ctypes.data)
        policy = self._policy.export_state()  # empty while the table holds the entries
        policy["order"] = order.tolist()
        return {"ids": ids, "counts": counts, "policy": policy}

    def load(self, state: dict) -> None:
        """Inverse of :meth:`export_state` (the generator state stays
        with the policy object)."""
        ids = np.ascontiguousarray(state["ids"], dtype=np.uint64)
        counts = np.ascontiguousarray(state["counts"], dtype=np.int64)
        order = np.ascontiguousarray(state["policy"]["order"], dtype=np.uint64)
        if (
            len(counts) != len(ids)
            or len(order) != len(ids)
            or _LIB.fc_load(
                self._state_ref, ids.ctypes.data, counts.ctypes.data, len(ids), order.ctypes.data
            )
        ):
            self.clear()
            raise ConfigError("inconsistent cache state: ids, counts and policy order disagree")

    def __getstate__(self) -> dict:
        return {
            "num_entries": self.num_entries,
            "entry_capacity": self.entry_capacity,
            "policy": self._policy,
            "state": self.export_state(),
        }

    def __setstate__(self, saved: dict) -> None:
        self.__init__(saved["num_entries"], saved["entry_capacity"], saved["policy"])
        self.load(saved["state"])


class MemoIndex:
    """Distinct flow ids in first-seen order under an int32
    open-addressing index: row ``i`` is the ``i``-th distinct id
    :meth:`rows` saw.

    The ids array and index have the resident table's layout (only the
    ``ids``, ``index`` and ``size`` fields of the C ``Table`` are used)
    and double together, keeping the index at most half full.
    """

    def __init__(self, capacity: int) -> None:
        _require_kernel("the batched index memo")
        self._state = _Table()
        self._state_ref = ctypes.pointer(self._state)
        self._land = _Land()
        self._land_ref = ctypes.pointer(self._land)
        self._ids = np.empty(0, dtype=np.uint64)
        self._reindex(capacity)

    def __len__(self) -> int:
        return self._state.size

    def ids(self) -> npt.NDArray[np.uint64]:
        """The ids in row order (a view)."""
        return self._ids[: self._state.size]

    def reserve(self, n: int) -> None:
        """Room for ``n`` more ids, so a kernel call never has to stop."""
        needed = self._state.size + n
        if needed > len(self._ids):
            if needed > MAX_MEMO_FLOWS:
                raise ConfigError(
                    f"the batched index memo holds at most 2**30 flows, would need {needed}"
                )
            capacity = max(1, len(self._ids))
            while capacity < needed:
                capacity *= 2
            self._reindex(capacity)

    def rows(self, flow_ids: npt.NDArray[np.uint64]) -> npt.NDArray[np.int64]:
        """Each id's row, appending unseen ids in first-occurrence order."""
        flow_ids = np.ascontiguousarray(flow_ids, dtype=np.uint64)
        n = len(flow_ids)
        self.reserve(n)
        rows = np.empty(n, dtype=np.int64)
        _LIB.fc_rows(self._state_ref, flow_ids.ctypes.data, n, rows.ctypes.data)
        return rows

    def land(
        self,
        indices: npt.NDArray[np.int64],
        seeds: npt.NDArray[np.uint64] | None,
        bank_size: int,
        flow_ids: npt.NDArray[np.uint64],
        values: npt.NDArray[np.int64],
        slots: npt.NDArray[np.int64] | None,
        counters: npt.NDArray[np.int64],
        capacity: int,
    ) -> int:
        """Add each row's value, split over its flow's ``k`` counters,
        to ``counters``; returns the mass clipped at ``capacity``.

        Row ``i``'s flow is found or appended as :meth:`rows` does, and
        ``indices`` (shape ``(rows, k)``) holds each memo row's
        counters: an appended flow's come from ``seeds`` and
        ``bank_size``, so ``indices`` needs a row for every id being
        new. With ``seeds=None`` every id must already be here. A value
        ``p * k + q`` adds ``p`` to each counter and one unit per
        remainder slot: the next ``q`` of ``slots`` (every row's, in
        draw order), or the first ``q`` counters when ``slots`` is
        None. Values must be ``>= 0``, and every index in ``indices``
        must be inside ``counters``.
        """
        flow_ids = np.ascontiguousarray(flow_ids, dtype=np.uint64)
        values = np.ascontiguousarray(values, dtype=np.int64)
        if len(values) != len(flow_ids):
            raise ValueError("values must align with flow_ids")
        if slots is not None:
            slots = np.ascontiguousarray(slots, dtype=np.int64)
        if seeds is not None:
            self.reserve(len(flow_ids))
            if len(indices) < self._state.size + len(flow_ids):
                raise ValueError("indices needs a row for every id being new")
        land = self._land
        land.k = indices.shape[1]
        land.bank_size = bank_size
        land.seeds = _address(seeds)
        land.indices = indices.ctypes.data
        land.counters = counters.ctypes.data
        land.capacity = capacity
        land.ids = flow_ids.ctypes.data
        land.values = values.ctypes.data
        land.n = len(flow_ids)
        land.random = slots is not None
        land.slots = _address(slots)
        if _LIB.fc_land(self._state_ref, self._land_ref):
            raise RuntimeError("fc_land met a flow the index memo does not hold")
        return land.clipped

    def _reindex(self, capacity: int) -> None:
        """Reallocate for ``capacity`` ids and index the held ones again."""
        held = self.ids()
        bits = (2 * capacity - 1).bit_length()
        self._ids = np.empty(capacity, dtype=np.uint64)
        self._index = np.zeros(1 << bits, dtype=np.int32)
        state = self._state
        state.index_shift = 64 - bits
        state.index_mask = (1 << bits) - 1
        state.size = 0
        state.ids = self._ids.ctypes.data
        state.index = self._index.ctypes.data
        if len(held):
            self.rows(held)


class RouteTable:
    """A topology's routes in the kernel's layout.

    Pair ``p``'s route is ``nodes[start[p]:start[p + 1]]`` (CSR, any
    number of nodes). A flow's pair is ``splitmix64(entry_seed ^ id) %
    num_entries * num_exits + splitmix64(exit_seed ^ id) % num_exits``.
    Building the table needs no kernel; using it does.
    """

    def __init__(
        self,
        entry_seed: int,
        exit_seed: int,
        num_entries: int,
        num_exits: int,
        num_nodes: int,
        routes: tuple[tuple[int, ...], ...],
    ) -> None:
        self._args = (entry_seed, exit_seed, num_entries, num_exits, num_nodes, routes)
        self.num_nodes = num_nodes
        self._start = np.zeros(len(routes) + 1, dtype=np.int64)
        np.cumsum([len(route) for route in routes], out=self._start[1:])
        self._nodes = np.fromiter(
            (node for route in routes for node in route), dtype=np.int64, count=self._start[-1]
        )
        # The pair each entry of _nodes belongs to.
        self._entry_pairs = np.repeat(np.arange(len(routes)), np.diff(self._start))
        self._routes = _Routes(
            entry_seed=entry_seed,
            exit_seed=exit_seed,
            num_entries=num_entries,
            num_exits=num_exits,
            route_start=self._start.ctypes.data,
            route_nodes=self._nodes.ctypes.data,
        )
        self._routes_ref = ctypes.pointer(self._routes)

    def __reduce__(self) -> tuple:
        # The ctypes view holds raw pointers: pickle the routes, rebuild it.
        return RouteTable, self._args

    def pairs(self, flow_ids: npt.NDArray[np.uint64]) -> npt.NDArray[np.int64]:
        """Each flow's attachment pair."""
        _require_kernel("the fabric router")
        flow_ids = np.ascontiguousarray(flow_ids, dtype=np.uint64)
        pairs = np.empty(len(flow_ids), dtype=np.int64)
        _LIB.fr_pairs(self._routes_ref, flow_ids.ctypes.data, len(pairs), pairs.ctypes.data, None)
        return pairs

    def route(
        self,
        packets: npt.NDArray[np.uint64],
        lengths: npt.NDArray[np.int64] | None,
        offset: int,
        sampling: tuple[npt.NDArray[np.uint64], npt.NDArray[np.uint64]] | None,
    ) -> list[tuple[npt.NDArray[np.uint64], npt.NDArray[np.int64] | None]]:
        """Every node's observed substream of one chunk, in stream order.

        Packet ``i``'s global index is ``offset + i``. ``sampling`` is
        ``(seeds, limits)``, one per node: node ``v`` keeps a packet iff
        ``splitmix64(seeds[v] ^ index) >> 11 < limits[v]``, and a limit
        of ``2**53`` keeps every packet. A first pass counts each pair's
        packets, which sizes each node's array (exactly, unless the node
        samples); the second fills them.
        """
        _require_kernel("the fabric router")
        packets = np.ascontiguousarray(packets, dtype=np.uint64)
        n = len(packets)
        if lengths is not None:
            if len(lengths) != n:
                raise ConfigError("lengths must align with packets")
            lengths = np.ascontiguousarray(lengths, dtype=np.int64)
        seeds = limits = None
        if sampling is not None:
            seeds, limits = (np.ascontiguousarray(a, dtype=np.uint64) for a in sampling)
            if len(seeds) != self.num_nodes or len(limits) != self.num_nodes:
                raise ConfigError(f"sampling needs one seed and limit per node ({self.num_nodes})")
        pairs = np.empty(n, dtype=np.int64)
        pair_counts = np.zeros(len(self._start) - 1, dtype=np.int64)
        _LIB.fr_pairs(
            self._routes_ref, packets.ctypes.data, n, pairs.ctypes.data, pair_counts.ctypes.data
        )
        # Each node's count: the counts of the pairs whose routes it is on.
        sizes = np.bincount(self._nodes, pair_counts[self._entry_pairs], self.num_nodes)
        return self._fill(packets, lengths, offset, pairs, sizes, seeds, limits)

    def _fill(
        self,
        packets: npt.NDArray[np.uint64],
        lengths: npt.NDArray[np.int64] | None,
        offset: int,
        pairs: npt.NDArray[np.int64],
        sizes: npt.NDArray,
        seeds: npt.NDArray[np.uint64] | None = None,
        limits: npt.NDArray[np.uint64] | None = None,
    ) -> list[tuple[npt.NDArray[np.uint64], npt.NDArray[np.int64] | None]]:
        """The fill pass of :meth:`route`, given each packet's pair and
        at least each node's row count."""
        # One array per node, so no allocation outgrows the chunk: one
        # buffer for every node held ~2 MB more peak RSS on PATH:6.
        out_ids = [np.empty(int(size), dtype=np.uint64) for size in sizes]
        out_lengths = (
            None if lengths is None else [np.empty(len(a), dtype=np.int64) for a in out_ids]
        )
        counts = np.zeros(self.num_nodes, dtype=np.int64)
        id_rows = _addresses(out_ids)
        length_rows = None if out_lengths is None else _addresses(out_lengths)
        _LIB.fr_route(
            self._routes_ref,
            packets.ctypes.data,
            _address(lengths),
            len(packets),
            offset,
            pairs.ctypes.data,
            _address(seeds),
            _address(limits),
            counts.ctypes.data,
            id_rows.ctypes.data,
            _address(length_rows),
        )
        return [
            (out_ids[v][:count], None if out_lengths is None else out_lengths[v][:count])
            for v, count in enumerate(counts.tolist())
        ]


class ShardTable:
    """A shard map in the kernel's layout
    (:class:`~repro.runtime.partitioner.ShardMap` is the model).

    Flow ``id``'s base owner is ``splitmix64(seeds[0] ^ id) % num_base``;
    split ``k`` then moves ``donors[k]``'s flows whose
    ``splitmix64(seeds[k + 1] ^ id)`` is odd to shard ``num_base + k``.
    Building the table needs no kernel; using it does.
    """

    def __init__(self, num_base: int, seeds: tuple[int, ...], donors: tuple[int, ...]) -> None:
        self.num_shards = num_base + len(donors)
        self._seeds = np.array(seeds, dtype=np.uint64)
        self._donors = np.array(donors, dtype=np.int64)
        self._shards = _Shards(
            num_base=num_base,
            num_splits=len(donors),
            seeds=self._seeds.ctypes.data,
            donors=self._donors.ctypes.data,
        )
        self._shards_ref = ctypes.pointer(self._shards)
        # A shard map is a one-hop route: shard s is pair s's only node.
        self._routes = RouteTable(
            0, 0, 1, self.num_shards, self.num_shards, tuple((s,) for s in range(self.num_shards))
        )

    def owners(
        self,
        flow_ids: npt.NDArray[np.uint64],
        counts: npt.NDArray[np.int64] | None = None,
    ) -> npt.NDArray[np.int64]:
        """Each flow's owner. ``counts`` (one zeroed int64 per shard),
        when given, also receives how many of the flows each shard owns."""
        _require_kernel("the stream partitioner")
        flow_ids = np.ascontiguousarray(flow_ids, dtype=np.uint64)
        owners = np.empty(len(flow_ids), dtype=np.int64)
        _LIB.sm_owners(
            self._shards_ref,
            flow_ids.ctypes.data,
            len(owners),
            owners.ctypes.data,
            _address(counts),
        )
        return owners

    def partition(
        self, packets: npt.NDArray[np.uint64], lengths: npt.NDArray[np.int64] | None
    ) -> list[tuple[npt.NDArray[np.uint64], npt.NDArray[np.int64] | None]]:
        """Every shard's packets of one chunk, and their lengths if
        ``lengths`` is given, in stream order. The owner pass counts
        each shard's packets, which sizes one fresh array per shard
        exactly; the route table's fill pass writes them."""
        packets = np.ascontiguousarray(packets, dtype=np.uint64)
        if lengths is not None:
            if len(lengths) != len(packets):
                raise ConfigError("lengths must align with packets")
            lengths = np.ascontiguousarray(lengths, dtype=np.int64)
        counts = np.zeros(self.num_shards, dtype=np.int64)
        owners = self.owners(packets, counts)
        return self._routes._fill(packets, lengths, 0, owners, counts)


def _address(array: np.ndarray | None) -> int | None:
    return None if array is None else array.ctypes.data


def _addresses(arrays: list[np.ndarray]) -> npt.NDArray[np.uintp]:
    """The arrays' data pointers, as a C pointer array."""
    return np.array([a.ctypes.data for a in arrays], dtype=np.uintp)
