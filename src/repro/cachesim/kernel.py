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

Importing this module compiles ``_kernel.c`` with the system C compiler
into the per-user cache directory, keyed by a hash of the source, the
compiler, the flags and the machine type, and published atomically
(compile to a temporary name, then rename); later imports only load it
with :mod:`ctypes`. If the build fails the import still succeeds (the
scalar path needs no kernel), but the batched path raises
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
    return lib, ""


_LIB, _BUILD_ERROR = _load()


class ResidentTable:
    """A flow cache's resident entries in the kernel's layout.

    Allocated on first batched use (construction stays as cheap as an
    empty dict). Its canonical form is :meth:`export_state`, the same
    document :meth:`FlowCache.export_state` produces on the scalar path.
    """

    def __init__(self, num_entries: int, entry_capacity: int, policy: CachePolicy) -> None:
        if _LIB is None:
            raise KernelBuildError(
                "the batched cache engine needs the compiled flow-cache kernel, "
                f"which could not be built:\n{_BUILD_ERROR}"
            )
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
