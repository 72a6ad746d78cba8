"""Crash-consistent checkpoint/restore for CAESAR instances.

The PR-0/PR-1 snapshot (:mod:`repro.sram.snapshot`) persists the SRAM
counters alone — enough to re-run the offline query phase, not enough
to *continue construction*: mid-measurement, flow state also lives in
the on-chip cache, the index memo, the split generator, the replacement
policy, and (on the batched engine) a partially-filled eviction
buffer. The compiled cache kernel holds no pending state of its own —
every ``process`` call runs its chunk to completion — so the captured
members cover both engines alike.
:class:`Checkpoint` captures every one of those, so a process killed at
any eviction-chunk boundary can :meth:`restore` and finish the stream
**bit-identically** to an uninterrupted run — same counters, same
statistics, same estimates, same generator states. The determinism
contract (and what it requires of each captured piece) is spelled out
in docs/resilience.md.

On disk a checkpoint is one ``.npz``: raw arrays for bulk state, two
JSON documents for structured state, and a SHA-256 digest over all of
it. Count-like arrays are deflated; hash-valued flow ids, which do not
compress, and the text members are stored (:func:`write_npz`).
:meth:`load` recomputes the digest, so truncation,
bit-rot, or a tampered member fails loudly as
:class:`~repro.errors.TraceFormatError` instead of resuming from
corrupt state.
"""

from __future__ import annotations

import hashlib
import io
import json
import zipfile
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from repro.core.config import CaesarConfig
from repro.errors import ConfigError, TraceFormatError
from repro.hashing.tabulation import TabulationIndexer
from repro.obs.registry import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.core.caesar import Caesar

#: Bumped on any incompatible change to the member layout.
#: v2: the digest normalizes the ``engine`` config field away, so
#: checkpoints of the same measurement state are digest-equal across
#: engines (the engine picks *how* state is computed, never *what*).
CHECKPOINT_FORMAT_VERSION = 2

#: Fixed member order for the digest (stability across numpy versions).
_ARRAY_MEMBERS = (
    "counter_values",
    "stuck_idx",
    "stuck_values",
    "cache_ids",
    "cache_counts",
    "memo_flows",
    "hist_values",
    "hist_counts",
    "pending_ids",
    "pending_values",
    "pending_reasons",
)

#: Members written uncompressed at every level. Flow ids are 64-bit
#: hashes, which zlib cannot shrink: deflating them was most of a
#: checkpoint write. The text members would halve, but at the end-to-end
#: benchmark's shard sizing deflating ``state_json`` (mostly the LRU
#: order) costs ~2.7 ms a write to save ~56 KiB.
_STORED_MEMBERS = frozenset(
    {"memo_flows", "cache_ids", "pending_ids", "config_json", "state_json", "digest"}
)

_STATS_FIELDS = (
    "accesses",
    "hits",
    "misses",
    "overflow_evictions",
    "replacement_evictions",
    "evicted_packets",
    "dumped_entries",
    "dumped_packets",
)


def write_npz(path: Path, members: dict[str, np.ndarray], level: int = 1) -> None:
    """Write ``members`` as a standard ``.npz``, deflating at zlib ``level``.

    Written through :mod:`zipfile` directly because
    ``np.savez_compressed`` hardwires zlib level 6 — on DRAM-scale
    counter banks that costs ~50% more CPU than level 1 for a few
    percent of compressed size — and deflates every member alike.
    Here the members named in ``_STORED_MEMBERS`` are always stored
    (``ZIP_STORED``) and the rest are deflated at ``level``;
    ``level=0`` stores everything, the cheapest option for the async
    write path where CPU spent compressing competes with ingest for
    cores.
    """
    if not 0 <= level <= 9:
        raise ConfigError(f"compression level must be in [0, 9], got {level}")
    with zipfile.ZipFile(path, "w") as zf:
        for name, arr in members.items():
            arr = np.asarray(arr)
            # NOT ascontiguousarray: it promotes 0-d members to 1-d (it
            # guarantees ndim >= 1), which breaks their round-trip as
            # scalars.
            if arr.ndim and not arr.flags.c_contiguous:
                arr = np.ascontiguousarray(arr)
            buf = io.BytesIO()
            np.lib.format.write_array(buf, arr, allow_pickle=False)
            if level == 0 or name in _STORED_MEMBERS:
                zf.writestr(f"{name}.npy", buf.getvalue(), zipfile.ZIP_STORED)
            else:
                zf.writestr(f"{name}.npy", buf.getvalue(), zipfile.ZIP_DEFLATED, level)


def _utf8(text: str) -> np.ndarray:
    return np.frombuffer(text.encode("utf-8"), dtype=np.uint8)


def _text(member: np.ndarray) -> str:
    """A text member: UTF-8 bytes, or the 0-d unicode array older
    checkpoints stored (4 bytes a character)."""
    if member.dtype == np.uint8:
        return member.tobytes().decode("utf-8")
    return str(member)


def _digest(arrays: dict[str, np.ndarray], config_json: str, state_json: str) -> str:
    """SHA-256 over every member in fixed order (content integrity).

    Engine-invariant by construction: the two engines are
    bit-identical by contract, so two checkpoints capturing the same
    measurement state digest equal no matter which engine built them
    (tests/test_engine_equivalence.py relies on this). Presentation
    state that legitimately varies by engine is canonicalized — the
    ``engine`` config field is dropped, and the eviction-value
    histogram is hashed key-sorted (its dict's insertion order follows
    per-event order on the scalar engine but sorted-per-chunk order on
    the batched one; it affects no measurement output).
    ``memo_flows`` is hashed sorted as well: both engines now record
    the memo in per-event first-seen order, but checkpoints written
    while the batched memo was sorted per chunk keep their digests
    only under the sort. The stored members themselves are untouched —
    a resumed run keeps its engine, memo order, and histogram order
    exactly.
    """
    config = json.loads(config_json)
    config.pop("engine", None)
    canonical = dict(arrays)
    canonical["memo_flows"] = np.sort(arrays["memo_flows"])
    hist_order = np.argsort(arrays["hist_values"], kind="stable")
    canonical["hist_values"] = arrays["hist_values"][hist_order]
    canonical["hist_counts"] = arrays["hist_counts"][hist_order]
    h = hashlib.sha256()
    for name in _ARRAY_MEMBERS:
        arr = canonical[name]
        h.update(name.encode())
        h.update(str(arr.dtype).encode())
        h.update(str(arr.shape).encode())
        h.update(np.ascontiguousarray(arr).tobytes())
    h.update(json.dumps(config, sort_keys=True).encode())
    h.update(state_json.encode())
    return h.hexdigest()


class Checkpoint:
    """A complete, self-verifying snapshot of one CAESAR instance.

    Create with :meth:`capture` (or ``caesar.checkpoint()``); persist
    with :meth:`save`; reload with :meth:`load`; rebuild the live
    instance with :meth:`restore` (or ``Caesar.resume``).
    """

    def __init__(
        self, arrays: dict[str, np.ndarray], config_json: str, state_json: str
    ) -> None:
        self.arrays = arrays
        self.config_json = config_json
        self.state_json = state_json

    @cached_property
    def meta(self) -> dict:
        """The parsed state document, parsed on first use: capturing
        and writing a checkpoint never reads it."""
        return json.loads(self.state_json)

    # -- capture -----------------------------------------------------------

    @classmethod
    def capture(cls, caesar: "Caesar") -> "Checkpoint":
        """Snapshot a live instance (it keeps running; nothing is shared)."""
        counters = caesar.counters.export_state()
        cache = caesar.cache.export_state()
        stats = caesar.cache.stats
        hist = stats.eviction_value_counts
        n_pending = caesar._buffer.length
        empty_i64 = np.empty(0, dtype=np.int64)
        arrays = {
            "counter_values": counters["values"],
            "stuck_idx": (
                empty_i64 if counters["stuck_idx"] is None else counters["stuck_idx"]
            ),
            "stuck_values": (
                empty_i64
                if counters["stuck_values"] is None
                else counters["stuck_values"]
            ),
            "cache_ids": cache["ids"],
            "cache_counts": cache["counts"],
            "memo_flows": caesar.flows_seen(),
            "hist_values": np.array(list(hist.keys()), dtype=np.int64),
            "hist_counts": np.array(list(hist.values()), dtype=np.int64),
            "pending_ids": caesar._buffer.ids[:n_pending].copy(),
            "pending_values": caesar._buffer.values[:n_pending].copy(),
            "pending_reasons": caesar._buffer.reasons[:n_pending].copy(),
        }
        indexer = caesar.indexer
        state = {
            "format_version": CHECKPOINT_FORMAT_VERSION,
            "packets_seen": caesar._packets_seen,
            "mass_seen": caesar._mass_seen,
            "finalized": caesar._finalized,
            "last_checkpoint_mass": caesar._mass_seen,
            "epoch": caesar._epoch,
            # Retired eviction-log cursor, kept so digests do not move.
            "wal_seq": 0,
            "buffer_capacity": caesar._buffer.capacity,
            "saturated_mass": counters["saturated_mass"],
            "stuck_lost_mass": counters["stuck_lost_mass"],
            "policy": cache["policy"],
            "rng": caesar._rng.bit_generator.state,
            "stats": {f: getattr(stats, f) for f in _STATS_FIELDS},
            "indexer": {
                "kind": (
                    "tabulation"
                    if isinstance(indexer, TabulationIndexer)
                    else "banked"
                ),
                "seed": indexer.family.seed,
            },
            "fault": (
                caesar._injector.export_state()
                if caesar._injector is not None
                else None
            ),
        }
        config_json = json.dumps(
            {
                f: getattr(caesar.config, f)
                for f in caesar.config.__dataclass_fields__
            },
            sort_keys=True,
        )
        return cls(arrays, config_json, json.dumps(state, sort_keys=True))

    # -- restore -----------------------------------------------------------

    def restore(self, *, registry: MetricsRegistry | None = None) -> "Caesar":
        """Rebuild the live instance this checkpoint captured.

        The restored instance continues construction bit-identically to
        the original: every stateful piece — counters, cache contents
        and replacement order, split-RNG state, index-memo first-seen
        order, statistics, and the pending eviction chunk — is restored
        exactly. ``registry`` is an attachment of the new process, not
        part of the captured state.
        """
        from repro.core.caesar import Caesar
        from repro.resilience.faults import FaultPlan

        meta = self.meta
        if meta.get("format_version") != CHECKPOINT_FORMAT_VERSION:
            raise TraceFormatError(
                f"checkpoint format {meta.get('format_version')!r} is not "
                f"version {CHECKPOINT_FORMAT_VERSION}"
            )
        config = CaesarConfig(**json.loads(self.config_json))
        fault = meta["fault"]
        plan = FaultPlan.from_dict(fault["plan"]) if fault is not None else None
        caesar = Caesar(
            config,
            buffer_capacity=int(meta["buffer_capacity"]),
            registry=registry,
            fault_plan=plan,
        )
        if meta["indexer"]["kind"] == "tabulation":
            caesar.indexer = TabulationIndexer(
                config.k, config.bank_size, seed=int(meta["indexer"]["seed"])
            )
        stuck_idx = self.arrays["stuck_idx"]
        caesar.counters.restore_state(
            {
                "values": self.arrays["counter_values"],
                "saturated_mass": meta["saturated_mass"],
                "stuck_idx": None if len(stuck_idx) == 0 else stuck_idx,
                "stuck_values": self.arrays["stuck_values"],
                "stuck_lost_mass": meta["stuck_lost_mass"],
            }
        )
        if fault is not None:
            caesar._injector.restore_state(fault)
        caesar.cache.restore_state(
            {
                "ids": self.arrays["cache_ids"],
                "counts": self.arrays["cache_counts"],
                "policy": meta["policy"],
            }
        )
        caesar._rng.bit_generator.state = meta["rng"]
        flows = self.arrays["memo_flows"]
        if config.engine != "scalar":
            caesar._memo.preload(flows)
        elif len(flows):
            rows = caesar.indexer.indices(flows)
            caesar._index_memo = {
                int(f): rows[i] for i, f in enumerate(flows.tolist())
            }
        stats = caesar.cache.stats
        for f in _STATS_FIELDS:
            setattr(stats, f, int(meta["stats"][f]))
        stats.eviction_value_counts = dict(
            zip(
                self.arrays["hist_values"].tolist(),
                self.arrays["hist_counts"].tolist(),
            )
        )
        buf = caesar._buffer
        n_pending = len(self.arrays["pending_ids"])
        buf.ids[:n_pending] = self.arrays["pending_ids"]
        buf.values[:n_pending] = self.arrays["pending_values"]
        buf.reasons[:n_pending] = self.arrays["pending_reasons"]
        buf.length = n_pending
        caesar._packets_seen = int(meta["packets_seen"])
        caesar._mass_seen = int(meta["mass_seen"])
        caesar._finalized = bool(meta["finalized"])
        caesar._last_checkpoint_mass = int(meta["last_checkpoint_mass"])
        caesar._epoch = int(meta["epoch"])
        return caesar

    # -- persistence -------------------------------------------------------

    @cached_property
    def digest(self) -> str:
        """SHA-256 content digest of this checkpoint, computed once: a
        writer that reports the digest and saves the file hashes the
        state one time."""
        return _digest(self.arrays, self.config_json, self.state_json)

    def save(self, path: str | Path, *, level: int = 1) -> Path:
        """Write the checkpoint (``.npz`` with digest), deflating its
        count-like members at zlib ``level``.

        The file is a standard ``.npz`` (``np.load``-compatible); see
        :func:`write_npz` for why it bypasses ``np.savez_compressed``,
        which members it stores, and what ``level=0`` means. The JSON
        documents and the digest are UTF-8 bytes. Checkpoint cadence
        sits on the runtime's critical path, so the default stays at
        the cheap level 1.
        """
        path = Path(path)
        if path.suffix != ".npz":
            path = path.with_suffix(path.suffix + ".npz")
        members = dict(self.arrays)
        members["config_json"] = _utf8(self.config_json)
        members["state_json"] = _utf8(self.state_json)
        members["digest"] = _utf8(self.digest)
        write_npz(path, members, level=level)
        return path

    @classmethod
    def load(cls, path: str | Path) -> "Checkpoint":
        """Read and *verify* a saved checkpoint.

        Reads the text members as written today (UTF-8 bytes) and as
        earlier checkpoints wrote them (0-d unicode arrays). Any damage
        — truncation, bit-rot inside the zip members, a tampered array,
        missing members — raises
        :class:`TraceFormatError` rather than returning corrupt state.
        """
        try:
            with np.load(path, allow_pickle=False) as data:
                arrays = {name: data[name] for name in _ARRAY_MEMBERS}
                config_json = _text(data["config_json"])
                state_json = _text(data["state_json"])
                stored_digest = _text(data["digest"])
        except (
            KeyError,
            OSError,
            ValueError,
            EOFError,
            zipfile.BadZipFile,
        ) as exc:
            raise TraceFormatError(f"cannot read checkpoint {path}: {exc}") from exc
        ckpt = cls(arrays, config_json, state_json)
        if ckpt.digest != stored_digest:
            raise TraceFormatError(
                f"checkpoint {path} failed its integrity check "
                "(digest mismatch: truncated, bit-rotted, or tampered)"
            )
        return ckpt

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Checkpoint(mass={self.meta['mass_seen']}, epoch={self.meta['epoch']})"
        )
