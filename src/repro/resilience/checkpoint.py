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

On disk a checkpoint is one compressed ``.npz``: raw arrays for bulk
state, two JSON documents for structured state, and a SHA-256 digest
over all of it. :meth:`load` recomputes the digest, so truncation,
bit-rot, or a tampered member fails loudly as
:class:`~repro.errors.TraceFormatError` instead of resuming from
corrupt state.
"""

from __future__ import annotations

import hashlib
import io
import json
import zipfile
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from repro.core.config import CaesarConfig
from repro.errors import ConfigError, TraceFormatError
from repro.hashing.tabulation import TabulationIndexer
from repro.obs.registry import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.core.caesar import Caesar
    from repro.resilience.wal import WriteAheadLog

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
    """Write ``members`` as a standard ``.npz`` at zlib ``level``.

    Written through :mod:`zipfile` directly because
    ``np.savez_compressed`` hardwires zlib level 6 — on DRAM-scale
    counter banks that costs ~50% more CPU than level 1 for a few
    percent of compressed size. ``level=0`` stores members uncompressed
    (``ZIP_STORED``), the cheapest option for the async write path
    where CPU spent compressing competes with ingest for cores.
    """
    if not 0 <= level <= 9:
        raise ConfigError(f"compression level must be in [0, 9], got {level}")
    method = zipfile.ZIP_STORED if level == 0 else zipfile.ZIP_DEFLATED
    with zipfile.ZipFile(path, "w", method, compresslevel=level or None) as zf:
        for name, arr in members.items():
            arr = np.asarray(arr)
            # NOT ascontiguousarray: it promotes the 0-d JSON/digest
            # members to 1-d (it guarantees ndim >= 1), which breaks
            # their round-trip as scalars.
            if arr.ndim and not arr.flags.c_contiguous:
                arr = np.ascontiguousarray(arr)
            buf = io.BytesIO()
            np.lib.format.write_array(buf, arr, allow_pickle=False)
            zf.writestr(f"{name}.npy", buf.getvalue())


def _digest(arrays: dict[str, np.ndarray], config_json: str, state_json: str) -> str:
    """SHA-256 over every member in fixed order (content integrity).

    Engine-invariant by construction: the two engines are
    bit-identical by contract, so two checkpoints capturing the same
    measurement state digest equal no matter which engine built them
    (tests/test_engine_equivalence.py relies on this). Presentation
    state that legitimately varies by engine is canonicalized — the
    ``engine`` config field is dropped, ``memo_flows`` is hashed
    sorted, and the eviction-value histogram is hashed key-sorted (the
    memo's first-seen order and the histogram dict's insertion order
    follow per-event order on the scalar engine but sorted-per-chunk
    order on the batched one; neither affects any measurement
    output). The stored members themselves are untouched — a resumed
    run keeps its engine, memo order, and histogram order exactly.
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
        self.meta = json.loads(state_json)

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
            "wal_seq": caesar._wal.next_seq if caesar._wal is not None else 0,
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

    def restore(
        self,
        *,
        registry: MetricsRegistry | None = None,
        wal: "WriteAheadLog | None" = None,
    ) -> "Caesar":
        """Rebuild the live instance this checkpoint captured.

        The restored instance continues construction bit-identically to
        the original: every stateful piece — counters, cache contents
        and replacement order, split-RNG state, index-memo first-seen
        order, statistics, and the pending eviction chunk — is restored
        exactly. ``registry`` and ``wal`` are attachments of the new
        process, not part of the captured state.
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
            wal=wal,
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

    @property
    def digest(self) -> str:
        """SHA-256 content digest of this checkpoint."""
        return _digest(self.arrays, self.config_json, self.state_json)

    def save(self, path: str | Path, *, level: int = 1) -> Path:
        """Write the checkpoint (``.npz`` with digest) at zlib ``level``.

        The file is a standard ``.npz`` (``np.load``-compatible); see
        :func:`write_npz` for why it bypasses ``np.savez_compressed``
        and what ``level=0`` means. Checkpoint cadence sits on the
        runtime's critical path, so the default stays at the cheap
        level 1.
        """
        path = Path(path)
        if path.suffix != ".npz":
            path = path.with_suffix(path.suffix + ".npz")
        members = dict(self.arrays)
        members["config_json"] = np.array(self.config_json)
        members["state_json"] = np.array(self.state_json)
        members["digest"] = np.array(self.digest)
        write_npz(path, members, level=level)
        return path

    @classmethod
    def load(cls, path: str | Path) -> "Checkpoint":
        """Read and *verify* a saved checkpoint.

        Any damage — truncation, bit-rot inside the zip members, a
        tampered array, missing members — raises
        :class:`TraceFormatError` rather than returning corrupt state.
        """
        try:
            with np.load(path, allow_pickle=False) as data:
                arrays = {name: data[name] for name in _ARRAY_MEMBERS}
                config_json = str(data["config_json"])
                state_json = str(data["state_json"])
                stored_digest = str(data["digest"])
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
            f"Checkpoint(mass={self.meta['mass_seen']}, "
            f"epoch={self.meta['epoch']}, wal_seq={self.meta['wal_seq']})"
        )
