"""Write-ahead logs: eviction chunks, and the runtime's ingest chunks.

A checkpoint captures a scheme at one chunk boundary; the WAL covers the
gap to the *next* boundary. Every chunk drained from the cache is
appended (with a CRC) before it is landed on the SRAM — and before the
fault injector sees it, so even a chunk the injector drops is in the
log. Recovery is checkpoint + replay: restore the last checkpoint, then
re-drain every logged chunk with a sequence number at or past the
checkpoint's ``wal_seq``. Because the checkpoint restores the split
RNG's exact state and chunks replay in log order, the recovered counters
are bit-identical to an uninterrupted run (see docs/resilience.md).

The streaming runtime's shard workers log their *input* instead: one
ingest record per received packet chunk, under the caller's chunk
sequence number, holding the packets and any byte lengths exactly as
received (:meth:`WriteAheadLog.append_ingest`).

The on-disk format is deliberately boring: a magic header, then
self-delimiting records ``<type u8><seq u32><rows u32><crc u32>``
followed by a payload whose row width the type fixes — the raw
``ids``/``values``/``reasons`` columns of an eviction chunk or epoch
marker (17 bytes a row), the packet ids of an ingest record (8), or its
ids then byte lengths (16). A torn final record — the normal shape of a
crash mid-write — is detected and silently ignored, and re-opening the
log for append cuts it off; a CRC mismatch on a *complete* record, or an
unknown type, is corruption and raises
:class:`~repro.errors.TraceFormatError`.
"""

from __future__ import annotations

import os
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import IO, TYPE_CHECKING, Iterator

import numpy as np
import numpy.typing as npt

from repro.errors import TraceFormatError
from repro.resilience.atomic import fsync_dir

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.core.caesar import Caesar

#: File magic: identifies a repro WAL and its format version.
WAL_MAGIC = b"RPRWAL01"

#: Record types.
CHUNK_RECORD = 0
EPOCH_RECORD = 1
INGEST_RECORD = 2  # packet ids
INGEST_BYTES_RECORD = 3  # packet ids, then byte lengths
INGEST_RECORDS = (INGEST_RECORD, INGEST_BYTES_RECORD)

#: Payload bytes per row, by record type.
_ROW_BYTES = {
    CHUNK_RECORD: 17,
    EPOCH_RECORD: 17,
    INGEST_RECORD: 8,
    INGEST_BYTES_RECORD: 16,
}

_HEADER = struct.Struct("<BII I")  # type, seq, rows, crc


@dataclass(frozen=True)
class WalRecord:
    """One decoded WAL record.

    A drained chunk or an epoch marker fills all three columns. An
    ingest record carries the caller's chunk seq and its packets in
    ``ids``; ``values`` holds the byte lengths, or ``None`` for a
    unit-weighted chunk, and ``reasons`` is ``None``.
    """

    kind: int
    seq: int
    ids: npt.NDArray[np.uint64]
    values: npt.NDArray[np.int64] | None
    reasons: npt.NDArray[np.uint8] | None

    @property
    def mass(self) -> int:
        """Counted units carried by this record."""
        return len(self.ids) if self.values is None else int(self.values.sum())


def _read_log(path: Path) -> bytes:
    data = path.read_bytes()
    if data[: len(WAL_MAGIC)] != WAL_MAGIC:
        raise TraceFormatError(f"{path} is not a repro write-ahead log")
    return data


def _walk(data: bytes, path: Path) -> Iterator[tuple[int, int, int, int, int]]:
    """Yield ``(kind, seq, rows, start, end)`` for each complete record.

    Stops silently at a torn tail; raises on an unknown type (the
    payload cannot even be sized) or a CRC mismatch.
    """
    view = memoryview(data)
    pos = len(WAL_MAGIC)
    while pos + _HEADER.size <= len(data):
        kind, seq, rows, crc = _HEADER.unpack_from(data, pos)
        width = _ROW_BYTES.get(kind)
        if width is None:
            raise TraceFormatError(
                f"WAL record at byte {pos} has unknown type {kind} ({path})"
            )
        start = pos + _HEADER.size
        end = start + rows * width
        if end > len(data):
            return  # torn payload: crash mid-write
        if zlib.crc32(view[start:end]) != crc:
            raise TraceFormatError(f"WAL record seq={seq} failed its CRC check ({path})")
        yield kind, seq, rows, start, end
        pos = end


def _cut_torn_tail(path: Path) -> tuple[int, int]:
    """Cut a torn final record off the log: ``(last seq, bytes removed)``."""
    data = _read_log(path)
    last, valid_end = -1, len(WAL_MAGIC)
    for _kind, seq, _rows, _start, valid_end in _walk(data, path):
        last = seq
    if valid_end < len(data):
        with open(path, "r+b") as fh:
            fh.truncate(valid_end)
            os.fsync(fh.fileno())
    return last, len(data) - valid_end


class WriteAheadLog:
    """Appendable, CRC-protected log of eviction or ingest chunks.

    One log belongs to one measurement run. Eviction and epoch records
    take monotonically increasing sequence numbers, so a checkpoint can
    name the exact replay start point; ingest records carry the
    caller's chunk seq. Re-opening an existing log continues after its
    last seq and cuts a torn tail first, so a new record never lands
    after the garbage a crash mid-append left.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        new = not self.path.exists() or self.path.stat().st_size == 0
        self.records_written = 0
        self.next_seq = 0
        if not new:
            last, _removed = _cut_torn_tail(self.path)
            self.next_seq = last + 1
        self._fh: IO[bytes] = open(self.path, "ab")
        if new:
            # The magic must be durable before any record claims to be:
            # a power cut that keeps records but loses the file creation
            # would otherwise leave an unreadable log.
            self._fh.write(WAL_MAGIC)
            self._fh.flush()
            os.fsync(self._fh.fileno())
            fsync_dir(self.path.parent)

    # -- writing -----------------------------------------------------------

    def _append(self, kind: int, seq: int, columns: tuple[np.ndarray, ...]) -> int:
        # Header, then each column straight from its buffer: the CRC
        # chains over the same buffers, so nothing is copied or joined.
        crc = 0
        for column in columns:
            crc = zlib.crc32(column, crc)
        self._fh.write(_HEADER.pack(kind, seq, len(columns[0]), crc))
        for column in columns:
            self._fh.write(column)
        self.next_seq = seq + 1
        self.records_written += 1
        return seq

    def _write(
        self,
        kind: int,
        ids: npt.NDArray[np.uint64],
        values: npt.NDArray[np.int64],
        reasons: npt.NDArray[np.uint8],
    ) -> int:
        return self._append(
            kind,
            self.next_seq,
            (
                np.ascontiguousarray(ids, dtype=np.uint64),
                np.ascontiguousarray(values, dtype=np.int64),
                np.ascontiguousarray(reasons, dtype=np.uint8),
            ),
        )

    def append_chunk(
        self,
        ids: npt.NDArray[np.uint64],
        values: npt.NDArray[np.int64],
        reasons: npt.NDArray[np.uint8],
    ) -> int:
        """Log one drained chunk; returns its sequence number."""
        return self._write(CHUNK_RECORD, ids, values, reasons)

    def append_event(self, flow_id: int, value: int, code: int) -> int:
        """Log one scalar eviction as a 1-row chunk (scalar engine)."""
        return self._write(
            CHUNK_RECORD,
            np.array([flow_id], dtype=np.uint64),
            np.array([value], dtype=np.int64),
            np.array([code], dtype=np.uint8),
        )

    def begin_epoch(self, epoch: int) -> int:
        """Log an epoch boundary (``reset()``); replay stops crossing it.

        Carries a full 1-row payload (epoch number in the ids column,
        zero value/reason) so every record decodes with one rule.
        """
        return self._write(
            EPOCH_RECORD,
            np.array([epoch], dtype=np.uint64),
            np.zeros(1, dtype=np.int64),
            np.zeros(1, dtype=np.uint8),
        )

    def append_ingest(
        self,
        seq: int,
        packets: npt.NDArray[np.uint64],
        lengths: npt.NDArray[np.int64] | None,
    ) -> int:
        """Log one input chunk as received, under the caller's chunk ``seq``.

        8 bytes a packet (16 with byte lengths) plus the header; arrays
        that are already contiguous ``uint64``/``int64`` are written
        without a copy.
        """
        ids = np.ascontiguousarray(packets, dtype=np.uint64)
        if lengths is None:
            return self._append(INGEST_RECORD, seq, (ids,))
        lens = np.ascontiguousarray(lengths, dtype=np.int64)
        if lens.shape != ids.shape:
            raise ValueError(
                f"ingest chunk seq={seq}: {len(lens)} lengths for {len(ids)} packets"
            )
        return self._append(INGEST_BYTES_RECORD, seq, (ids, lens))

    def flush(self) -> None:
        """Push buffered records to the OS (called at checkpoint time)."""
        self._fh.flush()

    def sync(self) -> None:
        """:meth:`flush` + fsync — records survive a power cut, not just
        a process crash (quarantine evidence writers need this)."""
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def close(self) -> None:
        """Flush and close the underlying file."""
        if not self._fh.closed:
            self._fh.flush()
            self._fh.close()

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # -- repair ------------------------------------------------------------

    @staticmethod
    def truncate_torn_tail(path: str | Path) -> int:
        """Cut a torn final record off the log; returns bytes removed.

        A crash mid-append leaves a partial record at the tail. Readers
        already ignore it, but appending after it would desynchronize
        every later read — which is why opening a log for append cuts it
        too. A complete-but-corrupt record or an unknown record type
        still raises :class:`TraceFormatError` — that is damage, not a
        torn write.
        """
        _last, removed = _cut_torn_tail(Path(path))
        return removed

    # -- reading -----------------------------------------------------------

    @staticmethod
    def iter_records(path: str | Path, start_seq: int = 0) -> Iterator[WalRecord]:
        """Yield complete records with ``seq >= start_seq``.

        A truncated final record (torn write at crash time) ends
        iteration silently; a corrupt complete record or an unknown
        record type raises :class:`TraceFormatError`.
        """
        path = Path(path)
        data = _read_log(path)
        for kind, seq, rows, start, _end in _walk(data, path):
            if seq < start_seq:
                continue
            ids = np.frombuffer(data, dtype=np.uint64, count=rows, offset=start)
            second = start + rows * 8
            if kind == INGEST_RECORD:
                yield WalRecord(kind, seq, ids, None, None)
            elif kind == INGEST_BYTES_RECORD:
                lengths = np.frombuffer(data, dtype=np.int64, count=rows, offset=second)
                yield WalRecord(kind, seq, ids, lengths, None)
            else:
                values = np.frombuffer(data, dtype=np.int64, count=rows, offset=second)
                reasons = np.frombuffer(
                    data, dtype=np.uint8, count=rows, offset=start + rows * 16
                )
                yield WalRecord(kind, seq, ids, values, reasons)


@dataclass(frozen=True)
class RecoveryResult:
    """Outcome of :func:`recover`."""

    caesar: "Caesar"
    chunks_replayed: int
    mass_replayed: int


def recover(
    checkpoint_source: str | Path | object,
    wal_path: str | Path,
    *,
    registry: object | None = None,
) -> RecoveryResult:
    """Checkpoint + WAL → the scheme as it stood at the crash.

    Restores the checkpoint (path or :class:`~repro.resilience.checkpoint.
    Checkpoint`), then replays every logged chunk from the checkpoint's
    ``wal_seq`` onward straight through the resumed instance's drain —
    same chunks, same order, same restored split-RNG state — so the
    recovered counters equal the pre-crash counters bit for bit.

    Cache *contents* at crash time are gone (they never left the chip),
    which is exactly the loss a real crash inflicts — so the
    checkpoint-time residents are dropped before replay. Keeping them
    would double-count every entry that drained again between the
    checkpoint and the crash (its drained value includes the resident
    part). Mass accounting follows: the recovered ``recorded_mass`` is
    the mass that durably landed in the SRAM, so
    ``recorded_mass == counters.total_mass`` holds after recovery
    (absent saturation).
    """
    from repro.resilience.checkpoint import Checkpoint

    ckpt = (
        checkpoint_source
        if isinstance(checkpoint_source, Checkpoint)
        else Checkpoint.load(checkpoint_source)
    )
    caesar = ckpt.restore(registry=registry)
    _, resident = caesar.cache.wipe()
    caesar._mass_seen -= resident
    start_seq = int(ckpt.meta["wal_seq"])
    chunks = 0
    mass = 0
    for record in WriteAheadLog.iter_records(wal_path):
        if record.kind in INGEST_RECORDS:
            raise TraceFormatError(
                f"{wal_path} is an ingest WAL; recover() replays eviction chunks"
            )
        if record.seq < start_seq:
            continue
        if record.kind == EPOCH_RECORD:
            break  # records past an epoch boundary belong to the next epoch
        caesar._drain(record.ids, record.values, record.reasons)
        caesar.cache.stats.record_batch(record.values, record.reasons, record.ids)
        chunks += 1
        mass += record.mass
    caesar._mass_seen += mass
    return RecoveryResult(caesar=caesar, chunks_replayed=chunks, mass_replayed=mass)
