"""The ingest write-ahead log: every packet chunk a shard worker received.

The streaming runtime's shard workers log their *input*: one ingest
record per received packet chunk, under the caller's chunk sequence
number, holding the packets and any byte lengths exactly as received
(:meth:`WriteAheadLog.append_ingest`). A checkpoint captures a scheme at
one chunk boundary; the log covers the gap to the *next* one. Recovery
(:func:`repro.runtime.worker.recover`) restores the newest readable
checkpoint and re-processes every logged chunk past its sequence
number. The checkpoint restores the cache, the split RNG and the fault
injector exactly, so the recovered scheme is bit-identical to an
uninterrupted run, cache residents included (see docs/resilience.md).

The on-disk format is deliberately boring: a magic header, then
self-delimiting records ``<type u8><seq u32><rows u32><crc u32>``
followed by a payload whose row width the type fixes — the packet ids
of an ingest record (8 bytes a row), or its ids then byte lengths (16).
A torn final record — the normal shape of a crash mid-write — is
detected and silently ignored, and re-opening the log for append cuts
it off; a CRC mismatch on a *complete* record, or an unknown type, is
corruption and raises :class:`~repro.errors.TraceFormatError`.
"""

from __future__ import annotations

import os
import struct
import zlib
from pathlib import Path
from typing import IO, Iterator, NamedTuple

import numpy as np
import numpy.typing as npt

from repro.errors import TraceFormatError
from repro.resilience.atomic import fsync_dir

#: File magic: identifies a repro WAL and its format version.
WAL_MAGIC = b"RPRWAL01"

#: Record types. Types 0 and 1 held the retired eviction log's chunks
#: and epoch markers; a log holding them now fails as an unknown type.
INGEST_RECORD = 2  # packet ids
INGEST_BYTES_RECORD = 3  # packet ids, then byte lengths

#: Payload bytes per row, by record type.
_ROW_BYTES = {INGEST_RECORD: 8, INGEST_BYTES_RECORD: 16}

_HEADER = struct.Struct("<BII I")  # type, seq, rows, crc


class WalRecord(NamedTuple):
    """One decoded ingest record: the caller's chunk ``seq``, its
    ``packets``, and its byte ``lengths`` (``None`` for a unit-weighted
    chunk)."""

    seq: int
    packets: npt.NDArray[np.uint64]
    lengths: npt.NDArray[np.int64] | None


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


def _cut_torn_tail(path: Path) -> None:
    """Cut a torn final record off the log.

    Readers already ignore it, but appending after it would
    desynchronize every later read. A complete-but-corrupt record or an
    unknown record type still raises :class:`TraceFormatError` — that is
    damage, not a torn write.
    """
    data = _read_log(path)
    valid_end = len(WAL_MAGIC)
    for _kind, _seq, _rows, _start, valid_end in _walk(data, path):
        pass
    if valid_end < len(data):
        with open(path, "r+b") as fh:
            fh.truncate(valid_end)
            os.fsync(fh.fileno())


class WriteAheadLog:
    """Appendable, CRC-protected log of ingest chunks.

    Each record carries the caller's chunk seq. Re-opening an existing
    log cuts a torn tail first, so a new record never lands after the
    garbage a crash mid-append left.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        new = not self.path.exists() or self.path.stat().st_size == 0
        if not new:
            _cut_torn_tail(self.path)
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

    def _append(self, kind: int, seq: int, columns: tuple[np.ndarray, ...]) -> None:
        # Header, then each column straight from its buffer: the CRC
        # chains over the same buffers, so nothing is copied or joined.
        crc = 0
        for column in columns:
            crc = zlib.crc32(column, crc)
        self._fh.write(_HEADER.pack(kind, seq, len(columns[0]), crc))
        for column in columns:
            self._fh.write(column)

    def append_ingest(
        self,
        seq: int,
        packets: npt.NDArray[np.uint64],
        lengths: npt.NDArray[np.int64] | None,
    ) -> None:
        """Log one input chunk as received, under the caller's chunk ``seq``.

        8 bytes a packet (16 with byte lengths) plus the header; arrays
        that are already contiguous ``uint64``/``int64`` are written
        without a copy.
        """
        ids = np.ascontiguousarray(packets, dtype=np.uint64)
        if lengths is None:
            self._append(INGEST_RECORD, seq, (ids,))
            return
        lens = np.ascontiguousarray(lengths, dtype=np.int64)
        if lens.shape != ids.shape:
            raise ValueError(
                f"ingest chunk seq={seq}: {len(lens)} lengths for {len(ids)} packets"
            )
        self._append(INGEST_BYTES_RECORD, seq, (ids, lens))

    def flush(self) -> None:
        """Push buffered records to the OS (a process crash keeps them)."""
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

    # -- reading -----------------------------------------------------------

    @staticmethod
    def iter_records(path: str | Path) -> Iterator[WalRecord]:
        """Yield every complete record, in log order.

        A truncated final record (torn write at crash time) ends
        iteration silently; a corrupt complete record or an unknown
        record type raises :class:`TraceFormatError`.
        """
        path = Path(path)
        data = _read_log(path)
        for kind, seq, rows, start, _end in _walk(data, path):
            packets = np.frombuffer(data, dtype=np.uint64, count=rows, offset=start)
            lengths = (
                np.frombuffer(data, dtype=np.int64, count=rows, offset=start + rows * 8)
                if kind == INGEST_BYTES_RECORD
                else None
            )
            yield WalRecord(seq, packets, lengths)
