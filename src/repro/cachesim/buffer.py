"""Preallocated eviction buffer (the batched cache → SRAM interface).

The scalar reference path delivers each eviction through a Python
callback (``sink(flow_id, value, reason)``); real implementations of
cache-assisted schemes instead *buffer* the cache → SRAM traffic and
land it in bursts. :class:`EvictionBuffer` is that buffer: three
preallocated NumPy columns (flow IDs, values, reason codes) plus a
length cursor. The cache appends into the next free row; when
the buffer fills — or at an API boundary — the whole chunk is handed to
the scheme's *drain* as array views, where it is split and scatter-added
in a handful of vectorized calls instead of thousands of scalar ones.

Reason codes are the integer values of
:class:`~repro.cachesim.base.EvictionReason` (``OVERFLOW_CODE`` etc.),
so a drained chunk never holds Python objects.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
import numpy.typing as npt

from repro.cachesim.base import CODE_TO_REASON, Eviction
from repro.errors import ConfigError

#: Default buffer capacity: large enough to amortize the per-chunk
#: vectorized work, small enough to stay L2-resident.
DEFAULT_BUFFER_CAPACITY = 8192

#: Signature of a batched eviction drain: ``drain(ids, values, reasons)``
#: receives aligned array views (uint64, int64, uint8) of one chunk.
#: Views are only valid for the duration of the call.
EvictionDrain = Callable[
    [npt.NDArray[np.uint64], npt.NDArray[np.int64], npt.NDArray[np.uint8]], None
]


class EvictionBuffer:
    """Fixed-capacity columnar buffer of pending evictions.

    The compiled cache kernel writes rows straight into the columns
    (scalar :meth:`append` serves Python callers); drains are array
    views over the filled prefix. The cache owns *when* to drain
    (on overflow and at API boundaries); the scheme owns *what* a drain
    does.
    """

    __slots__ = ("capacity", "ids", "values", "reasons", "length")

    def __init__(self, capacity: int = DEFAULT_BUFFER_CAPACITY) -> None:
        if capacity < 1:
            raise ConfigError(f"buffer capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self.ids = np.empty(self.capacity, dtype=np.uint64)
        self.values = np.empty(self.capacity, dtype=np.int64)
        self.reasons = np.empty(self.capacity, dtype=np.uint8)
        self.length = 0

    # -- producer side (cache loop) --------------------------------------

    def append(self, flow_id: int, value: int, reason_code: int) -> bool:
        """Append one eviction; returns True when the buffer is now full."""
        n = self.length
        self.ids[n] = flow_id
        self.values[n] = value
        self.reasons[n] = reason_code
        self.length = n + 1
        return self.length == self.capacity

    @property
    def is_full(self) -> bool:
        return self.length == self.capacity

    # -- consumer side (drain) --------------------------------------------

    def chunk(
        self,
    ) -> tuple[
        npt.NDArray[np.uint64], npt.NDArray[np.int64], npt.NDArray[np.uint8]
    ]:
        """Views of the filled prefix (valid until the next append/clear)."""
        n = self.length
        return self.ids[:n], self.values[:n], self.reasons[:n]

    def clear(self) -> None:
        """Reset the cursor (storage is reused, never reallocated)."""
        self.length = 0

    # -- introspection -------------------------------------------------------

    def __len__(self) -> int:
        return self.length

    def to_evictions(self) -> list[Eviction]:
        """Materialize the pending chunk as :class:`Eviction` objects
        (test/analysis helper — the hot path never does this)."""
        ids, values, reasons = self.chunk()
        return [
            Eviction(int(f), int(v), CODE_TO_REASON[int(r)])
            for f, v, r in zip(ids.tolist(), values.tolist(), reasons.tolist())
        ]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"EvictionBuffer({self.length}/{self.capacity})"
