"""Exception hierarchy for the CAESAR reproduction library.

All library errors derive from :class:`ReproError` so callers can catch
one base class; configuration problems raise :class:`ConfigError` during
construction rather than failing deep inside the measurement loop.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class ConfigError(ReproError, ValueError):
    """A scheme or experiment was configured with invalid parameters."""


class CapacityError(ReproError):
    """A data structure was asked to hold more than its configured capacity."""


class QueryError(ReproError):
    """A query was issued against a structure in an invalid state.

    The canonical case is estimating a flow size before the on-chip
    cache has been dumped to SRAM (the paper's query phase is strictly
    offline, after the dump).
    """


class TraceFormatError(ReproError):
    """A serialized trace or header file could not be parsed."""


class KernelBuildError(ReproError):
    """The compiled flow-cache kernel could not be built or loaded.

    Carries the C compiler's message. Only the batched cache engine
    needs the kernel; the scalar reference path works without it."""


class IngestError(ReproError):
    """The streaming ingest runtime could not make progress.

    Raised when a shard queue rejects work under the ``"error"``
    backpressure policy, when a worker exceeds its restart budget, or
    when the runtime is driven outside its lifecycle (ingesting after
    drain, querying before start)."""
