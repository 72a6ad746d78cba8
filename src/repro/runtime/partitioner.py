"""RSS-style flow-hash partitioning, versioned shard maps, chunking.

The streaming runtime and the one-shot :class:`~repro.core.sharded.
ShardedScheme` must agree *exactly* on which shard owns which flow —
that agreement is the whole determinism argument (docs/runtime.md): a
flow's packets always land on the same shard, in stream order, so each
shard's substream is independent of chunking, queue depths, and
scheduling interleave. Both layers therefore share this one
:class:`StreamPartitioner`; it reproduces the historical
``ShardedScheme.shard_of`` bit for bit (same hash family, same seed
convention).

Elastic resharding adds a *versioned* layer on top: a
:class:`ShardMap` is the base RSS partition plus an ordered chain of
:class:`ShardSplit` records. Each split halves exactly one (hot)
shard's flow space with an independent hash bit, so map version
``v+1`` is a **refinement** of version ``v`` — only the donor shard's
flows remap, everyone else's owner is untouched. That refinement is
what makes live shard splits bit-exact: a split shard's successors can
rebuild their substreams purely from the donor's ingest history, and
the final deployment equals an offline run under the final map.

:func:`chunk_stream` normalizes every stream shape the ingest paths
accept — one big array, an iterable of packet arrays, or an iterable of
``(packets, lengths)`` pairs — into a uniform sequence of
``(packets, lengths)`` chunks, so the full-array-up-front memory
requirement disappears from every consumer at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator

import numpy as np
import numpy.typing as npt

from repro.cachesim.kernel import ShardTable
from repro.errors import ConfigError
from repro.hashing.family import HashFamily
from repro.types import FlowIdArray

#: Historical default shard seed (kept equal to ``ShardedScheme``'s).
DEFAULT_SHARD_SEED = 0x5AA2D

#: Default packets per chunk when slicing a flat array into a stream.
DEFAULT_CHUNK_PACKETS = 65_536


@dataclass(frozen=True)
class ShardSplit:
    """One shard split: ``donor``'s flows re-decide between ``donor``
    and ``child`` with an independent hash bit. ``child`` always equals
    the shard count before the split, so shard IDs stay dense."""

    donor: int
    child: int


@dataclass(frozen=True)
class ShardMap:
    """A versioned, consistent flow → shard map.

    Version 0 is the historical RSS partition ``h0(flow) % num_base``.
    Each :meth:`split` appends a :class:`ShardSplit` and bumps the
    version; split ``k`` re-decides the donor's flows with hash family
    member ``k+1`` (member 0 is the base partition hash, so a map with
    no splits is bit-identical to the historical partitioner).

    Two structural guarantees carry the resharding contract:

    - **refinement** — owners under version ``v+1`` equal owners under
      ``v`` except for the split donor's flows, which land on the donor
      or its child only;
    - **associative composition** — owners depend only on the ordered
      split chain, never on how the chain was built up (splitting
      step by step equals building the full map at once).

    Frozen and picklable: worker processes filter replayed history
    against the map they were born with.
    """

    num_base: int
    shard_seed: int = DEFAULT_SHARD_SEED
    splits: tuple[ShardSplit, ...] = ()

    def __post_init__(self) -> None:
        if self.num_base < 1:
            raise ConfigError(f"num_base must be >= 1, got {self.num_base}")
        count = self.num_base
        for split in self.splits:
            if not 0 <= split.donor < count:
                raise ConfigError(
                    f"split donor {split.donor} out of range for {count} shards"
                )
            if split.child != count:
                raise ConfigError(
                    f"split child must be {count} (the next dense id), "
                    f"got {split.child}"
                )
            count += 1

    @property
    def version(self) -> int:
        """How many splits have been applied (0 = the base map)."""
        return len(self.splits)

    @property
    def num_shards(self) -> int:
        return self.num_base + len(self.splits)

    def split(self, donor: int) -> "ShardMap":
        """The next map version: ``donor``'s flow space halved into
        ``donor`` + a new shard ``self.num_shards``."""
        if not 0 <= donor < self.num_shards:
            raise ConfigError(
                f"split donor {donor} out of range for {self.num_shards} shards"
            )
        return ShardMap(
            num_base=self.num_base,
            shard_seed=self.shard_seed,
            splits=(*self.splits, ShardSplit(donor=donor, child=self.num_shards)),
        )

    def owner_of(self, flow_ids: FlowIdArray) -> npt.NDArray[np.int64]:
        """Which shard owns each flow under this map version.

        A one-shard map has nothing to decide: no hash, and no kernel.
        Any other map runs the compiled owner pass
        (:class:`~repro.cachesim.kernel.ShardTable`), which raises
        :class:`~repro.errors.KernelBuildError` if the kernel could not
        be built.
        """
        ids = np.asarray(flow_ids, dtype=np.uint64)
        if self.num_shards == 1:
            return np.zeros(len(ids), dtype=np.int64)
        return _shard_table(self).owners(ids)

    def describe(self) -> str:
        """Human-readable summary (CLI/log lines)."""
        if not self.splits:
            return f"v0: {self.num_base} shards"
        chain = ", ".join(f"{s.donor}->{s.donor}+{s.child}" for s in self.splits)
        return f"v{self.version}: {self.num_shards} shards ({chain})"


@lru_cache(maxsize=64)
def _shard_table(shard_map: ShardMap) -> ShardTable:
    """The kernel's copy of ``shard_map``. Hash family member 0 is the
    historical base-partition hash; member ``k+1`` decides split ``k``.
    Members are derived by iterating splitmix64 on the master seed, so
    growing the family never changes earlier members — a map with no
    splits hashes bit-identically to the pre-reshard partitioner."""
    family = HashFamily(1 + shard_map.version, seed=shard_map.shard_seed)
    return ShardTable(
        shard_map.num_base, family.seeds, tuple(s.donor for s in shard_map.splits)
    )


class StreamPartitioner:
    """Stateless flow → shard map shared by every sharded ingest path.

    Wraps a :class:`ShardMap`; construct from a shard count (the
    historical v0 behaviour) or an explicit map (resharded
    deployments).
    """

    def __init__(
        self,
        num_shards: int | None = None,
        *,
        shard_seed: int = DEFAULT_SHARD_SEED,
        shard_map: ShardMap | None = None,
    ) -> None:
        if shard_map is None:
            if num_shards is None or num_shards < 1:
                raise ConfigError(f"num_shards must be >= 1, got {num_shards}")
            shard_map = ShardMap(num_base=int(num_shards), shard_seed=int(shard_seed))
        elif num_shards is not None and num_shards != shard_map.num_shards:
            raise ConfigError(
                f"num_shards={num_shards} disagrees with shard_map "
                f"({shard_map.num_shards} shards)"
            )
        self.shard_map = shard_map
        self.num_shards = shard_map.num_shards
        self.shard_seed = shard_map.shard_seed

    @property
    def version(self) -> int:
        return self.shard_map.version

    def split(self, donor: int) -> "StreamPartitioner":
        """A new partitioner under the next map version."""
        return StreamPartitioner(shard_map=self.shard_map.split(donor))

    def shard_of(self, flow_ids: FlowIdArray) -> npt.NDArray[np.int64]:
        """Which shard owns each flow (RSS-style hash partition)."""
        return self.shard_map.owner_of(flow_ids)

    def partition(
        self,
        packets: FlowIdArray,
        lengths: npt.NDArray[np.int64] | None = None,
    ) -> list[tuple[npt.NDArray[np.uint64], npt.NDArray[np.int64] | None]]:
        """Split one chunk into per-shard subchunks, stream order kept.

        Two passes over the chunk in the compiled kernel
        (:class:`~repro.cachesim.kernel.ShardTable`): the owner pass
        hashes each packet to its shard and counts each shard's
        packets, and the fill pass appends each packet, with its length,
        to its shard's array. Each shard's packets keep their relative
        order, so concatenating a shard's subchunks over any chunking
        of the stream yields the same substream — the
        chunking-invariance half of the determinism argument. With one
        shard there is nothing to decide: no hash, no kernel, one copy.

        Every subchunk is a fresh array, never a view of the caller's
        buffer: the supervisor keeps sent subchunks for re-feed.
        ``lengths``, when given, must align with ``packets``; the
        subchunks' lengths are int64.
        """
        if lengths is not None and len(lengths) != len(packets):
            raise ConfigError("lengths must align with packets")
        if self.num_shards == 1:
            return [
                (
                    np.array(packets, dtype=np.uint64),
                    None if lengths is None else np.array(lengths, dtype=np.int64),
                )
            ]
        return _shard_table(self.shard_map).partition(packets, lengths)


def chunk_stream(
    stream: FlowIdArray | Iterable,
    *,
    lengths: npt.NDArray[np.int64] | None = None,
    chunk_packets: int = DEFAULT_CHUNK_PACKETS,
) -> Iterator[tuple[npt.NDArray[np.uint64], npt.NDArray[np.int64] | None]]:
    """Yield ``(packets, lengths)`` chunks from any accepted stream shape.

    ``stream`` may be a flat flow-ID array (sliced into
    ``chunk_packets``-sized chunks, with ``lengths`` sliced alongside),
    or an iterable yielding packet arrays / ``(packets, lengths)``
    pairs (passed through as-is; ``lengths`` must then be ``None``).
    Empty chunks are skipped.
    """
    if chunk_packets < 1:
        raise ConfigError(f"chunk_packets must be >= 1, got {chunk_packets}")
    if isinstance(stream, np.ndarray):
        packets = np.asarray(stream, dtype=np.uint64)
        for start in range(0, len(packets), chunk_packets):
            stop = start + chunk_packets
            chunk = packets[start:stop]
            if len(chunk):
                yield chunk, (lengths[start:stop] if lengths is not None else None)
        return
    if lengths is not None:
        raise ConfigError(
            "lengths= is only valid with a flat packet array; "
            "yield (packets, lengths) pairs from the iterable instead"
        )
    for item in stream:
        if isinstance(item, tuple):
            pkts, lens = item
        else:
            pkts, lens = item, None
        pkts = np.asarray(pkts, dtype=np.uint64)
        if len(pkts):
            yield pkts, (None if lens is None else np.asarray(lens, dtype=np.int64))
