"""On-chip cache simulator.

The fast on-chip memory in front of the off-chip SRAM counters
(Figure 1 of the paper): a table of ``M`` entries, each holding a
``(flow ID, flow size)`` pair with per-entry capacity ``y``. Packets
are absorbed here at line rate; values reach the slow shared counters
only on *eviction* — either because an entry's count reached ``y``
(overflow) or because the table was full and a victim was replaced
(LRU or random, Section 3.1).

Evictions flow out either through a per-event sink callback (the
scalar reference path) or through a preallocated
:class:`EvictionBuffer` drained in array chunks (the batched engine),
which runs the whole cache loop in a compiled kernel
(:mod:`repro.cachesim.kernel`, built and loaded when this package is
imported), bit-identical to the scalar path.
"""

from repro.cachesim.base import CachePolicy, CacheStats, Eviction, EvictionReason
from repro.cachesim.buffer import DEFAULT_BUFFER_CAPACITY, EvictionBuffer, EvictionDrain
from repro.cachesim.cache import FlowCache
from repro.cachesim.lru import LRUPolicy
from repro.cachesim.random_replace import RandomPolicy

__all__ = [
    "CachePolicy",
    "CacheStats",
    "DEFAULT_BUFFER_CAPACITY",
    "Eviction",
    "EvictionBuffer",
    "EvictionDrain",
    "EvictionReason",
    "FlowCache",
    "LRUPolicy",
    "RandomPolicy",
]
