"""Shared experimental setup: the scaled paper workload and budgets.

Section 6.2 of the paper fixes: cache 97.66 KB, CAESAR/RCS SRAM
91.55 KB (Figs. 4, 6, 7), CASE SRAM 183.11 KB and 1.21 MB (Fig. 5),
``y = floor(2 n / Q)``, ``k = 3``, on a trace of n = 27,720,011
packets / Q = 1,014,601 flows. We scale the *flow count* by
``scale`` (default 5 %) while keeping ``n/Q`` — and therefore every
memory-to-traffic ratio — identical, so all accuracy comparisons
transfer; the KB budgets scale by the same factor.

Set the environment variable ``REPRO_SCALE`` to run everything at a
different scale (e.g. ``REPRO_SCALE=1.0`` for the paper-size workload,
which takes tens of minutes in pure Python).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache

from repro.errors import ConfigError
from repro.obs.registry import MetricsRegistry
from repro.resilience.faults import FaultPlan
from repro.traffic.trace import Trace, default_paper_trace

#: Paper Section 6.2 budgets, in KB, at scale 1.0.
PAPER_CACHE_KB = 97.66
PAPER_SRAM_KB_MAIN = 91.55  # Figs. 4, 6, 7 (CAESAR and RCS)
PAPER_SRAM_KB_CASE = 183.11  # Fig. 5 (a)/(c)
PAPER_SRAM_KB_CASE_BIG = 1.21 * 1024  # Fig. 5 (b)/(d): 1.21 MB
DEFAULT_SCALE = 0.05
DEFAULT_SEED = 42
DEFAULT_K = 3


@dataclass(frozen=True)
class ExperimentSetup:
    """The scaled workload plus all scaled memory budgets."""

    trace: Trace
    scale: float
    seed: int
    k: int = DEFAULT_K
    #: Construction engine for cache-assisted schemes ("batched" or
    #: "scalar"); both are bit-identical, batched is faster.
    engine: str = "batched"
    #: Optional metrics registry threaded into every scheme the
    #: experiment builders construct (None = observability off).
    registry: MetricsRegistry | None = None
    #: Optional deterministic fault workload injected into every scheme
    #: the experiment builders construct (None = healthy run).
    fault_plan: FaultPlan | None = None

    @property
    def cache_kb(self) -> float:
        return PAPER_CACHE_KB * self.scale

    @property
    def sram_kb_main(self) -> float:
        return PAPER_SRAM_KB_MAIN * self.scale

    @property
    def sram_kb_case(self) -> float:
        return PAPER_SRAM_KB_CASE * self.scale

    @property
    def sram_kb_case_big(self) -> float:
        return PAPER_SRAM_KB_CASE_BIG * self.scale

    @property
    def entry_capacity(self) -> int:
        """The paper's sizing rule ``y = floor(2 n / Q)``."""
        return max(2, int(2 * self.trace.num_packets / self.trace.num_flows))

    def describe(self) -> str:
        t = self.trace
        return (
            f"scale={self.scale}: n={t.num_packets} packets, Q={t.num_flows} flows, "
            f"mu={t.mean_flow_size:.2f}, y={self.entry_capacity}, k={self.k}; "
            f"cache={self.cache_kb:.2f}KB, sram(main)={self.sram_kb_main:.2f}KB, "
            f"sram(CASE)={self.sram_kb_case:.2f}KB / {self.sram_kb_case_big:.2f}KB"
        )


def configured_scale() -> float:
    """Scale from the REPRO_SCALE environment variable (default 0.05)."""
    raw = os.environ.get("REPRO_SCALE", "")
    if not raw:
        return DEFAULT_SCALE
    try:
        scale = float(raw)
    except ValueError as exc:
        raise ConfigError(f"REPRO_SCALE must be a float, got {raw!r}") from exc
    if not 0 < scale <= 1.0:
        raise ConfigError(f"REPRO_SCALE must be in (0, 1], got {scale}")
    return scale


@lru_cache(maxsize=4)
def standard_setup(scale: float | None = None, seed: int = DEFAULT_SEED) -> ExperimentSetup:
    """The cached default workload for all experiments."""
    if scale is None:
        scale = configured_scale()
    return ExperimentSetup(
        trace=default_paper_trace(scale=scale, seed=seed),
        scale=scale,
        seed=seed,
    )
