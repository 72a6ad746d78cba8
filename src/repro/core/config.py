"""CAESAR configuration with validation and budget-driven sizing."""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError
from repro.sram.layout import (
    bank_size_for_budget,
    cache_entries_for_budget,
    cache_kilobytes,
    sram_kilobytes,
)


@dataclass(frozen=True)
class CaesarConfig:
    """All parameters of one CAESAR instance (paper's Table 1 symbols).

    Attributes
    ----------
    cache_entries:
        ``M`` — number of on-chip cache entries.
    entry_capacity:
        ``y`` — maximum count a cache entry holds before overflowing.
        The paper's sizing rule is ``y = floor(2 * n / Q)``.
    k:
        Number of mapped SRAM counters per flow (paper uses 3).
    bank_size:
        ``L`` — counters per bank; total SRAM counters are ``k * L``.
    counter_capacity:
        ``l`` — maximum value of one SRAM counter.
    replacement:
        ``"lru"`` or ``"random"`` (Section 3.1 tries both).
    remainder:
        How the non-aliquot part ``q`` of an evicted value is spread
        over the k counters: ``"random"`` (paper: unit-by-unit uniform,
        Binomial(q, 1/k) per counter) or ``"even"`` (deterministic
        round-robin; ablation 2 in DESIGN.md).
    seed:
        Master seed for the hash family and all randomized choices.
    engine:
        Construction dataflow: ``"batched"`` (default — the compiled
        cache kernel buffers evictions, which land in vectorized
        chunks) or ``"scalar"`` (the per-event callback reference
        path). Both produce bit-identical results under the same seed;
        batched is many times faster.
    """

    cache_entries: int
    entry_capacity: int
    k: int = 3
    bank_size: int = 4096
    counter_capacity: int = 2**30
    replacement: str = "lru"
    remainder: str = "random"
    seed: int = 0x0C_AE_5A_12
    engine: str = "batched"

    def __post_init__(self) -> None:
        if self.cache_entries < 1:
            raise ConfigError(f"cache_entries must be >= 1, got {self.cache_entries}")
        if self.entry_capacity < 1:
            raise ConfigError(f"entry_capacity must be >= 1, got {self.entry_capacity}")
        if self.k < 1:
            raise ConfigError(f"k must be >= 1, got {self.k}")
        if self.bank_size < 1:
            raise ConfigError(f"bank_size must be >= 1, got {self.bank_size}")
        if self.counter_capacity < self.entry_capacity:
            raise ConfigError(
                "counter_capacity must be at least entry_capacity "
                f"({self.counter_capacity} < {self.entry_capacity})"
            )
        if self.replacement not in ("lru", "random"):
            raise ConfigError(f"replacement must be 'lru' or 'random', got {self.replacement!r}")
        if self.remainder not in ("random", "even"):
            raise ConfigError(f"remainder must be 'random' or 'even', got {self.remainder!r}")
        if self.engine not in ("batched", "scalar"):
            raise ConfigError(f"engine must be 'batched' or 'scalar', got {self.engine!r}")

    # -- memory accounting ----------------------------------------------------

    @property
    def sram_kilobytes(self) -> float:
        """Off-chip budget actually used, paper accounting."""
        return sram_kilobytes(self.k, self.bank_size, self.counter_capacity)

    @property
    def cache_kilobytes(self) -> float:
        """On-chip budget actually used, paper accounting."""
        return cache_kilobytes(self.cache_entries, self.entry_capacity)

    # -- budget-driven construction --------------------------------------------

    @classmethod
    def for_budgets(
        cls,
        *,
        sram_kb: float,
        cache_kb: float,
        num_packets: int,
        num_flows: int,
        k: int = 3,
        counter_capacity: int = 2**20 - 1,
        replacement: str = "lru",
        seed: int = 0x0C_AE_5A_12,
        engine: str = "batched",
    ) -> "CaesarConfig":
        """Size a CAESAR instance exactly the way the paper's Section 6.2
        does: ``y = floor(2 n / Q)``, cache entries to fill ``cache_kb``,
        bank size to fill ``sram_kb`` given the counter width (default
        20-bit counters — the width under which the paper's 91.55 KB
        budget yields its counter count)."""
        if num_packets < 1 or num_flows < 1:
            raise ConfigError("num_packets and num_flows must be >= 1")
        y = max(2, int(2 * num_packets / num_flows))
        return cls(
            cache_entries=cache_entries_for_budget(cache_kb, y),
            entry_capacity=y,
            k=k,
            bank_size=bank_size_for_budget(sram_kb, k, counter_capacity),
            counter_capacity=counter_capacity,
            replacement=replacement,
            seed=seed,
            engine=engine,
        )

    def describe(self) -> str:
        """One-line human-readable summary."""
        return (
            f"CAESAR(M={self.cache_entries}, y={self.entry_capacity}, k={self.k}, "
            f"L={self.bank_size}, l={self.counter_capacity}, {self.replacement}; "
            f"cache={self.cache_kilobytes:.2f}KB, sram={self.sram_kilobytes:.2f}KB)"
        )
