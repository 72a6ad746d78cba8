"""Eviction-value splitting (Section 3.1, Figure 2).

An evicted value ``C_f = p*k + q`` is divided over the flow's ``k``
mapped counters: the aliquot part ``p`` goes to every counter, then the
remainder's ``q`` packets are allocated "to these k counters one by
one" — each unit independently lands on a uniformly random mapped
counter, so counter ``r``'s remainder share is Binomial(q, 1/k),
exactly the ``EV_i2 ~ B(ev_i2, 1/k)`` of Section 4.2.
"""

from __future__ import annotations

import numpy as np
import numpy.typing as npt

from repro.errors import ConfigError


def split_value(value: int, k: int, rng: np.random.Generator) -> npt.NDArray[np.int64]:
    """Increments for the ``k`` mapped counters of one evicted value.

    Returns an int64 array of length ``k`` summing exactly to ``value``:
    ``p = value // k`` everywhere plus a multinomial scatter of the
    remainder ``q = value % k`` (marginally Binomial(q, 1/k) per
    counter, matching the paper's analysis).
    """
    if value < 0:
        raise ConfigError(f"evicted value must be >= 0, got {value}")
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    p, q = divmod(value, k)
    out = np.full(k, p, dtype=np.int64)
    if q:
        # Equivalent to one Multinomial(q, uniform) draw, but cheaper
        # for the tiny q < k of the hot eviction path.
        for slot in rng.integers(0, k, size=q):
            out[slot] += 1
    return out


def split_evenly(value: int, k: int) -> npt.NDArray[np.int64]:
    """Deterministic variant: remainder goes to the first ``q`` counters.

    Used by the ablation comparing the paper's randomized remainder
    against a deterministic round-robin remainder (which biases the
    low-numbered banks but has zero allocation variance).
    """
    if value < 0:
        raise ConfigError(f"evicted value must be >= 0, got {value}")
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    p, q = divmod(value, k)
    out = np.full(k, p, dtype=np.int64)
    out[:q] += 1
    return out


def split_batch(
    values: npt.NDArray[np.int64],
    k: int,
    rng: np.random.Generator,
) -> npt.NDArray[np.int64]:
    """Vectorized :func:`split_value` over a whole eviction batch,
    consuming the generator *identically* to the scalar loop.

    Returns shape ``(len(values), k)``; row ``i`` sums to ``values[i]``.
    The scalar path draws ``q_i = values[i] % k`` uniform slots per
    eviction in order; bounded-integer generation is prefix-stable, so
    one draw of ``sum(q_i)`` slots yields the same stream — making the
    batched engine bit-identical to the scalar reference (same counter
    array, same generator state) under a fixed seed.
    """
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    values = np.asarray(values, dtype=np.int64)
    if values.ndim != 1:
        raise ConfigError("values must be 1-D")
    if len(values) and values.min() < 0:
        raise ConfigError("evicted values must be >= 0")
    p, q = np.divmod(values, k)
    out = np.repeat(p, k).reshape(len(values), k)
    total = int(q.sum())
    if total:
        slots = rng.integers(0, k, size=total)
        # One 1-D scatter over flat ``row * k + slot`` indices.
        flat = np.repeat(np.arange(0, len(values) * k, k, dtype=np.int64), q)
        flat += slots
        np.add.at(out.reshape(-1), flat, 1)
    return out


def split_values_batch(
    values: npt.NDArray[np.int64],
    k: int,
    rng: np.random.Generator,
) -> npt.NDArray[np.int64]:
    """Distributionally-equivalent batch split (binomial-chain draw).

    Returns shape ``(len(values), k)``; each row sums to its value.
    The remainder scatter draws one multinomial row per eviction via a
    single vectorized binomial-chain decomposition (no Python loop):
    Multinomial(q, uniform) is realized as sequential binomials over
    the remaining mass. Same *distribution* as :func:`split_value` but
    a different generator stream — the construction engine uses
    :func:`split_batch`, which is stream-identical to the scalar loop.
    """
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    values = np.asarray(values, dtype=np.int64)
    if values.ndim != 1:
        raise ConfigError("values must be 1-D")
    if len(values) and values.min() < 0:
        raise ConfigError("evicted values must be >= 0")
    p, q = np.divmod(values, k)
    out = np.tile(p[:, None], (1, k))
    remaining = q.copy()
    # Sequential-binomial decomposition of a multinomial: slot r gets
    # Binomial(remaining, 1/(k-r)) of what's left.
    for r in range(k - 1):
        share = rng.binomial(remaining, 1.0 / (k - r))
        out[:, r] += share
        remaining -= share
    out[:, k - 1] += remaining
    return out
