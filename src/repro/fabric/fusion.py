"""Query-time fusion of per-vantage CAESAR estimates.

Every vantage on a flow's route produces an independent estimate of
the same true size — independent because vantages carry distinct hash
seeds *and* observe different background traffic, so their sharing
noise is (quasi-)uncorrelated. Fusion combines those observations into
one network-wide answer per flow. Three estimators, in increasing
sophistication:

- ``min`` — the smallest observation. CSM noise is non-negative in
  expectation (every counter carries other flows' packets before the
  ``n/L`` compensation), so the minimum is a crude bias clamp — the
  classic count-min move.
- ``ivw`` — inverse-variance weighting with each vantage's variance
  evaluated at its *own* estimate (plug-in, Eq. 22 via
  :func:`repro.core.theory.csm_variance`). The minimum-variance linear
  combination when the plug-in variances are trusted.
- ``mle`` — a weighted MLE under the Gaussian approximation of Eq. 22:
  because the variance depends on the unknown size ``x``, the weights
  are re-evaluated at the current fused ``x`` and iterated to a fixed
  point (``var_i(x) = slope_i * x + floor_i`` is linear in ``x``, so a
  handful of fixed-point steps converge). The estimating equation is
  ``x = Σ_i w_i(x) x̂_i / Σ_i w_i(x)``. Its first pass is ``ivw``, so
  ``ivw`` is ``mle`` with zero re-weighting passes.

``ivw`` and ``mle`` run in the compiled kernel
(:func:`repro.cachesim.kernel.fuse_weighted`), one flow at a time, and
raise :class:`~repro.errors.KernelBuildError` without it; ``min`` is
numpy.

Determinism contract: all three fusers first sort observations by
vantage id. Each weighted sum starts from +0.0 and adds the vantages in
id order, so the fused value is the same bit for bit whatever order
the vantages were queried or drained in, and whatever other flows the
same query holds. A flow observed by exactly one vantage passes that
vantage's estimate through *unchanged* (no multiply-divide round-trip;
only -0.0 becomes +0.0), which is what makes a one-vantage fabric
bit-identical to plain :class:`~repro.core.sharded.ShardedCaesar`.
Observations a degraded vantage returned as NaN are skipped per flow;
a flow with no finite observation at all fuses to NaN.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import numpy.typing as npt

from repro.analysis.metrics import relative_errors
from repro.cachesim import kernel
from repro.errors import ConfigError, QueryError

#: Fusion estimators, in the CLI's vocabulary.
FUSION_METHODS = ("min", "ivw", "mle")

#: Fixed-point iterations for the weighted MLE. The variance model is
#: linear in x, so the map contracts fast. A flow stops early only once
#: its fused value repeats bit for bit, which every later pass would
#: repeat too, so the answer is that of all eight.
MLE_ITERATIONS = 8

#: Variance floor guarding the weight division (k=1 degenerates Eq. 22
#: to zero variance; a zero-packet vantage has a zero noise floor).
_MIN_VARIANCE = 1e-12


@dataclass(frozen=True)
class VantageObservation:
    """One vantage's view of a common query vector.

    ``estimates[f]`` is NaN where this vantage does not observe flow
    ``f`` (not on its route, or the vantage is degraded for it).
    ``var_slope``/``var_floor`` linearize the vantage's Eq. 22 variance
    model, ``Var_i(x) = var_slope * x + var_floor`` — slope and floor
    are per flow because they depend on the owning shard's bank size
    and traffic mass.
    """

    vantage: int
    estimates: npt.NDArray[np.float64]
    var_slope: npt.NDArray[np.float64]
    var_floor: npt.NDArray[np.float64]

    def __post_init__(self) -> None:
        est = np.asarray(self.estimates, dtype=np.float64)
        if est.ndim != 1:
            raise ConfigError("estimates must be a 1-D vector")
        for name in ("var_slope", "var_floor"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            if arr.shape != est.shape:
                raise ConfigError(f"{name} must align with estimates")

    @property
    def observed(self) -> npt.NDArray[np.bool_]:
        """Which queried flows this vantage actually observed."""
        return np.isfinite(np.asarray(self.estimates, dtype=np.float64))

    def variance_at(self, x: npt.NDArray[np.float64]) -> npt.NDArray[np.float64]:
        """Eq. 22 evaluated at size hypothesis ``x`` (clipped to 0)."""
        return self.var_slope * np.maximum(np.asarray(x, dtype=np.float64), 0.0) + (
            self.var_floor
        )


def _canonical(
    observations: list[VantageObservation] | tuple[VantageObservation, ...],
) -> list[VantageObservation]:
    """Sort by vantage id — the order every float reduction uses."""
    if not observations:
        raise QueryError("fusion needs at least one vantage observation")
    obs = sorted(observations, key=lambda o: o.vantage)
    ids = [o.vantage for o in obs]
    if len(set(ids)) != len(ids):
        raise ConfigError(f"duplicate vantage ids in observations: {ids}")
    length = len(obs[0].estimates)
    if any(len(o.estimates) != length for o in obs):
        raise ConfigError("all observations must cover the same query vector")
    return obs


def fuse_min(
    observations: list[VantageObservation] | tuple[VantageObservation, ...],
) -> npt.NDArray[np.float64]:
    """Smallest finite observation per flow (count-min style clamp)."""
    est = np.stack([np.asarray(o.estimates, dtype=np.float64) for o in _canonical(observations)])
    mask = np.isfinite(est)
    fused = np.where(mask, est, np.inf).min(axis=0)
    fused[~mask.any(axis=0)] = np.nan
    return fused


def _fuse_weighted(
    observations: list[VantageObservation] | tuple[VantageObservation, ...], passes: int
) -> npt.NDArray[np.float64]:
    obs = _canonical(observations)
    return kernel.fuse_weighted(
        [o.estimates for o in obs],
        [o.var_slope for o in obs],
        [o.var_floor for o in obs],
        passes,
        _MIN_VARIANCE,
    )


def fuse_ivw(
    observations: list[VantageObservation] | tuple[VantageObservation, ...],
) -> npt.NDArray[np.float64]:
    """Inverse-variance weighting at each vantage's plug-in variance."""
    return _fuse_weighted(observations, 0)


def fuse_mle(
    observations: list[VantageObservation] | tuple[VantageObservation, ...],
) -> npt.NDArray[np.float64]:
    """Weighted MLE: iterate the size-dependent weights to a fixed point."""
    return _fuse_weighted(observations, MLE_ITERATIONS)


_FUSERS = {"min": fuse_min, "ivw": fuse_ivw, "mle": fuse_mle}


def fuse(
    observations: list[VantageObservation] | tuple[VantageObservation, ...],
    method: str = "mle",
) -> npt.NDArray[np.float64]:
    """Fuse per-vantage observations into one estimate per flow.

    Deterministic in the observation *set*: any permutation of
    ``observations`` fuses to the bit-identical vector.
    """
    try:
        fuser = _FUSERS[method]
    except KeyError:
        raise ConfigError(
            f"unknown fusion method {method!r}; use one of {FUSION_METHODS}"
        ) from None
    return fuser(observations)


@dataclass(frozen=True)
class FusionReport:
    """Accuracy accounting for one fused query against ground truth.

    ``per_vantage_are`` is each vantage's mean absolute relative error
    over *the flows it observed* (a vantage is never punished for flows
    not on its routes); ``fused_are`` is the network-wide error of the
    fused vector over all flows with at least one observation.
    """

    method: str
    per_vantage_are: dict[int, float]
    per_vantage_flows: dict[int, int]
    fused_are: float
    fused_flows: int

    @property
    def best_vantage(self) -> int:
        """The single vantage with the lowest observed-flow ARE."""
        return min(self.per_vantage_are, key=lambda v: self.per_vantage_are[v])

    @property
    def best_vantage_are(self) -> float:
        return self.per_vantage_are[self.best_vantage]

    def summary(self) -> str:
        lines = [f"fusion={self.method}: ARE {self.fused_are:.4f} over "
                 f"{self.fused_flows} flows"]
        for v in sorted(self.per_vantage_are):
            lines.append(
                f"  vantage {v}: ARE {self.per_vantage_are[v]:.4f} over "
                f"{self.per_vantage_flows[v]} observed flows"
            )
        lines.append(
            f"  best single vantage: {self.best_vantage} "
            f"(ARE {self.best_vantage_are:.4f})"
        )
        return "\n".join(lines)


def fusion_report(
    truth: npt.NDArray[np.int64],
    observations: list[VantageObservation] | tuple[VantageObservation, ...],
    fused: npt.NDArray[np.float64],
    *,
    method: str = "mle",
) -> FusionReport:
    """Per-vantage and network-wide error report for a fused query."""
    obs = _canonical(observations)
    truth = np.asarray(truth, dtype=np.float64)
    fused = np.asarray(fused, dtype=np.float64)
    if truth.shape != fused.shape or truth.shape != obs[0].estimates.shape:
        raise ConfigError("truth, fused, and observations must be aligned")
    per_are: dict[int, float] = {}
    per_n: dict[int, int] = {}
    for o in obs:
        seen = o.observed
        per_n[o.vantage] = int(seen.sum())
        per_are[o.vantage] = (
            float(np.abs(relative_errors(o.estimates[seen], truth[seen])).mean())
            if seen.any()
            else float("nan")
        )
    covered = np.isfinite(fused)
    fused_are = (
        float(np.abs(relative_errors(fused[covered], truth[covered])).mean())
        if covered.any()
        else float("nan")
    )
    return FusionReport(
        method=method,
        per_vantage_are=per_are,
        per_vantage_flows=per_n,
        fused_are=fused_are,
        fused_flows=int(covered.sum()),
    )
