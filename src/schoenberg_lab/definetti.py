"""Exchangeable simulation, the LLN statistic, and the two-sided identity.

The pipeline mirrors the probabilistic construction behind radial positive
definiteness: an exchangeable sequence Y_1, Y_2, ... is conditionally i.i.d.
Gaussian given a latent scale S, the mean of squares L_n = (1/n) sum Y_i^2
converges to S, and the law of the limit recovers the mixing measure. The
identity checker compares the two Monte Carlo estimates of

    E[ f(sqrt((1/n) sum X_i^2)) ]  =  E[ exp(-(t^2 / 2n) sum Y_i^2) ]

with X_i i.i.d. centered Gaussians of standard deviation t, which both
converge to f(t) as n grows.

Every replicated statistic depends on its n Gaussian draws only through
sum Z_i^2, whose law is exactly chi-square with n degrees of freedom, so
each replicate draws that one number instead of n normals: the LLN
statistic is L = S chi^2_n / n, the left side f(t sqrt(chi^2_n / n)) and
the right side exp(-t^2 L / 2), the transform of L's law. None of these
draws depends on t, so one set of replicates per sample size n serves
every t.

All simulated statistics are finite by construction; the degenerate
infinite-limit event has no finite-sample counterpart here.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .measures import MixingMeasure, draw_scales, mixture_laplace
from .profiles import RadialProfile
from .rng import ROLE_LHS, ROLE_RHS, ROLE_SAMPLE, substream

CONSISTENCY_GRID = np.array([0.0, 0.5, 1.0, 1.5, 2.0])
CONSISTENCY_TOL = 0.02


class InconsistentInputsError(ValueError):
    """Profile and mixing measure do not describe the same radial function."""


@dataclass(frozen=True)
class EmpiricalMeasure:
    """Sorted nonnegative sample with its empirical CDF."""

    values: np.ndarray

    def __post_init__(self):
        v = np.sort(np.asarray(self.values, dtype=float))
        if v.ndim != 1 or len(v) == 0:
            raise ValueError("values must be a nonempty 1-d array")
        if not np.all(np.isfinite(v)) or np.any(v < 0):
            raise ValueError("values must be finite and nonnegative")
        object.__setattr__(self, "values", v)

    @property
    def support(self) -> np.ndarray:
        return self.values

    @property
    def cumulative(self) -> np.ndarray:
        """k / n for k = 0..n: the CDF once k sample points are passed is entry k."""
        return np.arange(len(self.values) + 1) / len(self.values)

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["L"])
            writer.writerows([[repr(float(v))] for v in self.values])

    def to_measure(self, bins: int = 64, label: str = "empirical") -> MixingMeasure:
        """Equal-mass binning into a MixingMeasure with ``bins`` atoms."""
        if bins < 1:
            raise ValueError(f"bins must be >= 1, got {bins}")
        n = len(self.values)
        bins = min(bins, n)
        edges = np.linspace(0, n, bins + 1).astype(int)
        scales, weights = [], []
        # bins <= n, so consecutive edges differ by at least 1: no bin is empty
        for lo, hi in zip(edges[:-1], edges[1:]):
            scales.append(self.values[lo:hi].mean())
            weights.append((hi - lo) / n)
        scales = np.asarray(scales)
        weights = np.asarray(weights)
        # merge duplicate atom positions produced by ties
        uniq, inv = np.unique(scales, return_inverse=True)
        merged = np.zeros_like(uniq)
        np.add.at(merged, inv, weights)
        return MixingMeasure(uniq, merged / merged.sum(), label=label)


def estimate_mixing(measure: MixingMeasure, n: int = 1000, reps: int = 100_000,
                    seed: int = 0) -> EmpiricalMeasure:
    """Empirical law of the LLN statistic over ``reps`` exchangeable draws.

    As n and reps grow this estimates the mixing measure itself: each
    replicate's statistic S chi^2_n / n concentrates at its latent scale S.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if reps < 100:
        raise ValueError("reps must be >= 100")
    return EmpiricalMeasure(_lln_statistic(measure, n, reps, substream(seed, ROLE_SAMPLE)))


def _lln_statistic(measure: MixingMeasure, n: int, reps: int, rng: np.random.Generator):
    """``reps`` draws of L = S chi^2_n / n: the scales S first, then chi^2_n, from ``rng``."""
    stat = draw_scales(measure, reps, rng)
    stat *= rng.chisquare(n, reps)
    stat /= n
    return stat


@dataclass(frozen=True)
class KeyIdentityResult:
    """Two-sided Monte Carlo estimates of the expectation identity."""

    lhs: float
    rhs: float
    lhs_se: float
    rhs_se: float
    f_of_t: float

    @property
    def gap(self) -> float:
        return abs(self.lhs - self.rhs)

    @property
    def combined_se(self) -> float:
        return float(np.hypot(self.lhs_se, self.rhs_se))


def check_profile_measure_match(profile: RadialProfile, measure: MixingMeasure) -> None:
    """Raise unless f agrees with the measure's transform on CONSISTENCY_GRID."""
    gap = np.abs(profile(CONSISTENCY_GRID) - mixture_laplace(measure, CONSISTENCY_GRID))
    if gap.max() > CONSISTENCY_TOL:
        raise InconsistentInputsError(
            f"profile {profile.label!r} and measure {measure.label!r} disagree "
            f"by {gap.max():.4f} on the check grid (tolerance {CONSISTENCY_TOL})"
        )


def _mean_and_se(values: np.ndarray) -> tuple[float, float]:
    """(mean, standard error of the mean); overwrites ``values``.

    The same operations in the same order as ``values.mean()`` and
    ``values.std(ddof=1) / sqrt(n)``, without std's replicate-size temporary.
    """
    mean = values.mean()
    values -= mean
    values *= values
    return float(mean), float(np.sqrt(values.sum() / (len(values) - 1)) / np.sqrt(len(values)))


def identity_lhs(profile: RadialProfile, t_values, n: int = 1000, reps: int = 100_000,
                 seed: int = 0) -> list[tuple[float, float]]:
    """Mean and standard error of f(t sqrt(chi^2_n / n)) at every t in ``t_values``."""
    if not all(0 < t < np.inf for t in t_values):  # also rejects nan
        raise ValueError("t must be positive and finite")
    if n < 1:
        raise ValueError("n must be >= 1")
    if reps < 2:
        raise ValueError("reps must be >= 2")
    root = substream(seed, ROLE_LHS).chisquare(n, reps)
    root /= n
    np.sqrt(root, out=root)
    scaled = np.empty_like(root)  # t * root, one t at a time
    return [_mean_and_se(profile(np.multiply(t, root, out=scaled))) for t in t_values]


def key_identity_mc(profile: RadialProfile, measure: MixingMeasure, t_values,
                    n: int = 1000, reps: int = 100_000, seed: int = 0) -> list[KeyIdentityResult]:
    """Monte Carlo both sides of the expectation identity at every t in ``t_values``.

    lhs averages f(sqrt((1/n) sum X_i^2)) over i.i.d. N(0, t^2) probes;
    rhs averages exp(-(t^2/2n) sum Y_i^2) over exchangeable draws from the
    measure, that is exp(-t^2 L / 2) over draws of the LLN statistic L.
    Each side draws once and evaluates every t, so equal t give equal
    results. The two sides are independent substreams of ``seed``;
    the comparison is an equality of expectations, not a pathwise coupling.
    """
    check_profile_measure_match(profile, measure)
    # identity_lhs checks t, n and reps before the first draw, and its draws
    # are freed before the right side's are made
    lhs = identity_lhs(profile, t_values, n=n, reps=reps, seed=seed)
    stat = _lln_statistic(measure, n, reps, substream(seed, ROLE_RHS))
    x = np.empty_like(stat)  # exp(-0.5 * t * t * stat), one t at a time
    rhs = [_mean_and_se(np.exp(np.multiply(-0.5 * t * t, stat, out=x), out=x)) for t in t_values]
    return [KeyIdentityResult(lhs=lhs_t[0], rhs=rhs_t[0], lhs_se=lhs_t[1], rhs_se=rhs_t[1],
                              f_of_t=float(profile(t)))
            for t, lhs_t, rhs_t in zip(t_values, lhs, rhs)]
