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
statistic is S chi^2_n / n, the left side f(t sqrt(chi^2_n / n)) and the
right side exp(-t^2 S chi^2_n / (2n)). ``sample_exchangeable`` still draws
coordinate by coordinate because it returns the sequence itself.

All simulated statistics are finite by construction; the degenerate
infinite-limit event has no finite-sample counterpart here.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .measures import MixingMeasure, draw_scales, mixture_laplace
from .profiles import RadialProfile
from .rng import ROLE_LHS, ROLE_NOISE, ROLE_RHS, ROLE_SAMPLE, ROLE_SCALE, substream

CONSISTENCY_GRID = np.array([0.0, 0.5, 1.0, 1.5, 2.0])
CONSISTENCY_TOL = 0.02


class InconsistentInputsError(ValueError):
    """Profile and mixing measure do not describe the same radial function."""


@dataclass(frozen=True)
class ExchangeableSample:
    """One realization (Y_1, ..., Y_n), with the latent scale when simulated."""

    values: np.ndarray
    latent_scale: float | None = None

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or len(v) < 1:
            raise ValueError("values must be a nonempty 1-d array")
        object.__setattr__(self, "values", v)
        if self.latent_scale is not None and self.latent_scale < 0:
            raise ValueError("latent scale must be nonnegative")

    @property
    def n(self) -> int:
        return len(self.values)


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

    def cdf(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        out = np.searchsorted(self.values, x, side="right") / len(self.values)
        return float(out) if x.ndim == 0 else out

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
        for lo, hi in zip(edges[:-1], edges[1:]):
            if hi > lo:
                scales.append(self.values[lo:hi].mean())
                weights.append((hi - lo) / n)
        scales = np.asarray(scales)
        weights = np.asarray(weights)
        # merge duplicate atom positions produced by ties
        uniq, inv = np.unique(scales, return_inverse=True)
        merged = np.zeros_like(uniq)
        np.add.at(merged, inv, weights)
        return MixingMeasure(uniq, merged / merged.sum(), label=label)


def sample_exchangeable(measure: MixingMeasure, n: int, seed: int = 0) -> ExchangeableSample:
    """Draw S ~ nu once, then Y_i = sqrt(S) Z_i with Z_i standard normal."""
    if n < 1:
        raise ValueError("n must be >= 1")
    scale = float(draw_scales(measure, 1, substream(seed, ROLE_SCALE))[0])
    noise = substream(seed, ROLE_NOISE).standard_normal(n)
    return ExchangeableSample(values=np.sqrt(scale) * noise, latent_scale=scale)


def lln_statistic(sample: ExchangeableSample) -> float:
    """(1/n) sum Y_i^2."""
    return float(np.mean(np.square(sample.values)))


def _lln_values(measure: MixingMeasure, n: int, reps: int, rng: np.random.Generator) -> np.ndarray:
    """reps independent draws of the LLN statistic S chi^2_n / n."""
    scales = draw_scales(measure, reps, rng)
    return scales * rng.chisquare(n, reps) / n


def estimate_mixing(measure: MixingMeasure, n: int = 1000, reps: int = 100_000,
                    seed: int = 0) -> EmpiricalMeasure:
    """Empirical law of the LLN statistic over ``reps`` exchangeable draws.

    As n and reps grow this estimates the mixing measure itself: each
    replicate's statistic concentrates at its latent scale.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if reps < 100:
        raise ValueError("reps must be >= 100")
    return EmpiricalMeasure(_lln_values(measure, n, reps, substream(seed, ROLE_SAMPLE)))


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


def check_profile_measure_match(profile: RadialProfile, measure: MixingMeasure,
                                grid=CONSISTENCY_GRID, tol: float = CONSISTENCY_TOL) -> None:
    """Raise unless f agrees with the measure's transform on a small grid."""
    grid = np.asarray(grid, dtype=float)
    gap = np.abs(profile(grid) - mixture_laplace(measure, grid))
    if gap.max() > tol:
        raise InconsistentInputsError(
            f"profile {profile.label!r} and measure {measure.label!r} disagree "
            f"by {gap.max():.4f} on the check grid (tolerance {tol})"
        )


def key_identity_mc(profile: RadialProfile, measure: MixingMeasure, t: float,
                    n: int = 1000, reps: int = 100_000, seed: int = 0) -> KeyIdentityResult:
    """Monte Carlo both sides of the expectation identity at scale t.

    lhs averages f(sqrt((1/n) sum X_i^2)) over i.i.d. N(0, t^2) probes;
    rhs averages exp(-(t^2/2n) sum Y_i^2) over exchangeable draws from the
    measure. The two streams are independent substreams of ``seed``; the
    comparison is an equality of expectations, not a pathwise coupling.
    """
    if t <= 0:
        raise ValueError("t must be positive")
    if n < 1 or reps < 1:
        raise ValueError("n and reps must be >= 1")
    check_profile_measure_match(profile, measure)

    lhs_chi2 = substream(seed, ROLE_LHS).chisquare(n, reps)
    lhs_vals = profile(t * np.sqrt(lhs_chi2 / n))

    rhs_rng = substream(seed, ROLE_RHS)
    rhs_scales = draw_scales(measure, reps, rhs_rng)
    rhs_vals = np.exp(-0.5 * t * t * rhs_scales * rhs_rng.chisquare(n, reps) / n)

    return KeyIdentityResult(
        lhs=float(lhs_vals.mean()),
        rhs=float(rhs_vals.mean()),
        lhs_se=float(lhs_vals.std(ddof=1) / np.sqrt(reps)),
        rhs_se=float(rhs_vals.std(ddof=1) / np.sqrt(reps)),
        f_of_t=float(profile(t)),
    )
