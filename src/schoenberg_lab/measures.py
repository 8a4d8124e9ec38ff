"""Discrete mixing measures and the Gaussian scale mixtures they induce.

A mixing measure nu is a probability measure on scales s >= 0, held here as
atoms (s_k, w_k). It induces, for every dimension n, the law of sqrt(S) * Z
with S ~ nu and Z standard normal in R^n. ``mixture_laplace(nu, t)`` =
sum_k w_k exp(-t^2 s_k / 2) is the radial profile generated by nu: by radial
symmetry, the characteristic function of each of those laws at any x with
||x|| = t.

Continuous catalog laws (Exp, Levy) are represented by midpoint-rule atom
discretizations on a log-spaced grid; the truncated tail mass is recorded in
the label.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .profiles import RadialProfile
from .rng import ROLE_NOISE, ROLE_SCALE, substream

MASS_TOL = 1e-9

# Asymptotic two-sample KS critical scale: c(alpha) = sqrt(-ln(alpha/2)/2).
KS_ALPHA = 0.01


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


@dataclass(frozen=True)
class MixingMeasure:
    """Probability measure on R+ given by atoms (scales, weights)."""

    scales: np.ndarray
    weights: np.ndarray
    label: str = "measure"

    def __post_init__(self):
        s = np.asarray(self.scales, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        if s.ndim != 1 or s.shape != w.shape or len(s) == 0:
            raise ValueError("scales and weights must be equal-length 1-d arrays")
        if not (np.all(np.isfinite(s)) and np.all(np.isfinite(w))):
            raise ValueError("atoms must be finite")
        if np.any(s < 0):
            raise ValueError("scales must be nonnegative")
        if np.any(np.diff(s) <= 0):
            raise ValueError("scales must be strictly increasing")
        if np.any(w <= 0):
            raise ValueError("weights must be positive")
        total = w.sum()
        if abs(total - 1.0) > MASS_TOL:
            raise ValueError(f"weights sum to {total!r}, expected 1 within {MASS_TOL}")
        object.__setattr__(self, "scales", s)
        object.__setattr__(self, "weights", w)

    @property
    def support(self) -> np.ndarray:
        return self.scales

    def cdf(self, x) -> np.ndarray:
        """Right-continuous CDF evaluated at x (scalar or array)."""
        x = np.asarray(x, dtype=float)
        cum = np.concatenate([[0.0], np.cumsum(self.weights)])
        out = cum[np.searchsorted(self.scales, x, side="right")]
        return float(out) if x.ndim == 0 else out

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "atoms": [{"s": float(s), "w": float(w)}
                      for s, w in zip(self.scales, self.weights)],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "MixingMeasure":
        """Build from the JSON form ``{"label": ..., "atoms": [{"s": ..., "w": ...}]}``.

        A document of any other shape is rejected, and so are unsorted scales
        and weights that do not sum to 1; neither is silently fixed.
        """
        atoms = data.get("atoms") if isinstance(data, dict) else None
        if not isinstance(atoms, list) or not atoms:
            raise ValueError("measure JSON must be an object with a non-empty 'atoms' list")
        for atom in atoms:
            if not (isinstance(atom, dict) and _is_number(atom.get("s"))
                    and _is_number(atom.get("w"))):
                raise ValueError(f"each atom must be an object with numeric 's' and 'w', "
                                 f"got {atom!r}")
        s = np.array([a["s"] for a in atoms], dtype=float)
        w = np.array([a["w"] for a in atoms], dtype=float)
        return cls(s, w, label=str(data.get("label", "measure")))

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "MixingMeasure":
        """Read a measure JSON file; a ValueError names the file."""
        with open(path) as fh:
            try:
                return cls.from_dict(json.load(fh))
            except ValueError as exc:
                raise ValueError(f"{path}: {exc}") from None


def design_matrix(t_grid, s_grid) -> np.ndarray:
    """A[j, k] = exp(-t_j^2 s_k / 2); the row for t = 0 is all ones."""
    return np.exp(-0.5 * np.multiply.outer(np.square(t_grid), s_grid))


def mixture_laplace(measure: MixingMeasure, t) -> np.ndarray | float:
    """sum_k w_k exp(-t^2 s_k / 2) for t >= 0 (scalar or array)."""
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("t must be nonnegative")
    out = design_matrix(t, measure.scales) @ measure.weights
    return float(out) if t.ndim == 0 else out


def profile_from_measure(measure: MixingMeasure) -> RadialProfile:
    """The radial profile t -> mixture_laplace(nu, t) as a RadialProfile."""
    return RadialProfile(label=f"mixture[{measure.label}]",
                         fn=lambda t: mixture_laplace(measure, t))


def draw_scales(measure: MixingMeasure, count: int, rng: np.random.Generator) -> np.ndarray:
    """Categorical draw of scales by cumulative inverse-CDF search.

    Fixed choice (not the alias method) so streams are reproducible across
    versions: u ~ U[0,1), then the first atom whose cumulative weight
    exceeds u.
    """
    cum = np.cumsum(measure.weights)
    cum[-1] = 1.0  # guard the top edge against rounding
    idx = np.searchsorted(cum, rng.random(count), side="right")
    return measure.scales[idx]


def _sample(measure: MixingMeasure, dim: int, count: int,
            scale_rng: np.random.Generator, noise_rng: np.random.Generator) -> np.ndarray:
    """``count`` points of the dim-dimensional mixture; (count, dim) array."""
    scales = draw_scales(measure, count, scale_rng)
    noise = noise_rng.standard_normal((count, dim))
    return np.sqrt(scales)[:, None] * noise


# --- catalog measures ---------------------------------------------------


def dirac(scale: float) -> MixingMeasure:
    """Point mass at a single scale."""
    if not 0.0 <= scale < np.inf:  # also rejects nan
        raise ValueError(f"scale must be finite and >= 0, got {scale!r}")
    return MixingMeasure(np.array([float(scale)]), np.array([1.0]),
                         label=f"delta({scale:g})")


def discretize_density(pdf: Callable[[np.ndarray], np.ndarray], label: str,
                       atoms: int) -> MixingMeasure:
    """Midpoint-rule atom discretization of a density on a log-spaced grid over [1e-3, 1e3].

    Weights are renormalized to total mass 1; the mass lost to truncation is
    recorded in the label.
    """
    edges = np.logspace(np.log10(1e-3), np.log10(1e3), atoms + 1)
    centers = 0.5 * (edges[:-1] + edges[1:])
    w = pdf(centers) * np.diff(edges)
    keep = w > 0
    centers, w = centers[keep], w[keep]
    deficit = 1.0 - w.sum()
    return MixingMeasure(centers, w / w.sum(),
                         label=f"{label}[tail-deficit={deficit:.2e}]")


def exponential_measure(rate: float = 1.0, atoms: int = 400) -> MixingMeasure:
    """Discretized Exp(rate) mixing law; generates f(t) = (1 + t^2/(2 rate))^-1."""
    if not 0.0 < rate < np.inf:  # also rejects nan
        raise ValueError(f"rate must be finite and > 0, got {rate!r}")
    return discretize_density(lambda s: rate * np.exp(-rate * s), f"exp({rate:g})", atoms)


def levy_measure(scale: float = 1.0, atoms: int = 400) -> MixingMeasure:
    """Discretized Levy (one-sided stable 1/2) law; generates f(t) = exp(-t sqrt(scale))."""
    if not 0.0 < scale < np.inf:  # also rejects nan
        raise ValueError(f"scale must be finite and > 0, got {scale!r}")

    def pdf(s):
        return np.sqrt(scale / (2.0 * np.pi)) * s ** -1.5 * np.exp(-scale / (2.0 * s))

    return discretize_density(pdf, f"levy({scale:g})", atoms)


def resolve_measure(spec: str) -> MixingMeasure:
    """Path to a measure JSON file, or a shorthand like ``delta:1``, ``exp:1``, ``levy:1``."""
    from os.path import exists

    if exists(spec):
        return MixingMeasure.load(spec)
    name, _, arg = spec.partition(":")
    value = float(arg) if arg else 1.0
    factories = {"delta": dirac, "exp": exponential_measure, "levy": levy_measure}
    if name in factories:
        return factories[name](value)
    raise KeyError(
        f"{spec!r} is neither a measure JSON path nor a shorthand "
        "(delta:S, exp:RATE, levy:SCALE)"
    )


# --- marginal consistency -----------------------------------------------


@dataclass(frozen=True)
class ConsistencyReport:
    """Two-sample KS comparison of mu_{n+1} marginalized against mu_n."""

    ks_first_coordinate: float
    ks_squared_norm: float
    critical_value: float
    count: int
    alpha: float
    passed: bool


def ks_two_sample(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sample Kolmogorov-Smirnov statistic."""
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    grid = np.concatenate([a, b])
    fa = np.searchsorted(a, grid, side="right") / len(a)
    fb = np.searchsorted(b, grid, side="right") / len(b)
    return float(np.abs(fa - fb).max())


def ks_critical_value(count: int) -> float:
    """Asymptotic two-sample critical value c(KS_ALPHA) * sqrt(2 / count)."""
    return float(np.sqrt(-np.log(KS_ALPHA / 2.0) / 2.0) * np.sqrt(2.0 / count))


def marginal_consistency_check(measure: MixingMeasure, dim: int, count: int = 10_000,
                               seed: int = 0, corrupt_scale: float = 1.0) -> ConsistencyReport:
    """Check that dropping the last coordinate of mu_{n+1} reproduces mu_n.

    mu_n is the n-dimensional mixture ``measure`` induces, with n = ``dim``.
    Draws ``count`` samples from mu_{n+1}, drops the last coordinate, draws
    ``count`` fresh samples from mu_n, and compares (a) the first coordinate
    and (b) the squared norm of the n-dimensional projections by two-sample
    KS. Passes iff both statistics are below the asymptotic critical value
    at level KS_ALPHA.

    ``corrupt_scale`` rescales the (n+1)-dimensional sample and exists as a
    negative control: any finite value > 0 other than 1 should make the check
    fail at desk-scale counts. A negative scale is rejected because the
    mixture is symmetric, so the sign flip alone would pass.
    """
    if dim < 1:
        raise ValueError("dimension must be >= 1")
    if count < 100:
        raise ValueError("count must be >= 100")
    if not 0.0 < corrupt_scale < np.inf:
        raise ValueError(f"corrupt_scale must be finite and > 0, got {corrupt_scale!r}")
    y_high = _sample(measure, dim + 1, count, substream(seed, ROLE_SCALE, 0),
                     substream(seed, ROLE_NOISE, 0)) * corrupt_scale
    y_low = _sample(measure, dim, count, substream(seed, ROLE_SCALE, 1),
                    substream(seed, ROLE_NOISE, 1))
    projected = y_high[:, :dim]
    ks_first = ks_two_sample(projected[:, 0], y_low[:, 0])
    ks_norm = ks_two_sample(np.sum(projected**2, axis=1), np.sum(y_low**2, axis=1))
    crit = ks_critical_value(count)
    return ConsistencyReport(
        ks_first_coordinate=ks_first,
        ks_squared_norm=ks_norm,
        critical_value=crit,
        count=count,
        alpha=KS_ALPHA,
        passed=ks_first < crit and ks_norm < crit,
    )
