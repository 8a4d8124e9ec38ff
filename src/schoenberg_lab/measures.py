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

    @property
    def cumulative(self) -> np.ndarray:
        """[0, w_1, w_1 + w_2, ..., sum w]: the CDF once k atoms are passed is entry k."""
        return np.concatenate([[0.0], np.cumsum(self.weights)])

    def cdf(self, x) -> np.ndarray:
        """Right-continuous CDF evaluated at x (scalar or array)."""
        x = np.asarray(x, dtype=float)
        out = self.cumulative[np.searchsorted(self.scales, x, side="right")]
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


def draw_scales(measure: MixingMeasure, count: int, rng: np.random.Generator) -> np.ndarray:
    """Categorical draw of scales by cumulative inverse-CDF search.

    Fixed choice (not the alias method) so streams are reproducible across
    versions: u ~ U[0,1), then the first atom whose cumulative weight
    exceeds u.

    A guide table (Chen & Asau 1974) indexes that search: with M the power of
    two >= 16 x min(atoms, count), a bucket [b/M, (b+1)/M) holding no
    cumulative weight maps all its u to one atom; only other buckets' draws
    are searched. Scaling by M is exact, so draws match the search bit for bit.
    """
    buckets = 1 << (16 * min(len(measure.weights), count) - 1).bit_length()
    cum = np.cumsum(measure.weights) * buckets
    cum[-1] = buckets  # guard the top edge against rounding
    # atoms with scaled cumulative weight <= b, and < b + 1: the search at either end of bucket b
    lo = np.cumsum(np.bincount(np.ceil(cum).astype(np.intp), minlength=buckets)[:buckets])
    hi = np.cumsum(np.bincount(cum.astype(np.intp), minlength=buckets)[:buckets])
    u = rng.random(count)
    u *= buckets
    bucket = u.astype(np.intp)
    todo = np.flatnonzero((lo != hi)[bucket])
    found = measure.scales[np.searchsorted(cum, u[todo], side="right")]
    # into u's memory, unbuffered (every bucket < M, so clip never clips): fewer page faults
    out = np.take(measure.scales[lo], bucket, out=u, mode="clip")
    out[todo] = found
    return out


def _sample(measure: MixingMeasure, dim: int, count: int,
            scale_rng: np.random.Generator, noise_rng: np.random.Generator) -> np.ndarray:
    """``count`` points of the dim-dimensional mixture; (count, dim) array."""
    scales = draw_scales(measure, count, scale_rng)
    noise = noise_rng.standard_normal((count, dim))
    noise *= np.sqrt(scales, out=scales)[:, None]
    return noise


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
    """A shorthand like ``delta:1``, ``exp:1`` or ``levy:1``, else a measure JSON path."""
    from os.path import exists

    name, _, arg = spec.partition(":")
    factories = {"delta": dirac, "exp": exponential_measure, "levy": levy_measure}
    try:  # a shorthand wins over a file of the same name
        factory, value = factories[name], float(arg or 1.0)
    except (KeyError, ValueError):
        if exists(spec):
            return MixingMeasure.load(spec)
        raise KeyError(f"{spec!r} is neither a measure JSON path nor a shorthand "
                       "(delta:S, exp:RATE, levy:SCALE)") from None
    return factory(value)


# --- marginal consistency -----------------------------------------------


@dataclass(frozen=True)
class ConsistencyReport:
    """Two-sample KS comparison of mu_{n+1} marginalized against mu_n."""

    ks_first_coordinate: float
    ks_squared_norm: float
    critical_value: float
    alpha: float
    passed: bool


def merged_step_cdfs(xa, cum_a, xb, cum_b) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Two step CDFs evaluated on their merged support.

    ``xa`` and ``xb`` are sorted, ties allowed; ``cum_a[k]`` is the first CDF
    once k points of ``xa`` are passed (so ``len(xa) + 1`` entries), and
    ``cum_b`` likewise. Returns the distinct points of both supports in
    increasing order and each right-continuous CDF there. A stable argsort
    merges the two sorted runs in linear time, and each run of tied points is
    read at its last position, where both CDFs have passed all of it.
    """
    merged = np.concatenate([xa, xb])
    order = np.argsort(merged, kind="stable")
    grid = merged[order]
    passed_a = np.cumsum(order < len(xa), out=order)  # points of xa among the first i + 1
    last = np.append(grid[1:] != grid[:-1], True)
    passed = np.flatnonzero(last)
    passed += 1
    if len(passed) < len(grid):  # ties
        grid, passed_a = grid[last], passed_a[last]
    # the first CDF goes into the concatenation's memory, which nothing reads any more
    fa = np.take(cum_a, passed_a, out=merged[:len(grid)], mode="clip")
    passed -= passed_a  # now the points of xb passed
    return grid, fa, cum_b[passed]


def ks_two_sample(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sample Kolmogorov-Smirnov statistic."""
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    _, fa, fb = merged_step_cdfs(a, np.arange(len(a) + 1) / len(a),
                                 b, np.arange(len(b) + 1) / len(b))
    fa -= fb
    return float(np.abs(fa, out=fa).max())


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
                     substream(seed, ROLE_NOISE, 0))
    y_high *= corrupt_scale
    y_low = _sample(measure, dim, count, substream(seed, ROLE_SCALE, 1),
                    substream(seed, ROLE_NOISE, 1))
    projected = y_high[:, :dim]
    ks_first = ks_two_sample(projected[:, 0], y_low[:, 0])
    # squared in place: ks_two_sample sorted copies of the first coordinates
    np.square(projected, out=projected)
    np.square(y_low, out=y_low)
    ks_norm = ks_two_sample(np.sum(projected, axis=1), np.sum(y_low, axis=1))
    crit = ks_critical_value(count)
    return ConsistencyReport(
        ks_first_coordinate=ks_first,
        ks_squared_norm=ks_norm,
        critical_value=crit,
        alpha=KS_ALPHA,
        passed=ks_first < crit and ks_norm < crit,
    )
