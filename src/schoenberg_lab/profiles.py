"""Radial profiles f: R+ -> R+ with f(0) = 1.

A profile is either a closed-form catalog entry or a tabulated curve with
monotone piecewise-cubic (PCHIP) interpolation, in numpy. The catalog ids are:

====================  ==========================  ==========================
id                    f(t)                        mixture representation
====================  ==========================  ==========================
``gaussian``          exp(-t^2/2)                 point mass at s = 1
``cauchy``            exp(-t)                     Levy(1/2) scale law
``exp-mixture``       (1 + t^2/2)^-1              Exp(1) scale law
``triangle``          max(0, 1 - t)               none (compact support)
====================  ==========================  ==========================

The triangle entry is deliberately not a Gaussian scale mixture; it is the
standard counterexample the certification tools are expected to catch in
dimension >= 2.

Samples (t_j, f_j), from a ``t,f`` CSV or a caller, pass ``check_samples``:
the one rule for a profile table, shared by tabulated profiles and recovery.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

NORMALIZATION_TOL = 1e-12


@dataclass(frozen=True)
class RadialProfile:
    """A radial function of the Euclidean norm, normalized to f(0) = 1.

    ``t_max`` is the largest argument a tabulated profile can be evaluated
    at; ``None`` means the whole half-line.
    """

    label: str
    fn: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    t_max: float | None = None

    def __post_init__(self):
        f0 = float(self.fn(np.asarray(0.0)))
        if abs(f0 - 1.0) > NORMALIZATION_TOL:
            raise ValueError(f"profile {self.label!r} has f(0) = {f0!r}, expected 1")

    def __call__(self, t) -> np.ndarray | float:
        """Evaluate f(t) for scalar or array t >= 0."""
        t = np.asarray(t, dtype=float)
        if not np.all(np.isfinite(t)):
            raise ValueError("profile argument must be finite")
        if np.any(t < 0):
            raise ValueError("profile argument must be nonnegative")
        if self.t_max is not None and np.any(t > self.t_max):
            raise ValueError(
                f"profile {self.label!r} is tabulated on [0, {self.t_max}]; "
                f"got t up to {t.max()} (extrapolation is an error)"
            )
        out = self.fn(t)
        return float(out) if t.ndim == 0 else np.asarray(out)


# Each closed form fills one array of t's shape in place: exp(-t^2 / 2),
# exp(-t), 1 / (1 + t^2 / 2) and max(0, 1 - t), by the same operations in the
# same order as the plain expressions, so the values match them bit for bit.


def _gaussian(t):
    with np.errstate(over="ignore"):  # t^2 is inf from t ~ 1.3e154; f is 0 there exactly
        out = np.square(t, out=np.empty(np.shape(t)))
    np.negative(out, out=out)
    out /= 2.0
    return np.exp(out, out=out)


def _cauchy(t):
    out = np.negative(t, out=np.empty(np.shape(t)))
    return np.exp(out, out=out)


def _exp_mixture(t):
    with np.errstate(over="ignore"):  # as in _gaussian: 1 / inf is 0 exactly
        out = np.square(t, out=np.empty(np.shape(t)))
    out /= 2.0
    out += 1.0
    return np.divide(1.0, out, out=out)


def _triangle(t):
    out = np.subtract(1.0, t, out=np.empty(np.shape(t)))
    return np.maximum(0.0, out, out=out)


_CATALOG = {
    "gaussian": _gaussian,
    "cauchy": _cauchy,
    "exp-mixture": _exp_mixture,
    "triangle": _triangle,
}


def catalog_ids() -> list[str]:
    return sorted(_CATALOG)


def catalog_profile(profile_id: str) -> RadialProfile:
    """Look up a catalog profile by string id."""
    try:
        fn = _CATALOG[profile_id]
    except KeyError:
        raise KeyError(
            f"unknown profile id {profile_id!r}; known: {', '.join(catalog_ids())}"
        ) from None
    return RadialProfile(profile_id, fn)


def check_samples(t, f) -> tuple[np.ndarray, np.ndarray]:
    """Samples (t_j, f_j) as nonempty, equal-length, finite 1-d float arrays whose t starts
    at 0 and strictly increases, with f >= 0 and |f(0) - 1| <= NORMALIZATION_TOL."""
    t, f = np.asarray(t, dtype=float), np.asarray(f, dtype=float)
    if t.ndim != 1 or t.shape != f.shape or t.size == 0 or not np.isfinite([t, f]).all():
        raise ValueError("t and f must be nonempty, equal-length, finite 1-d arrays")
    if t[0] != 0.0 or np.any(np.diff(t) <= 0):
        raise ValueError("t must start at 0 and be strictly increasing")
    if np.any(f < 0):
        raise ValueError("f must be nonnegative")
    if abs(f[0] - 1.0) > NORMALIZATION_TOL:
        raise ValueError(f"f at t=0 must be 1 within {NORMALIZATION_TOL}, got {float(f[0])!r}")
    return t, f


def _pchip_slopes(t, f) -> np.ndarray:
    """Node slopes by scipy's ``PchipInterpolator`` rules and operations (Fritsch & Butland
    1984): inside, the weighted harmonic mean of the two secants, 0 where they differ in sign
    or one is 0; at the ends, one-sided three-point estimates under scipy's two limiters;
    for two nodes, the one secant."""
    h = np.diff(t)
    m = np.diff(f) / h
    if len(m) == 1:
        return np.array([m[0], m[0]])
    d = np.zeros_like(f)
    k = np.flatnonzero((np.sign(m[1:]) == np.sign(m[:-1])) & (m[1:] != 0))
    w1, w2 = 2 * h[k + 1] + h[k], h[k + 1] + 2 * h[k]
    with np.errstate(over="ignore"):  # w / m is inf for a secant near 1e-308; 1 / inf is 0
        d[k + 1] = 1.0 / ((w1 / m[k] + w2 / m[k + 1]) / (w1 + w2))
    h0, h1, m0, m1 = h[[0, -1]], h[[1, -2]], m[[0, -1]], m[[1, -2]]
    end = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    steep = (np.sign(m0) != np.sign(m1)) & (np.abs(end) > 3 * np.abs(m0))
    d[[0, -1]] = np.where(np.sign(end) != np.sign(m0), 0.0, np.where(steep, 3 * m0, end))
    return d


def tabulated_profile(t_nodes, f_nodes, label: str = "tabulated") -> RadialProfile:
    """Profile from samples (t_j, f_j) that pass ``check_samples``, at least two of them.

    Interpolation is PCHIP (Fritsch & Carlson 1980) clamped at zero: per piece,
    the cubic Hermite polynomial of its end values and ``_pchip_slopes``, in
    Horner form, a few ulp from scipy's ``PchipInterpolator`` and not
    bit-identical. ``fn`` is NaN off [0, t_max]; the profile raises there.
    """
    t_nodes, f_nodes = check_samples(t_nodes, f_nodes)
    if len(t_nodes) < 2:
        raise ValueError(f"{label}: need at least two nodes")
    h, d = np.diff(t_nodes), _pchip_slopes(t_nodes, f_nodes)
    secant = np.diff(f_nodes) / h
    cubic = (d[:-1] + d[1:] - 2 * secant) / h
    c3, c2 = cubic / h, (secant - d[:-1]) / h - cubic  # as scipy's CubicHermiteSpline

    def fn(t):
        i = np.clip(np.searchsorted(t_nodes, t, side="right") - 1, 0, len(h) - 1)
        s = t - t_nodes[i]
        out = ((c3[i] * s + c2[i]) * s + d[i]) * s + f_nodes[i]
        return np.maximum(0.0, np.where((t >= 0) & (t <= t_nodes[-1]), out, np.nan))

    return RadialProfile(label, fn, t_max=float(t_nodes[-1]))


def read_tf_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """The (t, f) columns of a CSV with header ``t,f``, checked by ``check_samples``.

    Blank lines are skipped. Every error names the file, and the line of a bad row.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [c.strip() for c in header[:2]] != ["t", "f"]:
            raise ValueError(f"{path}: expected header 't,f', got {header!r}")
        rows = []
        for row in reader:
            if not row:
                continue
            try:
                t, f = float(row[0]), float(row[1])
            except (IndexError, ValueError):
                t = f = math.nan
            if not (math.isfinite(t) and math.isfinite(f)):
                raise ValueError(f"{path}, line {reader.line_num}: "
                                 f"expected two finite numbers t,f, got {row!r}")
            rows.append((t, f))
    try:
        return check_samples(*np.reshape(rows, (-1, 2)).T)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def profile_from_csv(path) -> RadialProfile:
    """Load a tabulated profile from a two-column CSV with header ``t,f``."""
    t, f = read_tf_csv(path)
    return tabulated_profile(t, f, label=str(path))


def resolve_profile(spec: str) -> RadialProfile:
    """Catalog id, or a path to a tabulated-profile CSV."""
    if spec in _CATALOG:
        return catalog_profile(spec)
    from os.path import exists

    if exists(spec):
        return profile_from_csv(spec)
    raise KeyError(
        f"{spec!r} is neither a catalog profile id ({', '.join(catalog_ids())}) "
        "nor an existing CSV file"
    )
