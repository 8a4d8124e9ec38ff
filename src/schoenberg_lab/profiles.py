"""Radial profiles f: R+ -> R+ with f(0) = 1.

A profile is either a closed-form catalog entry or a tabulated curve with
monotone piecewise-cubic interpolation. The catalog ids are:

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
    out = np.square(t, out=np.empty(np.shape(t)))
    np.negative(out, out=out)
    out /= 2.0
    return np.exp(out, out=out)


def _cauchy(t):
    out = np.negative(t, out=np.empty(np.shape(t)))
    return np.exp(out, out=out)


def _exp_mixture(t):
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


def tabulated_profile(t_nodes, f_nodes, label: str = "tabulated") -> RadialProfile:
    """Profile from sorted samples (t_j, f_j).

    The first node must be exactly (0, 1). Interpolation is shape-preserving
    piecewise cubic (PCHIP) clamped at zero; evaluation past the last node
    raises instead of extrapolating.
    """
    t_nodes = np.asarray(t_nodes, dtype=float)
    f_nodes = np.asarray(f_nodes, dtype=float)
    if t_nodes.ndim != 1 or t_nodes.shape != f_nodes.shape:
        raise ValueError("t and f node arrays must be 1-d and equal length")
    if len(t_nodes) < 2:
        raise ValueError("need at least two nodes")
    if not (np.all(np.isfinite(t_nodes)) and np.all(np.isfinite(f_nodes))):
        raise ValueError("nodes must be finite")
    if np.any(np.diff(t_nodes) <= 0):
        raise ValueError("t nodes must be strictly increasing")
    if t_nodes[0] != 0.0 or f_nodes[0] != 1.0:
        raise ValueError("first node must be t=0, f=1")
    if np.any(f_nodes < 0):
        raise ValueError("f nodes must be nonnegative")
    from scipy.interpolate import PchipInterpolator  # deferred: slow to import

    interp = PchipInterpolator(t_nodes, f_nodes, extrapolate=False)
    return RadialProfile(label, lambda t: np.maximum(0.0, interp(t)), t_max=float(t_nodes[-1]))


def read_tf_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """The (t, f) columns of a CSV with header ``t,f`` and at least one data row.

    Blank lines are skipped; a row that does not start with two finite numbers is an error.
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
    if not rows:
        raise ValueError(f"{path}: no data rows")
    t, f = map(np.asarray, zip(*rows))
    return t, f


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
