"""Recovering the mixing measure from a radial profile.

Given samples f(t_j) of a radial profile, the mixing measure is the
nonnegative solution of the discretized transform equations

    sum_k exp(-t_j^2 s_k / 2) w_k  =  f(t_j),

an inverse Laplace-type problem solved here by nonnegative least squares
with scipy's Lawson-Hanson active-set solver (``scipy.optimize.nnls``).
The problem is severely ill-conditioned: pointwise atom recovery is not
achievable and the comparison metrics (W1, KS) are deliberately weak.
Mass normalization is enforced with a heavily weighted penalty row followed
by exact renormalization.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .measures import MixingMeasure, design_matrix, mixture_laplace

PENALTY_FACTOR = 1e3
PRUNE_THRESHOLD = 1e-12


def default_t_grid() -> np.ndarray:
    """41 equispaced points on [0, 4]."""
    return np.linspace(0.0, 4.0, 41)


def default_s_grid() -> np.ndarray:
    """241 log-spaced scales on [1e-3, 1e3] (40 per decade, includes s = 1)."""
    return np.logspace(-3.0, 3.0, 241)


@dataclass(frozen=True)
class RecoveryProblem:
    """Profile samples plus the scale grid to recover atoms on."""

    t_grid: np.ndarray
    f_values: np.ndarray
    s_grid: np.ndarray = field(default_factory=default_s_grid)
    ridge: float = 0.0

    def __post_init__(self):
        t = np.asarray(self.t_grid, dtype=float)
        f = np.asarray(self.f_values, dtype=float)
        s = np.asarray(self.s_grid, dtype=float)
        if t.ndim != 1 or t.shape != f.shape or len(t) == 0:
            raise ValueError("t_grid and f_values must be equal-length 1-d arrays")
        if s.ndim != 1 or len(s) == 0:
            raise ValueError("s_grid must be a nonempty 1-d array")
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(f)) and np.all(np.isfinite(s))):
            raise ValueError("grids and values must be finite")
        if t[0] != 0.0 or np.any(np.diff(t) <= 0):
            raise ValueError("t_grid must be strictly increasing and include 0")
        if abs(f[0] - 1.0) > 1e-9:
            raise ValueError(f"f at t=0 must be 1, got {f[0]!r}")
        if np.any(f < 0) or np.any(f > 1 + 1e-12):
            raise ValueError("f values must lie in [0, 1]")
        if np.any(s <= 0) or np.any(np.diff(s) <= 0):
            raise ValueError("s_grid must be strictly increasing and positive")
        if not (np.isfinite(self.ridge) and self.ridge >= 0):
            raise ValueError("ridge must be finite and nonnegative")
        object.__setattr__(self, "t_grid", t)
        object.__setattr__(self, "f_values", f)
        object.__setattr__(self, "s_grid", s)


@dataclass(frozen=True)
class RecoveryResult:
    measure: MixingMeasure
    residual_norm: float  # RMS over t_grid of the final measure's misfit
    mass_deficit: float  # |1 - sum w| of the raw solution, before renormalization


def nnls(A, b, ridge: float = 0.0) -> tuple[np.ndarray, float]:
    """Solve min ||Aw - b||^2 + ridge ||w||^2 subject to w >= 0.

    The ridge enters as sqrt(ridge) * I rows stacked under A. Returns
    scipy.optimize.nnls's (w, rnorm) on the stacked problem; scipy raises
    RuntimeError when its iteration cap is exceeded.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    if A.ndim != 2 or b.ndim != 1 or A.shape[0] != len(b):
        raise ValueError(f"shape mismatch: A is {A.shape}, b has length {len(b)}")
    if ridge > 0:
        m, n = A.shape
        A = np.concatenate([A, np.zeros((n, n))])
        np.fill_diagonal(A[m:], np.sqrt(ridge))
        b = np.concatenate([b, np.zeros(n)])
    import scipy.optimize  # deferred: slow to import

    return scipy.optimize.nnls(A, b)


def recover_mixing(problem: RecoveryProblem) -> RecoveryResult:
    """Solve the inverse problem and package the result as a MixingMeasure.

    A penalty row of ones, weighted by 1e3 * max|A|, softly enforces total
    mass 1 during the solve. Atoms below the pruning threshold are dropped
    and the output weights renormalized exactly, so the returned measure is
    always a valid probability measure; ``mass_deficit`` records how far the
    raw solution was from unit mass.
    """
    A = design_matrix(problem.t_grid, problem.s_grid)
    penalty = PENALTY_FACTOR * float(np.abs(A).max())
    rows = np.vstack([A, penalty * np.ones((1, A.shape[1]))])
    rhs = np.concatenate([problem.f_values, [penalty]])
    w, _ = nnls(rows, rhs, ridge=problem.ridge)

    keep = w > PRUNE_THRESHOLD
    if not np.any(keep):
        raise ValueError("recovered measure has no atoms above the pruning threshold")
    scales = problem.s_grid[keep]
    weights = w[keep]
    deficit = abs(1.0 - float(weights.sum()))
    measure = MixingMeasure(scales, weights / weights.sum(), label="recovered")
    fitted = mixture_laplace(measure, problem.t_grid)
    residual = float(np.sqrt(np.mean(np.square(fitted - problem.f_values))))
    return RecoveryResult(measure=measure, residual_norm=residual, mass_deficit=deficit)


# --- measure comparison ---------------------------------------------------


def _merged_support(a, b) -> np.ndarray:
    return np.union1d(np.asarray(a.support, dtype=float), np.asarray(b.support, dtype=float))


def wasserstein1(a, b) -> float:
    """Exact W1 between two discrete measures: integral of |CDF_a - CDF_b|.

    Accepts MixingMeasure or EmpiricalMeasure (anything with ``support``
    and ``cdf``). Both CDFs are step functions, so the integral is a finite
    sum over the merged support.
    """
    grid = _merged_support(a, b)
    return float(np.sum(np.abs(a.cdf(grid) - b.cdf(grid))[:-1] * np.diff(grid)))


def ks_distance(a, b) -> float:
    """Sup-norm distance of the CDFs over the merged support."""
    grid = _merged_support(a, b)
    return float(np.abs(a.cdf(grid) - b.cdf(grid)).max())
