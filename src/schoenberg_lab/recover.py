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

Lawson-Hanson adds about one atom per iteration, so its cost grows with the
number of candidate scales. ``recover_mixing`` therefore solves on every 8th
scale first, then on the scales within that stride of its atoms, and then
checks the KKT conditions on the full grid: a scale left out whose objective
gradient is negative beyond the solver's own accuracy joins the working set,
and the solve repeats until no such scale is left. The solves, the KKT check
and the reported fit read only one design matrix, built once per call, so
the staged solve runs unchanged on any kernel matrix ``_solve_on`` accepts,
such as Schoenberg's Omega_n(rt). The KKT check bounds the gradient of
each scale left out by its tolerance (~1e-9), not the distance to the
full-grid optimum: started on every 8th scale, the loop passes it at a fit
RMS of 1.06e-9 where the full grid reaches 4.9e-14 (exp-mixture, ridge 0).
The accuracy comes from the windowed start, as the full-grid reference
tests in ``tests/test_recover.py`` show.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .measures import MixingMeasure, design_matrix, merged_step_cdfs
from .profiles import NORMALIZATION_TOL, check_samples

PENALTY_FACTOR = 1e3
PRUNE_THRESHOLD = 1e-12
COARSE_STRIDE = 8  # the first solve runs on every 8th scale, the second within 8 of its atoms


def default_s_grid() -> np.ndarray:
    """241 log-spaced scales on [1e-3, 1e3] (40 per decade, includes s = 1)."""
    return np.logspace(-3.0, 3.0, 241)


@dataclass(frozen=True)
class RecoveryProblem:
    """Samples that pass ``profiles.check_samples`` (one will do) with no f above
    1 + NORMALIZATION_TOL, plus the scale grid to recover atoms on."""

    t_grid: np.ndarray
    f_values: np.ndarray
    s_grid: np.ndarray = field(default_factory=default_s_grid)
    ridge: float = 0.0

    def __post_init__(self):
        t, f = check_samples(self.t_grid, self.f_values)
        if np.any(f > 1 + NORMALIZATION_TOL):  # a scale mixture's transform is at most 1
            raise ValueError("f values must lie in [0, 1]")
        s = np.asarray(self.s_grid, dtype=float)
        if s.ndim != 1 or len(s) == 0 or not np.all(np.isfinite(s)):
            raise ValueError("s_grid must be a nonempty, finite 1-d array")
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
    kkt_violation: float  # max(0, -gradient) over the full grid's zero atoms
    kkt_tolerance: float  # the bound kkt_violation was judged against
    columns_solved: int  # scales in the final solve's working set


def nnls(A, b, maxiter: int | None = None) -> tuple[np.ndarray, float]:
    """Solve min ||Aw - b|| subject to w >= 0.

    Returns scipy.optimize.nnls's (w, rnorm); scipy raises RuntimeError
    after ``maxiter`` iterations (default 3 * A's columns). An A with no
    columns is solved here, as (empty w, ||b||): scipy 1.17's nnls aborts the
    interpreter on one.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    if A.ndim != 2 or b.ndim != 1 or A.shape[0] != len(b):
        raise ValueError(f"shape mismatch: A is {A.shape}, b has length {len(b)}")
    if A.shape[1] == 0:
        return np.zeros(0), float(np.linalg.norm(b))
    import scipy.optimize  # deferred: slow to import

    return scipy.optimize.nnls(A, b, maxiter=maxiter)


def recover_mixing(problem: RecoveryProblem) -> RecoveryResult:
    """Solve the inverse problem and package the result as a MixingMeasure.

    The solve runs on a coarse grid, then on windows around its atoms, then
    to KKT on the full grid (module docstring). Atoms below the pruning
    threshold are dropped and the output weights renormalized exactly, so
    the returned measure is always a valid probability measure;
    ``mass_deficit`` records how far the raw solution was from unit mass.
    """
    s, f = problem.s_grid, problem.f_values
    A = design_matrix(problem.t_grid, s)
    coarse = _solve_on(A, f, problem.ridge, np.arange(0, len(s), COARSE_STRIDE))
    working = _windows(np.flatnonzero(coarse), len(s))
    w, working, violation, tolerance = _solve_to_kkt(A, f, problem.ridge, working)

    keep = w > PRUNE_THRESHOLD
    if not np.any(keep):
        raise ValueError("recovered measure has no atoms above the pruning threshold")
    weights = w[keep]
    deficit = abs(1.0 - float(weights.sum()))
    measure = MixingMeasure(s[keep], weights / weights.sum(), label="recovered")
    residual = float(np.sqrt(np.mean(np.square(A[:, keep] @ measure.weights - f))))
    return RecoveryResult(measure=measure, residual_norm=residual, mass_deficit=deficit,
                          kkt_violation=violation, kkt_tolerance=tolerance,
                          columns_solved=len(working))


def _solve_on(A: np.ndarray, f: np.ndarray, ridge: float, columns) -> np.ndarray:
    """The penalised problem min ||Aw - f|| on ``columns`` of ``A``; zero weight elsewhere.

    Precondition: no entry of ``A`` exceeds 1 in magnitude and one row is
    all ones (the Gaussian's and Omega_n(rt)'s row at t = 0), so a penalty
    row of PENALTY_FACTOR softly enforces total mass 1. One matrix holds the
    system handed to ``nnls``: those columns of A, the penalty row under them
    and, at ridge > 0 only, sqrt(ridge) * I under that. Every solve gets the
    iteration budget of a full solve, 3 per column of A: a coarse grid can
    take Lawson-Hanson more iterations than its own 3 per column.
    """
    (m, n), k = A.shape, len(columns)
    rows = np.zeros((m + 1 + (k if ridge > 0 else 0), k))
    np.take(A, columns, axis=1, out=rows[:m], mode="clip")  # "raise" would buffer out
    rows[m] = PENALTY_FACTOR
    np.fill_diagonal(rows[m + 1:], np.sqrt(ridge))
    rhs = np.zeros(len(rows))
    rhs[:m], rhs[m] = f, PENALTY_FACTOR
    w = np.zeros(n)
    w[columns], _ = nnls(rows, rhs, maxiter=3 * n)
    return w


def _windows(atoms, n: int) -> np.ndarray:
    """Sorted indices within one COARSE_STRIDE of any of ``atoms``: the scales they stand for."""
    near = np.add.outer(atoms, np.arange(-COARSE_STRIDE, COARSE_STRIDE + 1))
    return np.unique(np.clip(near, 0, n - 1))


def _solve_to_kkt(A: np.ndarray, f: np.ndarray, ridge: float, working):
    """Solve on ``working`` and add columns of A until the KKT conditions hold on all of them.

    The objective is 0.5 (||Aw - f||^2 + (p sum(w) - p)^2 + ridge ||w||^2)
    with p = PENALTY_FACTOR, and w >= 0 is optimal when its gradient is zero
    on the atoms and nonnegative on the zero atoms. A column outside the
    working set joins it when its gradient is below -tolerance, where
    tolerance is the solve's own KKT residual on the working set plus the
    gradient of one rounding unit in the penalty row's residual,
    p * spacing(p). Each round adds a column, so the loop ends, at the
    latest with all of A.

    Returns (w over A's columns, final working set, the largest violation
    max(0, -gradient) over zero atoms, the tolerance it was judged against).
    """
    p = PENALTY_FACTOR
    while True:
        w = _solve_on(A, f, ridge, working)
        grad = A.T @ (A @ w - f) + p * (p * w.sum() - p) + ridge * w
        solved, atoms = grad[working], w[working] > 0
        tolerance = float(p * np.spacing(p) + max(np.abs(solved[atoms]).max(initial=0.0),
                                                  -solved[~atoms].min(initial=0.0)))
        outside = np.ones(len(w), dtype=bool)
        outside[working] = False
        entering = np.flatnonzero(outside & (grad < -tolerance))
        if len(entering) == 0:
            violation = max(0.0, -float(grad[w == 0].min(initial=0.0)))
            return w, working, violation, tolerance
        working = np.union1d(working, entering)


# --- measure comparison ---------------------------------------------------


def wasserstein1(a, b) -> float:
    """Exact W1 between two discrete measures: integral of |CDF_a - CDF_b|.

    Accepts MixingMeasure or EmpiricalMeasure (anything with a sorted
    ``support`` and its ``cumulative`` CDF table). Both CDFs are step
    functions, so the integral is a finite sum over the merged support.
    """
    grid, fa, fb = merged_step_cdfs(a.support, a.cumulative, b.support, b.cumulative)
    return float(np.sum(np.abs(fa - fb)[:-1] * np.diff(grid)))


def ks_distance(a, b) -> float:
    """Sup-norm distance of the CDFs over the merged support."""
    _, fa, fb = merged_step_cdfs(a.support, a.cumulative, b.support, b.cumulative)
    return float(np.abs(fa - fb).max())
