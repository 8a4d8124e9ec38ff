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
scale first, then on the scales within 8 grid points of that solution's
atoms, and then checks the KKT conditions on the full grid: a scale left out
whose objective gradient is negative beyond the solver's own accuracy joins
the working set, and the solve repeats until no such scale is left. That
check bounds the gradient of each scale left out by its tolerance (~1e-9),
not the distance to the full-grid optimum: started on every 8th scale, the
loop passes it at a fit RMS of 1.06e-9 where the full grid reaches 4.9e-14
(exp-mixture, ridge 0). The accuracy comes from the windowed start, as the
full-grid reference tests in ``tests/test_recover.py`` show.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .measures import MixingMeasure, design_matrix, merged_step_cdfs, mixture_laplace

PENALTY_FACTOR = 1e3
PRUNE_THRESHOLD = 1e-12
COARSE_STRIDE = 8  # the first solve runs on every 8th scale
WINDOW = 8  # the second on the scales within 8 grid points of its atoms


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

    A penalty row of ones, weighted by PENALTY_FACTOR * max|A| =
    PENALTY_FACTOR (the t = 0 row of A is all ones and no entry exceeds
    1), softly enforces total mass 1 during the solve. The solve runs on a
    coarse grid, then on windows around its atoms, then to KKT on the full
    grid (module docstring). Atoms below the pruning threshold are dropped
    and the output weights renormalized exactly, so the returned measure is
    always a valid probability measure; ``mass_deficit`` records how far the
    raw solution was from unit mass.
    """
    n = len(problem.s_grid)
    coarse = _solve_on(problem, np.arange(0, n, COARSE_STRIDE))
    working = _windows(np.flatnonzero(coarse), n)
    w, working, violation, tolerance = _solve_to_kkt(problem, working)

    keep = w > PRUNE_THRESHOLD
    if not np.any(keep):
        raise ValueError("recovered measure has no atoms above the pruning threshold")
    scales = problem.s_grid[keep]
    weights = w[keep]
    deficit = abs(1.0 - float(weights.sum()))
    measure = MixingMeasure(scales, weights / weights.sum(), label="recovered")
    fitted = mixture_laplace(measure, problem.t_grid)
    residual = float(np.sqrt(np.mean(np.square(fitted - problem.f_values))))
    return RecoveryResult(measure=measure, residual_norm=residual, mass_deficit=deficit,
                          kkt_violation=violation, kkt_tolerance=tolerance,
                          columns_solved=len(working))


def _solve_on(problem: RecoveryProblem, columns) -> np.ndarray:
    """The penalised problem solved on ``columns`` of the scale grid; zero weight elsewhere.

    One matrix holds the system handed to ``nnls``: those columns of the
    design matrix, the penalty row under them and, at ridge > 0 only,
    sqrt(ridge) * I under that. Every solve gets the iteration budget of a full-grid solve, 3 per
    grid scale: a coarse grid can take Lawson-Hanson more iterations than
    its own 3 per column.
    """
    m, n, k = len(problem.t_grid), len(problem.s_grid), len(columns)
    rows = np.zeros((m + 1 + (k if problem.ridge > 0 else 0), k))
    rows[:m] = design_matrix(problem.t_grid, problem.s_grid[columns])
    rows[m] = PENALTY_FACTOR
    np.fill_diagonal(rows[m + 1:], np.sqrt(problem.ridge))
    rhs = np.zeros(len(rows))
    rhs[:m], rhs[m] = problem.f_values, PENALTY_FACTOR
    w = np.zeros(n)
    w[columns], _ = nnls(rows, rhs, maxiter=3 * n)
    return w


def _windows(atoms, n: int) -> np.ndarray:
    """Sorted grid indices within WINDOW points of any of ``atoms``."""
    near = np.add.outer(atoms, np.arange(-WINDOW, WINDOW + 1))
    return np.unique(np.clip(near, 0, n - 1))


def _solve_to_kkt(problem: RecoveryProblem, working):
    """Solve on ``working`` and add scales until the KKT conditions hold on the full grid.

    The objective is 0.5 (||Aw - f||^2 + (p sum(w) - p)^2 + ridge ||w||^2)
    with p = PENALTY_FACTOR, and w >= 0 is optimal when its gradient is zero
    on the atoms and nonnegative on the zero atoms. A scale outside the
    working set joins it when its gradient is below -tolerance, where
    tolerance is the solve's own KKT residual on the working set plus the
    gradient of one rounding unit in the penalty row's residual,
    p * spacing(p). Each round adds a scale, so the loop ends, at the latest
    with the whole grid.

    Returns (w on the full grid, final working set, the largest violation
    max(0, -gradient) over zero atoms, the tolerance it was judged against).
    """
    p, n = PENALTY_FACTOR, len(problem.s_grid)
    while True:
        w = _solve_on(problem, working)
        grad = _gradient(problem, w)
        solved, atoms = grad[working], w[working] > 0
        tolerance = float(p * np.spacing(p) + max(np.abs(solved[atoms]).max(initial=0.0),
                                                  -solved[~atoms].min(initial=0.0)))
        outside = np.ones(n, dtype=bool)
        outside[working] = False
        entering = np.flatnonzero(outside & (grad < -tolerance))
        if len(entering) == 0:
            violation = max(0.0, -float(grad[w == 0].min(initial=0.0)))
            return w, working, violation, tolerance
        working = np.union1d(working, entering)


def _gradient(problem: RecoveryProblem, w) -> np.ndarray:
    """The objective's gradient at w over the full grid.

    The full design matrix is built here, after a solve has released its
    matrices, so the two never take memory at the same time.
    """
    A = design_matrix(problem.t_grid, problem.s_grid)
    p = PENALTY_FACTOR
    return A.T @ (A @ w - problem.f_values) + p * (p * w.sum() - p) + problem.ridge * w


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
