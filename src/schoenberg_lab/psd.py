"""Gram matrices of radial profiles and numerical PSD certification.

A radial profile f induces the kernel (x, y) -> f(||x - y||) on R^n. The
certifier draws random and structured point sets, checks the smallest
eigenvalue of each Gram matrix against a relative tolerance, and either
certifies (statistically) or refutes with an explicit witness vector whose
quadratic form is negative.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .profiles import RadialProfile
from .rng import ROLE_TRIAL, parallel_map, substream

SYMMETRY_RTOL = 1e-12

# Per-trial candidate kinds, cycled by trial index. Scaled lattices come
# first: they are the configurations that expose compactly supported
# profiles, so refutation witnesses are found early and are strong.
_KIND_SCALED_LATTICE = 0
_KIND_LATTICE_2D = 1
_KIND_RANDOM_BOX = 2
_KIND_LATTICE_1D = 3
_N_KINDS = 4


@dataclass(frozen=True)
class PointSet:
    """k points in R^n, stored as a (k, n) array."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2:
            raise ValueError("points must be a (k, n) array")
        if pts.shape[0] < 1 or pts.shape[1] < 1:
            raise ValueError("need k >= 1 points of dimension n >= 1")
        if not np.all(np.isfinite(pts)):
            raise ValueError("points must be finite")
        object.__setattr__(self, "points", pts)

    @property
    def k(self) -> int:
        return self.points.shape[0]

    @property
    def dimension(self) -> int:
        return self.points.shape[1]


@dataclass(frozen=True)
class PsdReport:
    """Outcome of a certification run.

    ``witness`` is a (coefficients, quadratic_form_value) pair, present
    exactly when the verdict is "refuted"; the coefficients are a unit
    eigenvector of the offending Gram matrix.
    """

    point_set: PointSet
    min_eigenvalue: float
    tolerance: float
    verdict: str  # "certified" | "refuted" | "inconclusive"
    witness: tuple[np.ndarray, float] | None
    trials_run: int
    trials_skipped: int  # of trials_run, left a tabulated profile's domain

    @property
    def certified(self) -> bool:
        return self.verdict == "certified"

    @property
    def refuted(self) -> bool:
        return self.verdict == "refuted"


def gram_matrix(profile: RadialProfile, point_set: PointSet) -> np.ndarray:
    """G[i, j] = f(||x_i - x_j||); exactly symmetric, unit diagonal."""
    from scipy.spatial.distance import pdist, squareform  # deferred: slow to import

    gram = squareform(profile(pdist(point_set.points)))
    np.fill_diagonal(gram, float(profile(0.0)))
    return gram


def quadratic_form(gram: np.ndarray, coefficients) -> float:
    """Re(c* G c) for a complex coefficient vector c."""
    gram = np.asarray(gram, dtype=float)
    c = np.asarray(coefficients)
    if c.shape != (gram.shape[0],):
        raise ValueError(f"coefficient vector has shape {c.shape}, Gram is {gram.shape}")
    return float(np.real(np.conj(c) @ (gram @ c)))


def min_eigenvalue(gram: np.ndarray) -> float:
    """Smallest eigenvalue of a symmetric matrix."""
    gram = np.asarray(gram, dtype=float)
    scale = np.abs(gram).max(initial=0.0)
    if not np.allclose(gram, gram.T, rtol=0.0, atol=SYMMETRY_RTOL * max(scale, 1.0)):
        raise ValueError("matrix is not symmetric")
    return float(np.linalg.eigvalsh(gram)[0])


def _candidate_points(kind: int, dim: int, k: int, halfwidth: float,
                      rng: np.random.Generator) -> np.ndarray:
    """Build one candidate configuration in R^dim with at most k points."""
    if kind == _KIND_RANDOM_BOX:
        return rng.uniform(-halfwidth, halfwidth, size=(k, dim))
    if kind == _KIND_SCALED_LATTICE:
        span = float(rng.uniform(0.5, 2.0 * halfwidth))
    else:
        span = 2.0 * halfwidth
    if kind == _KIND_LATTICE_1D or dim == 1 or k < 4:
        pts = np.zeros((k, dim))
        pts[:, 0] = np.linspace(0.0, span, k)
        return pts
    # regular m1 x m2 planar grid with m1*m2 <= k, equal spacing, longer
    # side spanning [0, span]
    m1 = int(np.sqrt(k))
    m2 = k // m1
    h = span / (max(m1, m2) - 1)
    g1, g2 = np.meshgrid(np.arange(m1) * h, np.arange(m2) * h)
    pts = np.zeros((m1 * m2, dim))
    pts[:, 0] = g1.ravel()
    pts[:, 1] = g2.ravel()
    return pts


def certify_psd(profile: RadialProfile, dim: int, trials: int = 1000,
                k_max: int = 12, tol: float = 1e-8, seed: int = 0,
                box_halfwidth: float = 3.0, threads: int = 1) -> PsdReport:
    """Search for a PSD violation of the kernel induced by ``profile`` in R^dim.

    Each trial draws one point configuration (random box points, axis
    lattices spanning [0, 2L], or lattices with randomized span) from a
    substream keyed by (seed, trial index), and tests the Gram matrix.
    A trial refutes when lambda_min < -tol * max(1, ||G||_2); the report
    then carries the offending eigenvector as witness. Results are
    identical for any ``threads`` value.

    Half the trials test fixed-span lattices, whose configuration depends
    on the drawn point count alone; each such lattice is solved once per
    call and its outcome reused. ``trials_skipped`` counts the trials whose
    configuration left a tabulated profile's domain; they are not evaluated.

    A tabulated profile (``t_max`` set) can be refuted but never certified:
    certification in R^dim is a claim about f on [0, inf), and
    configurations inside [0, t_max] need not tell it apart from a PD
    profile. When no trial refutes it the verdict is "inconclusive", with
    the worst configuration evaluated; if none was, min_eigenvalue is NaN
    and point_set a single point.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if k_max < 2:
        raise ValueError("k_max must be >= 2")
    if dim < 1:
        raise ValueError("dimension must be >= 1")
    if not 0.0 <= tol < np.inf:
        raise ValueError(f"tol must be finite and >= 0, got {tol!r}")
    from scipy.spatial.distance import pdist, squareform  # deferred, and once per call

    f0 = float(profile(0.0))
    # (kind, k) -> outcome of a fixed-span lattice trial. Worker threads may
    # race to solve the same key; both store the same outcome.
    solved = {}

    def solve(pts: np.ndarray):
        dist = pdist(pts)
        if profile.t_max is not None and dist.max() > profile.t_max:
            return None  # configuration outside a tabulated profile's domain
        gram = squareform(profile.fn(dist))
        np.fill_diagonal(gram, f0)
        eigvals = np.linalg.eigvalsh(gram)
        lam_min = float(eigvals[0])
        norm = float(max(abs(eigvals[0]), abs(eigvals[-1])))
        threshold = -tol * max(1.0, norm)
        witness = None
        if lam_min < threshold:
            _, vecs = np.linalg.eigh(gram)
            witness = vecs[:, 0]
        return pts, lam_min, witness

    def run_trial(index: int):
        rng = substream(seed, ROLE_TRIAL, index)
        kind = index % _N_KINDS
        k = int(rng.integers(2, k_max + 1))
        if kind not in (_KIND_LATTICE_2D, _KIND_LATTICE_1D):
            return solve(_candidate_points(kind, dim, k, box_halfwidth, rng))
        if (kind, k) not in solved:
            solved[kind, k] = solve(_candidate_points(kind, dim, k, box_halfwidth, rng))
        return solved[kind, k]

    chunk = 64
    global_min = np.inf
    global_min_pts = None
    skipped = 0
    for start in range(0, trials, chunk):
        count = min(start + chunk, trials) - start
        results = parallel_map(lambda i: run_trial(start + i), count, threads)
        for offset, res in enumerate(results):
            if res is None:
                skipped += 1
                continue
            pts, lam_min, witness = res
            if lam_min < global_min:
                global_min = lam_min
                global_min_pts = pts
            if witness is not None:
                gram = gram_matrix(profile, PointSet(pts))
                return PsdReport(
                    point_set=PointSet(pts),
                    min_eigenvalue=global_min,
                    tolerance=tol,
                    verdict="refuted",
                    witness=(witness, quadratic_form(gram, witness)),
                    trials_run=start + offset + 1,
                    trials_skipped=skipped,
                )
    if skipped == trials:  # no trial was evaluated
        global_min, global_min_pts = np.nan, np.zeros((1, dim))
    return PsdReport(
        point_set=PointSet(global_min_pts),
        min_eigenvalue=global_min,
        tolerance=tol,
        verdict="certified" if profile.t_max is None else "inconclusive",
        witness=None,
        trials_run=trials,
        trials_skipped=skipped,
    )
