"""Gram matrices of radial profiles and numerical PSD certification.

A radial profile f induces the kernel (x, y) -> f(||x - y||) on R^n. The
certifier draws random and structured point sets, checks the smallest
eigenvalue of each Gram matrix against a relative tolerance, and either
certifies (statistically) or refutes with an explicit witness vector whose
quadratic form is negative.
"""

from __future__ import annotations

import math
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

# Trials per substream. Part of the stream definition (rng.STREAM_VERSION 3),
# not a tuning knob: changing it changes every seeded configuration.
_CHUNK = 64

# Half-width L of the random-box trials' box [-L, L]^dim; fixed-span lattices
# span [0, 2L]. Part of the stream definition, like _CHUNK.
_BOX_HALFWIDTH = 3.0


@dataclass(frozen=True)
class PsdReport:
    """Outcome of a certification run.

    ``points`` is a (k, n) array: the refuting configuration when the verdict
    is "refuted", else the evaluated one with the smallest eigenvalue.
    ``witness`` is a (coefficients, quadratic_form_value) pair, present
    exactly when the verdict is "refuted"; the coefficients are a unit
    eigenvector of the offending Gram matrix.
    """

    points: np.ndarray
    min_eigenvalue: float
    tolerance: float
    verdict: str  # "certified" | "refuted" | "inconclusive"
    witness: tuple[np.ndarray, float] | None
    trials_run: int
    trials_skipped: int  # of trials_run, left a tabulated profile's domain
    configurations_solved: int  # distinct Gram matrices eigen-solved among trials_run

    @property
    def certified(self) -> bool:
        return self.verdict == "certified"

    @property
    def refuted(self) -> bool:
        return self.verdict == "refuted"


def _distances(points: np.ndarray) -> np.ndarray:
    """Pairwise distances of a (..., k, n) point stack, shape (..., k, k).

    Exactly symmetric with a zero diagonal: entry (j, i) sums the squares of
    the negated differences of entry (i, j), coordinate by coordinate in the
    same order.
    """
    sq = 0.0
    for axis in range(points.shape[-1]):
        x = points[..., axis]
        diff = x[..., :, None] - x[..., None, :]
        sq = sq + diff * diff
    return np.sqrt(sq)


def gram_matrix(profile: RadialProfile, points) -> np.ndarray:
    """G[i, j] = f(||x_i - x_j||) for the rows x_i of a (k, n) array; exactly
    symmetric, unit diagonal."""
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or 0 in points.shape:
        raise ValueError(f"points must be a nonempty (k, n) array, got shape {points.shape}")
    gram = profile(_distances(points))
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


def _lattice_shape(kind: int, dim: int, k: int) -> tuple[int, int]:
    """(m1, m2) of the lattice a trial tests: m2 points along axis 0 times m1
    along axis 1. An axis lattice has m1 = 1; a planar grid has
    m1 = floor(sqrt(k)) and m2 = k // m1 >= m1, so at most k points."""
    if kind == _KIND_LATTICE_1D or dim == 1 or k < 4:
        return 1, k
    m1 = math.isqrt(k)
    return m1, k // m1


def _unit_lattice(shape: tuple[int, int], dim: int) -> np.ndarray:
    """Equally spaced lattice in R^dim whose longer side spans [0, 1]."""
    m1, m2 = shape
    h = 1.0 / (m2 - 1)
    pts = np.zeros((m1 * m2, dim))
    pts[:, 0] = np.repeat(np.arange(m2) * h, m1)
    if m1 > 1:
        pts[:, 1] = np.tile(np.arange(m1) * h, m2)
    return pts


def _solve_stack(profile: RadialProfile, f0: float, tol: float, points: np.ndarray) -> list:
    """(lambda_min, Gram if it refutes else None) for each configuration of a
    (B, k, dim) stack, or None where it leaves a tabulated profile's domain."""
    dist = _distances(points)
    inside = [True] * len(points)
    if profile.t_max is not None:
        inside = (dist.max(axis=(1, 2)) <= profile.t_max).tolist()
        if not any(inside):
            return [None] * len(points)
        dist = dist[inside]
    gram = np.asarray(profile.fn(dist), dtype=float)
    diagonal = np.arange(gram.shape[-1])
    gram[:, diagonal, diagonal] = f0
    eigvals = np.linalg.eigvalsh(gram)
    lam_min = eigvals[:, 0]
    norm = np.maximum(np.abs(lam_min), np.abs(eigvals[:, -1]))
    refutes = lam_min < -tol * np.maximum(1.0, norm)
    solved = ((lam, g.copy() if bad else None)
              for lam, bad, g in zip(lam_min.tolist(), refutes.tolist(), gram))
    return [next(solved) if ok else None for ok in inside]


def certify_psd(profile: RadialProfile, dim: int, trials: int = 1000,
                k_max: int = 12, tol: float = 1e-8, seed: int = 0,
                threads: int = 1) -> PsdReport:
    """Search for a PSD violation of the kernel induced by ``profile`` in R^dim.

    Trial i tests one point configuration of kind i mod 4: a lattice with a
    random span in [0.5, 2L], a planar lattice spanning [0, 2L], k uniform
    points in the box [-L, L]^dim, or an axis lattice spanning [0, 2L], with
    k uniform in [2, k_max] and L = ``_BOX_HALFWIDTH`` = 3. A trial refutes when
    lambda_min < -tol * max(1, ||G||_2); the report then carries the
    offending eigenvector as witness.

    Trials come in chunks of 64. Chunk c draws the point counts, spans and
    box points of all its trials as arrays from one substream keyed by
    (seed, c), and only when the search reaches it. A chunk's
    configurations are grouped by point count; each group is one stacked
    distance, profile and eigenvalue evaluation, and ``threads`` spreads a
    chunk's groups over worker threads. Results are identical for any
    ``threads`` value.

    Fixed-span lattices depend on the point count alone; each is solved once
    per call and its outcome reused. ``configurations_solved`` counts the
    distinct Gram matrices solved among the trials run, and
    ``trials_skipped`` the trials whose configuration left a tabulated
    profile's domain; skipped trials are not evaluated.

    A tabulated profile (``t_max`` set) can be refuted but never certified:
    certification in R^dim is a claim about f on [0, inf), and
    configurations inside [0, t_max] need not tell it apart from a PD
    profile. When no trial refutes it the verdict is "inconclusive", with
    the worst configuration evaluated; if none was, min_eigenvalue is NaN
    and points a single point.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if k_max < 2:
        raise ValueError("k_max must be >= 2")
    if dim < 1:
        raise ValueError("dimension must be >= 1")
    if not 0.0 <= tol < np.inf:
        raise ValueError(f"tol must be finite and >= 0, got {tol!r}")

    f0 = float(profile(0.0))
    fixed_span = 2.0 * _BOX_HALFWIDTH
    units, fixed = {}, {}  # lattice shape -> unit lattice, fixed-span lattice
    # configuration key -> _solve_stack() result. A fixed-span lattice's key
    # is its shape, so it is solved once per call; every other
    # configuration's key is its trial index.
    outcome = {}

    global_min = np.inf
    global_min_pts = None
    skipped = 0
    counted = set()  # configuration keys evaluated so far
    for chunk, start in enumerate(range(0, trials, _CHUNK)):
        n = min(_CHUNK, trials - start)
        rng = substream(seed, ROLE_TRIAL, chunk)
        ks = rng.integers(2, k_max + 1, size=n).tolist()
        spans = rng.uniform(0.5, fixed_span, size=n).tolist()
        kinds = [(start + j) % _N_KINDS for j in range(n)]
        box_ks = [k for k, kind in zip(ks, kinds) if kind == _KIND_RANDOM_BOX]
        box = rng.uniform(-_BOX_HALFWIDTH, _BOX_HALFWIDTH, size=(sum(box_ks), dim))
        box_at = 0

        configs = []  # (key, points) per trial, in trial order
        groups = {}  # point count -> {key: points} of the unsolved configurations
        for j, (kind, k) in enumerate(zip(kinds, ks)):
            if kind == _KIND_RANDOM_BOX:
                key, pts = start + j, box[box_at:box_at + k]
                box_at += k
            else:
                shape = _lattice_shape(kind, dim, k)
                if shape not in units:
                    units[shape] = _unit_lattice(shape, dim)
                    fixed[shape] = units[shape] * fixed_span
                if kind == _KIND_SCALED_LATTICE:
                    key, pts = start + j, units[shape] * spans[j]
                else:
                    key, pts = shape, fixed[shape]
            configs.append((key, pts))
            if key not in outcome:
                groups.setdefault(len(pts), {})[key] = pts
        groups = list(groups.values())
        solved = parallel_map(
            lambda g: _solve_stack(profile, f0, tol, np.stack(list(groups[g].values()))),
            len(groups), threads)
        for group, results in zip(groups, solved):
            outcome.update(zip(group, results))

        for j, (key, pts) in enumerate(configs):
            result = outcome[key]
            if result is None:
                skipped += 1
                continue
            counted.add(key)
            lam_min, gram = result
            if lam_min < global_min:
                global_min, global_min_pts = lam_min, pts
            if gram is not None:
                witness = np.linalg.eigh(gram)[1][:, 0]
                return PsdReport(
                    points=pts,
                    min_eigenvalue=global_min,
                    tolerance=tol,
                    verdict="refuted",
                    witness=(witness, quadratic_form(gram, witness)),
                    trials_run=start + j + 1,
                    trials_skipped=skipped,
                    configurations_solved=len(counted),
                )
    if skipped == trials:  # no trial was evaluated
        global_min, global_min_pts = np.nan, np.zeros((1, dim))
    return PsdReport(
        points=global_min_pts,
        min_eigenvalue=global_min,
        tolerance=tol,
        verdict="certified" if profile.t_max is None else "inconclusive",
        witness=None,
        trials_run=trials,
        trials_skipped=skipped,
        configurations_solved=len(counted),
    )
