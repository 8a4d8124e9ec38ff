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
from numpy.linalg._umath_linalg import cholesky_lo as _cholesky_lo

from .profiles import RadialProfile
from .rng import ROLE_TRIAL, parallel_map, substream

_EPS = np.finfo(float).eps

# Per-trial candidate kinds, cycled by trial index. Scaled lattices come
# first: they are the configurations that expose compactly supported
# profiles, so refutation witnesses are found early and are strong.
_KIND_SCALED_LATTICE = 0
_KIND_LATTICE_2D = 1
_KIND_RANDOM_BOX = 2
_KIND_LATTICE_1D = 3
_N_KINDS = 4

# Trials per substream. Part of the stream definition since rng.STREAM_VERSION
# 3, not a tuning knob: changing it changes every seeded configuration.
_CHUNK = 64

# Half-width L of the random-box trials' box [-L, L]^dim; fixed-span lattices
# span [0, 2L]. Part of the stream definition, like _CHUNK.
_BOX_HALFWIDTH = 3.0

# Most chunks certify_psd solves at once; not part of the stream. Uncapped
# doubling holds larger stacks: with size-class stacks it adds 3 MB of
# transient arrays (tracemalloc peak of ``certify gaussian --dim 5``). In 6
# alternating 20 s perfbench pairs on 2 vCPUs it read certify-sweep wall_s
# 0.282 s against 0.326 s (faster in 6 of 6) and peak RSS 91.7 MB against
# 87.9 MB (+4.4%, a figure that includes the reports perfbench keeps of every
# pass, so a faster run reads more).
_BATCH_CAP = 4

# certify_psd evaluates the configurations of a batch whose point counts k
# share ceil(k / _SIZE_CLASS) as one stack, lattices and box draws apart;
# not part of the stream.
_SIZE_CLASS = 8


@dataclass(frozen=True)
class PsdReport:
    """Outcome of a certification run.

    ``points`` is a (k, n) array: the refuting configuration when the verdict
    is "refuted", else the evaluated one with the smallest eigenvalue.
    ``witness`` is a (coefficients, quadratic_form_value) pair, present
    exactly when the verdict is "refuted"; the coefficients are a unit
    eigenvector of ``gram_matrix(profile, points)``.
    """

    points: np.ndarray
    min_eigenvalue: float
    tolerance: float
    verdict: str  # "certified" | "refuted" | "inconclusive"
    witness: tuple[np.ndarray, float] | None
    trials_run: int
    trials_skipped: int  # of trials_run, left a tabulated profile's domain
    configurations_solved: int  # distinct Gram matrices evaluated among trials_run
    eigensolves: int  # of configurations_solved, those eigen-solved; the rest passed the screen

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
    same order. An axis that is zero across the whole stack is skipped: it
    would only add exact zeros. The squares are summed in place in the
    returned array, with one more array of its size for the differences.
    """
    nonzero = points.reshape(-1, points.shape[-1]).any(axis=0)
    coords = np.ascontiguousarray(points.transpose(-1, *range(points.ndim - 1))[nonzero])
    sq = (np.empty if len(coords) else np.zeros)(points.shape[:-1] + points.shape[-2:-1])
    diff = np.empty_like(sq) if len(coords) > 1 else None
    for i, x in enumerate(coords):
        term = diff if i else sq
        np.subtract(x[..., :, None], x[..., None, :], out=term)
        np.multiply(term, term, out=term)
        if i:
            np.add(sq, term, out=sq)
    return np.sqrt(sq, out=sq)


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


def _bottom_eigenvector(gram: np.ndarray) -> np.ndarray:
    """A unit eigenvector of the symmetric ``gram``'s lowest eigenvalue.

    Inverse iteration from a few k·ε·‖G‖ below the ``eigvalsh`` minimum and
    a start with distinct entries, which no symmetry of the points makes
    orthogonal to the answer. Not ``np.linalg.eigh``: from 26 points it wakes
    OpenBLAS's helper thread, which then spins ~0.1 s beside what runs next.
    """
    k = len(gram)
    values = np.linalg.eigvalsh(gram)
    shifted = gram - (values[0] - 4 * k * _EPS * max(1.0, -values[0], values[-1])) * np.eye(k)
    vector = np.linspace(1.0, 2.0, k)
    for _ in range(3):
        vector = np.linalg.solve(shifted, vector)
        vector /= np.linalg.norm(vector)
    return vector


def _lattice_table(dim: int, k_max: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The unit lattices of 2 to k_max points in R^dim, as (table, row, size).

    ``table[i]`` holds the ``size[i]`` points of one shape, m2 points along
    axis 0 times m1 along axis 1 with the longer side spanning [0, 1],
    padded to k_max points by its first point, the origin. A trial of k
    points tests row ``row[0, k - 2]``, the axis lattice (m1 = 1, m2 = k), or
    ``row[1, k - 2]``, the planar grid m1 = floor(sqrt(k)), m2 = k // m1 >= m1
    (the axis lattice when dim = 1 or k < 4). Each shape has one row.
    """
    ks = np.arange(2, k_max + 1)
    m1 = np.array([math.isqrt(k) if dim > 1 and k >= 4 else 1 for k in ks.tolist()])
    m2 = ks // m1
    # (m1, m2) never decreases as k grows, so equal planar shapes are
    # adjacent: number each new one after the axis rows.
    grid = m1 > 1
    fresh = grid & np.r_[True, (m1[1:] != m1[:-1]) | (m2[1:] != m2[:-1])]
    row = np.stack([ks - 2, np.where(grid, len(ks) - 1 + np.cumsum(fresh), ks - 2)])
    m1 = np.r_[np.ones_like(ks), m1[fresh]]
    m2 = np.r_[ks, m2[fresh]]
    size = m1 * m2
    slot = np.arange(k_max)
    along, across = np.divmod(slot, m1[:, None])
    inside = slot < size[:, None]
    h = (1.0 / (m2 - 1))[:, None]
    table = np.zeros((len(size), k_max, dim))
    table[..., 0] = np.where(inside, along * h, 0.0)
    if dim > 1:
        table[..., 1] = np.where(inside, across * h, 0.0)
    return table, row, size


def _screen(gram: np.ndarray, floor: float, sizes) -> np.ndarray:
    """Mask of the (B, K, K) stack's Gram matrices whose computed lambda_min
    provably exceeds ``floor``: those where Cholesky factors G - tau I, with
    tau = floor + 4k(k+1) eps s and s = ||G||_inf + |floor|.

    With u = eps/2: forming A = G - tau I moves its diagonal by <= u s. If
    Cholesky completes on A, R^T R = A + dA with |dA| <= (k+1)u |R^T| |R|
    (Higham, Accuracy and Stability of Numerical Algorithms, Thm 10.3), and
    || |R^T| |R| ||_2 <= trace(R^T R) ~ k s; R^T R is PSD, so lambda_min(G)
    >= tau - (k(k+1)+1) u s. eigvalsh errs by ~k eps ||G||_2 <= k eps s. The
    margin is 3.2 (k = 1) to 8 times the sum of these first-order terms.

    ``sizes`` gives each member's own k when a k x k matrix G is embedded as
    [[G, 0], [0, D]], D diagonal with 0 < D <= ||G||_inf, so that s is G's
    own. Only the leading k diagonal entries are shifted, and the Cholesky
    factor is block diagonal too, exactly: every inner product that forms an
    entry of its leading block adds exact zeros to the <= k terms it has for
    G alone, so the bound above holds with the member's own k. The shift is
    made in a copy; ``gram`` is left as it is. The bound ignores underflow,
    so a member with eps s below the smallest normal float never passes.

    One factorization judges the whole stack: the gufunc under
    ``np.linalg.cholesky`` returns a member it cannot factor as NaN, where
    ``np.linalg.cholesky`` raises for the stack.
    """
    k = np.asarray(sizes)
    scale = np.abs(gram).sum(axis=-1).max(axis=-1) + abs(floor)
    tau = floor + 4 * k * (k + 1) * _EPS * scale
    rows = np.arange(gram.shape[-1])
    shifted = gram.copy()
    shifted[:, rows, rows] -= tau[:, None] * (rows < k[:, None])
    with np.errstate(invalid="ignore"):  # raised for the NaN of a failing member
        factor = _cholesky_lo(shifted, signature="d->d")
    return (_EPS * scale >= np.finfo(float).tiny) & ~np.isnan(factor[:, 0, 0])


def _solve_stack(profile: RadialProfile, f0: float, tol: float, floor: float,
                 points: np.ndarray, sizes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(lambda_min, refutes) arrays for a (B, K, dim) stack of configurations,
    member b being its first ``sizes[b]`` points. lambda_min is NaN where a
    member leaves a tabulated profile's domain, and inf where ``_screen``
    passes it against a finite ``floor``.

    A member is padded to K points by repeats of its first point; that moves
    no coordinate range and no diameter. Each Gram matrix G is embedded as
    [[G, 0], [0, f0 I]]. Those that the screen does not pass are
    eigen-solved unpadded, one stack per point count, so each lambda_min is
    what eigen-solving G alone gives.
    """
    lam = np.full(len(points), np.nan)
    refutes = np.zeros(len(points), dtype=bool)
    members = slice(None)  # the stack positions still evaluated
    if profile.t_max is not None:
        # A coordinate range r above t_max (1 + 4 eps) gives a computed
        # distance >= r (1 - eps) > t_max (r^2 is a normal float for r above
        # 1e-150), so those configurations leave the domain before any
        # distance work; the rest stay by their computed diameter.
        limit = max(profile.t_max * (1.0 + 4.0 * _EPS), 1e-150)
        near = np.ptp(points, axis=1).max(axis=1) <= limit
        dist = _distances(points[near])
        fits = dist.max(axis=(1, 2), initial=0.0) <= profile.t_max
        dist, sizes = dist[fits], sizes[near][fits]
        members = np.flatnonzero(near)[fits]
        if not len(sizes):
            return lam, refutes
    else:
        dist = _distances(points)
    gram = np.asarray(profile.fn(dist), dtype=float)
    del dist
    rows = np.arange(points.shape[1])
    pad = rows >= sizes[:, None]  # zero the rows, then the columns, past each own k
    gram[pad] = 0.0
    gram.transpose(0, 2, 1)[pad] = 0.0
    gram[:, rows, rows] = f0
    low = np.full(len(gram), np.inf)
    bad = np.zeros(len(gram), dtype=bool)
    unsure = ~_screen(gram, floor, sizes) if floor < np.inf else np.ones(len(gram), bool)
    for k in np.flatnonzero(np.bincount(sizes[unsure])).tolist():
        group = np.flatnonzero(unsure & (sizes == k))
        eigvals = np.linalg.eigvalsh(gram[group, :k, :k])
        low[group] = eigvals[:, 0]
        norm = np.maximum(np.abs(eigvals[:, 0]), np.abs(eigvals[:, -1]))
        bad[group] = eigvals[:, 0] < -tol * np.maximum(1.0, norm)
    lam[members], refutes[members] = low, bad
    return lam, refutes


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
    (seed, c). The search draws chunks in batches of 1, 2, 4, 4, ... as far
    as it goes, and puts a batch's unsolved configurations into stacks keyed
    by lattice or box draw and by size class ceil(k / 8), k the
    configuration's own point count; ``threads`` spreads the stacks over
    worker threads. A batch is built as arrays: a box stack is one ``take``
    from the batch's box points, a lattice stack one product of rows of a
    table of unit lattices (``_lattice_table``) with the trials' spans. Each
    stack takes one distance, one profile and one Cholesky evaluation
    (``_solve_stack``). From the second batch on, a Gram matrix is
    eigen-solved only when ``_screen`` cannot place it above max(minimum of
    the earlier batches, -tol), where it could neither refute nor hold the
    minimum; it is then solved unpadded, so every lambda_min is what solving
    its matrix alone gives. The batch's outcomes are then read in trial
    order: the first refuting trial ends the search. Results are identical
    for any ``threads``.

    Fixed-span lattices depend on the point count alone; each is evaluated
    once per call, at its first trial, and its outcome reused.
    ``configurations_solved`` counts the trials run, and not skipped, that
    solved their configuration: every scaled-lattice and box trial, and the
    first trial of each fixed-span lattice. That is the number of distinct
    Gram matrices evaluated, by eigensolve or by the screen; ``eigensolves``
    counts those of them eigen-solved.
    ``trials_skipped`` counts the trials whose configuration left a
    tabulated profile's domain; skipped trials are not evaluated.

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
    table, lattice_row, lattice_size = _lattice_table(dim, k_max)
    n_classes = -(-k_max // _SIZE_CLASS) + 1  # stack keys: size class, plus this for lattices
    # Outcomes of the fixed-span lattices by table row: a fixed-span lattice
    # is evaluated once per call. Scaled lattices and box draws are each
    # their trial's own configuration.
    shape_lam = np.full(len(table), np.nan)
    shape_refutes = np.zeros(len(table), dtype=bool)
    shape_solved = np.zeros(len(table), dtype=bool)
    n_solved = n_eigensolves = skipped = 0

    global_min = np.inf
    global_min_pts = None
    refutation = None  # (trials run, points) of the refuting trial
    n_chunks = -(-trials // _CHUNK)
    first, size = 0, 1
    while first < n_chunks and refutation is None:
        floor = max(global_min, -tol)  # set before any worker runs; inf in the first batch
        draws = []  # (point counts, spans, box points) per chunk
        for chunk in range(first, min(first + size, n_chunks)):
            n = min(_CHUNK, trials - chunk * _CHUNK)
            rng = substream(seed, ROLE_TRIAL, chunk)
            ks = rng.integers(2, k_max + 1, size=n)
            spans = rng.uniform(0.5, fixed_span, size=n)
            box_ks = ks[(chunk * _CHUNK + np.arange(n)) % _N_KINDS == _KIND_RANDOM_BOX]
            draws.append((ks, spans, rng.uniform(-_BOX_HALFWIDTH, _BOX_HALFWIDTH,
                                                  size=(int(box_ks.sum()), dim))))
        start = first * _CHUNK
        first, size = first + size, min(2 * size, _BATCH_CAP)
        ks, spans, box = (np.concatenate(parts) for parts in zip(*draws))

        # One entry per trial of the batch, in trial order.
        kinds = (start + np.arange(len(ks))) % _N_KINDS
        is_box = kinds == _KIND_RANDOM_BOX
        own = is_box | (kinds == _KIND_SCALED_LATTICE)
        fixed = ~own
        row = lattice_row[(kinds != _KIND_LATTICE_1D).astype(int), ks - 2]
        npts = np.where(is_box, ks, lattice_size[row])
        span = np.where(kinds == _KIND_SCALED_LATTICE, spans, fixed_span)
        box_at = np.cumsum(ks * is_box) - ks * is_box  # a box trial's first row of box

        def points_of(members):
            """The (len(members), K, dim) stack of the members' points."""
            n = npts[members]
            slots = np.arange(n.max())
            if is_box[members[0]]:
                return box.take(box_at[members][:, None] + slots * (slots < n[:, None]), axis=0)
            return table[row[members], :len(slots)] * span[members][:, None, None]

        # Solve every own configuration and the first trial of each fixed-span
        # lattice not solved before, in stacks keyed by (box?, size class).
        # Distinct values are found by marking, not sorting: np.unique and
        # np.union1d here raised a certify call's peak RSS by 1.6-2 MB, the
        # numpy sort code they page in.
        trial_of = np.full(len(table), len(ks))  # each shape's first trial in the batch
        np.minimum.at(trial_of, row[fixed], np.flatnonzero(fixed))
        new = trial_of[(trial_of < len(ks)) & ~shape_solved]
        solve = own.copy()
        solve[new] = True
        todo = np.flatnonzero(solve)
        stack_of = (np.where(is_box, 0, n_classes) + -(-npts // _SIZE_CLASS))[todo]
        stacks = [todo[stack_of == key] for key in np.flatnonzero(np.bincount(stack_of))]
        solved = parallel_map(
            lambda s: _solve_stack(profile, f0, tol, floor, points_of(stacks[s]),
                                   npts[stacks[s]]),
            len(stacks), threads)
        lam = np.empty(len(ks))
        refutes = np.empty(len(ks), dtype=bool)
        for members, (stack_lam, stack_refutes) in zip(stacks, solved):
            lam[members], refutes[members] = stack_lam, stack_refutes
        shape_solved[row[new]] = True
        shape_lam[row[new]], shape_refutes[row[new]] = lam[new], refutes[new]
        lam[fixed], refutes[fixed] = shape_lam[row[fixed]], shape_refutes[row[fixed]]

        # Read the outcomes in trial order, up to the first refuting trial.
        hits = np.flatnonzero(refutes)
        run = int(hits[0]) + 1 if len(hits) else len(ks)
        lam = lam[:run]
        evaluated = ~np.isnan(lam)
        skipped += run - int(evaluated.sum())
        counted = evaluated & solve[:run]
        n_solved += int(counted.sum())
        n_eigensolves += int((counted & (lam < np.inf)).sum())
        lam = np.where(evaluated, lam, np.inf)
        best = int(np.argmin(lam))
        if lam[best] < global_min:
            global_min, global_min_pts = float(lam[best]), points_of([best])[0]
        if len(hits):
            refutation = start + run, points_of([run - 1])[0]

    verdict = "certified" if profile.t_max is None else "inconclusive"
    trials_run, points, witness = trials, global_min_pts, None
    if refutation is not None:
        trials_run, points = refutation
        gram = gram_matrix(profile, points)
        coefficients = _bottom_eigenvector(gram)
        verdict, witness = "refuted", (coefficients, quadratic_form(gram, coefficients))
    elif skipped == trials:  # no trial was evaluated
        global_min, points = np.nan, np.zeros((1, dim))
    return PsdReport(
        points=points,
        min_eigenvalue=global_min,
        tolerance=tol,
        verdict=verdict,
        witness=witness,
        trials_run=trials_run,
        trials_skipped=skipped,
        configurations_solved=n_solved,
        eigensolves=n_eigensolves,
    )
