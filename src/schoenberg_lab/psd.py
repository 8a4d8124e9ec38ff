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

# Most chunks certify_psd solves at once; not part of the stream. It bounds
# the memory a batch holds. 8 measured faster than 4; 16, or no cap, measured
# no faster than 8 and held ~3 MB more peak RSS.
_BATCH_CAP = 8

# Most bytes a stack's arrays may take: solving a stack of B configurations
# padded to K points holds at most three B x K x K float arrays at once,
# 3 * 8 * B * K**2 bytes. certify_psd refuses a k_max whose one configuration
# exceeds this before the first draw (k_max 6688 at most; 1500 needs 54 MB)
# and cuts every stack into pieces that fit.
CONFIG_BYTES = 2**30

# certify_psd evaluates the configurations of a batch whose point counts k
# share ceil(k / _SIZE_CLASS) as one stack; not part of the stream.
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
    same order. The squares are summed in place in the returned array, with
    one more array of its size for the differences.
    """
    coords = np.ascontiguousarray(points.transpose(-1, *range(points.ndim - 1)))
    sq = np.empty(points.shape[:-1] + points.shape[-2:-1])
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
    made in a copy, which the factorization overwrites, so the screen holds
    one array of the stack's size; ``gram`` is left as it is. The bound
    ignores underflow, so a member with eps s below the smallest normal
    float never passes.

    One factorization judges the whole stack: the gufunc under
    ``np.linalg.cholesky`` returns a member it cannot factor as NaN, where
    ``np.linalg.cholesky`` raises for the stack.
    """
    k = np.asarray(sizes)
    scale = np.abs(gram).sum(axis=-1).max(axis=-1) + abs(floor)
    tau = floor + 4 * k * (k + 1) * _EPS * scale
    rows = np.arange(gram.shape[-1])
    shifted = gram.copy()
    shifted[:, rows, rows] -= np.where(rows < k[:, None], tau[:, None], 0.0)
    with np.errstate(invalid="ignore"):  # raised for the NaN of a failing member
        _cholesky_lo(shifted, signature="d->d", out=shifted)
    return (_EPS * scale >= np.finfo(float).tiny) & ~np.isnan(shifted[:, 0, 0])


def _solve_stack(profile: RadialProfile, f0: float, tol: float, floor: float,
                 points: np.ndarray, sizes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(lambda_min, refutes) arrays for a (B, K, n) stack of configurations,
    member b being its first ``sizes[b]`` points. lambda_min is NaN where a
    member's computed diameter exceeds a tabulated profile's t_max, and inf
    where ``_screen`` places it above ``floor``. With ``floor`` +inf no
    member can pass, and the screen is not run.

    A member is padded to K points by repeats of its first point; that moves
    no diameter. Each Gram matrix G is embedded as [[G, 0], [0, f0 I]].
    Those that the screen does not pass are eigen-solved unpadded, one stack
    per point count, so each lambda_min is what eigen-solving G alone gives.
    """
    lam = np.full(len(points), np.nan)
    refutes = np.zeros(len(points), dtype=bool)
    dist = _distances(points)
    members = slice(None)  # the stack positions in the profile's domain
    if profile.t_max is not None:
        members = np.flatnonzero(dist.max(axis=(1, 2)) <= profile.t_max)
        dist, sizes = dist[members], sizes[members]
        if not len(members):
            return lam, refutes
    gram = np.asarray(profile.fn(dist), dtype=float)
    del dist
    rows = np.arange(points.shape[1])
    pad = rows >= sizes[:, None]  # zero the rows, then the columns, past each own k
    gram[pad] = 0.0
    gram.transpose(0, 2, 1)[pad] = 0.0
    gram[:, rows, rows] = f0
    low = np.full(len(gram), np.inf)
    bad = np.zeros(len(gram), dtype=bool)
    unsure = np.ones(len(gram), dtype=bool) if floor == np.inf else ~_screen(gram, floor, sizes)
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
    k uniform in [2, k_max] and L = ``_BOX_HALFWIDTH`` = 3. A lattice is m2
    points along axis 0 times m1 along axis 1, its longer side spanning
    [0, span]: m1 = floor(sqrt(k)) and m2 = k // m1 for the first two kinds
    when dim > 1 and k >= 4, else m1 = 1 and m2 = k. A trial refutes when
    lambda_min < -tol * max(1, ||G||_2); the report then carries the
    offending eigenvector as witness.

    Trials come in chunks of 64. Chunk c draws the point counts, spans and
    box points of all its trials as arrays from one substream keyed by
    (seed, c). The search draws chunks in batches of 1, 2, 4, 8, 8, ... as
    far as it goes, and solves the batch's trials that are not repeats
    (below) in stacks keyed by size class ceil(k / 8), k the configuration's
    own point count; ``threads`` spreads the stacks over worker threads. One
    builder gives every stack, and the points a report keeps, on all dim
    axes: box rows are taken from the batch's box points, and a lattice is
    the unit lattice of its trial's (m1, m2) times its span, with exact
    zeros past axis 1. No array is sized by k_max but one entry per lattice
    shape. A stack of B configurations padded to K points holds at most
    3 * 8 * B * K**2 bytes: a k_max whose one configuration needs more than
    ``CONFIG_BYTES`` is a ValueError before the first draw, and a size
    class over it is cut into pieces under it, each solved as a stack of
    its own, which moves no result. Each stack takes one distance, one
    profile and one Cholesky evaluation (``_solve_stack``). A Gram matrix
    is eigen-solved only when ``_screen`` cannot place it above max(m,
    -tol), where it could neither refute nor hold the minimum. A batch
    solves every piece of its largest size class first, with m the minimum
    of the earlier batches (+inf before the first, where the screen is not
    run), then its other stacks with m the lower of that and the largest
    class's minimum. That is sound for any m the search computed: if m's
    trial is counted, a matrix above m is not the minimum, and if it comes
    after the batch's first refuting trial, that refuter is below -tol. A
    matrix the screen does not pass is solved unpadded, so every lambda_min
    is what solving its matrix alone gives.
    Results are identical for any ``threads``.

    Outcomes stay in their batch: lambda_min and whether it refutes, for at
    most 512 trials. A fixed-span lattice depends on its shape alone, which
    its size and whether m1 > 1 fix (a planar grid of size s has m1 =
    floor(sqrt(s))): only the first trial of a shape is solved, so it is
    evaluated once per call, and its repeats, the later trials of that
    shape, read its lambda_min back from one entry per shape. A batch reads
    its outcomes in trial order; the first refuting trial ends the search.
    The counters add up batch by batch over the trials run:
    ``configurations_solved`` counts the trials solved and not skipped (the
    distinct Gram matrices evaluated, by eigensolve or by the screen),
    ``eigensolves`` those of them eigen-solved, and ``trials_skipped`` the
    trials whose configuration's computed diameter exceeds a tabulated
    profile's t_max, which are not evaluated. Those whose range along one
    axis already exceeds t_max are dropped before any stack is built.

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
    if 3 * 8 * k_max**2 > CONFIG_BYTES:
        raise ValueError(f"k_max {k_max} needs {3 * 8 * k_max**2} bytes for one configuration, "
                         f"over the {CONFIG_BYTES}-byte limit")
    if dim < 1:
        raise ValueError("dimension must be >= 1")
    if not 0.0 <= tol < np.inf:
        raise ValueError(f"tol must be finite and >= 0, got {tol!r}")

    f0 = float(profile(0.0))
    fixed_span = 2.0 * _BOX_HALFWIDTH
    # Per lattice shape: its first fixed-span trial so far, and that trial's lambda_min.
    first = np.full(2 * k_max + 2, trials)
    shape_lam = np.full(2 * k_max + 2, np.nan)

    floor = global_min = np.inf  # floor: max(m, -tol), m the lowest lambda_min solved so far
    global_min_pts = None
    trials_run, refutation = trials, None  # refutation: the refuting trial's points
    skipped = solved = eigensolves = 0
    n_chunks = -(-trials // _CHUNK)
    drawn, size = 0, 1
    while drawn < n_chunks and refutation is None:
        draws = []  # (point counts, spans, box points) per chunk
        for chunk in range(drawn, min(drawn + size, n_chunks)):
            n = min(_CHUNK, trials - chunk * _CHUNK)
            rng = substream(seed, ROLE_TRIAL, chunk)
            ks = rng.integers(2, k_max + 1, size=n)
            spans = rng.uniform(0.5, fixed_span, size=n)
            box_ks = ks[(chunk * _CHUNK + np.arange(n)) % _N_KINDS == _KIND_RANDOM_BOX]
            draws.append((ks, spans, rng.uniform(-_BOX_HALFWIDTH, _BOX_HALFWIDTH,
                                                  size=(int(box_ks.sum()), dim))))
        start = drawn * _CHUNK
        drawn, size = drawn + size, min(2 * size, _BATCH_CAP)
        ks, spans, box = (np.concatenate(parts) for parts in zip(*draws))

        # One entry per trial of the batch, in trial order.
        trial = start + np.arange(len(ks))
        kinds = trial % _N_KINDS
        is_box = kinds == _KIND_RANDOM_BOX
        fixed = (kinds == _KIND_LATTICE_2D) | (kinds == _KIND_LATTICE_1D)
        planar = (kinds != _KIND_LATTICE_1D) & (ks >= 4) & (dim > 1)
        # floor(sqrt(k)): exact below 2**52, far past any k whose points fit in memory
        m1 = np.where(planar, np.sqrt(ks).astype(ks.dtype), 1)
        m2 = ks // m1
        npts = np.where(is_box, ks, m1 * m2)
        span = np.where(kinds == _KIND_SCALED_LATTICE, spans, fixed_span)
        box_at = np.cumsum(ks * is_box) - ks * is_box  # a box trial's first row of box

        def points_of(members):
            """The (len(members), K, dim) stack of the members' points, padded by
            their first point: box rows from ``box``, lattices on axes 0 and 1."""
            n = npts[members]
            slots = np.arange(n.max())
            slots = slots * (slots < n[:, None])
            grid = np.stack(np.divmod(slots, m1[members][:, None]), axis=-1)[..., :dim]
            pts = np.zeros(slots.shape + (dim,))
            pts[..., :grid.shape[-1]] = (grid * (1.0 / (m2[members] - 1))[:, None, None]
                                         * span[members][:, None, None])
            drawn = is_box[members]
            pts[drawn] = box.take(box_at[members][drawn][:, None] + slots[drawn], axis=0)
            return pts

        # A fixed-span lattice depends on its shape alone, keyed by (size,
        # planar?): a planar grid's size fixes its m1. Only the first trial of
        # a shape is solved; its repeats read its lambda_min back. A repeat
        # comes after its shape's first trial and has the same lambda_min, so
        # it can be neither the first refuting trial nor a strictly new minimum.
        shape = 2 * npts + (m1 > 1)
        np.minimum.at(first, shape[fixed], trial[fixed])
        own = ~fixed | (first[shape] == trial)
        lam = np.full(len(ks), np.nan)  # NaN until solved, or off a tabulated domain
        refutes = np.zeros(len(ks), dtype=bool)

        # Solve the batch's own trials, less those a tabulated profile's
        # domain rule would skip for their range along one axis: a lattice's
        # is its far corner, computed as points_of computes it, a box draw's
        # its rows' max minus min. The computed diameter is at least any
        # computed axis range: a sum of squares rounds no lower than one of
        # its terms, and sqrt(fl(d^2)) = |d| unless d^2 underflows, hence the
        # 1e-150.
        todo = np.flatnonzero(own)
        if profile.t_max is not None:
            reach = (m2 - 1) * (1.0 / (m2 - 1)) * span
            starts = box_at[is_box]
            reach[is_box] = (np.maximum.reduceat(box, starts)
                             - np.minimum.reduceat(box, starts)).max(axis=1)
            todo = todo[reach[todo] <= max(profile.t_max, 1e-150)]

        # Stacks are keyed by size class. Distinct keys are found by counting,
        # not sorting: np.unique here raised a certify call's peak RSS by
        # 1.6-2 MB, the numpy sort code it pages in. Each size class is cut
        # into pieces of at most CONFIG_BYTES by the 3 * 8 * B * K**2 count,
        # K the class's largest point count.
        stack_of = -(-npts[todo] // _SIZE_CLASS)
        stacks = []  # per size class, its pieces
        for key in np.flatnonzero(np.bincount(stack_of)):
            members = todo[stack_of == key]
            step = max(1, CONFIG_BYTES // (3 * 8 * int(npts[members].max()) ** 2))
            stacks.append([members[i:i + step] for i in range(0, len(members), step)])

        # The largest size class first, then the others against its minimum too.
        for group in (sum(stacks[-1:], []), sum(stacks[:-1], [])):
            results = parallel_map(
                lambda s: _solve_stack(profile, f0, tol, floor, points_of(group[s]),
                                       npts[group[s]]),
                len(group), threads)
            for members, (stack_lam, stack_refutes) in zip(group, results):
                lam[members], refutes[members] = stack_lam, stack_refutes
            floor = max(min(floor, np.fmin.reduce(lam, initial=np.inf)), -tol)
        shape_lam[shape[own & fixed]] = lam[own & fixed]
        lam[fixed] = shape_lam[shape[fixed]]

        # Read the outcomes in trial order, up to the first refuting trial.
        hits = np.flatnonzero(refutes)
        run = int(hits[0]) + 1 if len(hits) else len(ks)
        seen, own = lam[:run], own[:run]
        skipped += int(np.isnan(seen).sum())
        solved += int((own & ~np.isnan(seen)).sum())
        eigensolves += int((own & (seen < np.inf)).sum())
        seen = np.where(np.isnan(seen), np.inf, seen)  # a skipped trial holds no minimum
        best = int(np.argmin(seen))
        if seen[best] < global_min:
            global_min, global_min_pts = float(seen[best]), points_of([best])[0]
        if len(hits):
            trials_run, refutation = start + run, points_of([run - 1])[0]

    verdict = "certified" if profile.t_max is None else "inconclusive"
    points, witness = global_min_pts, None
    if refutation is not None:
        points = refutation
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
        configurations_solved=solved,
        eigensolves=eigensolves,
    )
