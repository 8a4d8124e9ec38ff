"""Gram machinery and the PSD certifier.

Derived expectations are computed by independent oracles inside the tests:
quadrature for the exp-mixture entry, dense-lattice brute force for the
triangle profile on the line, and direct quadratic-form evaluation for
refutation witnesses.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from schoenberg_lab import (
    RadialProfile,
    catalog_profile,
    certify_psd,
    exponential_measure,
    gram_matrix,
    mixture_laplace,
    quadratic_form,
    tabulated_profile,
)
from schoenberg_lab import psd
from schoenberg_lab.psd import (
    _CHUNK,
    _KIND_LATTICE_1D,
    _KIND_RANDOM_BOX,
    _KIND_SCALED_LATTICE,
    _N_KINDS,
    _SIZE_CLASS,
    _bottom_eigenvector,
)
from schoenberg_lab.rng import ROLE_TRIAL, STREAM_VERSION, substream


def oracle_configurations(dim, trials, k_max, seed, halfwidth=3.0):
    """Every trial's points, rebuilt from its chunk's substream (stream version 3).

    Chunk c draws, from substream(seed, ROLE_TRIAL, c): the point counts of
    its trials, one span per trial (used by the scaled lattices), then the
    points of its box trials in trial order. Lattices are built here from
    the definition: an axis lattice, or an m1 x m2 planar grid with
    m1 = floor(sqrt(k)), m2 = k // m1, whose longer side (m2 points, axis 0)
    spans [0, span].
    """
    configs = []
    for chunk, start in enumerate(range(0, trials, _CHUNK)):
        n = min(_CHUNK, trials - start)
        rng = substream(seed, ROLE_TRIAL, chunk)
        ks = rng.integers(2, k_max + 1, size=n)
        spans = rng.uniform(0.5, 2.0 * halfwidth, size=n)
        kinds = [(start + j) % _N_KINDS for j in range(n)]
        n_box = sum(int(k) for k, kind in zip(ks, kinds) if kind == _KIND_RANDOM_BOX)
        box = iter(rng.uniform(-halfwidth, halfwidth, size=(n_box, dim)))
        for kind, k, span in zip(kinds, ks.tolist(), spans.tolist()):
            if kind == _KIND_RANDOM_BOX:
                configs.append(np.array([next(box) for _ in range(k)]))
                continue
            if kind != _KIND_SCALED_LATTICE:
                span = 2.0 * halfwidth
            if kind == _KIND_LATTICE_1D or dim == 1 or k < 4:
                pts = np.zeros((k, dim))
                pts[:, 0] = np.arange(k) * (1.0 / (k - 1)) * span
            else:
                m1 = int(np.sqrt(k))
                m2 = k // m1
                h = 1.0 / (m2 - 1)
                along, across = np.meshgrid(np.arange(m2) * h, np.arange(m1) * h,
                                            indexing="ij")
                pts = np.zeros((m1 * m2, dim))
                pts[:, 0] = along.ravel() * span
                pts[:, 1] = across.ravel() * span
            configs.append(pts)
    return configs


class TestGramMatrix:
    def test_single_point(self):
        g = gram_matrix(catalog_profile("exp-mixture"), np.zeros((1, 3)))
        np.testing.assert_array_equal(g, [[1.0]])

    def test_two_points_gaussian(self):
        pts = np.array([[0.0], [2.0]])
        g = gram_matrix(catalog_profile("gaussian"), pts)
        expected = np.array([[1.0, np.exp(-2.0)], [np.exp(-2.0), 1.0]])
        np.testing.assert_allclose(g, expected)

    def test_exp_mixture_against_quadrature(self):
        # oracle: integrate exp(-t^2 s / 2) e^-s ds at t = sqrt(2)
        t = np.sqrt(2.0)
        oracle, err = quad(lambda s: np.exp(-t**2 * s / 2.0) * np.exp(-s), 0, np.inf)
        assert err < 1e-10
        assert oracle == pytest.approx(0.5, abs=1e-12)
        pts = np.array([[0.0, 0.0], [np.sqrt(2.0), 0.0]])
        g = gram_matrix(catalog_profile("exp-mixture"), pts)
        assert g[0, 1] == pytest.approx(oracle, abs=1e-12)

    def test_exactly_symmetric_unit_diagonal(self):
        rng = np.random.default_rng(3)
        pts = rng.uniform(-2, 2, size=(9, 4))
        for pid in ("gaussian", "cauchy", "exp-mixture", "triangle"):
            g = gram_matrix(catalog_profile(pid), pts)
            np.testing.assert_array_equal(g, g.T)
            np.testing.assert_array_equal(np.diag(g), np.ones(9))

    def test_rejects_malformed_points(self):
        f = catalog_profile("gaussian")
        for pts in (np.zeros(3), np.zeros((0, 2)), np.zeros((2, 0)), np.zeros((2, 2, 2))):
            with pytest.raises(ValueError, match="nonempty"):
                gram_matrix(f, pts)
        with pytest.raises(ValueError, match="finite"):
            gram_matrix(f, [[0.0, 0.0], [np.nan, 1.0]])


class TestQuadraticForm:
    def test_identity(self):
        assert quadratic_form(np.eye(2), np.array([1.0, 1.0])) == pytest.approx(2.0)

    def test_rank_one_null_direction(self):
        g = np.ones((2, 2))
        assert quadratic_form(g, np.array([1.0, -1.0])) == pytest.approx(0.0)

    def test_near_degenerate(self):
        g = np.array([[1.0, 0.9], [0.9, 1.0]])
        assert quadratic_form(g, np.array([1.0, -1.0])) == pytest.approx(0.2)

    def test_complex_coefficients(self):
        g = np.eye(2)
        c = np.array([1.0 + 1.0j, 0.0])
        assert quadratic_form(g, c) == pytest.approx(2.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            quadratic_form(np.eye(3), np.ones(2))

    def test_matches_eigenvalue_on_eigenvectors(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((6, 6))
        g = (a + a.T) / 2
        vals, vecs = np.linalg.eigh(g)
        scale = np.abs(vals).max()
        for i in (0, 3, 5):
            assert quadratic_form(g, vecs[:, i]) == pytest.approx(vals[i], abs=1e-8 * scale)


class TestBottomEigenvector:
    """certify's witness: inverse iteration lands on eigh's bottom eigenvector."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("k", [2, 26, 64])
    def test_planted_spectrum(self, k, seed):
        rng = np.random.default_rng(seed)
        q = np.linalg.qr(rng.standard_normal((k, k)))[0]
        vals = np.sort(rng.uniform(-1.0, 3.0, k))
        vals[1:] = np.maximum(vals[1:], vals[0] + 1e-3)  # spectral gap >= 1e-3
        g = (q * vals) @ q.T
        g = (g + g.T) / 2
        v = _bottom_eigenvector(g)
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-15)
        assert abs(v @ np.linalg.eigh(g)[1][:, 0]) == pytest.approx(1.0, abs=1e-12)

    def test_repeated_bottom_eigenvalue(self):
        # any unit vector of the bottom eigenspace is a witness
        rng = np.random.default_rng(3)
        q = np.linalg.qr(rng.standard_normal((30, 30)))[0]
        vals = np.r_[-0.5, -0.5, np.linspace(0.1, 2.0, 28)]
        g = (q * vals) @ q.T
        g = (g + g.T) / 2
        v = _bottom_eigenvector(g)
        assert np.linalg.norm(g @ v + 0.5 * v) < 1e-13
        assert quadratic_form(g, v) == pytest.approx(-0.5, abs=1e-14)

    @pytest.mark.parametrize("k", [26, 41, 64])
    def test_symmetric_lattices(self, k):
        # a lattice on a line is symmetric under reversal, and its bottom
        # eigenvector is often antisymmetric: orthogonal to any start vector
        # that is symmetric under reversal
        tri = catalog_profile("triangle")
        for span in np.linspace(0.5, 6.0, 12):
            points = np.zeros((k, 2))
            points[:, 0] = np.linspace(0.0, span, k)
            g = gram_matrix(tri, points)
            vals, vecs = np.linalg.eigh(g)
            v = _bottom_eigenvector(g)
            assert quadratic_form(g, v) == pytest.approx(vals[0], abs=1e-14)
            assert abs(v @ vecs[:, 0]) == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_rayleigh_bound(seed):
    """min eigenvalue <= c^T G c / ||c||^2 for any coefficient vector."""
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 8))
    a = rng.standard_normal((k, k))
    g = (a + a.T) / 2
    c = rng.standard_normal(k)
    rayleigh = quadratic_form(g, c) / (c @ c)
    assert np.linalg.eigvalsh(g)[0] <= rayleigh + 1e-10 * max(1.0, np.abs(g).max())


def check_screen(gram, floor, rng, tol=1e-8):
    """Whatever the Cholesky screen passes must have a computed lambda_min
    above ``floor``, and so must neither refute nor become the minimum.
    The screen must say the same of ``gram`` embedded in a padded stack."""
    passed = bool(psd._screen(gram[None], floor, [len(gram)])[0])
    vals = np.linalg.eigvalsh(gram)
    if passed:
        assert vals[0] > floor
        assert vals[0] >= -tol * max(1.0, abs(vals[0]), abs(vals[-1]))
    assert screen_embedded(gram, floor, rng) == passed
    return passed, vals[0]


def screen_embedded(gram, floor, rng):
    """The screen's verdict on ``gram`` as one member of a stack of a larger
    K, beside two members of other sizes whose lambda_min is floor + 0.5 or
    more; each k x k member G is embedded as [[G, 0], [0, ||G||_inf I]]."""
    k = len(gram)
    size = k + int(rng.integers(1, 9))
    members = [gram]
    for n in (max(1, k // 2), size):
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        other = (q * (floor + rng.uniform(0.5, 2.0, size=n))) @ q.T
        members.append((other + other.T) / 2)
    order = rng.permutation(len(members))
    stack = np.zeros((len(members), size, size))
    for b, i in enumerate(order):
        n = len(members[i])
        stack[b, range(n, size), range(n, size)] = np.abs(members[i]).sum(axis=1).max()
        stack[b, :n, :n] = members[i]
    before = stack.copy()
    passed = psd._screen(stack, floor, [len(members[i]) for i in order])
    np.testing.assert_array_equal(stack, before)  # the screen leaves the stack as it was
    return bool(passed[int(np.flatnonzero(order == 0)[0])])


# Distance of the planted lambda_min from the screen's floor. 0 and 1e-15 sit
# within rounding of the floor, where a screen without a margin goes wrong.
OFFSETS = st.one_of(st.sampled_from([0.0, 1e-15]), st.floats(1e-13, 1e-9))


@settings(max_examples=150, deadline=None)
@given(pid=st.sampled_from(["gaussian", "cauchy", "exp-mixture", "triangle"]),
       lattice=st.booleans(), k=st.integers(2, 64), dim=st.integers(1, 8),
       span=st.floats(0.05, 6.0), offset=OFFSETS,
       below=st.booleans(), seed=st.integers(0, 2**31 - 1))
def test_screen_is_sound_on_catalog_grams(pid, lattice, k, dim, span, offset, below, seed):
    # floor planted at, or just above or below, the Gram's own computed lambda_min,
    # and clamped at -tol as certify clamps it
    if lattice:
        pts = np.zeros((k, dim))
        pts[:, 0] = np.linspace(0.0, span, k)
    else:
        pts = np.random.default_rng(seed).uniform(-span, span, size=(k, dim))
    gram = gram_matrix(catalog_profile(pid), pts)
    floor = max(np.linalg.eigvalsh(gram)[0] + (-offset if below else offset), -1e-8)
    passed, lam = check_screen(gram, floor, np.random.default_rng(seed))
    if lam > floor + 1e-6:  # far above the margin: the screen must not be vacuous
        assert passed


@settings(max_examples=150, deadline=None)
@given(k=st.integers(2, 64), floor=st.floats(-1e-8, 1e-2), offset=OFFSETS,
       below=st.booleans(), spread=st.floats(0.0, 4.0), seed=st.integers(0, 2**31 - 1))
# subnormal entries, where tau underflows to 0 and Cholesky completes at lambda_min = floor
@example(k=2, floor=0.0, offset=0.0, below=False, spread=2.225073858507e-311, seed=3)
def test_screen_is_sound_on_planted_spectra(k, floor, offset, below, spread, seed):
    # Q diag(lambda) Q^T with lambda_min planted at floor or 1e-13 to 1e-9 from it
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((k, k)))

    def planted(gap):
        lam = floor + gap + rng.uniform(0.0, spread, size=k)
        lam[0] = floor + gap
        gram = (q * lam) @ q.T
        return (gram + gram.T) / 2

    check_screen(planted(-offset if below else offset), floor, rng)
    assert check_screen(planted(1e-6), floor, rng)[0]


def test_stacked_cholesky_returns_a_failing_member_as_nan():
    # _screen judges a whole stack with this private gufunc of numpy's: where
    # np.linalg.cholesky raises for the stack, it returns the member it cannot
    # factor as NaN and the others as np.linalg.cholesky factors them alone
    from numpy.linalg._umath_linalg import cholesky_lo

    assert psd._cholesky_lo is cholesky_lo
    a = np.random.default_rng(0).standard_normal((5, 5))
    definite = a @ a.T + np.eye(5)
    indefinite = np.diag([2.0, 1.0, -1.0, 3.0, 1.0]) + 0.1
    stack = np.stack([definite, indefinite, 2.0 * definite])
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(stack)
    with np.errstate(invalid="ignore"):
        factor = cholesky_lo(stack, signature="d->d")
    assert np.isnan(factor[1]).all()
    for i in (0, 2):
        assert factor[i].tobytes() == np.linalg.cholesky(stack[i]).tobytes()


@pytest.mark.parametrize("t_max", [0.7, 1.0, 3.3])
def test_domain_rule_is_the_computed_diameter(t_max):
    # Coordinate ranges from 6 ulps below t_max to 16 ulps above it, on one
    # axis, or with a second-axis offset that lifts the diameter a few ulps
    # above the range. A configuration is skipped exactly when its computed
    # diameter exceeds t_max, also where every coordinate range fits.
    t = np.linspace(0.0, t_max, 11)
    profile = tabulated_profile(t, 1.0 - 0.5 * t / t_max)
    ranges = [t_max]
    for _ in range(16):
        ranges.append(float(np.nextafter(ranges[-1], np.inf)))
    for _ in range(6):
        ranges.insert(0, float(np.nextafter(ranges[0], 0.0)))
    configs = []
    for r in ranges:
        configs.append(np.array([[0.0, 0.0, 0.0], [r, 0.0, 0.0]]))
        configs.append(np.array([[0.0, 0.0, 0.0], [0.5 * r, 0.0, 0.0], [r, 3e-8, 0.0]]))
    sizes = np.array([len(pts) for pts in configs])
    points = np.stack([pts[[*range(len(pts)), *[0] * (3 - len(pts))]] for pts in configs])
    lam, refutes = psd._solve_stack(profile, 1.0, 1e-8, np.inf, points, sizes)
    results = [None if np.isnan(v) else (v, r) for v, r in zip(lam, refutes)]
    diameters = [psd._distances(pts).max() for pts in configs]
    assert [r is None for r in results] == [d > t_max for d in diameters]
    skipped = sum(r is None for r in results)
    assert 0 < skipped < len(configs)
    assert any(r is None and np.ptp(pts, axis=0).max() <= t_max
               for r, pts in zip(results, configs))


class TestCertify:
    def test_gaussian_certified_in_r5(self):
        report = certify_psd(catalog_profile("gaussian"), dim=5, trials=1000,
                             k_max=12, tol=1e-8, seed=7)
        assert report.certified
        assert report.trials_run == 1000
        assert report.witness is None

    def test_triangle_on_line_certified(self):
        # brute-force oracle first: dense 1-d lattices never dip below the
        # relative tolerance
        tri = catalog_profile("triangle")
        for k in (8, 16, 32, 64):
            pts = np.zeros((k, 1))
            pts[:, 0] = np.linspace(0.0, 6.0, k)
            g = gram_matrix(tri, pts)
            vals = np.linalg.eigvalsh(g)
            assert vals[0] >= -1e-8 * max(1.0, abs(vals[-1]))
        report = certify_psd(tri, dim=1, trials=1000, k_max=64, tol=1e-8, seed=7)
        assert report.certified

    def test_triangle_in_plane_refuted(self):
        tri = catalog_profile("triangle")
        report = certify_psd(tri, dim=2, trials=10_000, k_max=64, tol=1e-8, seed=7)
        assert report.refuted
        coeffs, value = report.witness
        assert value < -1e-6
        # independent confirmation of the witness through the public API
        g = gram_matrix(tri, report.points)
        assert quadratic_form(g, coeffs) == value
        assert abs(np.linalg.norm(coeffs) - 1.0) < 1e-9

    @pytest.mark.parametrize("dim", [1, 3, 8])
    def test_mixture_profiles_never_refuted(self, dim):
        measure = exponential_measure()
        profile = RadialProfile("mixture", lambda t: mixture_laplace(measure, t))
        report = certify_psd(profile, dim=dim, trials=300, k_max=12, tol=1e-8, seed=5)
        assert report.certified

    def test_deterministic_and_thread_invariant(self):
        # the Gaussian's 1000 trials (16 chunks) span six batches, so the screen runs
        for pid, trials in (("triangle", 200), ("gaussian", 1000)):
            f = catalog_profile(pid)
            a = certify_psd(f, dim=2, trials=trials, k_max=40, seed=12, threads=1)
            b = certify_psd(f, dim=2, trials=trials, k_max=40, seed=12, threads=4)
            assert a.verdict == b.verdict
            assert a.trials_run == b.trials_run
            assert a.min_eigenvalue == b.min_eigenvalue
            assert (a.configurations_solved, a.eigensolves) == (b.configurations_solved,
                                                                b.eigensolves)
            np.testing.assert_array_equal(a.points, b.points)
            if a.witness is not None:
                np.testing.assert_array_equal(a.witness[0], b.witness[0])
                assert a.witness[1] == b.witness[1]

    def test_validates_arguments(self):
        f = catalog_profile("gaussian")
        with pytest.raises(ValueError):
            certify_psd(f, dim=2, trials=0)
        with pytest.raises(ValueError):
            certify_psd(f, dim=2, k_max=1)
        with pytest.raises(ValueError):
            certify_psd(f, dim=0)
        for tol in (np.nan, -1.0, np.inf):
            with pytest.raises(ValueError, match="tol"):
                certify_psd(f, dim=2, tol=tol)

    def test_reports_skipped_trials(self):
        t = np.linspace(0.0, 1.0, 101)
        tabulated = tabulated_profile(t, 1.0 - t)
        report = certify_psd(tabulated, dim=2, trials=200, k_max=64, seed=3)
        assert report.trials_skipped > report.trials_run / 2
        report = certify_psd(catalog_profile("cauchy"), dim=2, trials=200, k_max=64, seed=3)
        assert report.trials_skipped == 0

    def test_tabulated_profile_never_certified(self):
        # certification is a claim about f on [0, inf); a tabulated profile
        # is known on [0, t_max] only. Inside [0, 1] no trial refutes the
        # triangle in R^2, nor the Gaussian. The Gaussian needs a fine
        # table: at 101 nodes its PCHIP interpolant is itself not PD (dense
        # configurations reach lambda_min ~ -1e-6) and is rightly refuted.
        for nodes, fn in ((101, lambda t: 1.0 - t), (1001, lambda t: np.exp(-t * t / 2))):
            t = np.linspace(0.0, 1.0, nodes)
            report = certify_psd(tabulated_profile(t, fn(t)), dim=2, trials=2000,
                                 k_max=64, seed=1938)
            assert report.verdict == "inconclusive"
            assert report.trials_skipped < report.trials_run
            assert np.isfinite(report.min_eigenvalue)
        # no configuration fits in [0, 0.01]: nothing was evaluated
        report = certify_psd(tabulated_profile([0.0, 0.01], [1.0, 0.99]), dim=2,
                             trials=100, seed=1)
        assert report.verdict == "inconclusive"
        assert report.trials_skipped == 100
        assert np.isnan(report.min_eigenvalue)
        assert report.points.shape == (1, 2)

    def test_matches_trial_by_trial_oracle(self):
        # the oracle rebuilds version 3 draws, which version 4 left as they were
        assert STREAM_VERSION == 4
        report = self.check_against_oracle(catalog_profile("gaussian"), dim=3, trials=200,
                                           k_max=12, seed=11)
        assert report.certified

    @pytest.mark.parametrize("pid, dim, trials, k_max, seed", [
        ("cauchy", 2, 300, 64, 4),
        ("triangle", 1, 256, 30, 2),
        ("gaussian", 5, 2000, 64, 1938),  # certify-sweep's size: the screen's main work
        # batches hold chunks 0, 1-2, 3-6, ...: a one-trial last chunk in batch 2,
        # a partial last chunk in batch 2, and a one-trial batch 3
        ("gaussian", 3, 65, 12, 1),
        ("cauchy", 2, 130, 20, 3),
        ("exp-mixture", 4, 193, 64, 5),
        # k_max 2 and 3, and dim 1: a point count's axis and planar lattices are one shape
        ("gaussian", 2, 300, 2, 6),
        ("cauchy", 3, 300, 3, 7),
        ("exp-mixture", 1, 300, 12, 9),
        # planar grids up to 17 x 17, in R^3; the planar trials of k 84 and 85,
        # 156 and 165, 182 and 188, and of 210, 220 and 221 share a shape
        ("cauchy", 3, 64, 300, 4),
    ])
    def test_matches_oracle_at_more_settings(self, pid, dim, trials, k_max, seed):
        assert self.check_against_oracle(catalog_profile(pid), dim, trials, k_max, seed).certified

    def test_skips_match_oracle_on_tabulated_profile(self):
        t = np.linspace(0.0, 1.0, 101)
        report = self.check_against_oracle(tabulated_profile(t, 1.0 - t), dim=2, trials=2000,
                                           k_max=64, seed=1938)
        assert report.verdict == "inconclusive"

    @pytest.mark.parametrize("dim, skipped", [(3, 235), (5, 253)])
    def test_skips_match_oracle_beyond_the_plane(self, dim, skipped):
        # lattices (zeros past axis 1) and box draws (dim axes) share one
        # stack per size class; both kinds land in the domain [0, 6]
        t = np.linspace(0.0, 6.0, 601)
        report = self.check_against_oracle(tabulated_profile(t, np.exp(-t)), dim=dim,
                                           trials=500, k_max=24, seed=3)
        assert report.verdict == "inconclusive"
        assert report.trials_skipped == skipped
        inside = {i % _N_KINDS for i, pts in enumerate(oracle_configurations(dim, 500, 24, 3))
                  if np.linalg.norm(pts[:, None] - pts[None], axis=-1).max() <= 6.0}
        assert _KIND_RANDOM_BOX in inside and inside - {_KIND_RANDOM_BOX}

    def test_all_skipped_matches_oracle(self):
        # no configuration fits in [0, 0.01]
        report = self.check_against_oracle(tabulated_profile([0.0, 0.01], [1.0, 0.99]), dim=2,
                                           trials=100, k_max=12, seed=1)
        assert report.verdict == "inconclusive"
        assert report.trials_skipped == 100

    @staticmethod
    def check_against_oracle(f, dim, trials, k_max, seed):
        # oracle: rebuild every trial's configuration from its chunk's
        # substream, skip those whose largest distance exceeds a tabulated
        # profile's t_max, and solve the rest alone through the public Gram
        # function and eigvalsh; the batched, memoised search must agree
        # exactly
        report = certify_psd(f, dim=dim, trials=trials, k_max=k_max, seed=seed)
        configs = oracle_configurations(dim, trials, k_max, seed)
        if f.t_max is not None:
            configs = [pts for pts in configs
                       if np.linalg.norm(pts[:, None] - pts[None], axis=-1).max() <= f.t_max]
        lams = [np.linalg.eigvalsh(gram_matrix(f, pts))[0] for pts in configs]
        assert report.trials_run == trials
        assert report.trials_skipped == trials - len(configs)
        if configs:
            assert report.min_eigenvalue == min(lams)
            np.testing.assert_array_equal(report.points, configs[int(np.argmin(lams))])
        else:  # nothing evaluated: no eigenvalue, and a single point
            assert np.isnan(report.min_eigenvalue)
            np.testing.assert_array_equal(report.points, np.zeros((1, dim)))
        distinct = {(pts.shape, pts.tobytes()) for pts in configs}
        assert report.configurations_solved == len(distinct)
        assert report.configurations_solved <= report.trials_run - report.trials_skipped
        assert report.eigensolves <= report.configurations_solved
        return report

    def test_refutation_matches_oracle(self):
        # refutes in the first batch, whose screen passes nothing
        self.check_refutation(catalog_profile("triangle"), dim=2, trials=500, tol=1e-8, seed=7)

    @pytest.mark.parametrize("case, trials, tol, seed", [
        # refutes at trial index 72 (batch 2), while its minimum, -0.0467, is
        # at trial index 8: the report keeps the refuting trial's points
        ("triangle", 500, 1e-2, 0),
        # the Gaussian tabulated at 101 nodes on [0, 1], whose PCHIP interpolant
        # is not PD in R^2: trials_run 129, 189, 105 and 217 (batches 2-3),
        # with the screen on
        ("pchip-gaussian", 2000, 1e-8, 1),
        ("pchip-gaussian", 2000, 1e-8, 2),
        ("pchip-gaussian", 2000, 1e-8, 3),
        ("pchip-gaussian", 2000, 1e-8, 1938),
    ])
    def test_later_refutation_matches_oracle(self, case, trials, tol, seed):
        if case == "triangle":
            f = catalog_profile("triangle")
        else:
            t = np.linspace(0.0, 1.0, 101)
            f = tabulated_profile(t, np.exp(-t**2 / 2))
        self.check_refutation(f, dim=2, trials=trials, tol=tol, seed=seed)

    @pytest.mark.parametrize("dim", [3, 5])
    @pytest.mark.parametrize("seed, run, k, solved", [
        (7, 13, 49, 13), (1938, 13, 42, 12), (0, 9, 56, 9)])
    def test_refutation_beyond_the_plane_matches_oracle(self, dim, seed, run, k, solved):
        # the witnesses are planar lattices on the first two axes; at seed
        # 1938 a fixed-span lattice recurs before the refuting trial and is
        # solved once
        report = self.check_refutation(catalog_profile("triangle"), dim=dim, trials=500,
                                       tol=1e-8, seed=seed)
        assert report.trials_run == run
        assert report.points.shape == (k, dim)
        assert report.points[:, :2].any(axis=0).all() and not report.points[:, 2:].any()
        assert report.configurations_solved == solved

    @staticmethod
    def check_refutation(f, dim, trials, tol, seed):
        # the refuting trial is the first whose own Gram matrix refutes, and
        # the report keeps its points; the minimum is over the trials run
        report = certify_psd(f, dim=dim, trials=trials, k_max=64, tol=tol, seed=seed)
        configs = oracle_configurations(dim, trials, 64, seed)
        lowest, evaluated = np.inf, []
        for index, pts in enumerate(configs):
            if f.t_max is not None and \
                    np.linalg.norm(pts[:, None] - pts[None], axis=-1).max() > f.t_max:
                continue  # off the tabulated domain: skipped
            evaluated.append(pts)
            vals = np.linalg.eigvalsh(gram_matrix(f, pts))
            lowest = min(lowest, vals[0])
            if vals[0] < -tol * max(1.0, abs(vals[0]), abs(vals[-1])):
                break
        assert report.refuted
        assert report.trials_run == index + 1
        assert report.trials_skipped == report.trials_run - len(evaluated)
        np.testing.assert_array_equal(report.points, configs[report.trials_run - 1])
        assert report.min_eigenvalue == lowest
        witness = _bottom_eigenvector(gram_matrix(f, configs[index]))
        assert report.witness[0].tobytes() == witness.tobytes()
        distinct = {(p.shape, p.tobytes()) for p in evaluated}
        assert report.configurations_solved == len(distinct)
        return report

    def test_each_lattice_solved_once(self, monkeypatch):
        # half the trials are fixed-span lattices: at most k_max - 1 distinct
        # configurations per lattice kind. Count matrices, not calls, since
        # one call solves a stack.
        solved = []
        eigvalsh = np.linalg.eigvalsh

        def counting(a, *args, **kwargs):
            solved.append(int(np.prod(np.shape(a)[:-2], dtype=int)))
            return eigvalsh(a, *args, **kwargs)

        # A Gram matrix is evaluated by an eigensolve or by the Cholesky
        # screen, so count both.
        screened = []
        screen = psd._screen

        def counting_screen(gram, floor, sizes=None):
            passed = screen(gram, floor, sizes)
            screened.append(int(passed.sum()))
            return passed

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        monkeypatch.setattr(psd, "_screen", counting_screen)
        report = certify_psd(catalog_profile("gaussian"), dim=3, trials=1000, k_max=12, seed=5)
        assert report.certified
        evaluated = sum(solved) + sum(screened)
        assert evaluated <= 500 + 2 * 11
        assert evaluated == report.configurations_solved
        assert sum(solved) == report.eigensolves < evaluated

    def test_memory_follows_the_configurations_drawn(self):
        # A call holds no array sized by k_max, only the Gram matrices of the
        # configurations it draws. At k_max 1500 the four trials draw 756,
        # 484, 544 and 919 points, each alone in its stack (their size
        # classes differ). Solving a stack of one k-point configuration holds
        # at most three k x k arrays at once: the Gram matrix with the
        # screen's shifted copy and Cholesky factor of it (the distances and
        # squared differences, and the Gram matrix and eigvalsh's copy, come
        # two at a time). Bound: four k x k arrays of the largest k (27 MB; a
        # table of every unit lattice up to k_max took 118 MB).
        sizes = [len(pts) for pts in oracle_configurations(2, 4, 1500, 1)]
        assert len({-(-k // _SIZE_CLASS) for k in sizes}) == len(sizes)
        tracemalloc.start()
        try:
            report = certify_psd(catalog_profile("gaussian"), dim=2, trials=4, k_max=1500,
                                 seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.certified
        assert report.points.shape == (919, 2)
        assert peak <= 4 * 8 * max(sizes) ** 2

    def test_planar_size_fixes_its_shape(self):
        # fixed-span lattices are reused by (size, planar?): the grid
        # m1 = isqrt(k), m2 = k // m1 of m1 * m2 points is rebuilt from its size
        ks = np.arange(4, 100_001)
        m1 = np.array([math.isqrt(k) for k in ks.tolist()])
        size = m1 * (ks // m1)
        again = np.array([math.isqrt(n) for n in size.tolist()])
        np.testing.assert_array_equal(again, m1)
        np.testing.assert_array_equal(size // again, ks // m1)


@pytest.mark.parametrize("seed", range(20))
def test_verdicts_hold_across_seeds(seed):
    # every seed is asserted: the triangle is refuted in R^2 with a strong
    # witness and certified on the line; the mixtures are certified
    tri = catalog_profile("triangle")
    report = certify_psd(tri, dim=2, trials=500, k_max=64, seed=seed)
    assert report.refuted
    assert report.witness[1] < -1e-6
    assert certify_psd(tri, dim=1, trials=300, k_max=64, seed=seed).certified
    for pid, dim in (("gaussian", 5), ("cauchy", 2), ("exp-mixture", 3)):
        report = certify_psd(catalog_profile(pid), dim=dim, trials=300, k_max=64, seed=seed)
        assert report.certified, (pid, dim)
