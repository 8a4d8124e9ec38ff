"""Gram machinery and the PSD certifier.

Derived expectations are computed by independent oracles inside the tests:
quadrature for the exp-mixture entry, dense-lattice brute force for the
triangle profile on the line, and direct quadratic-form evaluation for
refutation witnesses.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from schoenberg_lab import (
    PointSet,
    catalog_profile,
    certify_psd,
    exponential_measure,
    gram_matrix,
    min_eigenvalue,
    profile_from_measure,
    quadratic_form,
    tabulated_profile,
)
from schoenberg_lab.psd import _N_KINDS, _candidate_points
from schoenberg_lab.rng import ROLE_TRIAL, substream


class TestGramMatrix:
    def test_single_point(self):
        g = gram_matrix(catalog_profile("exp-mixture"), PointSet(np.zeros((1, 3))))
        np.testing.assert_array_equal(g, [[1.0]])

    def test_two_points_gaussian(self):
        pts = PointSet(np.array([[0.0], [2.0]]))
        g = gram_matrix(catalog_profile("gaussian"), pts)
        expected = np.array([[1.0, np.exp(-2.0)], [np.exp(-2.0), 1.0]])
        np.testing.assert_allclose(g, expected)

    def test_exp_mixture_against_quadrature(self):
        # oracle: integrate exp(-t^2 s / 2) e^-s ds at t = sqrt(2)
        t = np.sqrt(2.0)
        oracle, err = quad(lambda s: np.exp(-t**2 * s / 2.0) * np.exp(-s), 0, np.inf)
        assert err < 1e-10
        assert oracle == pytest.approx(0.5, abs=1e-12)
        pts = PointSet(np.array([[0.0, 0.0], [np.sqrt(2.0), 0.0]]))
        g = gram_matrix(catalog_profile("exp-mixture"), pts)
        assert g[0, 1] == pytest.approx(oracle, abs=1e-12)

    def test_exactly_symmetric_unit_diagonal(self):
        rng = np.random.default_rng(3)
        pts = PointSet(rng.uniform(-2, 2, size=(9, 4)))
        for pid in ("gaussian", "cauchy", "exp-mixture", "triangle"):
            g = gram_matrix(catalog_profile(pid), pts)
            np.testing.assert_array_equal(g, g.T)
            np.testing.assert_array_equal(np.diag(g), np.ones(9))


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


class TestMinEigenvalue:
    def test_identity(self):
        assert min_eigenvalue(np.eye(3)) == pytest.approx(1.0)

    def test_two_by_two_closed_form(self):
        off = np.exp(-2.0)
        g = np.array([[1.0, off], [off, 1.0]])
        assert min_eigenvalue(g) == pytest.approx(1.0 - off)

    def test_singular(self):
        assert min_eigenvalue(np.ones((2, 2))) == pytest.approx(0.0, abs=1e-14)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            min_eigenvalue(np.array([[1.0, 0.5], [0.1, 1.0]]))


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
    assert min_eigenvalue(g) <= rayleigh + 1e-10 * max(1.0, np.abs(g).max())


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
            g = gram_matrix(tri, PointSet(pts))
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
        g = gram_matrix(tri, report.point_set)
        assert quadratic_form(g, coeffs) == pytest.approx(value, rel=1e-9)
        assert abs(np.linalg.norm(coeffs) - 1.0) < 1e-9

    @pytest.mark.parametrize("dim", [1, 3, 8])
    def test_mixture_profiles_never_refuted(self, dim):
        measure = exponential_measure()
        profile = profile_from_measure(measure)
        report = certify_psd(profile, dim=dim, trials=300, k_max=12, tol=1e-8, seed=5)
        assert report.certified

    def test_deterministic_and_thread_invariant(self):
        tri = catalog_profile("triangle")
        a = certify_psd(tri, dim=2, trials=200, k_max=40, seed=12, threads=1)
        b = certify_psd(tri, dim=2, trials=200, k_max=40, seed=12, threads=4)
        assert a.verdict == b.verdict
        assert a.trials_run == b.trials_run
        assert a.min_eigenvalue == b.min_eigenvalue
        np.testing.assert_array_equal(a.point_set.points, b.point_set.points)
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
        assert report.point_set.k == 1

    def test_matches_trial_by_trial_oracle(self):
        # oracle: rebuild every trial's configuration from its own substream
        # and solve it through the public Gram and eigenvalue functions
        f = catalog_profile("gaussian")
        seed, trials, k_max = 11, 200, 12
        report = certify_psd(f, dim=3, trials=trials, k_max=k_max, seed=seed)
        configs, lams = [], []
        for i in range(trials):
            rng = substream(seed, ROLE_TRIAL, i)
            k = int(rng.integers(2, k_max + 1))
            pts = _candidate_points(i % _N_KINDS, 3, k, 3.0, rng)
            configs.append(pts)
            lams.append(min_eigenvalue(gram_matrix(f, PointSet(pts))))
        assert report.certified
        assert report.min_eigenvalue == min(lams)
        np.testing.assert_array_equal(report.point_set.points, configs[int(np.argmin(lams))])

    def test_each_lattice_solved_once(self, monkeypatch):
        # half the trials are fixed-span lattices: at most k_max - 1 distinct
        # configurations per lattice kind
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def counting(*args, **kwargs):
            calls.append(None)
            return eigvalsh(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        report = certify_psd(catalog_profile("gaussian"), dim=3, trials=1000, k_max=12, seed=5)
        assert report.certified
        assert len(calls) <= 500 + 2 * 11
