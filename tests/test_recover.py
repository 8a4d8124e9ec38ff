"""Inverse problem: NNLS, measure recovery, and comparison metrics.

``nnls`` delegates to scipy.optimize.nnls, so the tests check what it adds
(the ridge rows, the shape check) and the KKT conditions of its output;
forward-model constructions provide the recovery truths.
"""

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import wasserstein_distance

from schoenberg_lab import (
    MixingMeasure,
    RecoveryProblem,
    catalog_profile,
    design_matrix,
    dirac,
    exponential_measure,
    ks_distance,
    levy_measure,
    mixture_laplace,
    nnls,
    recover_mixing,
    wasserstein1,
)
from schoenberg_lab.recover import default_s_grid, default_t_grid


class TestDesignMatrix:
    def test_zero_row_is_ones(self):
        np.testing.assert_array_equal(design_matrix([0.0], [1.0, 2.0]), [[1.0, 1.0]])

    def test_single_entry(self):
        a = design_matrix([np.sqrt(2.0)], [1.0])
        assert a[0, 0] == pytest.approx(np.exp(-1.0))

    def test_column(self):
        a = design_matrix([0.0, 1.0, 2.0], [1.0])
        np.testing.assert_allclose(a[:, 0], [1.0, np.exp(-0.5), np.exp(-2.0)])


class TestNnls:
    def test_identity_unconstrained(self):
        w, _ = nnls(np.eye(2), np.array([1.0, 2.0]))
        np.testing.assert_allclose(w, [1.0, 2.0], atol=1e-12)

    def test_identity_clipped(self):
        w, _ = nnls(np.eye(2), np.array([1.0, -2.0]))
        np.testing.assert_allclose(w, [1.0, 0.0], atol=1e-12)
        assert w[1] == 0.0  # exactly zero, not projected

    def test_forward_model_recovery(self):
        t = np.linspace(0.0, 4.0, 41)
        s = np.logspace(-2.0, 2.0, 201)  # contains s = 1 exactly
        a = design_matrix(t, s)
        b = np.exp(-t**2 / 2.0)
        w, _ = nnls(a, b)
        residual = np.linalg.norm(a @ w - b) / np.sqrt(len(b))
        assert residual <= 1e-6
        mass_near_one = w[(s >= 0.9) & (s <= 1.1)].sum()
        assert mass_near_one == pytest.approx(w.sum(), rel=1e-6)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_matches_scipy_objective(self, seed):
        # the ridge rows nnls appends match scipy on explicitly stacked rows
        rng = np.random.default_rng(seed)
        m, n = int(rng.integers(3, 12)), int(rng.integers(2, 10))
        a = rng.standard_normal((m, n))
        b = rng.standard_normal(m)
        ridge = float(rng.choice([0.0, 10.0 ** rng.uniform(-8.0, 1.0)]))
        ours, _ = nnls(a, b, ridge=ridge)
        stacked = np.vstack([a, np.sqrt(ridge) * np.eye(n)])
        theirs, rnorm = scipy.optimize.nnls(stacked, np.concatenate([b, np.zeros(n)]))
        assert np.all(ours >= 0)
        our_norm = np.sqrt(np.sum((a @ ours - b) ** 2) + ridge * np.sum(ours ** 2))
        assert our_norm <= rnorm + 1e-8 * max(1.0, rnorm)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_complementary_slackness(self, seed):
        rng = np.random.default_rng(seed)
        m, n = int(rng.integers(3, 12)), int(rng.integers(2, 10))
        a = rng.standard_normal((m, n))
        b = rng.standard_normal(m)
        w, _ = nnls(a, b)
        grad = a.T @ (a @ w - b)
        for k in range(n):
            assert w[k] == 0.0 or abs(grad[k]) <= 1e-8

    def test_kkt_residual_contract(self):
        t = default_t_grid()
        s = default_s_grid()
        a = design_matrix(t, s)
        b = 1.0 / (1.0 + t**2 / 2.0)
        w, _ = nnls(a, b)
        grad = a.T @ (b - a @ w)
        inactive_violation = np.where(w == 0, grad, np.abs(grad)).max()
        assert inactive_violation <= 1e-10 * np.linalg.norm(a.T @ b, np.inf)

    def test_ridge_shrinks(self):
        a = np.eye(2)
        b = np.array([1.0, 1.0])
        plain, _ = nnls(a, b)
        shrunk, _ = nnls(a, b, ridge=1.0)
        assert np.all(shrunk < plain)
        # closed form: w = b / (1 + ridge)
        np.testing.assert_allclose(shrunk, b / 2.0, atol=1e-10)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            nnls(np.eye(3), np.ones(2))


class TestRecoverMixing:
    def test_gaussian_profile(self):
        t = default_t_grid()
        problem = RecoveryProblem(t, catalog_profile("gaussian")(t))
        result = recover_mixing(problem)
        assert result.residual_norm <= 1e-6
        m = result.measure
        window = m.weights[(m.scales >= 0.9) & (m.scales <= 1.1)].sum()
        assert window >= 0.99
        assert result.mass_deficit <= 1e-6

    def test_constant_profile_is_zero_scale_mixture(self):
        # needs scales near zero on the grid to fit a constant this tightly
        t = default_t_grid()
        s = np.logspace(-12.0, 0.0, 121)
        problem = RecoveryProblem(t, np.ones_like(t), s_grid=s)
        result = recover_mixing(problem)
        assert result.residual_norm <= 1e-9
        m = result.measure
        assert m.weights[m.scales <= 1e-6].sum() >= 0.999

    def test_triangle_profile_has_no_mixture_fit(self):
        t = default_t_grid()
        problem = RecoveryProblem(t, catalog_profile("triangle")(t))
        result = recover_mixing(problem)
        assert result.residual_norm > 0.01

    def test_reported_residual_is_self_consistent(self):
        t = default_t_grid()
        for pid, ridge in (("gaussian", 0.0), ("exp-mixture", 1e-7), ("triangle", 0.0),
                           ("exp-mixture", 0.0)):
            f = catalog_profile(pid)(t)
            result = recover_mixing(RecoveryProblem(t, f, ridge=ridge))
            refit = mixture_laplace(result.measure, t)
            rms = float(np.sqrt(np.mean((refit - f) ** 2)))
            assert rms <= result.residual_norm + 1e-12
            if (pid, ridge) == ("exp-mixture", 0.0):
                # solved to the optimum, exp-mixture at ridge 0 fits almost exactly
                assert result.residual_norm <= 1e-12

    @pytest.mark.parametrize("measure,metric,ridge", [
        (dirac(1.0), "w1", 0.0),
        (exponential_measure(), "w1", 1e-7),
        (levy_measure(), "ks", 1e-7),
    ])
    def test_roundtrip_catalog_measures(self, measure, metric, ridge):
        t = default_t_grid()
        f = mixture_laplace(measure, t)
        result = recover_mixing(RecoveryProblem(t, f, ridge=ridge))
        dist = wasserstein1(result.measure, measure) if metric == "w1" \
            else ks_distance(result.measure, measure)
        assert dist <= 0.05

    def test_scale_equivariance(self):
        # f(ct) corresponds to the push-forward s -> c^2 s; with c = 2 the
        # gaussian profile recovers (approximately) a point mass at 4
        t = default_t_grid()
        f = catalog_profile("gaussian")(2.0 * t)
        result = recover_mixing(RecoveryProblem(t, f))
        assert wasserstein1(result.measure, dirac(4.0)) <= 0.1

    def test_validation(self):
        with pytest.raises(ValueError, match="include 0"):
            RecoveryProblem(np.array([1.0, 2.0]), np.array([0.5, 0.2]))
        with pytest.raises(ValueError, match="must be 1"):
            RecoveryProblem(np.array([0.0, 1.0]), np.array([0.9, 0.5]))
        with pytest.raises(ValueError, match="ridge"):
            RecoveryProblem(np.array([0.0, 1.0]), np.array([1.0, 0.5]), ridge=-1.0)
        with pytest.raises(ValueError, match="ridge must be finite"):
            RecoveryProblem(np.array([0.0, 1.0]), np.array([1.0, 0.5]), ridge=float("nan"))

    def test_csv_loading(self, tmp_path):
        path = tmp_path / "f.csv"
        t = np.linspace(0, 3, 13)
        rows = "\n".join(f"{ti},{np.exp(-ti**2 / 2)}" for ti in t)
        path.write_text("t,f\n" + rows + "\n")
        problem = RecoveryProblem.from_csv(path)
        np.testing.assert_allclose(problem.t_grid, t)
        result = recover_mixing(problem)
        assert result.residual_norm <= 1e-6


class TestMetrics:
    def test_w1_identical_is_zero(self):
        m = exponential_measure(atoms=30)
        assert wasserstein1(m, m) == 0.0
        assert ks_distance(m, m) == 0.0

    def test_w1_translation(self):
        assert wasserstein1(dirac(1.0), dirac(2.0)) == pytest.approx(1.0)

    def test_w1_symmetric_split(self):
        split = MixingMeasure(np.array([0.5, 1.5]), np.array([0.5, 0.5]))
        assert wasserstein1(dirac(1.0), split) == pytest.approx(0.5)

    def test_ks_disjoint_atoms(self):
        assert ks_distance(dirac(1.0), dirac(2.0)) == pytest.approx(1.0)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_w1_matches_scipy(self, seed):
        rng = np.random.default_rng(seed)
        ka, kb = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        a = MixingMeasure(*_random_atoms(rng, ka))
        b = MixingMeasure(*_random_atoms(rng, kb))
        oracle = wasserstein_distance(a.scales, b.scales,
                                      u_weights=a.weights, v_weights=b.weights)
        assert wasserstein1(a, b) == pytest.approx(oracle, abs=1e-10)

    def test_metrics_accept_empirical_measures(self):
        from schoenberg_lab import EmpiricalMeasure

        emp = EmpiricalMeasure(np.array([0.9, 1.0, 1.1, 1.0]))
        assert wasserstein1(emp, dirac(1.0)) == pytest.approx(0.05)
        assert ks_distance(emp, dirac(1.0)) == pytest.approx(0.25)


def _random_atoms(rng, k):
    scales = np.unique(np.round(rng.uniform(0.0, 5.0, size=k), 6))
    w = rng.uniform(0.2, 1.0, size=len(scales))
    return scales, w / w.sum()
