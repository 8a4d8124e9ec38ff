"""Mixing measures, their transform, the mixture sampler, and marginal consistency."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.stats import ks_2samp

from schoenberg_lab import (
    MixingMeasure,
    dirac,
    exponential_measure,
    levy_measure,
    marginal_consistency_check,
    mixture_laplace,
)
from schoenberg_lab.measures import KS_ALPHA, _sample, ks_critical_value, ks_two_sample
from schoenberg_lab.rng import ROLE_NOISE, ROLE_SCALE, STREAM_VERSION, substream


def sample(measure, dim, count, seed):
    """``count`` draws of the dim-dimensional mixture, as the consistency check makes them."""
    return _sample(measure, dim, count, substream(seed, ROLE_SCALE, 0),
                   substream(seed, ROLE_NOISE, 0))


class TestMixingMeasure:
    def test_invariants(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            MixingMeasure(np.array([1.0, 1.0]), np.array([0.5, 0.5]))
        with pytest.raises(ValueError, match="positive"):
            MixingMeasure(np.array([1.0, 2.0]), np.array([1.0, 0.0]))
        with pytest.raises(ValueError, match="sum"):
            MixingMeasure(np.array([1.0, 2.0]), np.array([0.5, 0.6]))
        with pytest.raises(ValueError, match="nonnegative"):
            MixingMeasure(np.array([-1.0, 2.0]), np.array([0.5, 0.5]))

    def test_cdf(self):
        m = MixingMeasure(np.array([1.0, 2.0]), np.array([0.25, 0.75]))
        assert m.cdf(0.5) == 0.0
        assert m.cdf(1.0) == 0.25
        assert m.cdf(2.0) == pytest.approx(1.0)
        np.testing.assert_allclose(m.cdf(np.array([1.5, 3.0])), [0.25, 1.0])

    def test_json_roundtrip(self, tmp_path):
        m = exponential_measure(atoms=50)
        path = tmp_path / "m.json"
        m.save(path)
        back = MixingMeasure.load(path)
        np.testing.assert_array_equal(back.scales, m.scales)
        np.testing.assert_array_equal(back.weights, m.weights)
        assert back.label == m.label

    def test_loader_rejects_bad_input(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"label": "x", "atoms": [
            {"s": 2.0, "w": 0.5}, {"s": 1.0, "w": 0.5}]}))
        with pytest.raises(ValueError, match="strictly increasing"):
            MixingMeasure.load(path)
        path.write_text(json.dumps({"label": "x", "atoms": [
            {"s": 1.0, "w": 0.5}, {"s": 2.0, "w": 0.6}]}))
        with pytest.raises(ValueError, match="sum"):
            MixingMeasure.load(path)

    def test_catalog_parameters_must_be_finite(self):
        for value in (np.nan, np.inf, 0.0, -1.0):
            with pytest.raises(ValueError, match="rate must be finite and > 0"):
                exponential_measure(value)
            with pytest.raises(ValueError, match="scale must be finite and > 0"):
                levy_measure(value)
        for value in (np.nan, np.inf, -1.0):
            with pytest.raises(ValueError, match="scale must be finite and >= 0"):
                dirac(value)

    def test_discretization_labels_record_deficit(self):
        assert "tail-deficit" in exponential_measure().label
        assert "tail-deficit" in levy_measure().label


class TestTransforms:
    def test_dirac_kernel(self):
        assert mixture_laplace(dirac(1.0), 2.0) == pytest.approx(np.exp(-2.0))

    def test_mass_conservation_at_zero(self):
        for m in (dirac(3.0), exponential_measure(), levy_measure()):
            assert mixture_laplace(m, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_exp_discretization_matches_quadrature(self):
        t = np.sqrt(2.0)
        oracle, _ = quad(lambda s: np.exp(-t**2 * s / 2.0) * np.exp(-s), 0, np.inf)
        assert mixture_laplace(exponential_measure(), t) == pytest.approx(oracle, abs=1e-3)

    def test_levy_discretization_matches_closed_form(self):
        # exact transform of the Levy(1) scale law is exp(-t); truncation
        # costs ~2.5% of the tail, keep the tolerance accordingly
        for t in (1.0, 2.0):
            assert mixture_laplace(levy_measure(), t) == pytest.approx(np.exp(-t), abs=2e-2)

    def test_rejects_negative_t(self):
        with pytest.raises(ValueError):
            mixture_laplace(dirac(1.0), -0.5)

    def test_laplace_non_increasing(self):
        t = np.linspace(0.0, 6.0, 200)
        for m in (dirac(0.5), exponential_measure(), levy_measure()):
            vals = mixture_laplace(m, t)
            # strictly decreasing whenever some scale is positive
            assert np.all(np.diff(vals) < 0)
        constant = mixture_laplace(dirac(0.0), t)
        np.testing.assert_array_equal(constant, np.ones_like(t))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_mass_conservation_random_measures(seed):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, 12))
    scales = np.sort(rng.uniform(0.0, 10.0, size=k))
    scales = np.unique(scales)
    w = rng.uniform(0.1, 1.0, size=len(scales))
    m = MixingMeasure(scales, w / w.sum())
    assert mixture_laplace(m, 0.0) == pytest.approx(1.0, abs=1e-9)


class TestSampling:
    def test_degenerate_zero_scale(self):
        pts = sample(dirac(0.0), 3, count=50, seed=1)
        np.testing.assert_array_equal(pts, np.zeros((50, 3)))

    def test_unit_scale_second_moment(self):
        n, count = 2, 100_000
        pts = sample(dirac(1.0), n, count=count, seed=2)
        sq = np.sum(pts**2, axis=1)
        # E||Z||^2 = n, Var||Z||^2 = 2n
        se = np.sqrt(2.0 * n / count)
        assert abs(sq.mean() - n) <= 3.0 * se

    def test_exp_mixture_is_heavy_tailed(self):
        m = exponential_measure()
        pts = sample(m, 1, count=100_000, seed=3)
        x = pts[:, 0]
        kurtosis = np.mean(x**4) / np.mean(x**2) ** 2
        # moment oracle from the atoms: E X^4 / (E X^2)^2 = 3 E S^2 / (E S)^2
        es = float(m.scales @ m.weights)
        es2 = float((m.scales**2) @ m.weights)
        oracle = 3.0 * es2 / es**2
        assert oracle > 3.0
        assert kurtosis > 3.0
        assert kurtosis == pytest.approx(oracle, rel=0.25)

    def test_bit_identical_given_seed(self):
        m = exponential_measure()
        a = sample(m, 3, count=1000, seed=9)
        b = sample(m, 3, count=1000, seed=9)
        np.testing.assert_array_equal(a, b)
        c = sample(m, 3, count=1000, seed=10)
        assert not np.array_equal(a, c)


class TestKsHelpers:
    def test_statistic_matches_scipy(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal(500)
        b = rng.standard_normal(700) * 1.2
        ours = ks_two_sample(a, b)
        assert ours == pytest.approx(ks_2samp(a, b).statistic, abs=1e-12)

    def test_critical_value(self):
        # c(0.01) = sqrt(-ln(0.005)/2) = 1.6276...
        assert ks_critical_value(10_000) == pytest.approx(
            1.6276 * np.sqrt(2.0 / 10_000), abs=1e-4)


class TestConsistency:
    def test_standard_gaussian_passes(self):
        report = marginal_consistency_check(dirac(1.0), 2, count=10_000, seed=21)
        assert report.passed
        assert report.ks_first_coordinate < report.critical_value

    def test_exp_mixture_passes(self):
        report = marginal_consistency_check(exponential_measure(), 3, count=10_000, seed=22)
        assert report.passed

    def test_corrupted_sampler_fails(self):
        report = marginal_consistency_check(exponential_measure(), 3, count=10_000, seed=23,
                                            corrupt_scale=1.5)
        assert not report.passed

    def test_count_validation(self):
        with pytest.raises(ValueError):
            marginal_consistency_check(dirac(1.0), 1, count=50)

    def test_dimension_validation(self):
        for dim in (0, -1):
            with pytest.raises(ValueError, match="dimension must be >= 1"):
                marginal_consistency_check(dirac(1.0), dim)

    def test_stream_is_pinned(self):
        # values of stream version 3, pinned exactly: any change to the
        # consistency draws must come with a STREAM_VERSION bump
        assert STREAM_VERSION == 3
        report = marginal_consistency_check(exponential_measure(), 2, seed=1938)
        assert report.ks_first_coordinate == 0.009899999999999964
        assert report.ks_squared_norm == 0.014800000000000035
        assert report.alpha == KS_ALPHA
