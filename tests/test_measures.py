"""Mixing measures, their transform, the mixture sampler, and marginal consistency."""

import json
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
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
from schoenberg_lab.measures import (
    KS_ALPHA,
    _sample,
    draw_scales,
    ks_critical_value,
    ks_two_sample,
    resolve_measure,
)
from schoenberg_lab.rng import ROLE_NOISE, ROLE_SCALE, STREAM_VERSION, substream


# ties, signed zeros and negative values, among arbitrary finite floats
SAMPLE_VALUES = st.one_of(st.sampled_from([-2.0, -0.0, 0.0, 0.5, 1.0, 3.0]),
                          st.floats(min_value=-1e6, max_value=1e6))


def step_cdf(measure, x):
    """The measure's right-continuous CDF at x, read from its cumulative table."""
    return measure.cumulative[np.searchsorted(measure.support, x, side="right")]


def searchsorted_ks(a, b) -> float:
    """The two-sample KS as computed before the merge: both CDFs searched at every point."""
    a, b = np.sort(np.asarray(a, dtype=float)), np.sort(np.asarray(b, dtype=float))
    grid = np.concatenate([a, b])
    fa = np.searchsorted(a, grid, side="right") / len(a)
    fb = np.searchsorted(b, grid, side="right") / len(b)
    return float(np.abs(fa - fb).max())


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
        assert step_cdf(m, 0.5) == 0.0
        assert step_cdf(m, 1.0) == 0.25
        assert step_cdf(m, 2.0) == pytest.approx(1.0)
        np.testing.assert_allclose(step_cdf(m, np.array([1.5, 3.0])), [0.25, 1.0])

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

    def test_resolve_prefers_catalog(self, tmp_path, monkeypatch):
        # a spec that parses as a shorthand is the catalog measure, even with
        # a measure JSON file of that name in the working directory
        monkeypatch.chdir(tmp_path)
        decoy = dirac(5.0)
        for spec, catalog in (("delta:1", dirac(1.0)), ("exp:2", exponential_measure(2.0)),
                              ("levy", levy_measure(1.0))):
            decoy.save(spec)
            resolved = resolve_measure(spec)
            assert resolved.label == catalog.label
            np.testing.assert_array_equal(resolved.scales, catalog.scales)
            np.testing.assert_array_equal(resolved.weights, catalog.weights)
        # a name that is not a shorthand is a file path
        for spec in ("delta:x", "nu.json"):
            decoy.save(spec)
            assert resolve_measure(spec).scales.tolist() == [5.0]
        with pytest.raises(KeyError, match="neither a measure JSON path nor a shorthand"):
            resolve_measure("no-such-measure")

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


def fixed_uniforms(u):
    """A stand-in Generator whose ``random(count)`` returns a copy of ``u``."""
    return SimpleNamespace(random=lambda count: u.copy())


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(min_value=1e-300, max_value=1.0), min_size=1, max_size=1000),
       st.integers(min_value=0, max_value=2**31 - 1))
@example([1.0], 0)
@example([0.5, 0.25, 0.125, 0.125], 0)  # every cumulative weight on a bucket edge
@example([1e-300, 1.0, 1e-300], 1)
@example([1e-300] * 999 + [1.0], 2)
@example([1.0] * 1000, 3)
@example([3.0, 1e-300, 7.0, 1e-200, 1e-300, 5.0], 4)
def test_draw_scales_is_the_inverse_cdf_search(weights, seed):
    w = np.array(weights) / np.sum(weights)
    measure = MixingMeasure(np.arange(len(w), dtype=float), w)
    cum = np.cumsum(measure.weights)
    cum[-1] = 1.0
    # every bucket edge k/M of any guide table with M < 32 x atoms, every cumulative
    # weight and its neighbours, both ends of [0, 1), and uniform draws
    grid = 2 ** (32 * len(w)).bit_length()
    u = np.concatenate([np.arange(grid) / grid, cum, np.nextafter(cum, 0.0),
                        np.nextafter(cum, 1.0), [0.0, 1.0 - 2.0**-53],
                        np.random.default_rng(seed).random(2000)])
    u = u[u < 1.0]
    expected = measure.scales[np.searchsorted(cum, u, side="right")]
    np.testing.assert_array_equal(draw_scales(measure, len(u), fixed_uniforms(u)), expected)
    # fewer draws than atoms: a coarser table, the same search
    np.testing.assert_array_equal(draw_scales(measure, 3, fixed_uniforms(u[-3:])), expected[-3:])


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

    @settings(max_examples=200, deadline=None)
    @given(st.lists(SAMPLE_VALUES, min_size=1, max_size=40),
           st.lists(SAMPLE_VALUES, min_size=1, max_size=40))
    @example([0.0], [-0.0])
    @example([-0.0, 0.0, -0.0], [0.0])
    @example([1.0], [1.0, 1.0, 2.0])
    @example([-3.0, -3.0, 2.5], [-3.0, 7.0])
    @example([5.0], [-5.0])
    def test_statistic_is_the_searchsorted_form_bit_for_bit(self, a, b):
        assert ks_two_sample(a, b).hex() == searchsorted_ks(a, b).hex()

    @pytest.mark.parametrize("n,m", [(10_000, 10_000), (999, 10_000), (1, 3)])
    def test_statistic_on_drawn_samples_is_the_searchsorted_form(self, n, m):
        rng = np.random.default_rng(n + m)
        a, b = rng.standard_normal(n), np.round(rng.standard_normal(m), 2)  # b has ties
        assert ks_two_sample(a, b) == searchsorted_ks(a, b)

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

    @pytest.mark.parametrize("dim,corrupt", [(1, 1.0), (2, 1.5), (5, 1.0), (9, 1.0)])
    def test_report_is_the_allocating_form_bit_for_bit(self, dim, corrupt):
        # the samples, their squared norms and both statistics as the check
        # computed them before it worked in place
        m, count, seed = exponential_measure(), 2000, 31

        def old_sample(d, i):
            scales = draw_scales(m, count, substream(seed, ROLE_SCALE, i))
            return np.sqrt(scales)[:, None] * substream(seed, ROLE_NOISE, i).standard_normal(
                (count, d))

        high, low = old_sample(dim + 1, 0)[:, :dim] * corrupt, old_sample(dim, 1)
        report = marginal_consistency_check(m, dim, count=count, seed=seed,
                                            corrupt_scale=corrupt)
        assert report.ks_first_coordinate == ks_two_sample(high[:, 0], low[:, 0])
        assert report.ks_squared_norm == ks_two_sample(np.sum(high**2, axis=1),
                                                       np.sum(low**2, axis=1))

    def test_stream_is_pinned(self):
        # values of stream version 3, pinned exactly: any change to the
        # consistency draws must come with a STREAM_VERSION bump; version 4
        # changed only verify-identity's draws
        assert STREAM_VERSION == 4
        report = marginal_consistency_check(exponential_measure(), 2, seed=1938)
        assert report.ks_first_coordinate == 0.009899999999999964
        assert report.ks_squared_norm == 0.014800000000000035
        assert report.alpha == KS_ALPHA
