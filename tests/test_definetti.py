"""The LLN estimate of the mixing measure and the identity checker."""

from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import wasserstein_distance

from schoenberg_lab import (
    EmpiricalMeasure,
    InconsistentInputsError,
    catalog_profile,
    dirac,
    estimate_mixing,
    exponential_measure,
    key_identity_mc,
    wasserstein1,
)
from schoenberg_lab import definetti
from schoenberg_lab.measures import draw_scales
from schoenberg_lab.rng import ROLE_LHS, ROLE_RHS, ROLE_SAMPLE, substream


class TestEstimateMixing:
    def test_unit_dirac_concentrates(self):
        emp = estimate_mixing(dirac(1.0), n=1000, reps=10_000, seed=3)
        inside = np.mean((emp.values >= 0.8) & (emp.values <= 1.2))
        assert inside >= 0.99

    def test_zero_dirac_exact(self):
        emp = estimate_mixing(dirac(0.0), n=100, reps=200, seed=4)
        np.testing.assert_array_equal(emp.values, np.zeros(200))

    def test_exp_recovery_w1(self):
        m = exponential_measure()
        emp = estimate_mixing(m, n=1000, reps=10_000, seed=5)
        # scipy oracle on the same data, then the package metric
        oracle = wasserstein_distance(emp.values, m.scales, v_weights=m.weights)
        ours = wasserstein1(emp, m)
        assert ours == pytest.approx(oracle, rel=1e-9)
        assert ours <= 0.05

    def test_variance_scales_inversely_with_n(self):
        reps = 1000
        var = {}
        for n in (100, 1000):
            emp = estimate_mixing(dirac(1.0), n=n, reps=reps, seed=6)
            var[n] = emp.values.var(ddof=1)
        assert var[1000] < var[100] / 8.0

    def test_deterministic(self):
        a = estimate_mixing(exponential_measure(), n=50, reps=500, seed=7)
        b = estimate_mixing(exponential_measure(), n=50, reps=500, seed=7)
        np.testing.assert_array_equal(a.values, b.values)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError, match="n must be >= 1"):
            estimate_mixing(dirac(1.0), n=0, reps=200)
        with pytest.raises(ValueError, match="reps must be >= 100"):
            estimate_mixing(dirac(1.0), n=10, reps=99)


def mean_and_std_se(values) -> tuple[float, float]:
    """(mean, standard error) as computed before ``_mean_and_se`` worked in place."""
    return float(values.mean()), float(values.std(ddof=1) / np.sqrt(len(values)))


class TestInPlaceStatistics:
    """The in-place statistics against the expressions they replace, bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(st.sampled_from([0.0, -0.0, 1.0, 1.0 - 2.0**-53]),
                              st.floats(min_value=-1e150, max_value=1e150)),
                    min_size=2, max_size=300))
    @example([1.0, 1.0])
    @example([0.0, -0.0, 0.0])
    @example([1e150, -1e150, 3.0])
    def test_mean_and_se_is_mean_and_std(self, values):
        values = np.asarray(values)
        assert definetti._mean_and_se(values.copy()) == mean_and_std_se(values)

    @pytest.mark.parametrize("size", [2, 9, 129, 1000, 100_000])
    def test_mean_and_se_on_replicate_sized_arrays(self, size):
        values = np.random.default_rng(size).standard_normal(size) * 3.0 + 1.0
        assert definetti._mean_and_se(values.copy()) == mean_and_std_se(values)

    @pytest.mark.parametrize("pid,measure_factory", [
        ("gaussian", lambda: dirac(1.0)),
        ("exp-mixture", exponential_measure),
    ])
    def test_key_identity_is_the_allocating_form(self, pid, measure_factory):
        f, measure = catalog_profile(pid), measure_factory()
        t_values, n, reps, seed = [0.3, 1.0, 1e-8, 2.9], 300, 5000, 19
        root = np.sqrt(substream(seed, ROLE_LHS).chisquare(n, reps) / n)
        rng = substream(seed, ROLE_RHS)
        scales = draw_scales(measure, reps, rng)
        chi2 = rng.chisquare(n, reps)
        rows = key_identity_mc(f, measure, t_values, n=n, reps=reps, seed=seed)
        for t, row in zip(t_values, rows, strict=True):
            lhs = mean_and_std_se(f(t * root))
            rhs = mean_and_std_se(np.exp(-0.5 * t * t * (scales * chi2 / n)))
            assert (row.lhs, row.lhs_se, row.rhs, row.rhs_se) == (*lhs, *rhs)

    def test_estimate_mixing_is_the_allocating_form(self):
        measure, n, reps, seed = exponential_measure(), 100, 3000, 20
        rng = substream(seed, ROLE_SAMPLE)
        scales = draw_scales(measure, reps, rng)
        oracle = np.sort(scales * rng.chisquare(n, reps) / n)
        assert estimate_mixing(measure, n=n, reps=reps, seed=seed).values.tobytes() == \
            oracle.tobytes()


class TestEmpiricalMeasure:
    def test_cdf_and_support(self):
        emp = EmpiricalMeasure(np.array([3.0, 1.0, 2.0]))
        np.testing.assert_array_equal(emp.support, [1.0, 2.0, 3.0])
        # the CDF is read from the cumulative table at the count of points passed
        at = np.searchsorted(emp.support, [2.0, 0.5], side="right")
        np.testing.assert_allclose(emp.cumulative[at], [2.0 / 3.0, 0.0])

    def test_csv_export(self, tmp_path):
        emp = EmpiricalMeasure(np.array([0.25, 1.5]))
        path = tmp_path / "l.csv"
        emp.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "L"
        assert [float(v) for v in lines[1:]] == [0.25, 1.5]

    def test_equal_mass_binning(self):
        rng = np.random.default_rng(8)
        emp = EmpiricalMeasure(rng.chisquare(5, size=6400) / 5)
        m = emp.to_measure(bins=64)
        assert len(m.scales) == 64
        assert m.weights.sum() == pytest.approx(1.0)
        np.testing.assert_allclose(m.weights, 1.0 / 64, atol=1e-12)
        # binned measure preserves the mean
        assert m.scales @ m.weights == pytest.approx(emp.values.mean(), rel=1e-9)

    @pytest.mark.parametrize("bins", [0, -3])
    def test_binning_rejects_no_bins(self, bins):
        with pytest.raises(ValueError, match="bins must be >= 1"):
            EmpiricalMeasure(np.array([0.25, 1.5])).to_measure(bins=bins)

    def test_rejects_negative_values(self):
        with pytest.raises(ValueError):
            EmpiricalMeasure(np.array([-0.1, 1.0]))


class TestKeyIdentity:
    @pytest.mark.parametrize("n,pinned", [(1000, 0.60678), (10**6, 0.60653)])
    def test_unit_dirac_matches_chi_square_mgf(self, n, pinned):
        # exact oracle: E exp(-(t^2/2n) chi^2_n) = (1 + t^2/n)^(-n/2)
        t, reps = 1.0, 100_000
        [res] = key_identity_mc(catalog_profile("gaussian"), dirac(1.0), [t],
                                n=n, reps=reps, seed=9)
        exact = (1.0 + t**2 / n) ** (-n / 2.0)
        assert exact == pytest.approx(pinned, abs=1e-4)
        assert res.gap <= 3.0 * res.combined_se
        assert abs(res.lhs - exact) <= 5.0 * res.lhs_se
        assert abs(res.rhs - exact) <= 5.0 * res.rhs_se
        assert res.f_of_t == pytest.approx(np.exp(-0.5))

    def test_tiny_t_degenerates_to_one(self):
        [res] = key_identity_mc(catalog_profile("gaussian"), dirac(1.0), [1e-6],
                                n=100, reps=1000, seed=10)
        assert res.lhs == pytest.approx(1.0, abs=1e-6)
        assert res.rhs == pytest.approx(1.0, abs=1e-6)

    def test_exp_mixture_two_sided(self):
        [res] = key_identity_mc(catalog_profile("exp-mixture"), exponential_measure(),
                                [1.0], n=1000, reps=30_000, seed=11)
        assert res.gap <= 3.0 * res.combined_se

    @pytest.mark.parametrize("pid,measure_factory", [
        ("gaussian", lambda: dirac(1.0)),
        ("exp-mixture", exponential_measure),
    ])
    def test_limit_improves_with_n(self, pid, measure_factory):
        f = catalog_profile(pid)
        measure = measure_factory()
        t_values = [0.5, 1.0, 2.0]
        coarses = key_identity_mc(f, measure, t_values, n=10, reps=100_000, seed=12)
        fines = key_identity_mc(f, measure, t_values, n=1000, reps=100_000, seed=12)
        for coarse, fine in zip(coarses, fines, strict=True):
            assert abs(fine.lhs - fine.f_of_t) < abs(coarse.lhs - coarse.f_of_t)

    @staticmethod
    def forbid_draws(monkeypatch):
        def no_draws(seed, *key):
            raise AssertionError("drew before validating")

        monkeypatch.setattr(definetti, "substream", no_draws)

    def test_mismatched_inputs_rejected(self, monkeypatch):
        self.forbid_draws(monkeypatch)
        with pytest.raises(InconsistentInputsError):
            key_identity_mc(catalog_profile("gaussian"), exponential_measure(),
                            [1.0], n=10, reps=100, seed=13)

    def test_matched_catalog_pairs_accepted(self):
        # the levy measure reproduces the cauchy profile only up to its
        # truncated tail (~1.6e-2 worst case on the check grid)
        from schoenberg_lab import levy_measure

        key_identity_mc(catalog_profile("cauchy"), levy_measure(),
                        [1.0], n=10, reps=100, seed=14)

    def test_deterministic(self):
        [a] = key_identity_mc(catalog_profile("gaussian"), dirac(1.0), [1.0],
                              n=100, reps=2000, seed=15)
        [b] = key_identity_mc(catalog_profile("gaussian"), dirac(1.0), [1.0],
                              n=100, reps=2000, seed=15)
        assert (a.lhs, a.rhs, a.lhs_se, a.rhs_se) == (b.lhs, b.rhs, b.lhs_se, b.rhs_se)

    def test_rejects_bad_arguments(self, monkeypatch):
        self.forbid_draws(monkeypatch)  # each check comes before the first draw
        f, measure = catalog_profile("gaussian"), dirac(1.0)
        for identity in (partial(key_identity_mc, f, measure), partial(definetti.identity_lhs, f)):
            with pytest.raises(ValueError, match="t must be positive"):
                identity([1.0, 0.0], n=10, reps=100)
            with pytest.raises(ValueError, match="n must be >= 1"):
                identity([1.0], n=0, reps=100)
            # one replicate has no standard error
            with pytest.raises(ValueError, match="reps must be >= 2"):
                identity([1.0], n=10, reps=1)

    @pytest.mark.parametrize("t_values", [[1.0], [0.5, 1.0, 2.0], [0.1 * k for k in range(1, 9)]])
    def test_one_draw_per_side_whatever_the_number_of_t(self, monkeypatch, t_values):
        keys = []
        substream = definetti.substream

        def counting_substream(seed, *key):
            keys.append((seed, *key))
            return substream(seed, *key)

        monkeypatch.setattr(definetti, "substream", counting_substream)
        key_identity_mc(catalog_profile("gaussian"), dirac(1.0), t_values,
                        n=50, reps=500, seed=16)
        assert sorted(keys) == [(16, ROLE_LHS), (16, ROLE_RHS)]

    def test_rows_depend_only_on_their_own_t(self):
        f, measure = catalog_profile("exp-mixture"), exponential_measure()
        rows = key_identity_mc(f, measure, [2.0, 0.5, 2.0], n=100, reps=3000, seed=17)
        assert rows[0] == rows[2]
        [alone] = key_identity_mc(f, measure, [0.5], n=100, reps=3000, seed=17)
        assert alone == rows[1]

    def test_left_side_alone_matches_the_full_call(self):
        f, measure = catalog_profile("gaussian"), dirac(1.0)
        t_values = [0.5, 1.0, 2.0]
        rows = key_identity_mc(f, measure, t_values, n=10, reps=2000, seed=18)
        lhs = definetti.identity_lhs(f, t_values, n=10, reps=2000, seed=18)
        assert lhs == [(row.lhs, row.lhs_se) for row in rows]
