"""Alternating-difference complete monotonicity checks."""

import numpy as np
import pytest

from schoenberg_lab import catalog_profile, complete_monotonicity_check, tabulated_profile
from schoenberg_lab.monotonicity import alternating_differences


def test_gaussian_differences_match_closed_form():
    # For g(u) = exp(-u/2) the alternating difference has the closed form
    # exp(-u/2) * (1 - exp(-h/2))^m, strictly positive.
    u = np.linspace(0.1, 4.0, 40)
    h = 0.1
    g = lambda x: np.exp(-x / 2.0)
    for m in range(5):
        expected = np.exp(-u / 2.0) * (1.0 - np.exp(-h / 2.0)) ** m
        np.testing.assert_allclose(alternating_differences(g, u, h, m), expected,
                                   rtol=1e-9, atol=1e-14)


def test_gaussian_passes_to_order_eight():
    report = complete_monotonicity_check(catalog_profile("gaussian"), max_order=8)
    assert report.passed
    assert report.first_failing_order is None
    assert all(v >= 0 for _, v in report.worst_by_order)


def test_exp_mixture_passes_with_diff_oracle():
    # oracle: repeated np.diff on a dense evaluation, sign-adjusted
    f = catalog_profile("exp-mixture")
    h = 0.1
    u = np.arange(0.1, 4.0 + 1e-12, 0.05)
    for m in (1, 2, 3, 4):
        stacked = np.stack([f(np.sqrt(u + i * h)) for i in range(m + 1)])
        oracle = (-1.0) ** m * np.diff(stacked, n=m, axis=0)[0]
        ours = alternating_differences(lambda x: f(np.sqrt(x)), u, h, m)
        np.testing.assert_allclose(ours, oracle, rtol=1e-9, atol=1e-15)
        assert oracle.min() >= 0
    report = complete_monotonicity_check(f, max_order=8)
    assert report.passed


@pytest.mark.parametrize("profile_id", ["gaussian", "cauchy", "exp-mixture"])
def test_high_orders_tolerate_cancellation(profile_id):
    # without the 2^m rounding bound these fail at orders 22-23
    report = complete_monotonicity_check(catalog_profile(profile_id), max_order=30)
    assert report.passed


def test_triangle_fails_by_order_three():
    report = complete_monotonicity_check(catalog_profile("triangle"), max_order=8)
    assert not report.passed
    assert report.first_failing_order is not None
    assert report.first_failing_order <= 3
    # the kink is convexity-compatible: orders 0..2 are clean
    assert report.worst_by_order[0][1] >= -report.epsilon
    assert report.worst_by_order[1][1] >= -report.epsilon
    assert report.worst_by_order[2][1] >= -report.epsilon


def test_tabulated_domain_too_short_raises():
    f = tabulated_profile([0.0, 0.5, 1.0], [1.0, 0.8, 0.6])
    with pytest.raises(ValueError, match="tabulated up to"):
        complete_monotonicity_check(f, max_order=4, u_grid=np.array([0.5]), h=0.2)


def test_rejects_bad_arguments():
    f = catalog_profile("gaussian")
    with pytest.raises(ValueError):
        complete_monotonicity_check(f, max_order=0)
    # from order 52 the rounding bound 2^m * eps * max|g| is max|g| itself
    with pytest.raises(ValueError, match=r"max_order must be in \[1, 51\]"):
        complete_monotonicity_check(f, max_order=52)
    for h in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="h must be finite and > 0"):
            complete_monotonicity_check(f, h=h)
    with pytest.raises(ValueError):
        complete_monotonicity_check(f, u_grid=np.array([0.0, 1.0]))
    with pytest.raises(ValueError, match="nonempty"):
        complete_monotonicity_check(f, u_grid=np.array([]))
