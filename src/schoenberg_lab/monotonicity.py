"""Complete-monotonicity test via alternating forward differences.

For a profile f, the companion function g(u) = f(sqrt(u)) must be completely
monotone on (0, inf) whenever f is a Gaussian scale mixture: all alternating
forward differences (-1)^m Delta_h^m g(u) are then nonnegative for every
order m, step h > 0 and u > 0. The check evaluates those differences on a
grid and reports the worst signed violation per order.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .profiles import RadialProfile


@dataclass(frozen=True)
class MonotonicityReport:
    """Worst alternating difference per order, and the pass verdict."""

    worst_by_order: list[tuple[int, float]]
    epsilon: float
    passed: bool
    first_failing_order: int | None


def alternating_differences(g, u_grid: np.ndarray, h: float, order: int) -> np.ndarray:
    """(-1)^m Delta_h^m g(u) on the grid, for m = order."""
    total = np.zeros_like(u_grid, dtype=float)
    for i in range(order + 1):
        total += (-1) ** i * comb(order, i) * g(u_grid + i * h)
    return total


def complete_monotonicity_check(profile: RadialProfile, max_order: int = 8,
                                u_grid=None, h: float = 0.1) -> MonotonicityReport:
    """Check g(u) = f(sqrt(u)) for complete monotonicity up to ``max_order``.

    Order m fails when an alternating difference is below
    -(epsilon + 2^m * eps * max|g|), where epsilon = 1e-10 * max|g| over the
    grid (reported as ``MonotonicityReport.epsilon``) and eps is the float64
    machine epsilon. The second term bounds the rounding error of the m-th
    difference, a sum of m + 1 values of g whose binomial weights total 2^m;
    it adds 6e-14 * max|g| at the default order 8 and keeps high orders of
    completely monotone profiles from failing on cancellation. Raises for
    max_order outside [1, 51], for a step h outside (0, inf), and for
    tabulated profiles whose domain is shorter than u + max_order * h.
    """
    if not 1 <= max_order <= 51:  # 2^52 * eps = 1
        raise ValueError(
            f"max_order must be in [1, 51], got {max_order}; from order 52 the rounding "
            "bound 2^m * eps * max|g| reaches max|g|, so no difference can fail")
    if not 0.0 < h < np.inf:  # also rejects nan
        raise ValueError(f"step h must be finite and > 0, got {h!r}")
    if u_grid is None:
        u_grid = np.arange(0.1, 4.0 + 1e-12, 0.05)
    u_grid = np.asarray(u_grid, dtype=float)
    if u_grid.size == 0:
        raise ValueError("u grid must be nonempty")
    if np.any(u_grid <= 0):
        raise ValueError("u grid must be strictly positive")
    u_top = float(u_grid.max() + max_order * h)
    if profile.t_max is not None and np.sqrt(u_top) > profile.t_max:
        raise ValueError(
            f"profile {profile.label!r} is tabulated up to t={profile.t_max}; "
            f"the check needs g at u={u_top} (t={np.sqrt(u_top):.4f})"
        )

    def g(u):
        return profile(np.sqrt(u))

    g_max = float(np.abs(g(u_grid)).max())
    epsilon = 1e-10 * g_max

    worst: list[tuple[int, float]] = []
    first_fail = None
    for m in range(max_order + 1):
        value = float(alternating_differences(g, u_grid, h, m).min())
        worst.append((m, value))
        rounding = 2.0 ** m * np.finfo(float).eps * g_max
        if first_fail is None and value < -(epsilon + rounding):
            first_fail = m
    return MonotonicityReport(
        worst_by_order=worst,
        epsilon=epsilon,
        passed=first_fail is None,
        first_failing_order=first_fail,
    )
