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

_BLOCK = 4096  # u points per block of complete_monotonicity_check's table


@dataclass(frozen=True)
class MonotonicityReport:
    """Worst alternating difference per order, and the pass verdict."""

    worst_by_order: list[tuple[int, float]]
    epsilon: float
    passed: bool
    first_failing_order: int | None


def alternating_differences(values, order: int) -> np.ndarray:
    """(-1)^m Delta_h^m g(u) on the grid, for m = order, from rows values[i] = g(u + i h)."""
    total = np.zeros_like(values[0], dtype=float)
    for i in range(order + 1):
        total += (-1) ** i * comb(order, i) * values[i]
    return total


def _block_extremes(profile, u, h, max_order):
    """max|g| on u, and the least alternating difference on u of each order 0..max_order."""
    values = [profile(np.sqrt(u + i * h)) for i in range(max_order + 1)]
    return (np.abs(values[0]).max(),
            [alternating_differences(values, m).min() for m in range(max_order + 1)])


def complete_monotonicity_check(profile: RadialProfile, max_order: int = 8,
                                u_grid=None, h: float = 0.1) -> MonotonicityReport:
    """Check g(u) = f(sqrt(u)) for complete monotonicity up to ``max_order``.

    Order m fails when an alternating difference is below
    -(epsilon + 2^m * eps * max|g|), where epsilon = 1e-10 * max|g| over the
    grid (reported as ``MonotonicityReport.epsilon``) and eps is the float64
    machine epsilon. The second term bounds the rounding error of the m-th
    difference, a sum of m + 1 values of g whose binomial weights total 2^m;
    it adds 6e-14 * max|g| at the default order 8 and keeps high orders of
    completely monotone profiles from failing on cancellation.

    g is evaluated once per row u + i h, i = 0..max_order, into a table that
    every order's differences read, ``_BLOCK`` u points at a time (1.7 MB at
    order 51); differences never mix u points, so the block minima give the
    whole table's. Raises for max_order outside [1, 51], for a step h outside
    (0, inf), and, through the profile, for a tabulated profile whose domain
    is shorter than u + max_order * h (extrapolation is an error).
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
    g_block, low_block = zip(*(_block_extremes(profile, u_grid[at:at + _BLOCK], h, max_order)
                               for at in range(0, u_grid.size, _BLOCK)))
    g_max = float(np.max(g_block))
    epsilon = 1e-10 * g_max

    worst: list[tuple[int, float]] = []
    first_fail = None
    for m, value in enumerate(np.min(low_block, axis=0).tolist()):
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
