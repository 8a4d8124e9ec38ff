"""Reference points measured in the traced run, before any wrapper is installed.

They size what later changes can gain: certify on one thread, scipy's NNLS on
the rows the fine-grid decompose solves, and a chi-square draw with the same
law as the sum of squares the identity check computes.
"""

from __future__ import annotations

import contextlib
import io
import statistics
import time

import numpy as np
from scipy.optimize import nnls as scipy_nnls

from schoenberg_lab import cli, measures, recover

CERTIFY_K64 = (("certify", "gaussian", "--dim", "5"),
               ("certify", "exp-mixture", "--dim", "3"),
               ("certify", "cauchy", "--dim", "2"))


def certify_threads1_s(seed: int) -> float:
    """Seconds for the k <= 64 certify cases with ``--threads 1``."""
    start = time.perf_counter()
    for argv in CERTIFY_K64:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main([*argv, "--seed", str(seed), "--threads", "1"])
        if code != 0:
            raise RuntimeError(f"{' '.join(argv)} --threads 1 exited {code}")
    return time.perf_counter() - start


def scipy_nnls_point() -> tuple[float, float]:
    """(seconds, fit RMS) of scipy NNLS on the fine-grid decompose's penalised rows.

    The rows are those of ``decompose exp-mixture --ridge 1e-7 --t-points 161
    --s-points 961``: design matrix, unit-mass penalty row, ridge rows.
    """
    ridge = 1e-7
    t = np.linspace(0.0, 4.0, 161)
    s = np.logspace(-3.0, 3.0, 961)
    f = 1.0 / (1.0 + t * t / 2.0)
    A = recover.design_matrix(t, s)
    penalty = recover.PENALTY_FACTOR * float(np.abs(A).max())
    rows = np.vstack([A, penalty * np.ones((1, len(s))), np.sqrt(ridge) * np.eye(len(s))])
    rhs = np.concatenate([f, [penalty], np.zeros(len(s))])
    start = time.perf_counter()
    w, _ = scipy_nnls(rows, rhs)
    elapsed = time.perf_counter() - start
    keep = w > recover.PRUNE_THRESHOLD
    measure = measures.MixingMeasure(s[keep], w[keep] / w[keep].sum())
    fitted = measures.mixture_laplace(measure, t)
    return elapsed, float(np.sqrt(np.mean(np.square(fitted - f))))


def chisquare_s(seed: int, repeats: int = 7) -> float:
    """Median seconds of ``rng.chisquare(1000, 100_000)``."""
    rng = np.random.default_rng(seed)
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        rng.chisquare(1000, 100_000)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def measure(seed: int) -> dict:
    nnls_s, nnls_rms = scipy_nnls_point()
    return {
        "ref.certify_threads1_s": certify_threads1_s(seed),
        "ref.scipy_nnls_s": nnls_s,
        "ref.scipy_nnls_rms": nnls_rms,
        "ref.chisquare_s": chisquare_s(seed),
    }
