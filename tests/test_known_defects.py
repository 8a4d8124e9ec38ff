"""Known defects, one test each, asserting the correct outcome.

Each test is a strict xfail naming the ROADMAP item that mends it. When a
change fixes a defect its test passes, strict xfail turns that XPASS into a
failure, and the fix must drop the marker. ``raises=AssertionError`` keeps an
unrelated exception from passing as the known miss.
"""

import numpy as np
import pytest

from schoenberg_lab import cli
from schoenberg_lab.profiles import RadialProfile
from schoenberg_lab.psd import certify_psd


def known(reason):
    return pytest.mark.xfail(strict=True, raises=AssertionError, reason=reason)


def exit_code(capsys, *argv):
    code = cli.main(list(argv))
    capsys.readouterr()
    return code


@known("ROADMAP item 10: one sample at t = 0 is fitted exactly by one atom, 'fit ok'")
def test_decompose_rejects_a_single_sample(capsys):
    assert exit_code(capsys, "decompose", "triangle", "--t-points", "1") == 2


@known("ROADMAP item 10: a compactly supported profile fits to residual 5.2e-5, 'fit ok'")
def test_decompose_rejects_compact_support_csv(capsys, tmp_path):
    t = np.linspace(0.0, 4.0, 41)
    f = np.maximum(0.0, 1.0 - t / 3.0) ** 6
    path = tmp_path / "wendland_like.csv"
    path.write_text("t,f\n" + "".join(f"{a!r},{b!r}\n" for a, b in zip(t.tolist(), f.tolist())))
    assert exit_code(capsys, "decompose", str(path)) == 2


@known("ROADMAP item 4: the levy measure's transform misses exp(-t) by 2.4e-2")
def test_identity_holds_for_cauchy_and_levy(capsys):
    assert exit_code(capsys, "verify-identity", "cauchy", "levy:1", "--seed", "1938") == 0


@known("ROADMAP item 3: the --max-dist default does not scale with --n; W1 is 0.114")
def test_simulate_passes_at_small_n(capsys):
    assert exit_code(capsys, "simulate", "delta:1", "--n", "100", "--reps", "200",
                     "--seed", "1") == 0


@known("ROADMAP item 12: random search misses the lattice witnesses in R^d, d >= 3")
@pytest.mark.parametrize("fn, dim", [
    (lambda t: np.maximum(0.0, 1.0 - t) ** 2, 4),
    (lambda t: np.maximum(0.0, 1.0 - t) ** 3, 6),
    (lambda t: np.maximum(0.0, 1.0 - t / 3.0) ** 4 * (1.0 + 4.0 * t / 3.0), 4),
], ids=["(1-t)+^2 in R^4", "(1-t)+^3 in R^6", "wendland-3 in R^4"])
def test_compact_support_not_certified_above_its_dimension(fn, dim):
    report = certify_psd(RadialProfile("compact", fn), dim=dim, trials=2000, k_max=64,
                         seed=1938)
    assert not report.certified
