"""Inverse problem: NNLS, measure recovery, and comparison metrics.

``nnls`` delegates to scipy.optimize.nnls, so the tests check what it adds
(the shape check) and the KKT conditions of its output. ``_solve_on``
assembles the penalised system (design columns, penalty row, ridge rows)
from the design matrix that ``recover_mixing`` builds once per call, and
must match scipy on explicitly stacked rows bit for bit; decompose's
reports are matched against one scipy solve on the whole scale grid.
Forward-model constructions provide the recovery truths.
"""

import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import wasserstein_distance

from schoenberg_lab import (
    EmpiricalMeasure,
    MixingMeasure,
    RecoveryProblem,
    catalog_profile,
    design_matrix,
    dirac,
    estimate_mixing,
    exponential_measure,
    ks_distance,
    levy_measure,
    mixture_laplace,
    nnls,
    recover_mixing,
    wasserstein1,
)
from schoenberg_lab import cli, recover
from schoenberg_lab.profiles import catalog_ids, read_tf_csv
from schoenberg_lab.recover import default_s_grid


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

    def test_no_columns_is_solved_without_scipy(self, monkeypatch):
        # scipy 1.17's nnls aborts the interpreter on a matrix with no columns
        monkeypatch.setattr(scipy.optimize, "nnls", None)
        w, rnorm = nnls(np.zeros((3, 0)), np.array([3.0, 0.0, -4.0]))
        assert w.shape == (0,) and w.dtype == float
        assert rnorm == 5.0

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
        t = np.linspace(0.0, 4.0, 41)
        s = default_s_grid()
        a = design_matrix(t, s)
        b = 1.0 / (1.0 + t**2 / 2.0)
        w, _ = nnls(a, b)
        grad = a.T @ (b - a @ w)
        inactive_violation = np.where(w == 0, grad, np.abs(grad)).max()
        assert inactive_violation <= 1e-10 * np.linalg.norm(a.T @ b, np.inf)

    @pytest.mark.parametrize("ridge", [0.0, 1e-7, 1.0])
    def test_solve_on_matches_scipy_on_stacked_rows(self, ridge):
        # _solve_on assembles the penalty row, and the ridge rows only at
        # ridge > 0; scipy on all rows stacked explicitly gives the same weights
        t, s = np.linspace(0.0, 4.0, 41), default_s_grid()
        f = catalog_profile("exp-mixture")(t)
        columns = np.arange(0, len(s), 3)
        ours = recover._solve_on(design_matrix(t, s), f, ridge, columns)
        theirs = np.zeros(len(s))
        theirs[columns] = full_grid_nnls(design_matrix(t, s[columns]), f, ridge)
        assert np.count_nonzero(ours) > 1
        np.testing.assert_array_equal(ours, theirs)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            nnls(np.eye(3), np.ones(2))


class TestRecoverMixing:
    def test_gaussian_profile(self):
        t = np.linspace(0.0, 4.0, 41)
        problem = RecoveryProblem(t, catalog_profile("gaussian")(t))
        result = recover_mixing(problem)
        assert result.residual_norm <= 1e-6
        m = result.measure
        window = m.weights[(m.scales >= 0.9) & (m.scales <= 1.1)].sum()
        assert window >= 0.99
        assert result.mass_deficit <= 1e-6

    def test_constant_profile_is_zero_scale_mixture(self):
        # needs scales near zero on the grid to fit a constant this tightly
        t = np.linspace(0.0, 4.0, 41)
        s = np.logspace(-12.0, 0.0, 121)
        problem = RecoveryProblem(t, np.ones_like(t), s_grid=s)
        result = recover_mixing(problem)
        assert result.residual_norm <= 1e-9
        m = result.measure
        assert m.weights[m.scales <= 1e-6].sum() >= 0.999

    def test_triangle_profile_has_no_mixture_fit(self):
        t = np.linspace(0.0, 4.0, 41)
        problem = RecoveryProblem(t, catalog_profile("triangle")(t))
        result = recover_mixing(problem)
        assert result.residual_norm > 0.01

    def test_reported_residual_is_self_consistent(self):
        t = np.linspace(0.0, 4.0, 41)
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
        t = np.linspace(0.0, 4.0, 41)
        f = mixture_laplace(measure, t)
        result = recover_mixing(RecoveryProblem(t, f, ridge=ridge))
        dist = wasserstein1(result.measure, measure) if metric == "w1" \
            else ks_distance(result.measure, measure)
        assert dist <= 0.05

    def test_scale_equivariance(self):
        # f(ct) corresponds to the push-forward s -> c^2 s; with c = 2 the
        # gaussian profile recovers (approximately) a point mass at 4
        t = np.linspace(0.0, 4.0, 41)
        f = catalog_profile("gaussian")(2.0 * t)
        result = recover_mixing(RecoveryProblem(t, f))
        assert wasserstein1(result.measure, dirac(4.0)) <= 0.1

    def test_validation(self):
        with pytest.raises(ValueError, match="t must start at 0"):
            RecoveryProblem(np.array([1.0, 2.0]), np.array([0.5, 0.2]))
        with pytest.raises(ValueError, match="must be 1"):
            RecoveryProblem(np.array([0.0, 1.0]), np.array([0.9, 0.5]))
        with pytest.raises(ValueError, match="ridge"):
            RecoveryProblem(np.array([0.0, 1.0]), np.array([1.0, 0.5]), ridge=-1.0)
        with pytest.raises(ValueError, match="ridge must be finite"):
            RecoveryProblem(np.array([0.0, 1.0]), np.array([1.0, 0.5]), ridge=float("nan"))

    @pytest.mark.parametrize("pid,ridge", [
        ("gaussian", 0.0), ("exp-mixture", 0.0), ("exp-mixture", 1e-7), ("cauchy", 1e-7),
    ])
    def test_kkt_loop_finds_atoms_missing_from_its_start(self, pid, ridge):
        # started from every 8th scale minus the optimum's atoms, the loop
        # must pull those scales in until it reaches the full-grid objective
        t, s = np.linspace(0.0, 4.0, 41), default_s_grid()
        f = catalog_profile(pid)(t)
        a = design_matrix(t, s)
        reference = full_grid_nnls(a, f, ridge)
        start = np.setdiff1d(np.arange(0, len(s), 8), np.flatnonzero(reference))
        w, working, violation, tolerance = recover._solve_to_kkt(a, f, ridge, start)
        assert len(working) > len(start)
        assert violation <= tolerance
        theirs = penalised_objective(a, f, ridge, reference)
        ours = penalised_objective(a, f, ridge, w)
        assert ours <= theirs * (1 + OBJECTIVE_RTOL) + OBJECTIVE_ATOL

    @pytest.mark.parametrize("points,index", [(801, 400), (803, 401)])
    def test_staged_solve_runs_on_schoenbergs_omega3_kernel(self, points, index):
        # Omega_3(rt) = sin(rt) / (rt) goes negative, which RecoveryProblem
        # would reject; the helpers read only the matrix. sinc(t) is the
        # kernel at r = 1, on the coarse stride (index 400) or off it (401).
        t, r = np.linspace(0.0, 6.0, 121), np.logspace(-2.0, 2.0, points)
        assert r[index] == pytest.approx(1.0, rel=1e-12)
        a = np.sinc(np.multiply.outer(t, r) / np.pi)
        f = np.sinc(t / np.pi)
        coarse = recover._solve_on(a, f, 0.0, np.arange(0, points, recover.COARSE_STRIDE))
        working = recover._windows(np.flatnonzero(coarse), points)
        w, _, violation, tolerance = recover._solve_to_kkt(a, f, 0.0, working)
        # atoms as recover_mixing keeps them
        assert np.flatnonzero(w > recover.PRUNE_THRESHOLD).tolist() == [index]
        assert w[index] == pytest.approx(1.0, abs=1e-13)
        assert np.abs(a @ w - f).max() <= 1e-13
        assert violation <= tolerance

    @pytest.mark.parametrize("pid,ridge,m,n,solves", [
        ("exp-mixture", 1e-7, 161, 961, 2),  # the benchmark's fine grid
        ("cauchy", 0.0, 81, 481, 3),  # a KKT round adds scales
    ])
    def test_design_matrix_is_built_once_per_call(self, monkeypatch, pid, ridge, m, n, solves):
        # every solve and every KKT round reads the columns of one design matrix
        counts = {"design_matrix": 0, "nnls": 0}

        def counted(name):
            original = getattr(recover, name)

            def call(*args, **kwargs):
                counts[name] += 1
                return original(*args, **kwargs)
            monkeypatch.setattr(recover, name, call)

        counted("design_matrix")
        counted("nnls")
        t, s = np.linspace(0.0, 4.0, m), np.logspace(-3.0, 3.0, n)
        recover_mixing(RecoveryProblem(t, catalog_profile(pid)(t), s, ridge=ridge))
        assert counts == {"design_matrix": 1, "nnls": solves}

    def test_coarse_solve_gets_the_full_grid_iteration_budget(self):
        # (1 + t) e^{-t} on 81 x 481 at ridge 0: Lawson-Hanson on the 61
        # coarse scales needs more than its own default 3 * 61 iterations
        t, s = np.linspace(0.0, 4.0, 81), np.logspace(-3.0, 3.0, 481)
        f = (1.0 + t) * np.exp(-t)
        coarse = np.arange(0, len(s), recover.COARSE_STRIDE)
        a = design_matrix(t, s)[:, coarse]
        rows = np.vstack([a, PENALTY * np.ones((1, len(coarse)))])
        with pytest.raises(RuntimeError, match="iterations"):
            scipy.optimize.nnls(rows, np.append(f, PENALTY))
        result = recover_mixing(RecoveryProblem(t, f, s))
        assert result.residual_norm <= 1e-12
        assert result.kkt_violation <= result.kkt_tolerance

    def test_csv_loading(self, tmp_path):
        path = tmp_path / "f.csv"
        t = np.linspace(0, 3, 13)
        rows = "\n".join(f"{ti},{np.exp(-ti**2 / 2)}" for ti in t)
        path.write_text("t,f\n" + rows + "\n")
        problem = RecoveryProblem(*read_tf_csv(path))
        np.testing.assert_allclose(problem.t_grid, t)
        result = recover_mixing(problem)
        assert result.residual_norm <= 1e-6


PENALTY = recover.PENALTY_FACTOR  # max|A| is 1: the t = 0 row is all ones
# Tolerances for matching a full-grid solve. Both solves meet KKT to ~1e-9
# in the gradient. At ridge > 0 their objectives then agree to 2.8e-6
# relative at worst (cauchy at ridge 1e-7, started without the optimum's
# atoms). At ridge 0 the exact fits are not unique, and the KKT-certified
# objective can sit up to 1e-19 above an optimum of ~1e-26 (cauchy, same
# start), an RMS misfit of 5e-11.
OBJECTIVE_RTOL = 1e-5
OBJECTIVE_ATOL = 1e-18


def full_grid_nnls(a, f, ridge):
    """The reference: one scipy NNLS solve on every column of a, rows stacked explicitly."""
    n = a.shape[1]
    rows = np.vstack([a, PENALTY * np.ones((1, n)), np.sqrt(ridge) * np.eye(n)])
    w, _ = scipy.optimize.nnls(rows, np.concatenate([f, [PENALTY], np.zeros(n)]))
    return w


def penalised_objective(a, f, ridge, w):
    """The objective recover_mixing minimises, without the factor 1/2."""
    return (np.sum((a @ w - f) ** 2) + (PENALTY * w.sum() - PENALTY) ** 2
            + ridge * np.sum(w ** 2))


def _perfbench_workloads():
    """perfbench/workloads.py, whose decompose cases TestFullGridReference covers."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


WORKLOADS = _perfbench_workloads()
# At ridge > 0 the misfit is ~1e-7 of the objective, which the ridge term
# dominates, so near-optimal fits differ in RMS by percents: 2.2% for
# exp-mixture at ridge 1e-7. Ridge-0 exact fits differ in noise of ~5e-14.
RESIDUAL_RTOL = 0.05
RESIDUAL_ATOL = 1e-12


def decompose_with_reference(capsys, argv):
    """decompose's weights and diagnostics, and the full-grid reference's weights.

    Both weight vectors are on decompose's scale grid, pruned and
    renormalized as decompose reports them. Returns (args, A, f, ours,
    reference, diagnostics).
    """
    args = cli.build_parser().parse_args(argv)
    cli.main(argv)
    report = json.loads(capsys.readouterr().out)
    config, results = report["config"], report["results"]
    if args.profile in catalog_ids():  # sampled on the t grid the report records
        t = np.linspace(0.0, config["t_max"], config["t_points"])
        f = catalog_profile(args.profile)(t)
    else:
        t, f = read_tf_csv(args.profile)
    s = np.logspace(np.log10(args.s_min), np.log10(args.s_max), args.s_points)
    scales = [atom["s"] for atom in results["measure"]["atoms"]]
    index = np.searchsorted(s, scales)
    np.testing.assert_array_equal(s[index], scales)
    ours = np.zeros(len(s))
    ours[index] = [atom["w"] for atom in results["measure"]["atoms"]]

    a = design_matrix(t, s)
    reference = full_grid_nnls(a, f, args.ridge)
    reference[reference <= recover.PRUNE_THRESHOLD] = 0.0
    reference /= reference.sum()
    return args, a, f, ours, reference, results["diagnostics"]


class TestFullGridReference:
    """decompose's report against one scipy solve over the whole scale grid."""

    @pytest.mark.parametrize("argv", [
        *WORKLOADS.CATALOG_PD_DECOMPOSE,
        "decompose triangle",
        "decompose SAMPLES",  # the benchmark's generated exp-mixture samples CSV
    ])
    def test_report_matches_full_grid_solve(self, capsys, tmp_path, argv):
        argv = argv.split()
        if argv[1] == "SAMPLES":
            argv[1] = WORKLOADS.write_inputs(tmp_path)["samples"]
        args, a, f, ours, reference, diagnostics = decompose_with_reference(capsys, argv)
        rms = float(np.sqrt(np.mean((a @ reference - f) ** 2)))
        assert abs(diagnostics["residual_norm"] - rms) <= RESIDUAL_RTOL * rms + RESIDUAL_ATOL
        theirs = penalised_objective(a, f, args.ridge, reference)
        assert (abs(penalised_objective(a, f, args.ridge, ours) - theirs)
                <= OBJECTIVE_RTOL * theirs + OBJECTIVE_ATOL)
        assert diagnostics["kkt_violation"] <= diagnostics["kkt_tolerance"]
        assert diagnostics["columns_solved"] < args.s_points

    @pytest.mark.parametrize("points", [1, 2, 8, 9])
    def test_grid_inside_one_window_is_solved_once_whole(self, capsys, monkeypatch, points):
        # a window around any coarse atom covers a grid of at most 9 scales,
        # so the coarse solve is followed by one solve on the whole grid
        solved = []
        nnls = recover.nnls

        def counted(A, b, **kwargs):
            solved.append(A.shape[1])
            return nnls(A, b, **kwargs)

        monkeypatch.setattr(recover, "nnls", counted)
        argv = ["decompose", "exp-mixture", "--ridge", "1e-7", "--s-points", str(points)]
        _, _, _, ours, reference, diagnostics = decompose_with_reference(capsys, argv)
        assert solved == [len(range(0, points, recover.COARSE_STRIDE)), points]
        assert diagnostics["columns_solved"] == points
        assert diagnostics["kkt_violation"] <= diagnostics["kkt_tolerance"]
        np.testing.assert_allclose(ours, reference, rtol=1e-12, atol=0.0)


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
        emp = EmpiricalMeasure(np.array([0.9, 1.0, 1.1, 1.0]))
        assert wasserstein1(emp, dirac(1.0)) == pytest.approx(0.05)
        assert ks_distance(emp, dirac(1.0)) == pytest.approx(0.25)


# nonnegative support points, with repeats and a signed zero among them
SUPPORT_VALUES = st.one_of(st.sampled_from([-0.0, 0.0, 0.25, 1.0, 1.0, 3.5]),
                           st.floats(min_value=0.0, max_value=1e3))


@st.composite
def mixing_measures(draw):
    scales = np.unique(draw(st.lists(SUPPORT_VALUES, min_size=1, max_size=12)))
    weights = np.asarray(draw(st.lists(st.floats(min_value=1e-3, max_value=1.0),
                                       min_size=len(scales), max_size=len(scales))))
    return MixingMeasure(scales, weights / weights.sum())


def _step_cdf(measure, x):
    """The measure's right-continuous CDF at x, read from its cumulative table."""
    return measure.cumulative[np.searchsorted(measure.support, x, side="right")]


def _union_grid_metrics(a, b):
    """(W1, KS) as first computed: both CDFs searched on np.union1d of the supports."""
    grid = np.union1d(a.support, b.support)
    gap = np.abs(_step_cdf(a, grid) - _step_cdf(b, grid))
    return float(np.sum(gap[:-1] * np.diff(grid))), float(gap.max())


class TestMetricsMatchTheUnionGridForm:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(SUPPORT_VALUES, min_size=1, max_size=40), mixing_measures())
    def test_empirical_against_mixing(self, values, measure):
        emp = EmpiricalMeasure(np.asarray(values))
        for a, b in ((emp, measure), (measure, emp)):
            w1, ks = _union_grid_metrics(a, b)
            assert (wasserstein1(a, b).hex(), ks_distance(a, b).hex()) == (w1.hex(), ks.hex())

    @settings(max_examples=150, deadline=None)
    @given(mixing_measures(), mixing_measures())
    def test_two_mixing_measures(self, a, b):
        w1, ks = _union_grid_metrics(a, b)
        assert (wasserstein1(a, b).hex(), ks_distance(a, b).hex()) == (w1.hex(), ks.hex())

    def test_simulate_sized_sample(self):
        for measure in (dirac(1.0), exponential_measure(), levy_measure()):
            emp = estimate_mixing(measure, n=1000, reps=10_000, seed=5)
            assert (wasserstein1(emp, measure), ks_distance(emp, measure)) == \
                _union_grid_metrics(emp, measure)


def _random_atoms(rng, k):
    scales = np.unique(np.round(rng.uniform(0.0, 5.0, size=k), 6))
    w = rng.uniform(0.2, 1.0, size=len(scales))
    return scales, w / w.sum()
