"""Command-line interface: exit codes, payloads, reproducibility."""

import argparse
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from schoenberg_lab import catalog_profile, cli, definetti
from schoenberg_lab.rng import ROLE_LHS, ROLE_RHS, STREAM_VERSION


def child_env():
    """os.environ with the directory this package was imported from on PYTHONPATH."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    payload = json.loads(captured.out) if captured.out.strip() else None
    return code, payload, captured.err


class TestCertify:
    def test_gaussian_certified(self, capsys):
        code, payload, err = run_cli(capsys, "certify", "gaussian", "--dim", "5",
                                     "--trials", "300", "--kmax", "12", "--seed", "1")
        assert code == 0
        assert payload["results"]["verdict"] == "certified"
        assert payload["pass"] is True
        assert "certified" in err
        results = payload["results"]
        assert 0 < results["configurations_solved"] <= (results["trials_run"]
                                                       - results["trials_skipped"])
        assert 0 < results["eigensolves"] <= results["configurations_solved"]

    @pytest.mark.parametrize(
        "argv, verdict, min_eigenvalue, run, skipped, solved, form, eigensolves", [
            ("gaussian --dim 5", "certified", -5.1521541309533e-15, 2000, 0, 1082, None, 181),
            ("exp-mixture --dim 3", "certified", -1.556329347823286e-15, 2000, 0, 1082, None,
             95),
            ("cauchy --dim 2", "certified", 0.007682396812971664, 2000, 0, 1082, None, 55),
            ("gaussian --dim 8 --kmax 12 --trials 1000", "certified", 2.2174448873699824e-09,
             1000, 0, 516, None, 49),
            ("exp-mixture --dim 1 --kmax 12 --trials 1000", "certified",
             -1.8822096729591637e-17, 1000, 0, 511, None, 48),
            ("triangle --dim 2", "refuted", -0.0398176996429786, 13, 0, 12,
             -0.03981769964297856, 12),
            ("TABLE --dim 2", "inconclusive", 0.031607373466350154, 2000, 1977, 23, None, 6),
        ])
    def test_sweep_reports_are_pinned(self, capsys, tmp_path, argv, verdict, min_eigenvalue,
                                      run, skipped, solved, form, eigensolves):
        # the benchmark's seven certify cases at seed 1938, pinned exactly:
        # the Cholesky screen may skip eigensolves but must not move a result,
        # and any change to the draws must come with a STREAM_VERSION bump;
        # version 4 changed only verify-identity's draws
        assert STREAM_VERSION == 4
        table = tmp_path / "triangle.csv"
        t = np.linspace(0.0, 1.0, 101)
        table.write_text("t,f\n" + "".join(f"{a!r},{1.0 - a!r}\n" for a in t.tolist()))
        words = [str(table) if w == "TABLE" else w for w in argv.split()]
        _, payload, _ = run_cli(capsys, "certify", *words, "--seed", "1938")
        results = payload["results"]
        assert results["verdict"] == verdict
        assert results["min_eigenvalue"] == min_eigenvalue
        assert results["trials_run"] == run
        assert results["trials_skipped"] == skipped
        assert results["configurations_solved"] == solved
        assert results.get("witness", {}).get("quadratic_form") == form
        # which matrices the screen passes: a screen that decides one
        # differently moves this count even when no result moves
        assert results["eigensolves"] == eigensolves

    def test_triangle_dim2_refuted_with_witness(self, capsys):
        code, payload, _ = run_cli(capsys, "certify", "triangle", "--dim", "2",
                                   "--seed", "1")
        assert code == 2
        witness = payload["results"]["witness"]
        assert witness["quadratic_form"] < -1e-6
        assert len(witness["coefficients"]) == len(witness["points"])

    def test_triangle_dim1_certified(self, capsys):
        code, payload, _ = run_cli(capsys, "certify", "triangle", "--dim", "1",
                                   "--seed", "1")
        assert code == 0
        assert payload["results"]["verdict"] == "certified"

    def test_tabulated_profile_inconclusive(self, capsys, tmp_path):
        path = tmp_path / "triangle.csv"
        t = np.linspace(0.0, 1.0, 101)
        path.write_text("t,f\n" + "".join(f"{a!r},{1.0 - a!r}\n" for a in t.tolist()))
        code, payload, _ = run_cli(capsys, "certify", str(path), "--dim", "2",
                                   "--trials", "300", "--seed", "1")
        assert code == 2
        assert payload["results"]["verdict"] == "inconclusive"
        assert payload["pass"] is False
        results = payload["results"]
        assert results["configurations_solved"] <= (results["trials_run"]
                                                    - results["trials_skipped"])

    def test_unknown_profile_is_usage_error(self, capsys):
        code, payload, err = run_cli(capsys, "certify", "not-a-profile")
        assert code == 1
        assert payload is None
        assert "error" in err


class TestDecompose:
    def test_gaussian_mass_window(self, capsys, tmp_path):
        out = tmp_path / "measure.json"
        code, payload, _ = run_cli(capsys, "decompose", "gaussian", "--out", str(out))
        assert code == 0
        atoms = payload["results"]["measure"]["atoms"]
        mass = sum(a["w"] for a in atoms if 0.9 <= a["s"] <= 1.1)
        assert mass >= 0.99
        assert payload["results"]["diagnostics"]["residual_norm"] <= 1e-6
        saved = json.loads(out.read_text())
        assert saved["atoms"] == atoms

    def test_exp_mixture_roundtrip_metric(self, capsys):
        code, payload, _ = run_cli(capsys, "decompose", "exp-mixture",
                                   "--ridge", "1e-7")
        assert code == 0
        from schoenberg_lab import MixingMeasure, exponential_measure, wasserstein1

        recovered = MixingMeasure.from_dict(payload["results"]["measure"])
        assert wasserstein1(recovered, exponential_measure()) <= 0.05

    def test_triangle_flagged(self, capsys):
        code, payload, _ = run_cli(capsys, "decompose", "triangle")
        assert code == 2
        assert payload["results"]["diagnostics"]["residual_norm"] > 0.01
        assert payload["pass"] is False

    @pytest.mark.parametrize("extra", [(), ("--ridge", "1e-7")])
    def test_csv_matches_catalog(self, capsys, tmp_path, extra):
        # exact samples of the catalog profile on the default t grid
        t = np.linspace(0.0, 4.0, 41)
        f = catalog_profile("exp-mixture")(t)
        path = tmp_path / "f.csv"
        rows = "".join(f"{ti!r},{fi!r}\n" for ti, fi in zip(t.tolist(), f.tolist()))
        path.write_text("t,f\n" + rows)
        code_csv, from_csv, _ = run_cli(capsys, "decompose", str(path), *extra)
        code_id, from_id, _ = run_cli(capsys, "decompose", "exp-mixture", *extra)
        assert code_csv == code_id
        assert from_csv["results"] == from_id["results"]

    def test_csv_takes_no_t_grid_options(self, capsys, tmp_path):
        # a samples CSV brings its own t grid, so --t-max and --t-points are
        # usage errors with it and its report does not record them
        t = np.linspace(0.0, 2.0, 5)
        path = tmp_path / "g.csv"
        rows = zip(t.tolist(), np.exp(-t**2 / 2).tolist())
        path.write_text("t,f\n" + "".join(f"{ti!r},{fi!r}\n" for ti, fi in rows))
        for extra in (("--t-points", "500", "--t-max", "9"), ("--t-points", "41"),
                      ("--t-max", "4")):
            code, payload, err = run_cli(capsys, "decompose", str(path), *extra)
            assert (code, payload) == (1, None), extra
            assert "samples CSV" in err
        code, payload, _ = run_cli(capsys, "decompose", str(path))
        assert code == 0
        assert payload["config"]["profile"] == str(path)
        assert "t_max" not in payload["config"] and "t_points" not in payload["config"]
        # a catalog profile records the t grid it was sampled on, given or not
        reports = [run_cli(capsys, "decompose", "gaussian", *extra)[1]
                   for extra in ((), ("--t-max", "4", "--t-points", "41"))]
        for report in reports:
            assert (report["config"]["t_max"], report["config"]["t_points"]) == (4.0, 41)
        assert reports[0]["results"] == reports[1]["results"]

    def test_catalog_id_wins_over_a_file_of_that_name(self, capsys, tmp_path, monkeypatch):
        # decompose and cm-check resolve a profile id the same way: the
        # catalog first, so a t,f file named "gaussian" in the working
        # directory does not shadow the catalog Gaussian
        reference = {}
        for command in (["decompose", "gaussian"], ["cm-check", "gaussian"]):
            code, payload, _ = run_cli(capsys, *command)
            reference[command[0]] = (code, payload["results"])
        monkeypatch.chdir(tmp_path)
        (tmp_path / "gaussian").write_text("t,f\n0.0,1.0\n1.0,0.5\n2.0,0.25\n")
        for command in (["decompose", "gaussian"], ["cm-check", "gaussian"]):
            code, payload, _ = run_cli(capsys, *command)
            assert (code, payload["results"]) == reference[command[0]]


class TestSimulate:
    def test_unit_dirac(self, capsys, tmp_path):
        out = tmp_path / "l.csv"
        code, payload, _ = run_cli(capsys, "simulate", "delta:1", "--n", "1000",
                                   "--reps", "2000", "--seed", "3",
                                   "--out", str(out))
        assert code == 0
        assert payload["results"]["w1"] <= 0.05
        assert out.read_text().startswith("L\n")

    def test_zero_dirac_emits_zero_column(self, capsys, tmp_path):
        out = tmp_path / "l.csv"
        code, payload, _ = run_cli(capsys, "simulate", "delta:0", "--n", "50",
                                   "--reps", "200", "--seed", "3", "--out", str(out))
        assert code == 0
        values = [float(v) for v in out.read_text().strip().splitlines()[1:]]
        assert values == [0.0] * 200

    def test_measure_json_input(self, capsys, tmp_path):
        from schoenberg_lab import exponential_measure

        path = tmp_path / "exp.json"
        exponential_measure().save(path)
        code, payload, _ = run_cli(capsys, "simulate", str(path), "--n", "1000",
                                   "--reps", "2000", "--seed", "4")
        assert code == 0
        assert payload["results"]["w1"] <= 0.05

    def test_binned_measure_export(self, capsys, tmp_path):
        from schoenberg_lab import MixingMeasure

        out = tmp_path / "binned.json"
        code, _, _ = run_cli(capsys, "simulate", "exp:1", "--n", "500",
                             "--reps", "1280", "--seed", "4",
                             "--out-measure", str(out), "--bins", "32")
        assert code == 0
        binned = MixingMeasure.load(out)
        assert len(binned.scales) <= 32
        assert binned.weights.sum() == pytest.approx(1.0)


class TestVerifyIdentity:
    def test_gaussian_delta_passes(self, capsys):
        code, payload, _ = run_cli(capsys, "verify-identity", "gaussian", "delta:1",
                                   "--t", "1", "--reps", "20000", "--seed", "5")
        assert code == 0
        entry = payload["results"]["per_t"][0]
        assert entry["sides_agree"] and entry["limit_improves"]

    def test_tiny_t(self, capsys):
        code, payload, _ = run_cli(capsys, "verify-identity", "gaussian", "delta:1",
                                   "--t", "1e-6", "--n", "100", "--reps", "1000",
                                   "--seed", "5")
        entry = payload["results"]["per_t"][0]
        assert abs(entry["lhs"] - 1.0) <= 1e-6
        assert abs(entry["rhs"] - 1.0) <= 1e-6

    def test_t_at_rounding_resolution_converges(self, capsys):
        # lhs and lhs_coarse both round to 1.0 while f(t) = 1 - 2^-53: the fine
        # estimate is within rounding of the limit, which counts as converged
        code, payload, _ = run_cli(capsys, "verify-identity", "gaussian", "delta:1",
                                   "--t", "1e-8", "--seed", "1938")
        assert code == 0
        [entry] = payload["results"]["per_t"]
        assert entry["lhs"] == entry["lhs_coarse"] == 1.0
        assert entry["f_of_t"] == 1.0 - 2.0**-53
        assert entry["limit_improves"] and entry["sides_agree"]

    def test_mismatched_pair_is_error(self, capsys):
        code, payload, err = run_cli(capsys, "verify-identity", "gaussian", "exp:1",
                                     "--t", "1", "--reps", "1000", "--seed", "5")
        assert code == 1
        assert "disagree" in err

    # per_t[0] at seed 1938 as stream version 3 reported it, which version 4
    # keeps bit for bit; the rows after it are new in version 4
    ROW_0_AT_1938 = {
        "0.5,1,2": (0.5, 0.8825301649423374, 0.8825021162746298, 1.5570457847224836e-05,
                    1.5676171129472413e-05, 0.8824969025845953, 0.8840533209501338),
        "0.7,1.3": (0.7, 0.7827852842373322, 0.7827368368023145, 2.7063446895615394e-05,
                    2.7245004869175556e-05, 0.7827045382418681, 0.7875951707002399),
    }

    @pytest.mark.parametrize("t_list", sorted(ROW_0_AT_1938))
    def test_row_0_is_pinned(self, capsys, t_list):
        assert STREAM_VERSION == 4
        code, payload, _ = run_cli(capsys, "verify-identity", "gaussian", "delta:1",
                                   "--t", t_list, "--seed", "1938")
        assert code == 0
        row = payload["results"]["per_t"][0]
        keys = ("t", "lhs", "rhs", "lhs_se", "rhs_se", "f_of_t", "lhs_coarse")
        assert tuple(row[k] for k in keys) == self.ROW_0_AT_1938[t_list]

    def test_each_row_equals_its_single_t_run(self, capsys):
        common = ("gaussian", "delta:1", "--n", "200", "--reps", "5000", "--seed", "7")
        _, payload, _ = run_cli(capsys, "verify-identity", *common, "--t", "0.5,1,2")
        rows = payload["results"]["per_t"]
        assert [row["t"] for row in rows] == [0.5, 1.0, 2.0]
        for row in rows:
            _, single, _ = run_cli(capsys, "verify-identity", *common, "--t", repr(row["t"]))
            assert single["results"]["per_t"] == [row]

    def test_coarse_path_draws_no_right_side(self, capsys, monkeypatch):
        keys, scale_draws = [], []
        substream, draw_scales = definetti.substream, definetti.draw_scales

        def counting_substream(seed, *key):
            keys.append((seed, *key))
            return substream(seed, *key)

        def counting_draw_scales(measure, count, rng):
            scale_draws.append(count)
            return draw_scales(measure, count, rng)

        monkeypatch.setattr(definetti, "substream", counting_substream)
        monkeypatch.setattr(definetti, "draw_scales", counting_draw_scales)
        code, _, _ = run_cli(capsys, "verify-identity", "gaussian", "delta:1",
                             "--t", "0.5,1,2", "--n", "100", "--reps", "1000", "--seed", "3")
        assert code == 0
        # one fine left side, one fine right side, one coarse left side
        assert sorted(keys) == [(3, ROLE_LHS), (3, ROLE_LHS), (3, ROLE_RHS)]
        assert scale_draws == [1000]

    @pytest.mark.parametrize("argv", [
        ("gaussian", "exp:1", "--t", "1"),
        ("gaussian", "delta:1", "--t", "1", "--reps", "1"),
        ("gaussian", "delta:1", "--t", "1,-1"),
        ("gaussian", "delta:1", "--t", "1,nan"),
        ("gaussian", "delta:1", "--t", "0.5,,1"),
        ("gaussian", "delta:1", "--t", "1", "--n-coarse", "0"),
    ])
    def test_bad_input_is_rejected_before_any_draw(self, capsys, monkeypatch, argv):
        def no_draws(seed, *key):
            raise AssertionError("drew before validating")

        monkeypatch.setattr(definetti, "substream", no_draws)
        code, _, _ = run_cli(capsys, "verify-identity", *argv)
        assert code == 1

    @pytest.mark.parametrize("t", ["0.5,,1", "0.5,abc"])
    def test_non_numeric_t_names_the_option(self, capsys, t):
        code, payload, err = run_cli(capsys, "verify-identity", "gaussian", "delta:1", "--t", t)
        assert code == 1
        assert payload is None
        assert err.startswith("error: --t ")


class TestConsistency:
    def test_passes(self, capsys):
        code, payload, _ = run_cli(capsys, "consistency", "exp:1", "--dim", "2",
                                   "--count", "10000", "--seed", "6")
        assert code == 0

    def test_corrupted_fails(self, capsys):
        code, payload, _ = run_cli(capsys, "consistency", "exp:1", "--dim", "2",
                                   "--count", "10000", "--seed", "6",
                                   "--corrupt-scale", "1.5")
        assert code == 2
        assert payload["pass"] is False


class TestCmCheck:
    def test_gaussian_passes(self, capsys):
        code, payload, _ = run_cli(capsys, "cm-check", "gaussian")
        assert code == 0
        assert payload["results"]["first_failing_order"] is None

    def test_triangle_fails_early(self, capsys):
        code, payload, _ = run_cli(capsys, "cm-check", "triangle")
        assert code == 2
        assert payload["results"]["first_failing_order"] <= 3


class TestSeedPolicy:
    def test_default_seed_recorded(self, capsys):
        code, payload, _ = run_cli(capsys, "certify", "gaussian", "--dim", "2",
                                   "--trials", "10", "--kmax", "8")
        assert code == 0
        assert payload["config"]["seed"] == cli.DEFAULT_SEED

    def test_threads_recorded(self, capsys):
        _, payload, _ = run_cli(capsys, "certify", "gaussian", "--dim", "2",
                                "--trials", "10", "--kmax", "8", "--seed", "1",
                                "--threads", "2")
        assert payload["config"]["threads"] == 2


# 600 trials are 10 chunks: batches of 1, 2, 4 and 3 chunks, so the
# Cholesky screen runs on three of them
CERTIFY_SCREENED = ("certify", "gaussian", "--dim", "5", "--trials", "600", "--seed", "42")


@pytest.mark.parametrize("argv", [
    ("decompose", "exp-mixture", "--ridge", "1e-7"),
    ("certify", "triangle", "--dim", "2", "--seed", "1"),  # refuted: carries a witness
])
def test_report_is_json_dumps_bytes(capsys, argv):
    # a report is one line: json.dumps's default separators and float reprs
    cli.main(list(argv))
    out = capsys.readouterr().out
    assert out == json.dumps(json.loads(out)) + "\n"


def comparable_payload(payload) -> str:
    payload["config"].pop("threads", None)
    return json.dumps({"config": payload["config"], "results": payload["results"],
                       "pass": payload["pass"]}, sort_keys=True)


class TestDeterminism:
    @pytest.mark.parametrize("argv", [
        ("certify", "triangle", "--dim", "2", "--trials", "200", "--seed", "42"),
        CERTIFY_SCREENED,
        ("simulate", "exp:1", "--n", "200", "--reps", "500", "--seed", "42"),
        ("consistency", "delta:1", "--dim", "2", "--count", "2000", "--seed", "42"),
        ("verify-identity", "gaussian", "delta:1", "--t", "1", "--n", "100",
         "--reps", "2000", "--seed", "42"),
    ])
    def test_payload_identical_across_threads(self, capsys, argv):
        # only certify takes --threads; the other commands are rerun as is
        if argv[0] == "certify":
            variants = [("--threads", "1"), ("--threads", "4")]
        else:
            variants = [(), ()]
        results = [comparable_payload(run_cli(capsys, *argv, *extra)[1])
                   for extra in variants]
        assert results[0] == results[1]

    def test_rerun_identical(self, capsys):
        runs = [run_cli(capsys, "simulate", "levy:1", "--n", "100", "--reps", "300",
                        "--seed", "7")[1]["results"] for _ in range(2)]
        assert json.dumps(runs[0]) == json.dumps(runs[1])

    def test_certify_rerun_identical(self, capsys):
        # the same call twice in one process: nothing carries over between calls
        runs = [comparable_payload(run_cli(capsys, *CERTIFY_SCREENED)[1]) for _ in range(2)]
        assert runs[0] == runs[1]


def test_console_entry_point_subprocess(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "schoenberg_lab.cli", "certify", "gaussian",
         "--dim", "3", "--trials", "50", "--kmax", "8", "--seed", "1"],
        capture_output=True, text=True, timeout=120, env=child_env(),
    )
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["command"] == "certify"
    assert payload["stream_version"] == STREAM_VERSION
    assert payload["results"]["verdict"] == "certified"
    assert proc.stderr.strip()  # human summary on stderr


def test_decompose_with_a_ridge_that_zeroes_the_coarse_solve_is_an_error():
    # the coarse solve leaves no atoms, so a later solve has no columns; scipy's
    # nnls aborted the interpreter on that (exit 134), so run it in a child
    proc = subprocess.run(
        [sys.executable, "-m", "schoenberg_lab.cli", "decompose", "gaussian", "--ridge", "1e50"],
        capture_output=True, text=True, timeout=120, env=child_env(),
    )
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ")


def test_montecarlo_commands_load_no_scipy():
    # scipy is imported only inside decompose's NNLS and tabulated profiles,
    # so the de Finetti/LLN checks start on numpy alone
    script = """
import contextlib, io, json, sys
from schoenberg_lab import catalog_profile, cli
codes = []
for argv in [
    ["simulate", "delta:1", "--n", "10000", "--reps", "200", "--seed", "1"],
    ["verify-identity", "gaussian", "delta:1", "--t", "1", "--n", "100",
     "--n-coarse", "10", "--reps", "200", "--seed", "1"],
    ["consistency", "exp:1", "--count", "500", "--seed", "1"],
    ["cm-check", "gaussian"],
]:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        codes.append(cli.main(argv))
print(json.dumps({"codes": codes, "scipy": sorted(
    m for m in sys.modules if m == "scipy" or m.startswith("scipy."))}))
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=120, env=child_env())
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["codes"] == [0, 0, 0, 0]
    assert out["scipy"] == []


def test_certify_loads_no_scipy():
    # certify computes its distances in numpy, so a catalog profile is
    # certified or refuted without any scipy module
    script = """
import contextlib, io, json, sys
from schoenberg_lab import catalog_profile, cli
codes = []
for argv in [
    ["certify", "gaussian", "--dim", "2", "--trials", "50", "--seed", "1"],
    ["certify", "triangle", "--dim", "2", "--seed", "1"],
]:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        codes.append(cli.main(argv))
print(json.dumps({"codes": codes, "scipy": sorted(
    m for m in sys.modules if m == "scipy" or m.startswith("scipy."))}))
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=120, env=child_env())
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["codes"] == [0, 2]
    assert out["scipy"] == []


@pytest.mark.parametrize("command", ["certify", "decompose", "cm-check"])
@pytest.mark.parametrize("content", ["t,f\n0,1\n0.5\n1,0.4\n", "t,f\n", "t,f\n0,1\n0.5,abc\n",
                                     "t,f\n0,1\n0.5,nan\n1,0.4\n", "t,f\n0,1\ninf,0.5\n"],
                         ids=["short-row", "header-only", "non-numeric", "nan", "inf"])
def test_malformed_profile_csv_is_usage_error(capsys, tmp_path, command, content):
    path = tmp_path / "profile.csv"
    path.write_text(content)
    seed = ("--seed", "1") if command == "certify" else ()
    code, payload, err = run_cli(capsys, command, str(path), *seed)
    assert code == 1
    assert payload is None
    # the message names the file, and the line of a bad row
    where = ":" if content == "t,f\n" else ", line 3:"
    assert err.startswith(f"error: {path}{where}")


def test_handlers_are_looked_up_per_call(capsys, monkeypatch):
    # in-process callers share one parser; a handler rebound after the first
    # call (a test double, a tracer) must still be the one that runs
    assert run_cli(capsys, "cm-check", "gaussian")[0] == 0
    monkeypatch.setattr(cli, "cmd_simulate", lambda args: ({"stub": args.n}, True, "stub"))
    code, payload, err = run_cli(capsys, "simulate", "delta:1", "--n", "7")
    assert code == 0
    assert payload["results"] == {"stub": 7}
    assert err == "stub\n"
    assert cli.build_parser() is cli.build_parser()


def test_exit_codes_stay_in_contract(capsys, tmp_path):
    # a sweep of good, failing, and erroring invocations never leaves {0,1,2}
    invocations = [
        ("cm-check", "gaussian"),
        ("cm-check", "triangle"),
        ("certify", "nope"),
        ("decompose", "triangle"),
        ("simulate", "delta:1", "--n", "100", "--reps", "200", "--seed", "1"),
        ("simulate", "bad-spec"),
        ("cm-check", "gaussian", "--u-step", "0"),
    ]
    for argv in invocations:
        code = cli.main(list(argv))
        capsys.readouterr()
        assert code in (0, 1, 2)
    # a tolerance or threshold that voids the verdict is a usage error
    simulate = ("simulate", "delta:1", "--n", "100", "--reps", "200")
    identity = ("verify-identity", "gaussian", "delta:1", "--t", "1", "--reps", "200")
    voiding = [
        ("certify", "triangle", "--dim", "2", "--tol", "nan"),
        *[("decompose", "gaussian", "--residual-threshold", v) for v in ("nan", "inf", "-1")],
        *[(*simulate, "--max-dist", v) for v in ("nan", "inf", "-0.1")],
        (*identity, "--n", "10", "--n-coarse", "10"),
        (*identity, "--n", "10", "--n-coarse", "100"),
        *[("consistency", "exp:1", "--corrupt-scale", v) for v in ("-1", "nan")],
        ("consistency", "exp:1", "--dim", "0"),
        ("verify-identity", "gaussian", "delta:1", "--t", "1", "--reps", "1"),
        *[("certify", "gaussian", "--trials", "10", "--threads", v) for v in ("0", "-5")],
        *[("decompose", "gaussian", "--s-min", v) for v in ("0", "-1")],
        (*simulate, "--bins", "0", "--out", str(tmp_path / "L.csv"),
         "--out-measure", str(tmp_path / "measure.json")),
        (*simulate, "--bins", "0", "--seed", "1"),
        *[("simulate", spec) for spec in ("exp:nan", "exp:inf", "levy:inf", "delta:inf")],
        ("cm-check", "gaussian", "--u-max", "1e6", "--u-step", "1e-7"),  # MemoryError
        *[("cm-check", "gaussian", "--max-order", v) for v in ("52", "1100")],
    ]
    # a grid bound that numpy cannot use is a usage error naming the option
    grids = [
        ("decompose", "gaussian", "--t-max", "inf"),
        ("decompose", "gaussian", "--t-max", "0"),
        ("cm-check", "gaussian", "--u-max", "nan"),
        ("cm-check", "gaussian", "--u-max", "inf"),
        ("cm-check", "gaussian", "--u-min", "0"),
        ("cm-check", "gaussian", "--h", "nan"),
        ("cm-check", "gaussian", "--h", "inf"),
        ("cm-check", "gaussian", "--u-step", "inf"),
        ("cm-check", "gaussian", "--u-step", "10"),  # wider than [--u-min, --u-max]
    ]
    for argv in voiding + grids:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy warning must not precede the error
            code = cli.main(list(argv))
        err = capsys.readouterr().err
        assert code == 1, argv
        assert err.startswith("error: "), argv
        if argv in grids:
            assert argv[-2] in err, argv
    assert not any(tmp_path.iterdir())  # a usage error writes no output file


@pytest.mark.parametrize("command", ["simulate", "verify-identity", "consistency"])
@pytest.mark.parametrize("content", ['{"atoms": [1, 2]}', '[{"s": 1, "w": 1}]',
                                     '{"atoms": [{"w": 1}]}'],
                         ids=["int-atoms", "top-level-list", "atom-without-s"])
def test_malformed_measure_json_is_usage_error(capsys, tmp_path, command, content):
    path = tmp_path / "measure.json"
    path.write_text(content)
    argv = {
        "simulate": ("simulate", str(path), "--n", "100", "--reps", "200"),
        "verify-identity": ("verify-identity", "gaussian", str(path), "--t", "1",
                            "--n", "100", "--reps", "1000"),
        "consistency": ("consistency", str(path), "--count", "500"),
    }[command]
    code, payload, err = run_cli(capsys, *argv)
    assert code == 1
    assert payload is None
    assert err.startswith("error: ")
    assert str(path) in err


def _subparsers():
    parser = cli.build_parser()
    return next(a.choices for a in parser._actions
                if isinstance(a, argparse._SubParsersAction))


def test_config_names_exactly_the_options_taken(capsys):
    invocations = {
        "certify": ("gaussian", "--trials", "10", "--kmax", "8"),
        "decompose": ("gaussian",),
        "simulate": ("delta:1", "--n", "100", "--reps", "200"),
        "verify-identity": ("gaussian", "delta:1", "--t", "1", "--n", "100",
                            "--reps", "1000"),
        "consistency": ("delta:1", "--count", "500"),
        "cm-check": ("gaussian",),
    }
    subparsers = _subparsers()
    assert set(invocations) == set(subparsers)
    for command, argv in invocations.items():
        code, payload, _ = run_cli(capsys, command, *argv)
        assert code in (0, 2), command
        dests = {a.dest for a in subparsers[command]._actions} - {"help"}
        assert set(payload["config"]) == dests, command


# Every value a subcommand takes, positionals by name. A new option is a
# deliberate edit here.
PINNED_OPTIONS = {
    "certify": ["profile", "--dim", "--trials", "--kmax", "--tol", "--seed", "--threads"],
    "decompose": ["profile", "--t-max", "--t-points", "--s-min", "--s-max", "--s-points",
                  "--ridge", "--residual-threshold", "--out"],
    "simulate": ["measure", "--n", "--reps", "--metric", "--max-dist", "--out",
                 "--out-measure", "--bins", "--seed"],
    "verify-identity": ["profile", "measure", "--t", "--n", "--n-coarse", "--reps",
                        "--seed"],
    "consistency": ["measure", "--dim", "--count", "--corrupt-scale", "--seed"],
    "cm-check": ["profile", "--max-order", "--u-min", "--u-max", "--u-step", "--h"],
}


def test_options_are_pinned():
    taken = {command: [a.option_strings[0] if a.option_strings else a.dest
                       for a in sub._actions if a.dest != "help"]
             for command, sub in _subparsers().items()}
    assert taken == PINNED_OPTIONS
    assert sum(map(len, taken.values())) == 43


@pytest.mark.parametrize("argv", [
    ("decompose", "gaussian", "--seed", "1"),
    ("cm-check", "gaussian", "--threads", "2"),
    ("simulate", "delta:1", "--threads", "2"),
    # deleted options
    pytest.param(("certify", "gaussian", "--trials", "10", "--seed", "1", "--ci"),
                 id="certify-ci"),
    pytest.param(("simulate", "delta:1", "--n", "100", "--reps", "200", "--renormalize"),
                 id="simulate-renormalize"),
    pytest.param(("consistency", "exp:1", "--count", "500", "--renormalize"),
                 id="consistency-renormalize"),
    pytest.param(("verify-identity", "gaussian", "delta:1", "--t", "1", "--n", "100",
                  "--reps", "1000", "--renormalize"), id="verify-identity-renormalize"),
    pytest.param(("decompose", "gaussian", "--no-normalize"), id="decompose-no-normalize"),
], ids=lambda argv: argv[0])
def test_options_a_command_does_not_read_are_rejected(capsys, argv):
    code, payload, _ = run_cli(capsys, *argv)
    assert code == 1
    assert payload is None
