"""The benchmark's workloads: CLI invocations with their expected outcomes.

Each case is one ``schoenberg_lab.cli.main(argv)`` call at CLI defaults, an
expected exit code and a check of the JSON report. A check returns ``None``
when the output is right, else the reason it is wrong.

A case with ``may_fail`` set can fail for a documented reason (a known defect,
or a statistical test's false alarm at some seeds). Its failures are still
counted in ``failed``; they only leave ``correct`` true.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

Check = Callable[[dict], "str | None"]

RANDOMIZED = ("certify", "simulate", "verify-identity", "consistency")

TABULATED_TRIANGLE_DEFECT = (
    "known defect: trials outside a tabulated profile's domain are skipped, "
    "so the non-PSD tabulated triangle can read certified (ROADMAP item 4)")
CONSISTENCY_FALSE_ALARM = (
    "statistical: two KS tests at alpha 0.01 each, measured false-positive "
    "rate 1-2.5% per call (ROADMAP item 4)")
IDENTITY_FALSE_ALARM = "statistical: sides_agree is a 3-sigma test at each t"


@dataclass(frozen=True)
class Case:
    label: str
    argv: tuple[str, ...]
    exit_code: int
    check: Check
    may_fail: str | None = None

    @property
    def command(self) -> str:
        return self.argv[0]


def _results(report: dict) -> dict:
    return report["results"]


def certified(trials: int) -> Check:
    def check(report):
        r = _results(report)
        if r["verdict"] != "certified":
            return f"verdict {r['verdict']}, expected certified"
        if r["trials_run"] != trials:
            return f"trials_run {r['trials_run']}, expected {trials}"
        return None
    return check


def refuted_with_witness(report):
    r = _results(report)
    if r["verdict"] != "refuted":
        return f"verdict {r['verdict']}, expected refuted"
    if not r["witness"]["quadratic_form"] < -1e-6:
        return f"witness quadratic form {r['witness']['quadratic_form']!r} not < -1e-6"
    return None


def not_certified(report):
    r = _results(report)
    if r["verdict"] == "certified":
        return (f"verdict certified, expected not certified "
                f"(trials_run {r['trials_run']})")
    return None


def residual_at_most(bound: float) -> Check:
    def check(report):
        residual = _results(report)["diagnostics"]["residual_norm"]
        return None if residual <= bound else f"residual {residual!r} > {bound}"
    return check


def residual_above(bound: float) -> Check:
    def check(report):
        residual = _results(report)["diagnostics"]["residual_norm"]
        return None if residual > bound else f"residual {residual!r} <= {bound}"
    return check


def reports_pass(report):
    return None if report["pass"] is True else f"pass is {report['pass']!r}, expected true"


def reports_fail(report):
    return None if report["pass"] is False else f"pass is {report['pass']!r}, expected false"


def cm_fails_by_order(max_order: int) -> Check:
    def check(report):
        order = _results(report)["first_failing_order"]
        if order is None or order > max_order:
            return f"first failing order {order!r}, expected <= {max_order}"
        return None
    return check


def within_metric_bound(report):
    r, bound = _results(report), report["config"]["max_dist"]
    if not r["metric_value"] <= bound:
        return f"{r['metric']} {r['metric_value']!r} > {bound}"
    return None


def identity_holds(report):
    bad = [row["t"] for row in _results(report)["per_t"]
           if not (row["sides_agree"] and row["limit_improves"])]
    return f"identity check fails at t={bad}" if bad else None


def write_inputs(workdir: Path) -> dict:
    """Generated input files; their content does not depend on the seed."""
    # Triangle max(0, 1 - t) tabulated on [0, 1]: not PSD in R^2.
    t = np.linspace(0.0, 1.0, 101)
    triangle = workdir / "triangle_0_1.csv"
    _write_tf(triangle, t, 1.0 - t)
    # Exact samples of the exp-mixture profile on the default t grid.
    t = np.linspace(0.0, 4.0, 41)
    samples = workdir / "exp_mixture_samples.csv"
    _write_tf(samples, t, 1.0 / (1.0 + t * t / 2.0))
    return {"triangle": str(triangle), "samples": str(samples)}


def _write_tf(path: Path, t, f) -> None:
    with open(path, "w") as fh:
        fh.write("t,f\n")
        for a, b in zip(t.tolist(), f.tolist()):
            fh.write(f"{a!r},{b!r}\n")


def _case(argv, exit_code: int, check: Check, may_fail: str | None = None,
          label: str | None = None) -> Case:
    """``argv`` as a string of words, or as a list when it holds a generated path."""
    if isinstance(argv, str):
        label, argv = label or argv, argv.split()
    return Case(label, tuple(argv), exit_code, check, may_fail)


def certify_sweep(files: dict) -> list[Case]:
    return [
        _case("certify gaussian --dim 5", 0, certified(2000)),
        _case("certify exp-mixture --dim 3", 0, certified(2000)),
        _case("certify cauchy --dim 2", 0, certified(2000)),
        _case("certify gaussian --dim 8 --kmax 12 --trials 1000", 0, certified(1000)),
        _case("certify exp-mixture --dim 1 --kmax 12 --trials 1000", 0, certified(1000)),
        _case("certify triangle --dim 2", 2, refuted_with_witness),
        _case(["certify", files["triangle"], "--dim", "2"], 2, not_certified,
              TABULATED_TRIANGLE_DEFECT,
              label="certify <tabulated triangle on [0,1]> --dim 2"),
    ]


def montecarlo(files: dict) -> list[Case]:
    return [
        _case("verify-identity gaussian delta:1 --t 0.5,1,2", 0, identity_holds,
              IDENTITY_FALSE_ALARM),
        _case("simulate delta:1 --n 1000 --reps 10000", 0, within_metric_bound),
        _case("simulate exp:1 --n 1000 --reps 10000", 0, within_metric_bound),
        _case("simulate levy:1 --n 1000 --reps 10000 --metric ks", 0, within_metric_bound),
        _case("consistency exp:1 --dim 2", 0, reports_pass, CONSISTENCY_FALSE_ALARM),
        _case("consistency levy:1 --dim 5", 0, reports_pass, CONSISTENCY_FALSE_ALARM),
        _case("consistency exp:1 --dim 2 --corrupt-scale 1.5", 2, reports_fail),
    ]


# decompose cases on catalog PD profiles; decompose_rms is their largest fit RMS
CATALOG_PD_DECOMPOSE = (
    "decompose exp-mixture --ridge 1e-7",
    "decompose cauchy --ridge 1e-7",
    "decompose gaussian",
    "decompose exp-mixture",
    "decompose exp-mixture --ridge 1e-7 --t-points 161 --s-points 961",
)


def recover(files: dict) -> list[Case]:
    cases = [_case(argv, 0, residual_at_most(1e-3)) for argv in CATALOG_PD_DECOMPOSE]
    cases += [
        _case("decompose triangle", 2, residual_above(0.01)),
        _case(["decompose", files["samples"]], 0, residual_at_most(1e-3),
              label="decompose <exp-mixture samples csv>"),
    ]
    cases += [_case(f"cm-check {p}", 0, reports_pass)
              for p in ("gaussian", "cauchy", "exp-mixture")]
    cases.append(_case("cm-check triangle", 2, cm_fails_by_order(3)))
    return cases


WORKLOADS = {
    "certify-sweep": certify_sweep,
    "montecarlo": montecarlo,
    "recover": recover,
}


def build(workload: str, seed: int, workdir: Path) -> list[Case]:
    """The workload's cases, with ``--seed`` added to every randomized command."""
    cases = WORKLOADS[workload](write_inputs(workdir))
    return [Case(c.label, c.argv + ("--seed", str(seed)), c.exit_code, c.check, c.may_fail)
            if c.command in RANDOMIZED else c for c in cases]
