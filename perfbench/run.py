#!/usr/bin/env python3
"""Time-to-verdict benchmark for the schoenberg-lab CLI.

    python3 perfbench/run.py --workload certify-sweep --seed 1938 --seconds 20 --trace 0

One closed-loop client in this process runs the workload's invocations of
``schoenberg_lab.cli.main(argv)`` one at a time, at CLI defaults and with
SCHOENBERG_LAB_THREADS unset. It repeats the same seeded pass until
``--seconds`` have elapsed, and at least MIN_PASSES times. Every outcome is
checked. Human-readable lines come first; the last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. The package is imported from ``src/`` of this checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"  # scratch inputs and span files; ignored by git

MIN_PASSES = 2
SETUP_RUNS = 6
WORKLOAD_NAMES = ("certify-sweep", "montecarlo", "recover")


def import_package():
    """schoenberg_lab from this checkout's src/, or exit 1."""
    sys.path.insert(0, str(SRC))
    try:
        import schoenberg_lab.cli
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import schoenberg_lab from {SRC}: {exc}")
    origin = Path(schoenberg_lab.__file__).resolve()
    if not origin.is_relative_to(SRC):
        raise SystemExit(f"perfbench: schoenberg_lab came from {origin}, not {SRC}")
    return schoenberg_lab.cli


def measure_setup(runs: int) -> list[float]:
    """Seconds from starting a fresh interpreter until ``import schoenberg_lab.cli`` returns."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    code = ("import time, schoenberg_lab.cli; "
            "print(time.clock_gettime_ns(time.CLOCK_MONOTONIC))")
    times = []
    for _ in range(runs):
        start = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
        done = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=120, check=True)
        times.append((int(done.stdout.split()[-1]) - start) / 1e9)
    return times


def machine_header(cli, threads_env_was: str | None) -> list[str]:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    # the pool size certify gets when neither --threads nor the variable is set
    threads = cli._resolve_threads(cli.build_parser().parse_args(["certify", "gaussian"]))
    return [
        f"machine  nproc={os.cpu_count()}  blas={blas}  python={platform.python_version()}"
        f"  numpy={np.__version__}  scipy={scipy.__version__}",
        f"env      OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS', 'unset')}"
        f"  SCHOENBERG_LAB_THREADS=unset for the run (was {threads_env_was or 'unset'})"
        f"  cli threads={threads}",
    ]


@dataclass
class Outcome:
    seconds: float
    code: int | None
    stdout: str
    error: str | None = None  # exception text
    problem: str | None = None  # wrong exit code, verdict or output check
    hard: bool = False  # a failure no may_fail reason covers
    report: dict | None = None


def invoke(cli, argv) -> Outcome:
    out = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(list(argv))
    except Exception:  # recorded as a failed invocation, the run goes on
        return Outcome(time.perf_counter() - start, None, out.getvalue(),
                       error=traceback.format_exc())
    return Outcome(time.perf_counter() - start, code, out.getvalue())


def judge(case, outcome: Outcome, first: dict | None) -> None:
    """Fill in ``problem``/``hard``; ``first`` is pass 1's report for this case."""
    if outcome.error is not None:
        print(f"{case.label}:\n{outcome.error}", file=sys.stderr)
        outcome.problem, outcome.hard = outcome.error.strip().splitlines()[-1], True
        return
    try:
        outcome.report = json.loads(outcome.stdout)
    except json.JSONDecodeError:
        outcome.problem, outcome.hard = f"exit {outcome.code}, no JSON report", True
        return
    outcome.report.pop("wall_time_ms", None)
    if first is not None and outcome.report != first:
        outcome.problem, outcome.hard = "report differs from pass 1", True
        return
    problems = []
    if outcome.code != case.exit_code:
        problems.append(f"exit {outcome.code}, expected {case.exit_code}")
    try:
        verdict = case.check(outcome.report)
    except (KeyError, TypeError) as exc:
        outcome.problem, outcome.hard = f"malformed report: {exc!r}", True
        return
    if verdict:
        problems.append(verdict)
    if problems:
        outcome.problem = "; ".join(problems)
        outcome.hard = case.may_fail is None


def tail(values) -> tuple[str, float]:
    """Highest of p99/p90/p75/p50 with at least ten samples beyond it, else the max."""
    n = len(values)
    for p in (99, 90, 75, 50):
        if n * (100 - p) / 100 >= 10:
            return f"p{p}", statistics.quantiles(values, n=100, method="inclusive")[p - 1]
    return "max", max(values)


def describe(name: str, unit: str, values) -> str:
    label, value = tail(values)
    return (f"{name:<24} {unit:<6} median {statistics.median(values):.6g}"
            f"  {label} {value:.6g}  n={len(values)}")


def run_passes(cli, cases, seconds: float, trace=None):
    """Closed loop: pass after pass until ``seconds`` elapse, at least MIN_PASSES."""
    passes, walls, layer_passes, span_passes = [], [], [], []
    firsts: list = [None] * len(cases)
    started = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - started < seconds:
        pass_start = time.perf_counter()
        outcomes = [invoke(cli, case.argv) for case in cases]
        walls.append(time.perf_counter() - pass_start)
        for i, (case, outcome) in enumerate(zip(cases, outcomes)):
            judge(case, outcome, firsts[i])
            if firsts[i] is None:
                firsts[i] = outcome.report
        passes.append(outcomes)
        if trace is not None:
            spans, layer = trace.take_pass()
            span_passes.append(spans)
            layer_passes.append(layer)
    return passes, walls, layer_passes, span_passes


def print_cases(cases, passes) -> None:
    print(f"{'case':<64} exit  median_s  status")
    for i, case in enumerate(cases):
        column = [p[i] for p in passes]
        bad = [o for o in column if o.problem]
        status = "ok"
        if bad:
            status = f"FAIL {len(bad)}/{len(column)}: {bad[0].problem}"
            if case.may_fail and not any(o.hard for o in bad):
                status += f" [{case.may_fail}]"
        print(f"{case.label:<64} {column[0].code!s:<5} "
              f"{statistics.median(o.seconds for o in column):<9.4f} {status}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1938)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    threads_env_was = os.environ.pop("SCHOENBERG_LAB_THREADS", None)
    cli = import_package()
    import layers
    import refs
    from spans import write_spans
    import workloads

    print(f"perfbench {args.workload}  seed={args.seed}  seconds={args.seconds:g}"
          f"  trace={args.trace}")
    for line in machine_header(cli, threads_env_was):
        print(line)

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        cases = workloads.build(args.workload, args.seed, workdir)
        trace = None
        if args.trace:
            ref_points = refs.measure(args.seed)
            trace = layers.LayerTrace()
            trace.install()
        else:
            measure_setup(1)  # writes the bytecode caches a user's install already has
            setup = measure_setup(SETUP_RUNS // 2)
        try:
            passes, walls, layer_passes, span_passes = run_passes(
                cli, cases, args.seconds, trace)
        finally:
            if trace is not None:
                trace.uninstall()
        if not args.trace:  # half after the passes, so a slow spell weighs less
            setup += measure_setup(SETUP_RUNS - SETUP_RUNS // 2)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    outcomes = [o for pass_outcomes in passes for o in pass_outcomes]
    attempted = len(outcomes)
    failed = sum(o.problem is not None for o in outcomes)
    correct = not any(o.hard for o in outcomes)

    print_cases(cases, passes)
    print(f"{'metric':<24} unit")
    rms = [p.report["results"]["diagnostics"]["residual_norm"]
           for case, p in zip(cases, passes[0])
           if case.label in workloads.CATALOG_PD_DECOMPOSE and p.report]
    decompose_rms = max(rms) if rms else 0.0

    if not args.trace:
        print(describe("setup_s", "s", setup))
        print(describe("wall_s", "s", walls))
        for command in dict.fromkeys(c.command for c in cases):
            per_pass = [sum(o.seconds for c, o in zip(cases, p) if c.command == command)
                        for p in passes]
            print(describe(f"{command.replace('-', '_')}_s", "s", per_pass))
        print(f"{'peak_rss_mb':<24} {'MB':<6} {peak_rss_mb:.6g}")
        if rms:
            print(f"{'decompose_rms':<24} {'1':<6} {decompose_rms!r}")
        print(f"{'fail_ratio':<24} failed/attempted invocations {failed}/{attempted}"
              f" = {failed / attempted:.4f}")
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    else:
        values, varying = layers.summarize_passes(layer_passes)
        for name in varying:
            print(f"count {name} differs between passes: "
                  f"{[lp[name] for lp in layer_passes]}")
        correct = correct and not varying
        values.update(ref_points)
        values["recover.decompose_rms"] = decompose_rms
        values["trace.wall_s"] = statistics.median(walls)
        metrics = {name: {"value": v, "unit": layers.unit_of(name)}
                   for name, v in values.items()}
        for name, m in metrics.items():
            print(f"{name:<36} {m['unit']:<11} {m['value']:.6g}")
        certify_cases = [c.label for c in cases if c.command == "certify"]
        for label, (done, run) in zip(certify_cases, trace.certify_calls):
            print(f"trials evaluated/run  {done}/{run}  {label}")
        span_file = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
        write_spans(span_file, span_passes)
        print(f"spans    {span_file.relative_to(ROOT)}"
              f"  ({sum(map(len, span_passes))} spans, {len(span_passes)} passes)")

    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
