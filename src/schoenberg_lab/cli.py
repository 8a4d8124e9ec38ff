"""Command-line front end.

Each subcommand wraps one library operation and returns its results, its
pass flag and a one-line summary; ``main`` prints them as a single JSON
report on stdout and the summary on stderr, and exits with:

* 0 - pass / certified,
* 2 - refuted, inconclusive or failed check,
* 1 - usage or runtime error.

The randomized subcommands (certify, simulate, verify-identity and
consistency) take ``--seed``, which defaults to the documented 1938. Only
certify takes ``--threads`` (default 1, at least 1), and its results do not
depend on the thread count; ``psd.certify_psd`` documents how it searches.
A subcommand rejects an option it does not read, such as decompose's
``--t-max`` with a samples CSV. Every report records the resolved value of
each option it read and ``stream_version``, the version of its random streams.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time

import numpy as np

from . import definetti, measures, monotonicity, profiles, psd, recover
from .rng import STREAM_VERSION

DEFAULT_SEED = 1938

EXIT_PASS = 0
EXIT_ERROR = 1
EXIT_FAIL = 2


def _numpy_to_json(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def emit_report(command: str, config: dict, results: dict, passed: bool | None,
                started: float) -> None:
    report = {
        "command": command,
        "stream_version": STREAM_VERSION,
        "config": config,
        "results": results,
        "pass": passed,
        "wall_time_ms": int((time.monotonic() - started) * 1000),
    }
    # json.dumps encodes in C (json.dump would not); allow_nan=False keeps reports strict JSON
    sys.stdout.write(json.dumps(report, default=_numpy_to_json, allow_nan=False) + "\n")


def _resolve_threads(args) -> int:
    if args.threads < 1:
        raise ValueError(f"--threads must be >= 1, got {args.threads}")
    return args.threads


def _check_threshold(option: str, value: float) -> None:
    if not 0.0 <= value < np.inf:  # also rejects nan
        raise ValueError(f"{option} must be finite and >= 0, got {value!r}")


def _check_positive(option: str, value: float) -> None:
    if not 0.0 < value < np.inf:  # also rejects nan
        raise ValueError(f"{option} must be finite and > 0, got {value!r}")


def _add_seed(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"RNG seed (default {DEFAULT_SEED})")


def cmd_certify(args) -> tuple[dict, bool, str]:
    profile = profiles.resolve_profile(args.profile)
    report = psd.certify_psd(profile, dim=args.dim, trials=args.trials,
                             k_max=args.kmax, tol=args.tol, seed=args.seed,
                             threads=_resolve_threads(args))
    evaluated = report.trials_run > report.trials_skipped  # else min_eigenvalue is NaN
    results = {
        "verdict": report.verdict,
        "min_eigenvalue": report.min_eigenvalue if evaluated else None,
        "trials_run": report.trials_run,
        "trials_skipped": report.trials_skipped,
        "configurations_solved": report.configurations_solved,
        "eigensolves": report.eigensolves,
        "tolerance": report.tolerance,
    }
    if report.refuted:
        coeffs, value = report.witness
        results["witness"] = {
            "points": report.points,
            "coefficients": coeffs,
            "quadratic_form": value,
        }
    worst = f"min eigenvalue {report.min_eigenvalue:.3e}" if evaluated else "no trial evaluated"
    summary = (f"certify {profile.label} in R^{args.dim}: {report.verdict} "
               f"({worst}, {report.trials_run} trials)")
    return results, report.certified, summary


def cmd_decompose(args) -> tuple[dict, bool, str]:
    _check_threshold("--residual-threshold", args.residual_threshold)
    _check_positive("--s-min", args.s_min)
    if not args.s_min < args.s_max < np.inf:
        raise ValueError(f"--s-max must be finite and > --s-min, got {args.s_max!r}")
    if args.s_points < 1:
        raise ValueError(f"--s-points must be >= 1, got {args.s_points}")
    s_grid = np.logspace(np.log10(args.s_min), np.log10(args.s_max), args.s_points)
    if args.profile not in profiles.catalog_ids() and os.path.exists(args.profile):
        if args.t_max is not None or args.t_points is not None:
            raise ValueError("--t-max and --t-points do not apply to a samples CSV")
        del args.t_max, args.t_points  # the report records only options read
        t, f = profiles.read_tf_csv(args.profile)
    else:
        args.t_max = 4.0 if args.t_max is None else args.t_max
        args.t_points = 41 if args.t_points is None else args.t_points
        _check_positive("--t-max", args.t_max)
        if args.t_points < 1:
            raise ValueError(f"--t-points must be >= 1, got {args.t_points}")
        t = np.linspace(0.0, args.t_max, args.t_points)
        f = profiles.resolve_profile(args.profile)(t)
    problem = recover.RecoveryProblem(t, f, s_grid, ridge=args.ridge)
    result = recover.recover_mixing(problem)
    if args.out:
        result.measure.save(args.out)
    passed = result.residual_norm <= args.residual_threshold
    results = {
        "measure": result.measure.to_dict(),
        "diagnostics": {
            "residual_norm": result.residual_norm,
            "mass_deficit": result.mass_deficit,
            "kkt_violation": result.kkt_violation,
            "kkt_tolerance": result.kkt_tolerance,
            "columns_solved": result.columns_solved,
        },
    }
    summary = (f"decompose {args.profile}: residual {result.residual_norm:.3e} "
               f"({len(result.measure.scales)} atoms, "
               f"{'fit ok' if passed else 'residual above threshold'})")
    return results, passed, summary


def cmd_simulate(args) -> tuple[dict, bool, str]:
    _check_threshold("--max-dist", args.max_dist)
    if args.bins < 1:
        raise ValueError(f"--bins must be >= 1, got {args.bins}")
    measure = measures.resolve_measure(args.measure)
    empirical = definetti.estimate_mixing(measure, n=args.n, reps=args.reps,
                                          seed=args.seed)
    if args.out:
        empirical.to_csv(args.out)
    if args.out_measure:
        empirical.to_measure(bins=args.bins, label="binned-empirical").save(args.out_measure)
    w1 = recover.wasserstein1(empirical, measure)
    ks = recover.ks_distance(empirical, measure)
    metric_value = w1 if args.metric == "w1" else ks
    passed = metric_value <= args.max_dist
    results = {"w1": w1, "ks": ks, "metric": args.metric,
               "metric_value": metric_value, "count": len(empirical.values)}
    summary = (f"simulate {measure.label}: W1 {w1:.4f}, KS {ks:.4f} "
               f"({args.metric} {'<=' if passed else '>'} {args.max_dist})")
    return results, passed, summary


def cmd_verify_identity(args) -> tuple[dict, bool, str]:
    if not 1 <= args.n_coarse < args.n:  # the fine draws must not precede this error
        raise ValueError(f"--n-coarse must be >= 1 and < --n, got {args.n_coarse}, {args.n}")
    profile = profiles.resolve_profile(args.profile)
    measure = measures.resolve_measure(args.measure)
    try:
        t_values = [float(v) for v in args.t.split(",")]
    except ValueError:
        raise ValueError(f"--t must be comma-separated numbers, got {args.t!r}") from None
    fines = definetti.key_identity_mc(profile, measure, t_values, n=args.n,
                                      reps=args.reps, seed=args.seed)
    coarses = definetti.identity_lhs(profile, t_values, n=args.n_coarse,
                                     reps=args.reps, seed=args.seed)
    per_t = []
    all_pass = True
    for t, fine, (lhs_coarse, _) in zip(t_values, fines, coarses):
        sides_agree = fine.gap <= 3.0 * fine.combined_se
        # A fine estimate within a few ulp of f(t) has converged: at t -> 0 both
        # estimates round to 1 while f(t) = 1 - 2^-53, and neither can improve.
        fine_error = abs(fine.lhs - fine.f_of_t)
        limit_improves = (fine_error < abs(lhs_coarse - fine.f_of_t)
                          or fine_error <= 4.0 * np.finfo(float).eps * abs(fine.f_of_t))
        all_pass = all_pass and sides_agree and limit_improves
        per_t.append({
            "t": t, "lhs": fine.lhs, "rhs": fine.rhs,
            "lhs_se": fine.lhs_se, "rhs_se": fine.rhs_se, "f_of_t": fine.f_of_t,
            "lhs_coarse": lhs_coarse, "n_coarse": args.n_coarse,
            "sides_agree": sides_agree, "limit_improves": limit_improves,
        })
    summary = (f"verify-identity {profile.label} vs {measure.label}: "
               f"{'pass' if all_pass else 'FAIL'} at t={args.t}")
    return {"per_t": per_t}, all_pass, summary


def cmd_consistency(args) -> tuple[dict, bool, str]:
    measure = measures.resolve_measure(args.measure)
    report = measures.marginal_consistency_check(
        measure, args.dim, count=args.count, seed=args.seed, corrupt_scale=args.corrupt_scale)
    results = {
        "ks_first_coordinate": report.ks_first_coordinate,
        "ks_squared_norm": report.ks_squared_norm,
        "critical_value": report.critical_value,
        "alpha": report.alpha,
    }
    summary = (f"consistency {measure.label} (n={args.dim}): "
               f"KS {report.ks_first_coordinate:.4f}/{report.ks_squared_norm:.4f} "
               f"vs crit {report.critical_value:.4f} -> "
               f"{'pass' if report.passed else 'FAIL'}")
    return results, report.passed, summary


def cmd_cm_check(args) -> tuple[dict, bool, str]:
    profile = profiles.resolve_profile(args.profile)
    _check_positive("--u-min", args.u_min)
    if not args.u_min <= args.u_max < np.inf:
        raise ValueError(f"--u-max must be finite and >= --u-min, got {args.u_max!r}")
    _check_positive("--u-step", args.u_step)
    if args.u_min < args.u_max and args.u_step > args.u_max - args.u_min:
        raise ValueError(f"--u-step {args.u_step!r} is wider than --u-max - --u-min")
    _check_positive("--h", args.h)
    u_grid = np.arange(args.u_min, args.u_max + 1e-12, args.u_step)
    report = monotonicity.complete_monotonicity_check(
        profile, max_order=args.max_order, u_grid=u_grid, h=args.h)
    results = {
        "worst_by_order": [{"order": m, "worst": v} for m, v in report.worst_by_order],
        "epsilon": report.epsilon,
        "first_failing_order": report.first_failing_order,
    }
    verdict = "pass" if report.passed else f"FAIL at order {report.first_failing_order}"
    summary = f"cm-check {profile.label} to order {args.max_order}: {verdict}"
    return results, report.passed, summary


@functools.cache  # one parser per process; main looks each handler up per call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="schoenberg-lab",
        description="Certify radial positive definiteness, evaluate and sample "
                    "Gaussian scale mixtures, and recover mixing measures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("certify", help="statistically certify or refute PSD-ness")
    p.add_argument("profile", help="catalog profile id or profile CSV path")
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--trials", type=int, default=2000)
    p.add_argument("--kmax", type=int, default=64)
    p.add_argument("--tol", type=float, default=1e-8)
    _add_seed(p)
    p.add_argument("--threads", type=int, default=1, help="worker threads")

    p = sub.add_parser("decompose", help="recover the mixing measure from a profile")
    p.add_argument("profile", help="catalog profile id or samples CSV (header t,f)")
    p.add_argument("--t-max", type=float, help="catalog profile only (default 4.0)")
    p.add_argument("--t-points", type=int, help="catalog profile only (default 41)")
    p.add_argument("--s-min", type=float, default=1e-3)
    p.add_argument("--s-max", type=float, default=1e3)
    p.add_argument("--s-points", type=int, default=241)
    p.add_argument("--ridge", type=float, default=0.0)
    p.add_argument("--residual-threshold", type=float, default=1e-3,
                   help="exit 2 when the fit residual exceeds this")
    p.add_argument("--out", default=None, help="write the measure JSON here")

    p = sub.add_parser("simulate", help="estimate the mixing measure by simulation")
    p.add_argument("measure", help="measure JSON path or shorthand (delta:1, exp:1, levy:1)")
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--reps", type=int, default=10_000)
    p.add_argument("--metric", choices=("w1", "ks"), default="w1")
    p.add_argument("--max-dist", type=float, default=0.05)
    p.add_argument("--out", default=None, help="write the L-statistic CSV here")
    p.add_argument("--out-measure", default=None,
                   help="write the equal-mass binned measure JSON here")
    p.add_argument("--bins", type=int, default=64,
                   help="bin count for --out-measure")
    _add_seed(p)

    p = sub.add_parser("verify-identity", help="two-sided Monte Carlo identity check")
    p.add_argument("profile")
    p.add_argument("measure")
    p.add_argument("--t", default="0.5,1,2", help="comma-separated scales")
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--n-coarse", type=int, default=10)
    p.add_argument("--reps", type=int, default=100_000)
    _add_seed(p)

    p = sub.add_parser("consistency", help="marginal-consistency KS check")
    p.add_argument("measure")
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--count", type=int, default=10_000)
    p.add_argument("--corrupt-scale", type=float, default=1.0,
                   help="negative control: rescale the higher-dimensional sample "
                        "by this finite factor > 0")
    _add_seed(p)

    p = sub.add_parser("cm-check", help="complete-monotonicity difference test")
    p.add_argument("profile")
    p.add_argument("--max-order", type=int, default=8)
    p.add_argument("--u-min", type=float, default=0.1)
    p.add_argument("--u-max", type=float, default=4.0)
    p.add_argument("--u-step", type=float, default=0.05)
    p.add_argument("--h", type=float, default=0.1)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses its own exit codes
        return EXIT_ERROR if exc.code not in (0, None) else 0
    started = time.monotonic()
    try:
        handler = globals()["cmd_" + args.command.replace("-", "_")]
        results, passed, summary = handler(args)  # may resolve options in args
        config = {k: v for k, v in vars(args).items() if k != "command"}
        emit_report(args.command, config, results, passed, started)
        print(summary, file=sys.stderr)
        return EXIT_PASS if passed else EXIT_FAIL
    except (ValueError, KeyError, OSError, RuntimeError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
