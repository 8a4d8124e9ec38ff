"""Command-line front end.

Each subcommand wraps one library operation, prints a single JSON report to
stdout and a short human summary to stderr, and exits with:

* 0 - pass / certified,
* 2 - refuted or failed check,
* 1 - usage or runtime error.

Randomized commands default to the documented seed 1938 unless ``--ci`` is
given, in which case ``--seed`` must be passed explicitly. ``--threads``
falls back to the SCHOENBERG_LAB_THREADS environment variable, then to one
thread: certify's trials are small LAPACK calls plus Python that the
interpreter lock serialises, so extra threads make it slower. Results are
independent of the thread count. Every report records ``stream_version``,
the version of the seeded random streams that produced it.
"""

from __future__ import annotations

import argparse
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


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj


def emit_report(command: str, config: dict, results: dict, passed: bool | None,
                started: float) -> None:
    report = {
        "command": command,
        "stream_version": STREAM_VERSION,
        "config": _jsonable(config),
        "results": _jsonable(results),
        "pass": passed,
        "wall_time_ms": int((time.monotonic() - started) * 1000),
    }
    json.dump(report, sys.stdout)
    sys.stdout.write("\n")


def _resolve_seed(args) -> int:
    if args.seed is None:
        if args.ci:
            raise SystemExit("--seed is required in --ci mode")
        return DEFAULT_SEED
    return args.seed


def _resolve_threads(args) -> int:
    if args.threads is not None:
        return max(1, args.threads)
    env = os.environ.get("SCHOENBERG_LAB_THREADS")
    if env:
        return max(1, int(env))
    return 1


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=None,
                        help=f"RNG seed (default {DEFAULT_SEED}; required with --ci)")
    parser.add_argument("--ci", action="store_true",
                        help="require an explicit --seed")
    parser.add_argument("--threads", type=int, default=None,
                        help="worker threads (default: SCHOENBERG_LAB_THREADS or 1)")


def cmd_certify(args) -> int:
    started = time.monotonic()
    profile = profiles.resolve_profile(args.profile)
    seed = _resolve_seed(args)
    threads = _resolve_threads(args)
    report = psd.certify_psd(profile, dim=args.dim, trials=args.trials,
                             k_max=args.kmax, tol=args.tol, seed=seed,
                             threads=threads)
    results = {
        "verdict": report.verdict,
        "min_eigenvalue": report.min_eigenvalue,
        "trials_run": report.trials_run,
        "trials_skipped": report.trials_skipped,
        "tolerance": report.tolerance,
    }
    if report.refuted:
        coeffs, value = report.witness
        results["witness"] = {
            "points": report.point_set.points,
            "coefficients": coeffs,
            "quadratic_form": value,
        }
    config = {"profile": args.profile, "dim": args.dim, "trials": args.trials,
              "kmax": args.kmax, "tol": args.tol, "seed": seed, "threads": threads}
    emit_report("certify", config, results, report.certified, started)
    print(f"certify {profile.label} in R^{args.dim}: {report.verdict} "
          f"(min eigenvalue {report.min_eigenvalue:.3e}, {report.trials_run} trials)",
          file=sys.stderr)
    return EXIT_PASS if report.certified else EXIT_FAIL


def cmd_decompose(args) -> int:
    started = time.monotonic()
    s_grid = np.logspace(np.log10(args.s_min), np.log10(args.s_max), args.s_points)
    if os.path.exists(args.profile):
        problem = recover.RecoveryProblem.from_csv(
            args.profile, s_grid=s_grid,
            normalize_mass=not args.no_normalize, ridge=args.ridge)
    else:
        profile = profiles.resolve_profile(args.profile)
        t_grid = np.linspace(0.0, args.t_max, args.t_points)
        problem = recover.RecoveryProblem(
            t_grid, profile(t_grid), s_grid,
            normalize_mass=not args.no_normalize, ridge=args.ridge)
    result = recover.recover_mixing(problem)
    if args.out:
        result.measure.save(args.out)
    passed = result.residual_norm <= args.residual_threshold
    results = {
        "measure": result.measure.to_dict(),
        "diagnostics": {
            "residual_norm": result.residual_norm,
            "mass_deficit": result.mass_deficit,
        },
    }
    config = {"profile": args.profile, "t_max": args.t_max, "t_points": args.t_points,
              "s_min": args.s_min, "s_max": args.s_max, "s_points": args.s_points,
              "ridge": args.ridge, "normalize_mass": not args.no_normalize,
              "residual_threshold": args.residual_threshold, "out": args.out}
    emit_report("decompose", config, results, passed, started)
    print(f"decompose {args.profile}: residual {result.residual_norm:.3e} "
          f"({len(result.measure.scales)} atoms, "
          f"{'fit ok' if passed else 'residual above threshold'})", file=sys.stderr)
    return EXIT_PASS if passed else EXIT_FAIL


def cmd_simulate(args) -> int:
    started = time.monotonic()
    measure = measures.resolve_measure(args.measure, renormalize=args.renormalize)
    seed = _resolve_seed(args)
    empirical = definetti.estimate_mixing(measure, n=args.n, reps=args.reps, seed=seed)
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
    config = {"measure": args.measure, "n": args.n, "reps": args.reps,
              "seed": seed, "metric": args.metric, "max_dist": args.max_dist,
              "out": args.out, "out_measure": args.out_measure, "bins": args.bins,
              "renormalize": args.renormalize}
    emit_report("simulate", config, results, passed, started)
    print(f"simulate {measure.label}: W1 {w1:.4f}, KS {ks:.4f} "
          f"({args.metric} {'<=' if passed else '>'} {args.max_dist})", file=sys.stderr)
    return EXIT_PASS if passed else EXIT_FAIL


def cmd_verify_identity(args) -> int:
    started = time.monotonic()
    profile = profiles.resolve_profile(args.profile)
    measure = measures.resolve_measure(args.measure, renormalize=args.renormalize)
    seed = _resolve_seed(args)
    t_values = [float(v) for v in args.t.split(",")]
    per_t = []
    all_pass = True
    for idx, t in enumerate(t_values):
        coarse = definetti.key_identity_mc(profile, measure, t, n=args.n_coarse,
                                           reps=args.reps, seed=seed + idx)
        fine = definetti.key_identity_mc(profile, measure, t, n=args.n,
                                         reps=args.reps, seed=seed + idx)
        sides_agree = fine.gap <= 3.0 * fine.combined_se
        limit_improves = abs(fine.lhs - fine.f_of_t) < abs(coarse.lhs - coarse.f_of_t)
        all_pass = all_pass and sides_agree and limit_improves
        per_t.append({
            "t": t, "lhs": fine.lhs, "rhs": fine.rhs,
            "lhs_se": fine.lhs_se, "rhs_se": fine.rhs_se, "f_of_t": fine.f_of_t,
            "lhs_coarse": coarse.lhs, "n_coarse": args.n_coarse,
            "sides_agree": sides_agree, "limit_improves": limit_improves,
        })
    config = {"profile": args.profile, "measure": args.measure, "t": args.t,
              "n": args.n, "n_coarse": args.n_coarse, "reps": args.reps,
              "seed": seed, "renormalize": args.renormalize}
    emit_report("verify-identity", config, {"per_t": per_t}, all_pass, started)
    print(f"verify-identity {profile.label} vs {measure.label}: "
          f"{'pass' if all_pass else 'FAIL'} at t={args.t}", file=sys.stderr)
    return EXIT_PASS if all_pass else EXIT_FAIL


def cmd_consistency(args) -> int:
    started = time.monotonic()
    measure = measures.resolve_measure(args.measure, renormalize=args.renormalize)
    seed = _resolve_seed(args)
    mixture = measures.GaussianScaleMixture(measure, args.dim)
    report = measures.marginal_consistency_check(
        mixture, count=args.count, seed=seed, corrupt_scale=args.corrupt_scale)
    results = {
        "ks_first_coordinate": report.ks_first_coordinate,
        "ks_squared_norm": report.ks_squared_norm,
        "critical_value": report.critical_value,
        "alpha": report.alpha,
    }
    config = {"measure": args.measure, "dim": args.dim, "count": args.count,
              "seed": seed, "corrupt_scale": args.corrupt_scale,
              "renormalize": args.renormalize}
    emit_report("consistency", config, results, report.passed, started)
    print(f"consistency {measure.label} (n={args.dim}): "
          f"KS {report.ks_first_coordinate:.4f}/{report.ks_squared_norm:.4f} "
          f"vs crit {report.critical_value:.4f} -> "
          f"{'pass' if report.passed else 'FAIL'}", file=sys.stderr)
    return EXIT_PASS if report.passed else EXIT_FAIL


def cmd_cm_check(args) -> int:
    started = time.monotonic()
    profile = profiles.resolve_profile(args.profile)
    if not args.u_step > 0:  # also rejects nan
        raise ValueError("--u-step must be positive")
    u_grid = np.arange(args.u_min, args.u_max + 1e-12, args.u_step)
    report = monotonicity.complete_monotonicity_check(
        profile, max_order=args.max_order, u_grid=u_grid, h=args.h)
    results = {
        "worst_by_order": [{"order": m, "worst": v} for m, v in report.worst_by_order],
        "epsilon": report.epsilon,
        "first_failing_order": report.first_failing_order,
    }
    config = {"profile": args.profile, "max_order": args.max_order,
              "u_min": args.u_min, "u_max": args.u_max, "u_step": args.u_step,
              "h": args.h}
    emit_report("cm-check", config, results, report.passed, started)
    verdict = "pass" if report.passed else f"FAIL at order {report.first_failing_order}"
    print(f"cm-check {profile.label} to order {args.max_order}: {verdict}",
          file=sys.stderr)
    return EXIT_PASS if report.passed else EXIT_FAIL


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
    _add_common(p)
    p.set_defaults(fn=cmd_certify)

    p = sub.add_parser("decompose", help="recover the mixing measure from a profile")
    p.add_argument("profile", help="catalog profile id or samples CSV (header t,f)")
    p.add_argument("--t-max", type=float, default=4.0)
    p.add_argument("--t-points", type=int, default=41)
    p.add_argument("--s-min", type=float, default=1e-3)
    p.add_argument("--s-max", type=float, default=1e3)
    p.add_argument("--s-points", type=int, default=241)
    p.add_argument("--ridge", type=float, default=0.0)
    p.add_argument("--no-normalize", action="store_true",
                   help="drop the unit-mass penalty row from the solve")
    p.add_argument("--residual-threshold", type=float, default=1e-3,
                   help="exit 2 when the fit residual exceeds this")
    p.add_argument("--out", default=None, help="write the measure JSON here")
    _add_common(p)
    p.set_defaults(fn=cmd_decompose)

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
    p.add_argument("--renormalize", action="store_true",
                   help="accept non-normalized measure JSON and rescale")
    _add_common(p)
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("verify-identity", help="two-sided Monte Carlo identity check")
    p.add_argument("profile")
    p.add_argument("measure")
    p.add_argument("--t", default="0.5,1,2", help="comma-separated scales")
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--n-coarse", type=int, default=10)
    p.add_argument("--reps", type=int, default=100_000)
    p.add_argument("--renormalize", action="store_true",
                   help="accept non-normalized measure JSON and rescale")
    _add_common(p)
    p.set_defaults(fn=cmd_verify_identity)

    p = sub.add_parser("consistency", help="marginal-consistency KS check")
    p.add_argument("measure")
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--count", type=int, default=10_000)
    p.add_argument("--corrupt-scale", type=float, default=1.0,
                   help="negative control: rescale the higher-dimensional sample")
    p.add_argument("--renormalize", action="store_true",
                   help="accept non-normalized measure JSON and rescale")
    _add_common(p)
    p.set_defaults(fn=cmd_consistency)

    p = sub.add_parser("cm-check", help="complete-monotonicity difference test")
    p.add_argument("profile")
    p.add_argument("--max-order", type=int, default=8)
    p.add_argument("--u-min", type=float, default=0.1)
    p.add_argument("--u-max", type=float, default=4.0)
    p.add_argument("--u-step", type=float, default=0.05)
    p.add_argument("--h", type=float, default=0.1)
    _add_common(p)
    p.set_defaults(fn=cmd_cm_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses its own exit codes
        return EXIT_ERROR if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except SystemExit as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except (ValueError, KeyError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
