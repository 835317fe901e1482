"""Command-line front end.

Subcommands:
  profile              build a traveling-wave profile, print diagnostics,
                       optionally export it (with weight columns) to CSV
  simulate             run a perturbed evolution with the shift controller,
                       write trace CSV / summary JSON / checkpoint
  verify-inequalities  run the standalone inequality certifications
  sweep                run a batch of simulate jobs over parameter overrides
  audit                check the recorded entropy rate against its budget
                       identity at two resolutions

Every subcommand exits 0 only if all checks it enables pass, and 1 if one
fails.  A config file or --set value that cannot be loaded (unknown key,
wrong type, value out of range, unreadable file), or whose perturbation
drives v below v_plus/2, is reported as one "error: ..." line on stderr
with exit code 2.  A run that fails on the way (the march's positivity
guard, a non-finite state, the step-count limit) is reported as one
"error: run failed: ..." line on stderr with exit code 3; sweep reports
such a point on its own line, runs the remaining points, and then exits 3.
"""

import argparse
import json
import sys
import time

import numpy as np

from . import inequalities as ineq
from .config import _parse_scalar, apply_overrides, parse_config_text
from .experiment import (ConfigError, ExperimentConfig, build_setup,
                         identity_audit, run_experiment, sweep,
                         write_summary_json, write_trace_csv)
from .gas import GasModel
from .profile import solve_profile, tail_decay_report, write_profile_csv
from .solver import write_checkpoint
from .weight import build_weight


def _config_from_args(args, extra=None, check=ExperimentConfig.validate):
    """The config file, the --set items and `extra` over the defaults, checked once."""
    try:
        updates = {}
        if getattr(args, "config", None):
            with open(args.config, "r", encoding="utf-8") as fh:
                updates = parse_config_text(fh.read())
        for item in getattr(args, "set", None) or []:
            updates.update(parse_config_text(item))
        return apply_overrides(ExperimentConfig(), {**updates, **(extra or {})}, check)
    except (KeyError, ValueError, OSError) as exc:
        raise ConfigError(exc.args[0] if isinstance(exc, KeyError) else exc) from exc


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _nonnegative_int(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _add_config_args(p):
    p.add_argument("--config", help="key = value config file")
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override a config key (repeatable)")


def cmd_profile(args):
    cfg = _config_from_args(args, check=ExperimentConfig.validate_profile)
    gas = GasModel(gamma=cfg.gamma, v_minus=cfg.v_minus, u_minus=cfg.u_minus)
    profile = solve_profile(gas, cfg.eps, span_over_eps=cfg.span_over_eps)
    states = profile.states
    rh = states.rankine_hugoniot_residuals()
    resid = profile.ode_residual_sup()
    rates = tail_decay_report(profile)
    print(f"end states: v+ = {states.v_plus:.12g}  u+ = {states.u_plus:.12g}  "
          f"sigma = {states.sigma:.12g}")
    print(f"jump-condition residuals: {rh[0]:.3e} {rh[1]:.3e}")
    print(f"profile ODE residual (sup): {resid:.3e}")
    print(f"tail rates fit/linearized: +side {rates['rate_plus_fit']:.5g}/"
          f"{rates['rate_plus_lin']:.5g}  -side {rates['rate_minus_fit']:.5g}/"
          f"{rates['rate_minus_lin']:.5g}")
    if args.out:
        weight = build_weight(profile, cfg.lam) if args.with_weight else None
        write_profile_csv(profile, args.out, weight=weight)
        print(f"wrote {args.out}")
    ok = max(abs(rh[0]), abs(rh[1])) < 1e-10 and resid < 1e-8 and profile.monotone()
    print("profile check:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


def _run_ok(summary, tol):
    """The verdict on one run: the weighted entropy did not grow by more than
    tol, and the shift rate stayed inside its bound."""
    return (summary["entropy_final"] <= summary["entropy_initial"] + tol
            and summary["max_shift_bound_ratio"] <= 1.0 + 1e-12)


def cmd_simulate(args):
    cfg = _config_from_args(args)
    setup = build_setup(cfg)
    trace, (state, shift), summary = run_experiment(setup)
    if args.trace:
        write_trace_csv(trace, args.trace)
        print(f"wrote {args.trace}")
    if args.summary:
        write_summary_json(summary, args.summary)
        print(f"wrote {args.summary}")
    if args.checkpoint:
        write_checkpoint(args.checkpoint, state.t, shift, state.v, state.h)
        print(f"wrote {args.checkpoint}")
    print(f"entropy: initial {summary['entropy_initial']:.9g} -> "
          f"final {summary['entropy_final']:.9g}")
    print(f"max record-to-record increment: {summary['max_record_increment']:.3e}")
    print(f"max |X|: {summary['max_abs_X']:.3e}  "
          f"shift-bound ratio: {summary['max_shift_bound_ratio']:.6f}")
    ok = _run_ok(summary, args.tol)
    print("simulate check:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


def cmd_verify_inequalities(args):
    checks = []
    t0 = time.perf_counter()
    t2 = ineq.theta_squared_quadrature()
    theta_err = abs(t2 - (5.0 - np.pi ** 2 / 3.0))
    checks.append(("theta quadrature vs closed form", theta_err < 1e-8,
                   f"|error| = {theta_err:.3e}", "1 quadrature",
                   time.perf_counter() - t0))

    t0 = time.perf_counter()
    rng = np.random.default_rng(args.seed)
    worst_poly = np.inf
    for _ in range(args.poincare_trials):
        deg = rng.integers(1, 9)
        c = rng.standard_normal(deg + 1)
        worst_poly = min(worst_poly, ineq.poincare_slack_from_poly(c))
    checks.append(("Poincare slack over random polynomials",
                   worst_poly >= -1e-12, f"min slack = {worst_poly:.3e}",
                   f"{args.poincare_trials} polynomials",
                   time.perf_counter() - t0))

    step = 1e-4 if args.fast else 1e-5
    rep_g = ineq.certify_g_negative(step=step)
    checks.append((rep_g.target, rep_g.certified,
                   f"worst = {rep_g.worst_value:.6g}, margin = {rep_g.margin:.3e}",
                   f"{rep_g.details['grid_points']} grid points",
                   rep_g.runtime_s))

    pstep = 5e-3 if args.fast else 1e-3
    rep_p = ineq.certify_prop_algebra(step=pstep)
    checks.append((rep_p.target, rep_p.certified,
                   f"worst = {rep_p.worst_value:.3e}",
                   f"{rep_p.details['grid_points']} grid points, "
                   f"{rep_p.details['admissible_points']} in the band",
                   rep_p.runtime_s))

    n_starts = 30 if args.fast else 200
    rep_r = ineq.maximize_r_delta(n_starts=n_starts, seed=args.seed)
    checks.append((rep_r.target, rep_r.certified,
                   f"max found = {rep_r.worst_value:.3e}",
                   f"{rep_r.details['nfev']} objective calls, "
                   f"{rep_r.details['nit']} iterations",
                   rep_r.runtime_s))

    all_ok = True
    for name, ok, detail, work, runtime_s in checks:
        all_ok &= ok
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail} "
              f"({work}, {runtime_s:.3f} s)")
    return 0 if all_ok else 1


def cmd_sweep(args):
    cfg = _config_from_args(args)
    points = [_config_from_args(args, {args.key: _parse_scalar(v)})
              for v in args.values.split(",")]
    overrides = [{args.key: getattr(point, args.key)} for point in points]
    results = sweep(cfg, overrides)
    rows = []
    ok = True
    failed = False
    for ov, result in zip(overrides, results):
        if "error" in result:
            rows.append({"overrides": ov, "error": result["error"]})
            failed = True
            print(f"{args.key} = {ov[args.key]}: run failed: {result['error']}")
            continue
        rows.append({"overrides": ov, "summary": result})
        ok &= _run_ok(result, args.tol)
        print(f"{args.key} = {ov[args.key]}: entropy "
              f"{result['entropy_initial']:.6g} -> {result['entropy_final']:.6g}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(rows, fh, indent=2)
        print(f"wrote {args.out}")
    print("sweep check:", "PASS" if ok and not failed else "FAIL")
    return 3 if failed else 0 if ok else 1


def cmd_audit(args):
    cfg = _config_from_args(args)
    report = identity_audit(cfg, refinements=(1, args.refine))
    base = report["levels"][0]
    fine = report["levels"][1]
    print(f"coarse: max rel mismatch {base['max_rel']:.3e} "
          f"(median {base['median_rel']:.3e})")
    print(f"fine:   max rel mismatch {fine['max_rel']:.3e} "
          f"(median {fine['median_rel']:.3e})")
    print(f"refinement ratio: max {report['ratio_max']:.2f}, "
          f"median {report['ratio_median']:.2f}")
    ok = base["max_rel"] <= args.tol
    print("audit check:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


def build_parser():
    p = argparse.ArgumentParser(prog="shocklab", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("profile", help="build and check a wave profile")
    _add_config_args(sp)
    sp.add_argument("--out", help="CSV output path")
    sp.add_argument("--with-weight", action="store_true",
                    help="append weight columns to the CSV")
    sp.set_defaults(func=cmd_profile)

    sp = sub.add_parser("simulate", help="run a perturbed evolution")
    _add_config_args(sp)
    sp.add_argument("--trace", help="trace CSV output path")
    sp.add_argument("--summary", help="summary JSON output path")
    sp.add_argument("--checkpoint", help="binary checkpoint output path")
    sp.add_argument("--tol", type=float, default=1e-8,
                    help="entropy-increase tolerance for the pass/fail check")
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("verify-inequalities",
                        help="certify the standalone inequalities")
    sp.add_argument("--fast", action="store_true",
                    help="coarser grids / fewer starts for a quick look")
    sp.add_argument("--seed", type=_nonnegative_int, default=20240817)
    sp.add_argument("--poincare-trials", type=_positive_int, default=200)
    sp.set_defaults(func=cmd_verify_inequalities)

    sp = sub.add_parser("sweep", help="batch of runs over one config key")
    _add_config_args(sp)
    sp.add_argument("key", help="config key to vary")
    sp.add_argument("values", help="comma-separated values")
    sp.add_argument("--out", help="JSON output path")
    sp.add_argument("--tol", type=float, default=1e-8)
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("audit", help="entropy-rate identity audit")
    _add_config_args(sp)
    sp.add_argument("--refine", type=_positive_int, default=2,
                    help="grid refinement factor for the fine level")
    sp.add_argument("--tol", type=float, default=0.01,
                    help="max allowed relative mismatch at the coarse level")
    sp.set_defaults(func=cmd_audit)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"error: run failed: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
