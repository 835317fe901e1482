"""Command-line front end.

Subcommands:
  profile              build a traveling-wave profile, print diagnostics,
                       optionally export it (with weight columns) to CSV
  simulate             run a perturbed evolution with the shift controller,
                       write trace CSV / summary JSON
  verify-inequalities  run the standalone inequality certifications
  sweep                run a batch of simulate jobs over parameter overrides
  audit                check the recorded entropy rate against its budget
                       identity at two resolutions

Every subcommand exits 0 only if all checks it enables pass, and 1 if one
fails.  A config file or --set value that cannot be loaded (unknown key,
wrong type, value out of range, unreadable file), or whose perturbation
drives v below v_plus/2, is reported as one "error: ..." line on stderr
with exit code 2; an output path that names a directory, or whose
directory does not exist, is refused by the argument parser with exit code 2 before
any set-up.  A run that fails on the way (the march's positivity
guard, a non-finite state, the step-count limit) is reported as one
"error: run failed: ..." line on stderr with exit code 3; sweep reports
such a point on its own line, runs the remaining points, and then exits 3.
"""

import argparse
import json
import os
import random
import sys
import time

import numpy as np

from . import inequalities as ineq
from .config import _parse_scalar, apply_overrides, parse_config_text
from .experiment import (ConfigError, ExperimentConfig, build_setup, identity_audit,
                         run_experiment, sweep, write_summary_json, write_trace_csv)
from .gas import GasModel
from .profile import solve_profile, tail_decay_report, write_profile_csv
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


def _refinement(text):
    """A refinement factor of the audit: at 1 the fine level is the coarse
    one, and the ratio of their mismatches says nothing."""
    value = int(text)
    if value < 2:
        raise argparse.ArgumentTypeError(f"must be >= 2, got {value}")
    return value


def _nonnegative_int(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _output_path(text):
    """A path the run can write to: no directory, in a directory that exists."""
    path = os.path.abspath(text)
    if text.endswith(os.sep) or os.path.isdir(path):
        raise argparse.ArgumentTypeError(f"{text!r} names a directory")
    if not os.path.isdir(os.path.dirname(path)):
        raise argparse.ArgumentTypeError(f"no directory to write {text!r} in")
    return text


def _add_config_args(p):
    p.add_argument("--config", help="key = value config file")
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override a config key (repeatable)")


#: the most the profile's ODE residual may be, relative to eps.  The residual
#: is the interpolant's error, so it scales with the amplitude: over 3,234
#: profiles spanning the supported gamma and eps and span_over_eps 1 to 1000,
#: residual/eps is 1.8e-13 at the defaults, at most 1.3e-9 for gamma <= 1e4,
#: and at most 1.0e-7 (gamma 1e6, eps = 1e-3, 101 knots); the bound is 10x that
PROFILE_RESIDUAL_TOL = 1e-6


#: the most the Rankine-Hugoniot residuals may be, relative to the jump
#: |u_plus| = eps/|sigma| that sets the size of their terms.  The worst ratio
#: is 9.1e-11 over 200,000 random end states of the supported range, at
#: gamma near 1e6; the bound is 10x that
JUMP_RESIDUAL_TOL = 1e-9


def _jump_conditions_ok(rh, u_plus):
    """Both Rankine-Hugoniot residuals rh within JUMP_RESIDUAL_TOL * |u_plus|."""
    return max(abs(rh[0]), abs(rh[1])) <= JUMP_RESIDUAL_TOL * abs(u_plus)


def _profile_ok(profile, rh, resid):
    """The verdict on a profile, from its Rankine-Hugoniot residuals rh and its
    ODE residual resid: the jump conditions (`_jump_conditions_ok`), resid
    within PROFILE_RESIDUAL_TOL * eps, and monotone knots."""
    return (_jump_conditions_ok(rh, profile.states.u_plus) and profile.monotone()
            and resid <= PROFILE_RESIDUAL_TOL * profile.states.eps)


def cmd_profile(args):
    cfg = _config_from_args(args, check=ExperimentConfig.validate_profile)
    gas = GasModel(cfg.gamma)
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
    ok = _profile_ok(profile, rh, resid)
    print("profile check:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


#: the verdicts: the most the weighted entropy of a run may grow, the largest
#: relative mismatch of the coarse audit level, and the random polynomials
#: of the Poincare slack check
ENTROPY_GROWTH_TOL = 1e-8
AUDIT_MISMATCH_TOL = 0.01
POINCARE_TRIALS = 200

#: the band that the audit's refinement ratio divided by r^2 must lie in: the
#: mismatch is a second-order space error, so a level r times finer divides
#: it by about r^2.  Over 45 perturbed runs (13 configs at r = 2, 3 and 4,
#: and six more up to r = 6) ratio/r^2 lies in [0.925, 1.052]; the band is a
#: factor 1.25 either side of 1, about three times the widest of those
#: deviations
AUDIT_RATIO_BAND = (0.8, 1.25)


def _run_ok(summary):
    """The verdict on one run: the weighted entropy did not grow by more than
    ENTROPY_GROWTH_TOL, and the shift rate stayed inside its bound."""
    return (summary["entropy_final"] <= summary["entropy_initial"] + ENTROPY_GROWTH_TOL
            and summary["max_shift_bound_ratio"] <= 1.0 + 1e-12)


def _audit_ok(report, r):
    """The verdict on an audit at refinement r: the coarse level's largest
    mismatch within AUDIT_MISMATCH_TOL, and ratio_max / r^2 inside
    AUDIT_RATIO_BAND."""
    lo, hi = AUDIT_RATIO_BAND
    return (report["levels"][0]["max_rel"] <= AUDIT_MISMATCH_TOL
            and lo <= report["ratio_max"] / r ** 2 <= hi)


def cmd_simulate(args):
    cfg = _config_from_args(args)
    setup = build_setup(cfg)
    trace, _, summary = run_experiment(setup)
    if args.trace:
        write_trace_csv(trace, args.trace)
        print(f"wrote {args.trace}")
    if args.summary:
        write_summary_json(summary, args.summary)
        print(f"wrote {args.summary}")
    print(f"entropy: initial {summary['entropy_initial']:.9g} -> "
          f"final {summary['entropy_final']:.9g}")
    print(f"max record-to-record increment: {summary['max_record_increment']:.3e}")
    print(f"max |X|: {summary['max_abs_X']:.3e}  "
          f"shift-bound ratio: {summary['max_shift_bound_ratio']:.6f}")
    ok = _run_ok(summary)
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
    rng = random.Random(args.seed)
    coeffs = np.zeros((POINCARE_TRIALS, 9))
    for row in coeffs:
        deg = rng.randint(1, 8)
        row[:deg + 1] = [rng.gauss(0.0, 1.0) for _ in range(deg + 1)]
    worst_poly = float(np.min(ineq.poincare_slack_from_poly(coeffs)))
    checks.append(("Poincare slack over random polynomials",
                   worst_poly >= -1e-12, f"min slack = {worst_poly:.3e}",
                   f"{POINCARE_TRIALS} polynomials",
                   time.perf_counter() - t0))

    rep_g = ineq.certify_g_negative()
    checks.append((rep_g.target, rep_g.certified,
                   f"worst = {rep_g.worst_value:.6g}, margin = {rep_g.margin:.3e}",
                   f"{rep_g.details['grid_points']} grid points",
                   rep_g.runtime_s))

    rep_p = ineq.certify_prop_algebra()
    checks.append((rep_p.target, rep_p.certified,
                   f"worst = {rep_p.worst_value:.3e}",
                   f"{rep_p.details['grid_points']} grid points, "
                   f"{rep_p.details['evaluated_points']} evaluated, "
                   f"{rep_p.details['admissible_points']} in the band",
                   rep_p.runtime_s))

    rep_r = ineq.maximize_r_delta(seed=args.seed)
    checks.append((rep_r.target, rep_r.certified,
                   f"max found = {rep_r.worst_value:.3e}",
                   f"{rep_r.details['nfev']} batched calls over "
                   f"{rep_r.details['rows']} rows, {rep_r.details['nit']} iterations",
                   rep_r.runtime_s))

    all_ok = True
    for name, ok, detail, work, runtime_s in checks:
        all_ok &= ok
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail} "
              f"({work}, {runtime_s:.3f} s)")
    return 0 if all_ok else 1


def cmd_sweep(args):
    points = [_config_from_args(args, {args.key: _parse_scalar(v)})
              for v in args.values.split(",")]
    rows = []
    ok = True
    failed = False
    for point, result in zip(points, sweep(points)):
        ov = {args.key: getattr(point, args.key)}
        if "error" in result:
            rows.append({"overrides": ov, "error": result["error"]})
            failed = True
            print(f"{args.key} = {ov[args.key]}: run failed: {result['error']}")
            continue
        rows.append({"overrides": ov, "summary": result})
        ok &= _run_ok(result)
        print(f"{args.key} = {ov[args.key]}: entropy "
              f"{result['entropy_initial']:.6g} -> {result['entropy_final']:.6g}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(rows, fh, indent=2)
        print(f"wrote {args.out}")
    print("sweep check:", "PASS" if ok and not failed else "FAIL")
    return 3 if failed else 0 if ok else 1


def cmd_audit(args):
    report = identity_audit(_config_from_args(args), refinements=(1, args.refine))
    for name, level in zip(("coarse:", "fine:  "), report["levels"]):
        print(f"{name} max rel mismatch {level['max_rel']:.3e} (median {level['median_rel']:.3e})")
    print(f"refinement ratio: max {report['ratio_max']:.2f}, "
          f"median {report['ratio_median']:.2f}")
    ok = _audit_ok(report, args.refine)
    print("audit check:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


def build_parser():
    p = argparse.ArgumentParser(prog="shocklab", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("profile", help="build and check a wave profile")
    _add_config_args(sp)
    sp.add_argument("--out", type=_output_path, help="CSV output path")
    sp.add_argument("--with-weight", action="store_true",
                    help="append weight columns to the CSV")
    sp.set_defaults(func=cmd_profile)

    sp = sub.add_parser("simulate", help="run a perturbed evolution")
    _add_config_args(sp)
    sp.add_argument("--trace", type=_output_path, help="trace CSV output path")
    sp.add_argument("--summary", type=_output_path, help="summary JSON output path")
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("verify-inequalities",
                        help="certify the standalone inequalities")
    sp.add_argument("--seed", type=_nonnegative_int, default=20240817)
    sp.set_defaults(func=cmd_verify_inequalities)

    sp = sub.add_parser("sweep", help="batch of runs over one config key")
    _add_config_args(sp)
    sp.add_argument("key", help="config key to vary")
    sp.add_argument("values", help="comma-separated values")
    sp.add_argument("--out", type=_output_path, help="JSON output path")
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("audit", help="entropy-rate identity audit")
    _add_config_args(sp)
    sp.add_argument("--refine", type=_refinement, default=2,
                    help="grid refinement factor for the fine level (at least 2)")
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
