"""Per-layer metrics of one traced run, named by shocklab module.

``install_observers`` registers what the metrics need beyond span times: the
step size and state minima of each coupled RK4 step, the optimizer results,
and the accuracy numbers the run produced.  ``layer_metrics`` turns the spans
and observations into the flat ``{name: (value, unit)}`` map the benchmark
reports; the names and units here are the ones listed in BENCHMARK.json.
"""

import statistics

import numpy as np

GAS_CLOSURES = frozenset(f"gas.GasModel.{m}" for m in (
    "pressure", "dpressure", "q_relative", "p_relative", "pressure_inverse"))
STEP = "experiment.coupled_rk4_step"
QUICK_YB = "functionals.quick_yb"
WEIGHT_FRAME = "weight.WeightFn.frame"


def _step_observer(args, kwargs, result):
    setup, v, dt = args[0], args[1], args[4]
    cfg = setup.config
    return {
        "dt": float(dt),
        "vmin": float(np.min(v)),
        "accepted": bool(np.min(result[0]) > cfg.v_floor_frac * setup.profile.states.v_plus),
        "gamma": setup.gas.gamma,
        "sigma": setup.sigma,
        "dx": setup.grid.dx,
        "safety": cfg.cfl_safety,
    }


def install_observers(tracer):
    tracer.observe(STEP, _step_observer)
    tracer.observe("inequalities.minimize", lambda a, k, res: (int(res.nfev), int(res.nit)))
    tracer.observe("experiment.identity_audit", lambda a, k, rep: rep)
    tracer.observe("experiment.summarize_trace", lambda a, k, s: s["max_abs_X"])


def _binding_limit(step):
    """Which limit set dt: 'parabolic', 'advective' or 'cadence'.

    Recomputes stable_dt's two limits from p'(min v), sigma and dx; a step
    shorter than both was clipped to land on a record or on t_end.
    """
    g = step["gamma"]
    dp_max = g * step["vmin"] ** (-g - 1.0)
    advective = step["safety"] * step["dx"] / (abs(step["sigma"]) + np.sqrt(dp_max))
    parabolic = step["safety"] * step["dx"] ** 2 / (2.0 * dp_max)
    if step["dt"] < min(advective, parabolic) * (1.0 - 1e-9):
        return "cadence"
    return "parabolic" if parabolic <= advective else "advective"


def layer_metrics(tracer, count, import_s):
    """Per-layer metrics from the first `count` spans of a traced run."""
    names, parents = tracer.names, tracer.parents
    table = tracer.span_table(count)

    def calls(name):
        return table.get(name, (0, 0.0, 0.0))[0]

    def incl(name):
        return table.get(name, (0, 0.0, 0.0))[1]

    def self_s(name):
        return table.get(name, (0, 0.0, 0.0))[2]

    # one forward pass: a parent always precedes its children
    in_gas = [False] * count
    in_quick_yb = [False] * count
    gas_calls, gas_s, frames_in_quick_yb = 0, 0.0, 0
    for i in range(count):
        p = parents[i]
        if p >= 0:
            in_gas[i] = in_gas[p] or names[p] in GAS_CLOSURES
            in_quick_yb[i] = in_quick_yb[p] or names[p] == QUICK_YB
        if names[i] in GAS_CLOSURES and not in_gas[i]:
            gas_calls += 1
            gas_s += tracer.ends[i] - tracer.starts[i]
        if names[i] == WEIGHT_FRAME and in_quick_yb[i]:
            frames_in_quick_yb += 1

    steps = tracer.observed[STEP]
    accepted = [s for s in steps if s["accepted"]]
    dts = [s["dt"] for s in accepted]
    limits = [_binding_limit(s) for s in accepted]
    n_quick = calls(QUICK_YB)
    nfev = sum(f for f, _ in tracer.observed["inequalities.minimize"])
    nit = sum(i for _, i in tracer.observed["inequalities.minimize"])
    audits = tracer.observed["experiment.identity_audit"]
    levels = audits[0]["levels"] if audits else []
    max_abs_x = tracer.observed["experiment.summarize_trace"]

    def share(kind):
        return limits.count(kind) / len(limits) if limits else 0.0

    def per_call_us(total_s, n):
        return 1e6 * total_s / n if n else 0.0

    return {
        "cli.import_s": (import_s, "s"),
        "gas.closure_calls": (gas_calls, "count"),
        "gas.closure_s": (gas_s, "s"),
        "profile.solve_s": (incl("profile.solve_profile"), "s"),
        "profile.frame_s": (self_s("profile.ShockProfile.frame"), "s"),
        "weight.frame_calls": (calls(WEIGHT_FRAME), "count"),
        "weight.frame_s": (incl(WEIGHT_FRAME), "s"),
        "functionals.quick_yb_calls": (n_quick, "count"),
        "functionals.quick_yb_s": (incl(QUICK_YB), "s"),
        "functionals.quick_yb_us": (per_call_us(incl(QUICK_YB), n_quick), "us"),
        "functionals.breakdown_calls": (calls("functionals.compute_breakdown"), "count"),
        "functionals.breakdown_s": (incl("functionals.compute_breakdown"), "s"),
        "functionals.frame_cache_hit_ratio": (
            1.0 - frames_in_quick_yb / n_quick if n_quick else 0.0, "ratio"),
        "solver.rhs_calls": (calls("solver.semi_discrete_rhs"), "count"),
        "solver.rhs_s": (incl("solver.semi_discrete_rhs"), "s"),
        "solver.stable_dt_calls": (calls("solver.stable_dt"), "count"),
        "solver.newton_calls": (calls("solver.steady_state"), "count"),
        "solver.newton_s": (incl("solver.steady_state"), "s"),
        "shift.rhs_calls": (calls("shift.shift_rhs"), "count"),
        "experiment.steps": (len(accepted), "count"),
        "experiment.steps_rejected": (len(steps) - len(accepted), "count"),
        "experiment.step_accept_ratio": (
            len(accepted) / len(steps) if steps else 0.0, "ratio"),
        "experiment.records": (calls("functionals.compute_breakdown"), "count"),
        "experiment.dt_min": (min(dts) if dts else 0.0, "1"),
        "experiment.dt_median": (statistics.median(dts) if dts else 0.0, "1"),
        "experiment.dt_max": (max(dts) if dts else 0.0, "1"),
        "experiment.dt_bound_parabolic_share": (share("parabolic"), "ratio"),
        "experiment.dt_bound_advective_share": (share("advective"), "ratio"),
        "experiment.dt_bound_cadence_share": (share("cadence"), "ratio"),
        "experiment.step_s": (incl(STEP), "s"),
        "experiment.step_us": (per_call_us(incl(STEP), len(steps)), "us"),
        "experiment.record_s": (incl("functionals.compute_breakdown"), "s"),
        "experiment.phase_align_s": (incl("experiment.phase_aligned_steady"), "s"),
        "experiment.audit_err_coarse": (levels[0]["max_rel"] if levels else 0.0, "1"),
        "experiment.audit_err_fine": (levels[-1]["max_rel"] if levels else 0.0, "1"),
        "experiment.max_abs_X": (max(max_abs_x) if max_abs_x else 0.0, "1"),
        "inequalities.minimize_calls": (calls("inequalities.minimize"), "count"),
        "inequalities.r_delta_nfev": (nfev, "count"),
        "inequalities.r_delta_nit": (nit, "count"),
        "inequalities.maximize_s": (incl("inequalities.maximize_r_delta"), "s"),
        "inequalities.r_delta_eval_us": (
            per_call_us(incl("inequalities.maximize_r_delta"), nfev), "us"),
        "inequalities.g_grid_s": (incl("inequalities.certify_g_negative"), "s"),
        "inequalities.prop_grid_s": (incl("inequalities.certify_prop_algebra"), "s"),
    }
