"""Acceptance suite: one test per published criterion, with a summary line.

Each test appends a PASS/FAIL line to the terminal summary (see conftest).
Criterion 2 is split: 02a certifies that the cubic comparison function g is
negative on (-2, 0); 02b checks the interior structure of g on (-1, 0) at the
sharp constant theta of criterion 01.  There g has no critical point (g' > 0);
the one interior extremum of g' is a minimum (the inflection point of g) in
the window (-0.29289, -0.13397), whose ends are -1 + 1/sqrt(2) and
-1 + sqrt(3)/2, and g' stays above 0.1 there.  A maximum of g in that window
would need theta above theta_c ~ 1.37473.
"""

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

import shocklab as sl
from shocklab.functionals import weighted_q_probe
from shocklab.inequalities import g_deriv, locate_g_critical_points
from shocklab.profile import layer_coordinate_residual

from conftest import record_acceptance


# calibrated growth constant for the record-increment bound of criterion 8
# (from the entropy-rate identity audit: relative discretization error of the
# record-to-record balance is ~2.5e-4 at dx = 0.2, i.e. ~6e-3 * dx^2 on the
# entropy scale of these runs; 0.025 leaves a 4x cushion)
K_INCREMENT = 0.025


def check(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    record_acceptance(f"criterion {criterion}: {status} — {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def profiles():
    gas = sl.GasModel(2.0)
    return {eps: sl.solve_profile(gas, eps) for eps in (0.1, 0.05)}


def test_criterion_01_theta_constant():
    val = sl.theta_squared_quadrature()
    target = 5.0 - np.pi**2 / 3.0
    theta = sl.theta_constant()
    ok = abs(val - target) < 1e-8 and abs(theta - 1.30772) < 1e-6
    check("01", ok,
          f"quadrature err {abs(val - target):.2e} (tol 1e-8), "
          f"theta = {theta:.8f} vs 1.30772 (tol 1e-6)")


def test_criterion_02_negativity_certificate():
    g_end = sl.g_poly(-2.0)
    rep = sl.certify_g_negative(step=1e-5)
    ok = abs(g_end - (-4.0 / 3.0)) < 1e-14 and rep.certified and rep.margin > 0
    check("02a", ok,
          f"g(-2) err {abs(g_end + 4.0 / 3.0):.2e} (tol 1e-14); certified "
          f"negative with margin {rep.margin:.4f} at step {rep.resolution:g}")


def test_criterion_02_interior_max_location():
    # The window (-0.29289, -0.13397) is phi in (pi/6, pi/4) on the circle
    # x = -1 + cos(phi).  For theta > theta_c ~ 1.37473 the minimum of g'
    # there dips below 0 and g gains a max/min pair in the window; the
    # lower bound on g' is what the sign-change scan alone cannot show.
    lo, hi = -0.29289, -0.13397
    pts = locate_g_critical_points(lo=-1.0, hi=0.0)
    xs = np.linspace(-1.0 + 1e-9, -1e-9, 200001)   # spacing 5e-6
    d = g_deriv(xs)
    mins = np.where((d[1:-1] < d[:-2]) & (d[1:-1] < d[2:]))[0] + 1
    x_star = d_star = np.nan
    if mins.size == 1:
        i = mins[0]
        res = minimize_scalar(g_deriv, bounds=(xs[i - 1], xs[i + 1]),
                              method="bounded", options={"xatol": 1e-12})
        x_star, d_star = float(res.x), float(res.fun)
    ok = pts == [] and mins.size == 1 and lo < x_star < hi and d_star > 0.1
    check("02b", ok,
          f"critical points of g on (-1,0): {len(pts)} (need 0); interior "
          f"minima of g': {mins.size} (need 1) at x* = {x_star:.7f} "
          f"(need in ({lo},{hi})), g'(x*) = {d_star:.7f} (need > 0.1)")


def test_criterion_03_weighted_poincare():
    eq = sl.poincare_slack_from_poly([-1.0, 2.0])
    rng = np.random.default_rng(20240817)
    worst = np.inf
    for _ in range(200):
        deg = int(rng.integers(1, 9))
        coeffs = rng.normal(size=deg + 1)
        worst = min(worst, sl.poincare_slack_from_poly(list(coeffs)))
    ok = abs(eq) < 1e-10 and worst > -1e-12
    check("03", ok,
          f"equality-case slack {abs(eq):.2e} (tol 1e-10), worst random "
          f"slack {worst:.2e} (tol -1e-12, 200 polys)")


def test_criterion_04_two_variable_certificate():
    rep = sl.certify_prop_algebra(delta=0.01, delta1=0.01, step=1e-3)
    ok = rep.certified and rep.worst_value <= 1e-10
    check("04", ok,
          f"worst excess {rep.worst_value:.2e} (tol 1e-10) over "
          f"{rep.details['admissible_points']} admissible grid points "
          f"in {rep.runtime_s:.1f} s")


def test_criterion_05_constrained_cubic_maximization():
    rep = sl.maximize_r_delta(delta=0.01, n_starts=200)
    ok = rep.worst_value <= 1e-8
    check("05", ok,
          f"multistart max {rep.worst_value:.2e} (tol 1e-8, 200 starts) "
          f"in {rep.runtime_s:.1f} s")


def test_criterion_06_profile_construction(profiles):
    msgs, ok = [], True
    for eps, pr in profiles.items():
        r1, r2 = pr.states.rankine_hugoniot_residuals()
        res = pr.ode_residual_sup()
        good = max(abs(r1), abs(r2)) < 1e-12 and res < 1e-10 and pr.monotone()
        ok &= good
        msgs.append(f"eps={eps}: RH {max(abs(r1), abs(r2)):.1e}, "
                    f"ODE residual {res:.1e}, monotone {pr.monotone()}")
    # second-order decay of the scheme residual on the sampled wave
    pr = profiles[0.1]
    gas = pr.states.gas
    sups = []
    for dx in (0.2, 0.1):
        n = int(round(80.0 / dx))
        grid = sl.Grid(-40.0, 40.0, n)
        fr = pr.frame(grid.x)
        dv, dh = sl.semi_discrete_rhs(pr.states.sigma, grid, fr["v"], fr["h"],
                                      gas.pressure(fr["v"]))
        sups.append(max(np.abs(dv).max(), np.abs(dh).max()))
    ratio = sups[0] / sups[1]
    ok &= 3.5 < ratio < 4.5
    msgs.append(f"residual refinement ratio {ratio:.2f} (need [3.5, 4.5])")
    check("06", ok, "; ".join(msgs))


def test_criterion_07_tail_scaling(profiles):
    reps = {eps: sl.tail_decay_report(pr) for eps, pr in profiles.items()}
    rm = reps[0.1]["rate_minus_fit"] / reps[0.05]["rate_minus_fit"]
    rp = reps[0.1]["rate_plus_fit"] / reps[0.05]["rate_plus_fit"]
    ok = 1.6 < rm < 2.4 and 1.6 < rp < 2.4
    check("07", ok,
          f"fitted-rate ratios across eps 0.1/0.05: upstream {rm:.3f}, "
          f"downstream {rp:.3f} (need [1.6, 2.4])")


def test_criterion_08_contraction_runs(shared_run):
    kinds = [("bump", 0.01, 0.01), ("random-fourier", 0.01, 0.01),
             ("large-amplitude", 0.3, 0.3)]
    msgs, ok = [], True
    dx = 0.2
    bound = 1e-8 + K_INCREMENT * dx**2
    for gamma in (1.4, 2.0):
        for kind, amp, amp_h in kinds:
            cfg = sl.ExperimentConfig(gamma=gamma, eps=0.1, lam=0.5,
                                      span_over_eps=20.0, t_end_sigma=2.0,
                                      perturb_kind=kind, amplitude=amp,
                                      amplitude_h=amp_h)
            _, _, s = shared_run(cfg)
            good = (s["max_record_increment"] <= bound
                    and s["entropy_final"] <= s["entropy_initial"])
            ok &= good
            msgs.append(f"gamma={gamma} {kind}: max increment "
                        f"{s['max_record_increment']:.1e} (bound {bound:.1e}), "
                        f"final/initial {s['entropy_final'] / s['entropy_initial']:.3f}")
    check("08", ok, "; ".join(msgs))


def test_criterion_09_entropy_rate_identity_audit():
    cfg = sl.ExperimentConfig(span_over_eps=20.0, t_end_sigma=2.0,
                              amplitude=0.01, amplitude_h=0.01)
    audit = sl.identity_audit(cfg, refinements=(1, 2))
    coarse = audit["levels"][0]["max_rel"]
    ratio = audit["ratio_max"]
    ok = coarse <= 0.01 and 2.5 < ratio < 6.0
    check("09", ok,
          f"coarse max relative error {coarse:.2e} (tol 0.01), improvement "
          f"ratio at dx/2 {ratio:.2f} (need ~4, accepted [2.5, 6])")


def test_criterion_10_shift_bounds(shared_run):
    eps = 0.1
    knots_ok = (sl.phi_eps(0.02, eps) == -1.0 / eps**2
                and sl.phi_eps(-0.02, eps) == 1.0 / eps**2
                and abs(sl.phi_eps(0.02, eps) + 100.0) < 1e-12
                and sl.phi_eps(eps**2, eps) == -1.0 / eps**2
                and abs(sl.phi_eps(0.005, eps) + 50.0) < 1e-12)

    steady = sl.ExperimentConfig(steady_relax=True, perturb_kind="none",
                                 span_over_eps=20.0, t_end_sigma=10.0)
    tr_s, _, sum_s = shared_run(steady)

    big = sl.ExperimentConfig(perturb_kind="bump", amplitude=0.2,
                              amplitude_h=1.2, width=5.0, span_over_eps=20.0,
                              t_end_sigma=1.0)
    tr_b, _, sum_b = shared_run(big)

    worst_ratio = max(sum_s["max_shift_bound_ratio"],
                      sum_b["max_shift_bound_ratio"])
    ok = (knots_ok and sum_s["max_abs_X"] <= 1e-8
          and worst_ratio <= 1.0 + 1e-12)
    check("10", ok,
          f"knot values exact: {knots_ok}; steady-run max|X| "
          f"{sum_s['max_abs_X']:.2e} (tol 1e-8); worst |Xdot|eps^2/(1+2|B|) "
          f"over every record of both runs {worst_ratio:.12f} (<= 1)")


def test_criterion_11_scaling_diagnostics():
    gas = sl.GasModel(2.0)
    eps_list = [0.1, 0.05, 0.025, 0.0125]
    sups = []
    for eps in eps_list:
        pr = sl.solve_profile(gas, eps)
        sups.append(layer_coordinate_residual(pr)["sup_residual"])
    slope_layer = np.polyfit(np.log(eps_list), np.log(sups), 1)[0]

    pts = []
    for eps in (0.1, 0.07, 0.05):
        pr = sl.solve_profile(gas, eps)
        for lam in (0.25, 0.35, 0.5):
            wt = sl.build_weight(pr, lam)
            rep = weighted_q_probe(wt)
            pts.append((eps**2 / lam, rep["int_abs_da_q"]))
    xs, ys = map(np.array, zip(*pts))
    slope_q = np.polyfit(np.log(xs), np.log(ys), 1)[0]

    ok = 1.7 < slope_layer < 2.3 and 0.7 < slope_q < 1.3
    check("11", ok,
          f"layer-closure residual exponent {slope_layer:.3f} (need 2 +- 0.3); "
          f"weighted-Q exponent in eps^2/lam {slope_q:.3f} (need 1 +- 0.3)")
