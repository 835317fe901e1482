"""Finite-difference evolution: RHS accuracy, stepping, steady states."""

import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

import shocklab as sl
from references import simulate
from shocklab import solver
from shocklab.solver import (
    RKC_DAMPING,
    RKC_MARGIN,
    _thomas,
    effective_velocity,
    march,
    rkc2,
    rkc2_stages,
)


def make_grid(lo=-40.0, hi=40.0, dx=0.2):
    n = int(round((hi - lo) / dx))
    return sl.Grid(lo, hi, n)


def profile_arrays(profile, grid):
    fr = profile.frame(grid.x)
    return fr["v"], fr["h"]


def test_grid_basics():
    g = make_grid()
    assert g.x.shape == (g.n + 1,)
    assert abs(g.dx - 0.2) < 1e-14
    assert g.x[0] == -40.0 and g.x[-1] == 40.0


def test_grid_validation():
    with pytest.raises(ValueError):
        sl.Grid(1.0, -1.0, 100)
    with pytest.raises(ValueError):
        sl.Grid(-1.0, 1.0, 3)


def test_rhs_zero_on_constant_state(gas2):
    grid = make_grid()
    v = np.full(grid.n + 1, 0.8)
    h = np.full(grid.n + 1, 0.3)
    dv, dh = sl.semi_discrete_rhs(-1.5, grid, v, h, gas2.pressure(v))
    assert np.all(dv == 0.0) and np.all(dh == 0.0)


def test_rhs_is_the_difference_formulas_bit_for_bit(gas2, profile01):
    # p(v) comes from the caller; the differences are the scheme's formulas,
    # in their operation order, bit for bit
    grid = make_grid(dx=0.2)
    rng = np.random.default_rng(3)
    v, h = profile_arrays(profile01, grid)
    v = v + 0.01 * rng.standard_normal(v.size)
    h = h + 0.01 * rng.standard_normal(h.size)
    sigma, dx = profile01.states.sigma, grid.dx
    p = gas2.pressure(v)
    d1v = (v[2:] - v[:-2]) / (2.0 * dx)
    d1h = (h[2:] - h[:-2]) / (2.0 * dx)
    d1p = (p[2:] - p[:-2]) / (2.0 * dx)
    d2p = (p[2:] - 2.0 * p[1:-1] + p[:-2]) / (dx * dx)
    dv, dh = sl.semi_discrete_rhs(sigma, grid, v, h, p)
    assert np.array_equal(dv, np.concatenate([[0.0], sigma * d1v + d1h - d2p, [0.0]]))
    assert np.array_equal(dh, np.concatenate([[0.0], sigma * d1h - d1p, [0.0]]))


def test_rhs_allocates_its_two_results_and_one_scratch_array(gas2, profile01):
    # every stage of the march calls it; at n = 8001 (audit-r2's fine level)
    # more temporaries than these went through glibc's trim-and-refault path
    grid = make_grid(lo=-400.0, hi=400.0, dx=0.1)
    v, h = profile_arrays(profile01, grid)
    p = gas2.pressure(v)
    tracemalloc.start()
    try:
        sl.semi_discrete_rhs(profile01.states.sigma, grid, v, h, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert v.size == 8001 and peak < 3.5 * v.nbytes, peak / v.nbytes


def test_rhs_small_on_sampled_profile(gas2, profile01):
    # truncation error of the scheme on the exact traveling wave is O(dx^2)
    grid = make_grid(dx=0.2)
    v, h = profile_arrays(profile01, grid)
    dv, dh = sl.semi_discrete_rhs(profile01.states.sigma, grid, v, h, gas2.pressure(v))
    sup_coarse = max(np.abs(dv).max(), np.abs(dh).max())
    k_rhs = sup_coarse / grid.dx**2
    assert sup_coarse < 1e-8, f"RHS sup {sup_coarse:.3e} (K = {k_rhs:.3e})"

    fine = make_grid(dx=0.1)
    vf, hf = profile_arrays(profile01, fine)
    dvf, dhf = sl.semi_discrete_rhs(profile01.states.sigma, fine, vf, hf, gas2.pressure(vf))
    sup_fine = max(np.abs(dvf).max(), np.abs(dhf).max())
    ratio = sup_coarse / sup_fine
    assert 3.0 < ratio < 5.0, f"refinement ratio {ratio:.2f}"


def test_stable_dt_formula(gas2):
    # dt is the advective limit alone; the parabolic limit sets rkc2's stage
    # count through rho, the Gershgorin bound 4|p'(min v)|/dx^2.  Both are
    # their plain formulas at min v, bit for bit
    grid = make_grid(dx=0.2)
    v = np.linspace(0.9, 1.3, grid.n + 1)
    sigma = -1.5
    for drift in (0.0, 0.3):
        dt, rho = sl.stable_dt(gas2, sigma, grid, v, safety=0.4, drift=drift)
        c = abs(sigma) + drift + float(np.sqrt(-gas2.dpressure(float(np.min(v)))))
        assert dt == 0.4 * grid.dx / c
        assert rho == 4.0 * float(-gas2.dpressure(np.min(v))) / (grid.dx * grid.dx)


def test_rkc2_is_second_order_against_a_reference_integrator(gas2, profile01):
    # march the same semi-discrete system with scipy's adaptive RK45 at tight
    # tolerance; halving dt cuts the RKC2 march's error 4x.  Both runs take 2
    # stages a step: the error constant depends on the stage count.
    from scipy.integrate import solve_ivp

    grid = make_grid(lo=-20.0, hi=20.0, dx=0.2)
    v, h = profile_arrays(profile01, grid)
    v = v + 0.02 * np.exp(-(grid.x / 4.0) ** 2)
    sigma = profile01.states.sigma
    state = sl.FieldState(0.0, v, h)
    t_end = 0.2
    m = grid.n + 1

    def rhs(_t, yv):
        dv, dh = sl.semi_discrete_rhs(sigma, grid, yv[:m], yv[m:], gas2.pressure(yv[:m]))
        return np.concatenate([dv, dh])

    ref = solve_ivp(rhs, (0.0, t_end), np.concatenate([v, h]),
                    rtol=1e-11, atol=1e-12, dense_output=False)
    errors = []
    for safety in (0.1, 0.05):
        dt, rho = sl.stable_dt(gas2, sigma, grid, v, safety)
        assert rkc2_stages(dt * rho) == 2
        out = simulate(gas2, sigma, grid, state, t_end, v_floor=0.1, safety=safety)
        errors.append(max(np.abs(out.v - ref.y[:m, -1]).max(),
                          np.abs(out.h - ref.y[m:, -1]).max()))
    ratio = errors[0] / errors[1]
    assert 3.5 <= ratio <= 4.5, f"errors {errors[0]:.3e} -> {errors[1]:.3e}, ratio {ratio:.2f}"


def test_simulate_records_and_positivity(gas2, profile01):
    grid = make_grid(lo=-20.0, hi=20.0, dx=0.2)
    v, h = profile_arrays(profile01, grid)
    state = sl.FieldState(0.0, v, h)
    times = []
    out = simulate(gas2, profile01.states.sigma, grid, state, t_end=0.2,
                   v_floor=0.1, on_record=lambda s: times.append(s.t),
                   record_dt=0.05)
    assert out.t >= 0.2 - 1e-12
    assert len(times) >= 4
    assert np.min(out.v) > 0.1


def _guard_simulate(gas2, profile01, monkeypatch):
    # a state already at the floor cannot be evolved with that floor
    grid = make_grid(lo=-10.0, hi=10.0, dx=0.2)
    v, h = profile_arrays(profile01, grid)
    state = sl.FieldState(0.0, v - 0.9, h)  # drives v near 0.05, below any sane floor
    return 0.5, lambda: simulate(gas2, profile01.states.sigma, grid, state,
                                 t_end=0.5, v_floor=0.5)


def _guard_run_experiment(gas2, profile01, monkeypatch):
    # a dip to v ~ 0.68 under a floor of 0.9 * v_plus ~ 0.86: one step of
    # diffusion cannot lift it back over the floor
    monkeypatch.setattr(sl.experiment, "V_FLOOR_FRAC", 0.9)
    setup = sl.build_setup(sl.ExperimentConfig(span_over_eps=10.0, t_end_sigma=0.5,
                                               width=5.0, amplitude=-0.3))
    return 0.9 * setup.profile.states.v_plus, lambda: sl.run_experiment(setup)


@pytest.mark.parametrize("entry", [_guard_simulate, _guard_run_experiment],
                         ids=["simulate", "run_experiment"])
def test_positivity_guard_raises(entry, gas2, profile01, monkeypatch):
    floor, run = entry(gas2, profile01, monkeypatch)
    with pytest.raises(RuntimeError) as exc:
        run()
    assert str(exc.value) == f"positivity guard: v <= {floor} persists after 5 dt halvings"


def _cap_simulate(gas2, profile01):
    grid = make_grid(lo=-10.0, hi=10.0, dx=0.2)
    state = sl.FieldState(0.0, *profile_arrays(profile01, grid))
    return lambda: simulate(gas2, profile01.states.sigma, grid, state,
                            t_end=0.5, v_floor=0.1)


def _cap_run_experiment(gas2, profile01):
    # t_end_sigma = 0.3 at record_sigma = 1 passes validate()'s lower bound of
    # 3.75 steps (dt < CFL_SAFETY*dx/|sigma|), but the march takes 11
    setup = sl.build_setup(sl.ExperimentConfig(span_over_eps=10.0, t_end_sigma=0.3,
                                               record_sigma=1.0, width=5.0))
    return lambda: sl.run_experiment(setup)


@pytest.mark.parametrize("entry", [_cap_simulate, _cap_run_experiment],
                         ids=["simulate", "run_experiment"])
def test_step_count_limit_raises(entry, gas2, profile01, monkeypatch):
    # both runs need well over 3 steps; a runaway t_end meets the real limit
    monkeypatch.setattr(sl.solver, "MAX_STEPS", 3)
    run = entry(gas2, profile01)
    with pytest.raises(RuntimeError, match=r"^step-count limit: 3 steps reached at t = "):
        run()


def chebyshev_rkc2(s):
    """T_s, w0, w1, a_s, b_s and beta_s of the s-stage RKC2 method, from
    numpy's Chebyshev series (independent of the solver's recurrences)."""
    T = np.polynomial.Chebyshev.basis(s)
    w0 = 1.0 + RKC_DAMPING / s ** 2
    w1 = T.deriv()(w0) / T.deriv(2)(w0)
    b = T.deriv(2)(w0) / T.deriv()(w0) ** 2
    return T, w0, w1, 1.0 - b * T(w0), b, (w0 + 1.0) / w1


def linear_step(z, s):
    """One rkc2 step of y' = z*y (z an array) from y = 1 at dt = 1, with rho
    just inside s stages' reach; returns (amplification, rhs evaluations,
    counting the one that gives f0)."""
    calls = []
    rho = RKC_MARGIN * chebyshev_rkc2(s)[-1] * (1.0 - 1e-9)

    def rhs(y):
        calls.append(1)
        return (z * y[0],)

    y = (np.ones_like(z),)
    (amp,) = rkc2(rhs, y, 1.0, rho, rhs(y))
    return amp, len(calls)


@pytest.mark.parametrize("s", range(2, 11))
def test_rkc2_step_is_stable_on_its_real_interval(s):
    # on y' = z*y one step multiplies y by R_s(z) = a_s + b_s*T_s(w0 + w1*z),
    # one rhs evaluation a stage, and |R_s| <= 1 on [-beta_s, 0]
    T, w0, w1, a, b, beta = chebyshev_rkc2(s)
    z = np.linspace(-beta, 0.0, 4001)
    amp, calls = linear_step(z, s)
    assert calls == s
    npt.assert_allclose(amp, a + b * T(w0 + w1 * z), rtol=0.0, atol=1e-12)
    assert np.max(np.abs(amp)) <= 1.0 + 1e-12


@pytest.mark.parametrize("s", [2, 3, 5, 10])
def test_rkc2_step_is_second_order(s):
    # R_s(z) = 1 + z + z^2/2 + O(z^3): the remainder shrinks 8x as z halves
    # (R_2, of degree 2, is the quadratic itself)
    z = -0.04 / 2.0 ** np.arange(4)
    amp, _ = linear_step(z, s)
    rem = amp - (1.0 + z + z * z / 2.0)
    if s == 2:
        assert np.max(np.abs(rem)) < 1e-15
    else:
        npt.assert_allclose(rem[:-1] / rem[1:], 8.0, rtol=0.05)


def test_rkc2_takes_the_fewest_stages_that_cover_dt_rho():
    # s is the smallest value >= 2 with RKC_MARGIN*beta_s >= dt*rho
    assert rkc2_stages(0.0) == 2
    for s in range(2, 11):
        reach = RKC_MARGIN * chebyshev_rkc2(s)[-1]
        assert rkc2_stages(reach * (1.0 - 1e-9)) == s
        assert rkc2_stages(reach * (1.0 + 1e-9)) == s + 1
    with pytest.raises(RuntimeError, match="^stage-count limit: dt[*]rho = inf"):
        rkc2_stages(np.inf)


def fake_rkc2(monkeypatch, step):
    """march's step replaced by step(y, dt, f0): `march` looks `solver.rkc2`
    up at call time."""
    monkeypatch.setattr(solver, "rkc2", lambda rhs, y, dt, rho, f0: step(y, dt, f0))


def _ignore_records(t, y):
    """on_record for a march whose records the test does not read."""


def test_march_halves_dt_until_the_guard_clears(monkeypatch):
    # a step is accepted only once dt <= 0.26: 0.5 is halved once, 0.25 passes;
    # F is evaluated at the start and at each accepted step's end, never at
    # the rejected -1
    tried, records, evaluated = [], [], []

    def step(y, dt, f0):
        tried.append(dt)
        return (y[0] if dt <= 0.26 else -y[0],)

    def rhs(y):
        evaluated.append(y[0][0])
        return (np.zeros_like(y[0]),)

    fake_rkc2(monkeypatch, step)
    t, (v,) = march(rhs, (np.ones(3),), 0.0, 0.5, lambda y, f: (1.0, 0.0), 0.0, 0.5,
                    lambda t, y: records.append(t))
    assert tried == [0.5, 0.25, 0.25]
    assert t == 0.5 and np.all(v == 1.0)
    assert records == [0.0, 0.5]
    assert evaluated == [1.0, 1.0, 1.0]


def test_march_calls_limits_once_per_step_and_hands_each_try_its_rho(monkeypatch):
    # each step's first try at dt = 0.5 fails the guard and is halved; limits
    # is asked once per step, not per try, and the halved try gets the rho
    # that limits returned for its step
    asked, tries = [], []

    def step_limits(y, f):
        asked.append(y[0][0])
        return 0.5, 10.0 + len(asked)  # a rho of its own for each step

    def fake(rhs, y, dt, rho, f0):
        tries.append((dt, rho))
        return (y[0] + 1.0 if dt <= 0.26 else -y[0],)

    monkeypatch.setattr(solver, "rkc2", fake)
    t, (v,) = march(lambda y: (np.zeros_like(y[0]),), (np.ones(1),), 0.0, 0.75,
                    step_limits, 0.1, 0.75, _ignore_records)
    assert asked == [1.0, 2.0, 3.0]
    assert tries == [(0.5, 11.0), (0.25, 11.0), (0.5, 12.0), (0.25, 12.0), (0.25, 13.0)]
    assert t == 0.75 and v[0] == 4.0


def test_march_halves_dt_until_the_records_inside_the_step_clear(monkeypatch):
    # both ends of every step sit at v = 1, but with the slope -20 at both
    # ends the cubic Hermite interpolant dips to 1 - 20*dt*(h10 + h11)(theta),
    # h10 + h11 = 2 theta^3 - 3 theta^2 + theta: at dt = 0.5 the record at
    # theta = 1/4 reads 0.0625, under the floor 0.1, so the step is retried
    # at 0.25, whose one interior record (theta = 1/2) reads 1
    tried, records = [], []

    def step(y, dt, f0):
        tried.append(dt)
        return (y[0].copy(),)

    fake_rkc2(monkeypatch, step)
    t, (v,) = march(lambda y: (np.full_like(y[0], -20.0),), (np.ones(2),), 0.0, 0.5,
                    lambda y, f: (0.5, 0.0), 0.1, record_dt=0.125,
                    on_record=lambda t, y: records.append((t, y[0][0])))
    assert tried == [0.5, 0.25, 0.25]
    assert t == 0.5 and np.all(v == 1.0)
    assert records == [(k * 0.125, 1.0) for k in range(5)]


def test_march_writes_records_on_the_cadence_by_dense_output(monkeypatch):
    # y' = -y stepped exactly at the stable limit 0.3 alone: every record
    # time k*0.1 is on the cadence, a record at a step's end is the step
    # result, and the others are the step's cubic Hermite interpolant, off
    # exp(-t) by at most dt^4/384 * max|y''''| = 0.3^4/384
    tried, records = [], []

    def step(y, dt, f0):
        tried.append(dt)
        return (y[0] * np.exp(-dt),)

    fake_rkc2(monkeypatch, step)
    t, (v,) = march(lambda y: (-y[0],), (np.ones(1),), 0.0, 1.0, lambda y, f: (0.3, 0.0),
                    0.1, record_dt=0.1, on_record=lambda t, y: records.append((t, y[0][0])))
    assert tried[:3] == [0.3, 0.3, 0.3] and len(tried) == 4 and t == 1.0
    assert [r[0] for r in records] == [k * 0.1 for k in range(11)]
    assert records[3][1] == np.exp(-0.3) and records[-1][1] == v[0]
    err = max(abs(y - np.exp(-t)) for t, y in records)
    assert 0.0 < err < 0.3 ** 4 / 384


def test_march_hands_dt_limit_the_f_it_evaluated_at_the_same_state(monkeypatch):
    # limits(y, f) and rkc2(rhs, y, dt, rho, f0) both get the F that march
    # evaluated at the step's start y: at t = 0 and then at each accepted
    # step's end
    evaluated, limits, steps = [], [], []

    def rhs(y):
        f = (-y[0],)
        evaluated.append((y, f))
        return f

    def step_limits(y, f):
        limits.append((y, f))
        return 0.3, 0.0

    def step(y, dt, f0):
        steps.append((y, f0))
        return (y[0] * np.exp(-dt),)

    fake_rkc2(monkeypatch, step)
    t, _ = march(rhs, (np.ones(1),), 0.0, 1.0, step_limits, 0.1, 1.0, _ignore_records)
    assert t == 1.0 and len(limits) == len(steps) == 4 and len(evaluated) == 5
    for (y, f), (y_lim, f_lim), (y_step, f_step) in zip(evaluated, limits, steps):
        assert y_lim is y and f_lim is f
        assert y_step is y and f_step is f


@pytest.mark.parametrize("bad", [0, 1], ids=["nan-in-v", "nan-in-h"])
def test_march_names_a_non_finite_state(bad, monkeypatch):
    # at non-integral gamma a stage that meets v < 0 yields NaN (the gas
    # closures do not raise, and v ** -1.4 is NaN there); the guard must say
    # so instead of blaming the floor
    def step(y, dt, f0):
        out = [a.copy() for a in y]
        out[bad][1] = np.nan
        return tuple(out)

    fake_rkc2(monkeypatch, step)
    with pytest.raises(RuntimeError) as exc:
        march(lambda y: tuple(np.zeros_like(a) for a in y), (np.ones(3), np.zeros(3)),
              0.0, 0.5, lambda y, f: (1.0, 0.0), 0.1, 0.5, _ignore_records)
    assert str(exc.value) == (
        "non-finite state: NaN or inf in the stepped state persists after 5 dt halvings")


def test_march_judges_a_negative_stage_only_by_the_step_result(monkeypatch):
    # at integral gamma the closures are finite for v < 0, so a stage that
    # goes negative is no error by itself: the guard sees only the step
    # result.  v' = p'(v) with gamma = 2 and dt = 1.5 under the explicit
    # midpoint step puts stage 2 at v = -0.5, yet the result 1 + 1.5*16 = 25
    # clears the floor and is accepted.
    gas = sl.GasModel(gamma=2.0)
    stages, tried = [], []

    def rhs(y):
        return (gas.dpressure(y[0]),)

    def step(y, dt, f0):
        tried.append(dt)
        (v,) = y
        mid = v + 0.5 * dt * f0[0]
        stages.extend([v[0], mid[0]])
        return (v + dt * rhs((mid,))[0],)

    fake_rkc2(monkeypatch, step)
    t, (v,) = march(rhs, (np.ones(1),), 0.0, 1.5, lambda y, f: (1.5, 0.0), 0.1, 1.5,
                    _ignore_records)
    assert stages[1] == -0.5
    assert tried == [1.5] and t == 1.5
    assert v[0] == 25.0


def _unreachable(*args):
    raise AssertionError("the march evaluated a state it should have refused")


def test_march_rejects_a_bad_starting_state(profile01, monkeypatch):
    # refused before the first rhs, step or step-size call
    monkeypatch.setattr(solver, "rkc2", _unreachable)
    grid = make_grid(lo=-10.0, hi=10.0, dx=0.2)
    v, h = profile_arrays(profile01, grid)
    for bad in (-0.5, 0.0, np.nan):
        v_bad = v.copy()
        v_bad[7] = bad
        with pytest.raises(ValueError, match="starting"):
            march(_unreachable, (v_bad, h), 0.0, 0.1, _unreachable, 0.1, 0.1, _unreachable)
    h_bad = h.copy()
    h_bad[3] = np.inf
    with pytest.raises(ValueError, match="starting state must be finite"):
        march(_unreachable, (v, h_bad), 0.0, 0.1, _unreachable, 0.1, 0.1, _unreachable)


def test_grid_points_are_built_once_and_read_only():
    g = make_grid()
    assert g.x is g.x
    with pytest.raises(ValueError):
        g.x[0] = 1.0


def test_march_rejects_a_nonpositive_cadence(profile01, monkeypatch):
    # it would leave dt at 0 and the march would never end
    monkeypatch.setattr(solver, "rkc2", _unreachable)
    grid = make_grid(lo=-10.0, hi=10.0, dx=0.2)
    y = profile_arrays(profile01, grid)
    for record_dt in (0.0, -0.05):
        with pytest.raises(ValueError, match="record_dt must be positive"):
            march(_unreachable, y, 0.0, 0.1, _unreachable, 0.1, record_dt, _unreachable)


def test_sampled_profile_drift_over_long_run(gas2, profile01):
    # spec-level fixed-point check: the sampled wave stays put to 1e-6
    grid = make_grid(lo=-40.0, hi=40.0, dx=0.2)
    v, h = profile_arrays(profile01, grid)
    state = sl.FieldState(0.0, v, h)
    t_end = 10.0 / abs(profile01.states.sigma)
    out = simulate(gas2, profile01.states.sigma, grid, state, t_end, v_floor=0.1)
    drift = max(np.abs(out.v - v).max(), np.abs(out.h - h).max())
    assert drift < 1e-6, f"drift {drift:.3e}"


def test_steady_state_residual_and_consistency(gas2, profile01):
    grid = make_grid(lo=-40.0, hi=40.0, dx=0.2)
    v0, h0 = profile_arrays(profile01, grid)
    v, h = sl.steady_state(gas2, profile01.states.sigma, grid, v0, h0)
    dv, dh = sl.semi_discrete_rhs(profile01.states.sigma, grid, v, h, gas2.pressure(v))
    assert max(np.abs(dv).max(), np.abs(dh).max()) < 1e-12
    # the steady solution stays close to the sampled profile (O(dx^2))
    assert np.abs(v - v0).max() < 1e-3


def test_steady_state_converges_from_a_step_on_a_fine_grid(gas2, profile01):
    # a jump between the pinned end values starts 37% of the jump off the
    # steady state; on a grid 3 times finer than dx = 0.2 Newton's roundoff
    # floor is over 1e-13, so Newton stops at the floor, at the state it
    # reaches from the sampled profile
    grid = make_grid(lo=-40.0, hi=40.0, dx=0.2 / 3.0)
    sigma = profile01.states.sigma
    v0, h0 = profile_arrays(profile01, grid)
    C = sigma * h0[0] - gas2.pressure(v0[0])
    v_ref, _ = sl.steady_state(gas2, sigma, grid, v0, (gas2.pressure(v0) + C) / sigma)
    v_jump = np.where(grid.x < 0.0, v0[0], v0[-1])
    v, h = sl.steady_state(gas2, sigma, grid, v_jump, (gas2.pressure(v_jump) + C) / sigma)
    assert np.abs(v_jump - v_ref).max() > 0.3 * (v0[0] - v0[-1])
    assert np.abs(v - v_ref).max() < 1e-12
    dv, dh = sl.semi_discrete_rhs(sigma, grid, v, h, gas2.pressure(v))
    scale = gas2.pressure(v0[-1]) / grid.dx ** 2 + abs(sigma) * v0[0] / grid.dx
    assert 1e-13 < max(np.abs(dv).max(), np.abs(dh).max()) <= (
        solver.NEWTON_FLOOR * np.finfo(float).eps * scale)


def splu_solve(lo, di, up, rhs):
    """The tridiagonal solve through scipy's sparse LU with partial pivoting."""
    from scipy.sparse import csc_matrix, diags
    from scipy.sparse.linalg import splu

    m = di.size
    return splu(csc_matrix(diags([lo[1:], di, up[:-1]], [-1, 0, 1], shape=(m, m)))).solve(rhs)


def test_thomas_solve_is_a_tridiagonal_solve():
    rng = np.random.default_rng(3)
    m = 50
    lo, up = rng.uniform(0.5, 1.0, m), rng.uniform(0.5, 1.0, m)
    di = -(lo + up) - rng.uniform(0.0, 0.1, m)
    rhs = rng.standard_normal(m)
    x = _thomas(lo, di, up, rhs)
    dense = np.diag(di) + np.diag(lo[1:], -1) + np.diag(up[:-1], 1)
    npt.assert_allclose(dense @ x, rhs, rtol=0, atol=1e-13)
    npt.assert_allclose(x, splu_solve(lo, di, up, rhs), rtol=0, atol=1e-13)


def test_steady_state_thomas_reaches_the_splu_state(monkeypatch):
    # the steady-hold benchmark's grid (span 20: 2,000 cells at dx = 0.2),
    # Newton from the sampled profile with each tridiagonal solve
    setup = sl.build_setup(sl.ExperimentConfig(span_over_eps=20.0))
    gas, sigma, grid = setup.gas, setup.sigma, setup.grid
    v0, h0 = profile_arrays(setup.profile, grid)
    h0 = (gas.pressure(v0) + sigma * h0[0] - gas.pressure(v0[0])) / sigma
    v, h = sl.steady_state(gas, sigma, grid, v0, h0)
    monkeypatch.setattr(solver, "_thomas", splu_solve)
    v_lu, h_lu = sl.steady_state(gas, sigma, grid, v0, h0)
    assert np.abs(v - v0).max() > 1e-8  # Newton moved the state
    npt.assert_allclose(v, v_lu, rtol=0, atol=1e-13)
    npt.assert_allclose(h, h_lu, rtol=0, atol=1e-13)


def test_steady_state_rejects_inconsistent_ends(gas2, profile01):
    grid = make_grid(lo=-40.0, hi=40.0, dx=0.2)
    v0, h0 = profile_arrays(profile01, grid)
    h0 = h0 + 0.01 * np.linspace(0.0, 1.0, grid.n + 1)  # breaks sigma*h - p = const
    with pytest.raises(ValueError):
        sl.steady_state(gas2, profile01.states.sigma, grid, v0, h0)


def test_np_gradient_is_the_central_difference_the_outputs_rest_on():
    # effective_velocity, the D term and the other derivatives of sampled
    # fields take np.gradient(f, dx): central inside and one-sided at the
    # ends, bit for bit; a change to numpy's formula fails here by name
    rng = np.random.default_rng(20240817)
    for n in [3, 4, *rng.integers(5, 100_001, size=8)]:
        f = rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 3)
        dx = 10.0 ** rng.uniform(-4, 2)
        ref = np.empty(n)
        ref[1:-1] = (f[2:] - f[:-2]) / (2.0 * dx)
        ref[0] = (f[1] - f[0]) / dx
        ref[-1] = (f[-1] - f[-2]) / dx
        assert np.gradient(f, dx).tobytes() == ref.tobytes(), n


def test_central_gradient_is_np_gradient_bit_for_bit():
    # the helper that writes np.gradient's differences into a given array,
    # for the rows of a block (the D term) as for one state
    rng = np.random.default_rng(7)
    for shape in [(3,), (1201,), (4, 2001), (1, 5)]:
        f = rng.standard_normal(shape)
        dx = 10.0 ** rng.uniform(-3, 1)
        ref = np.gradient(f, dx, axis=-1).tobytes()
        assert solver.central_gradient(f, dx).tobytes() == ref, shape
        out = np.full(shape, np.nan)
        assert solver.central_gradient(f, dx, out=out) is out
        assert out.tobytes() == ref, shape


def test_effective_velocity_recovers_h(gas2, profile01):
    # u = h_tilde - (p_tilde)' is the fluid velocity; adding the discrete
    # pressure-gradient back must reproduce h_tilde to O(dx^2)
    st = profile01.states
    sups = []
    for dx in (0.2, 0.1):
        grid = make_grid(lo=-40.0, hi=40.0, dx=dx)
        fr = profile01.frame(grid.x)
        h = effective_velocity(gas2, grid, fr["v"], fr["h"] - fr["dp"])
        sups.append(np.abs(h - fr["h"])[1:-1].max())
    assert sups[0] < 1e-5
    assert 3.0 < sups[0] / sups[1] < 5.0


def conservation_balance(gas, sigma, grid, state):
    """(d/dt trapz(v), boundary flux difference) for the v-equation.

    The continuum law is d/dt int v = [sigma*v + h - (p(v))_xi] at the ends.
    """
    p = gas.pressure(state.v)
    dv, _ = sl.semi_discrete_rhs(sigma, grid, state.v, state.h, p)
    flux = sigma * state.v + state.h - np.gradient(p, grid.dx)
    return float(np.trapezoid(dv, dx=grid.dx)), float(flux[-1] - flux[0])


def test_conservation_balance_matches_flux(gas2, profile01):
    # a state with genuine boundary activity has an O(1) flux imbalance; the
    # recorded volume rate must track it to discretization accuracy
    grid = make_grid(lo=-40.0, hi=40.0, dx=0.2)
    x = grid.x
    fr = profile01.frame(x)
    v = fr["v"] + 0.1 / (1.0 + np.exp(-(x - 25.0) / 2.0))
    h = fr["h"] + 0.05 * np.tanh((x + 25.0) / 3.0)
    state = sl.FieldState(0.0, v, h)
    ddt, flux = conservation_balance(gas2, profile01.states.sigma, grid, state)
    assert abs(flux) > 1e-3
    assert abs(ddt - flux) / abs(flux) < 1e-3


def test_conservation_balance_zero_for_compact_perturbation(gas2, profile01):
    grid = make_grid(lo=-40.0, hi=40.0, dx=0.2)
    v, h = profile_arrays(profile01, grid)
    x = grid.x
    state = sl.FieldState(0.0, v + 1e-3 * np.exp(-(x / 5.0) ** 2),
                          h + 1e-3 * np.exp(-((x - 3.0) / 5.0) ** 2))
    ddt, flux = conservation_balance(gas2, profile01.states.sigma, grid, state)
    assert abs(ddt - flux) < 1e-8
