"""Coupled PDE + shift experiments: setup, traces, audits, steady runs."""

import dataclasses
import json
import os
import tempfile
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

import shocklab as sl
from references import simulate
from shocklab.experiment import (CFL_SAFETY, RECORD_BLOCK_FLOATS, V_FLOOR_FRAC, _audit_level,
                                 c2_bump, phase_aligned_steady)
from shocklab.shift import overshoot, r_residual, saturated


def short_config(**kw):
    base = dict(span_over_eps=10.0, t_end_sigma=0.5, width=5.0)
    base.update(kw)
    return sl.ExperimentConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError):
        sl.build_setup(sl.ExperimentConfig(perturb_kind="zebra"))
    with pytest.raises(ValueError):
        sl.build_setup(sl.ExperimentConfig(h_mode="sideways"))
    with pytest.raises(ValueError):
        sl.build_setup(sl.ExperimentConfig(eps=-0.1))
    with pytest.raises(ValueError):
        sl.build_setup(sl.ExperimentConfig(lam=0.7))


def test_setup_grid_resolution():
    setup = sl.build_setup(short_config())
    # dx = 1/(cells_per_layer * eps)... i.e. cells_per_layer cells per 1/eps
    assert abs(setup.grid.dx - 1.0 / (50 * 0.1 * 10)) < 1e-13 or setup.grid.dx > 0
    npt.assert_allclose(setup.grid.dx, 0.2, rtol=1e-12)
    npt.assert_allclose(setup.grid.x[-1], 100.0, rtol=1e-12)


def test_c2_bump_shape():
    s = np.linspace(-2.0, 2.0, 801)
    b = c2_bump(s)
    assert b.max() == 1.0
    assert np.all(b >= 0)
    assert np.all(b[np.abs(s) >= 1.0] == 0.0)
    # C^2 at the edge: value, slope and curvature all vanish
    d = 1e-4
    for probe in (1.0 - d, -(1.0 - d)):
        assert abs(c2_bump(np.array([probe]))[0]) < 1e-7


def test_zero_amplitude_equals_none():
    cfg_a = short_config(perturb_kind="bump", amplitude=0.0, amplitude_h=0.0)
    cfg_b = short_config(perturb_kind="none")
    tr_a, (st_a, X_a), _ = sl.run_experiment(sl.build_setup(cfg_a))
    tr_b, (st_b, X_b), _ = sl.run_experiment(sl.build_setup(cfg_b))
    npt.assert_array_equal(st_a.v, st_b.v)
    npt.assert_array_equal(st_a.h, st_b.h)
    assert X_a == X_b
    npt.assert_array_equal(tr_a.Y, tr_b.Y)


def test_random_fourier_start_follows_its_seed():
    def start(seed):
        return sl.initial_state(sl.build_setup(short_config(perturb_kind="random-fourier",
                                                            seed=seed)))

    a, b, c = start(7), start(7), start(8)
    npt.assert_array_equal(a.v, b.v)
    npt.assert_array_equal(a.h, b.h)
    assert not np.array_equal(a.v, c.v) and not np.array_equal(a.h, c.h)


def test_positivity_precondition():
    with pytest.raises(ValueError):
        sl.initial_state(sl.build_setup(short_config(amplitude=-0.6)))


def test_from_velocity_mode_consistency():
    # prescribing velocity instead of h reproduces h up to the discrete
    # pressure-gradient error O(dx^2), also on the stretched reference; on
    # the relaxed state, whose h is built with the solver's difference, it
    # reproduces h to roundoff
    for kind, relax, tol in (("none", False, 1e-6), ("large-amplitude", False, 1e-6),
                             ("none", True, 1e-12)):
        zero = dict(perturb_kind=kind, amplitude=0.0, amplitude_h=0.0, steady_relax=relax)
        st_d = sl.initial_state(sl.build_setup(short_config(**zero)))
        st_v = sl.initial_state(sl.build_setup(short_config(**zero, h_mode="from-velocity")))
        assert np.abs(st_v.h - st_d.h).max() <= tol, (kind, relax)


def test_large_amplitude_kind_runs():
    cfg = short_config(perturb_kind="large-amplitude", amplitude=0.3,
                       amplitude_h=0.3, t_end_sigma=0.2)
    trace, (state, X), summary = sl.run_experiment(sl.build_setup(cfg))
    assert np.min(state.v) > 0
    assert np.isfinite(trace.Y).all()


def recorded_states(monkeypatch):
    """A list that receives a (v, h) copy at each record of the next run,
    taken where the run computes that record's breakdown: the run passes a
    block of records, one per row."""
    snaps = []
    breakdown = sl.experiment.compute_breakdown

    def traced(v, h, frame, work=None):
        snaps.extend((vr.copy(), hr.copy()) for vr, hr in zip(v, h))
        return breakdown(v, h, frame, work)

    monkeypatch.setattr(sl.experiment, "compute_breakdown", traced)
    return snaps


def recorded_blocks(monkeypatch):
    """A list that receives (v, h) copies of each block of records of the
    next run, one record per row, as the run computes their breakdowns."""
    blocks = []
    breakdown = sl.experiment.compute_breakdown

    def traced(v, h, frame, work=None):
        blocks.append((v.copy(), h.copy()))
        return breakdown(v, h, frame, work)

    monkeypatch.setattr(sl.experiment, "compute_breakdown", traced)
    return blocks


def counted_march(monkeypatch):
    """Two lists that receive an entry per step (a `stable_dt` call) and per
    rhs evaluation (a `semi_discrete_rhs` call) of the next runs."""
    steps, evaluations = [], []
    stable_dt, rhs = sl.experiment.stable_dt, sl.experiment.semi_discrete_rhs
    monkeypatch.setattr(sl.experiment, "stable_dt",
                        lambda *a, **kw: steps.append(1) or stable_dt(*a, **kw))
    monkeypatch.setattr(sl.experiment, "semi_discrete_rhs",
                        lambda *a: evaluations.append(1) or rhs(*a))
    return steps, evaluations


def assert_trace_is_the_breakdowns_of_the_blocks(trace, blocks, setup):
    """Every record's trace entries are those of its state alone, bit for
    bit: the 1-d breakdown of the block row and the scalar shift functions."""
    cfg, eps = setup.config, setup.eps
    rows = [sl.compute_breakdown(v, h, setup.frame) for V, H in blocks for v, h in zip(V, H)]
    assert len(rows) == len(trace.t)
    rates = [sl.shift_rhs(bd.Y, bd.B, eps) for bd in rows]
    expected = {f.name: [getattr(bd, f.name) for bd in rows]
                for f in dataclasses.fields(sl.FunctionalBreakdown)}
    expected.update(Xdot=rates, R=[r_residual(bd, eps, cfg.lam) for bd in rows],
                    branch_saturated=[1.0 if saturated(bd.Y, eps) else 0.0 for bd in rows],
                    overshoot=[overshoot(x, eps) for x in rates])
    for name, values in expected.items():
        assert np.array(values).tobytes() == getattr(trace, name).tobytes(), name


@pytest.mark.parametrize("config, counts", [
    (_audit_level(sl.ExperimentConfig(), 1), (115, 346, 201)),
    (sl.ExperimentConfig(steady_relax=True, perturb_kind="none", span_over_eps=20.0,
                         t_end_sigma=10.0), (255, 1020, 1001)),
    (sl.ExperimentConfig(perturb_kind="random-fourier"), (53, 211, 201)),
    (_audit_level(sl.ExperimentConfig(), 2), (230, 921, 401)),
], ids=["default-and-audit-r1", "steady-hold", "random-fourier", "audit-r2"])
def test_each_record_of_a_block_is_the_breakdown_of_its_state_alone(config, counts,
                                                                    monkeypatch):
    # a run evaluates its records in blocks of K = RECORD_BLOCK_FLOATS // n
    # states (8, 4 and 2 at n = 2001, 4001 and 8001), the last block partial
    # (each of these runs ends in a block of 1), and each row of a block is
    # the record that the 1-d breakdown of its state gives.  The steps, rhs
    # evaluations and records are those that README's "Where a run spends
    # its time" quotes: refinement 2 takes 230 steps of 4 stages, so
    # 1 + 4*230 = 921 evaluations
    assert _audit_level(sl.ExperimentConfig(), 1) == sl.ExperimentConfig()
    setup = sl.build_setup(config)
    blocks = recorded_blocks(monkeypatch)
    steps, evaluations = counted_march(monkeypatch)
    trace, _, _ = sl.run_experiment(setup)
    n, records = setup.grid.x.size, len(trace.t)
    assert (len(steps), len(evaluations), records) == counts
    K = RECORD_BLOCK_FLOATS // n
    assert K == {2001: 8, 4001: 4, 8001: 2}[n] and K * n <= RECORD_BLOCK_FLOATS
    assert [len(v) for v, _ in blocks] == [K] * (records // K) + [records % K]
    assert_trace_is_the_breakdowns_of_the_blocks(trace, blocks, setup)


def test_records_of_a_step_the_guard_halved_are_written_once(monkeypatch):
    # the slopes at the end of the first step come back NaN once, so the
    # records interpolated inside it are NaN and the guard halves dt; the
    # records of the halved step are written once each, none is lost, and
    # each is the breakdown of its own state
    cfg = short_config(record_sigma=0.002)
    setup = sl.build_setup(cfg)
    rkc2, march = sl.solver.rkc2, sl.experiment.march
    tried = []
    monkeypatch.setattr(sl.solver, "rkc2", lambda *a: tried.append(a[2]) or rkc2(*a))

    def nan_slopes_once(rhs, y, *args):
        calls = []

        def rhs_nan_once(y):
            calls.append(1)
            f = rhs(y)
            return (f[0] * np.nan,) + f[1:] if len(calls) == 2 else f

        return march(rhs_nan_once, y, *args)

    monkeypatch.setattr(sl.experiment, "march", nan_slopes_once)
    blocks = recorded_blocks(monkeypatch)
    trace, _, _ = sl.run_experiment(setup)
    rec_dt = cfg.record_sigma / abs(setup.sigma)
    # the first try held records, the halved one too
    assert tried[1] == 0.5 * tried[0] and np.count_nonzero(trace.t < tried[1]) > 2
    npt.assert_array_equal(trace.t, np.arange(251) * rec_dt)
    assert_trace_is_the_breakdowns_of_the_blocks(trace, blocks, setup)


def test_trace_structure_and_summary(monkeypatch):
    cfg = short_config(record_sigma=0.05)
    setup = sl.build_setup(cfg)
    snaps = recorded_states(monkeypatch)
    trace, (state, X), summary = sl.run_experiment(setup)
    n = len(trace.t)
    for name in ("X", "Xdot", "weighted_entropy", "Y", "B", "G", "R",
                 "branch_saturated", "overshoot", "sup_w"):
        assert len(getattr(trace, name)) == n
    assert np.all(np.diff(trace.t) > 0)
    assert len(snaps) == n
    # the first record is the starting state, at t = 0
    start = sl.initial_state(setup)
    assert trace.t[0] == 0.0
    assert np.array_equal(snaps[0][0], start.v) and np.array_equal(snaps[0][1], start.h)
    for key in ("entropy_initial", "entropy_final", "max_record_increment",
                "max_shift_bound_ratio", "max_abs_X", "saturated_fraction",
                "wall_time_s"):
        assert key in summary, key
    assert summary["records"] == n


def test_sup_w_column_is_max_pressure_perturbation(monkeypatch):
    cfg = short_config(record_sigma=0.05)
    setup = sl.build_setup(cfg)
    snaps = recorded_states(monkeypatch)
    trace, _, _ = sl.run_experiment(setup)
    # the shift moves, so the co-moving frame is not the lab frame; the
    # snapshots are at xi = x - X, where the profile is p_tilde(xi)
    assert np.any(trace.X != 0.0)
    p_tilde = setup.profile.pressure_profile(setup.grid.x)
    expected = [np.max(np.abs(setup.gas.pressure(v) - p_tilde)) for v, _ in snaps]
    npt.assert_array_equal(trace.sup_w, expected)


def test_entropy_decreases_for_small_bump(shared_run):
    cfg = sl.ExperimentConfig(span_over_eps=20.0, t_end_sigma=2.0,
                              amplitude=0.01, amplitude_h=0.01)
    trace, _, summary = shared_run(cfg)
    E = trace.weighted_entropy
    assert summary["entropy_final"] < summary["entropy_initial"]
    assert summary["max_record_increment"] < 0  # strictly decreasing here


def test_mass_conserved_until_boundary_contact():
    # in the co-moving frame the whole wave moves by X against the pins, so
    # "no boundary contact" also asks the shifted tail to be flat there: the
    # balance misses by about |X v_tilde'| at the ends, 1.4e-5 at
    # span_over_eps = 10, 1.1e-7 at 20 and 8e-10 at 30
    cfg = short_config(t_end_sigma=1.0, amplitude=0.02, amplitude_h=0.0,
                       span_over_eps=30.0)
    setup = sl.build_setup(cfg)
    st0 = sl.initial_state(setup)
    x = setup.grid.x
    v_tilde = setup.profile.frame(x)["v"]
    m0 = np.trapezoid(st0.v - v_tilde, x)
    trace, (state, X), _ = sl.run_experiment(setup)
    m1 = np.trapezoid(state.v - v_tilde, x)
    assert abs(m0) > 1e-4
    # in the co-moving frame the drift sigma + Xdot carries the boundary
    # flux Xdot*[v] through the pinned ends: d/dt int v = Xdot*(v(L) - v(-L))
    assert abs(X) > 0.1
    assert abs(m1 - m0 - X * (st0.v[-1] - st0.v[0])) < 1e-8


@pytest.mark.parametrize("overrides", [{}, {"t_end_sigma": 1.0, "record_sigma": 0.05},
                                       {"steady_relax": True, "perturb_kind": "none"}])
def test_one_weight_frame_per_run(overrides, monkeypatch):
    # set-up folds one weight frame into the functional frame, which every
    # stage and record of the co-moving march and every phase-alignment
    # probe of a steady_relax start reads, however many there are
    calls = []
    frame = sl.WeightFn.frame
    monkeypatch.setattr(sl.WeightFn, "frame", lambda self, x: calls.append(1) or frame(self, x))
    trace, _, _ = sl.run_experiment(sl.build_setup(short_config(**overrides)))
    assert len(trace.t) > 10
    assert len(calls) == 1


def test_the_march_with_the_shift_frozen_is_the_lab_frame_march(monkeypatch):
    # the co-moving PDE has drift sigma + Xdot; with Xdot forced to 0 that is
    # sigma + 0.0 == sigma, and the step-size drift is 0, so the coupled
    # march is the reference lab-frame march bit for bit
    # (0.0 * |Y| is 0.0 at a stage and a zero per record of a block)
    monkeypatch.setattr(sl.experiment, "shift_rhs", lambda Y, B, eps: 0.0 * abs(Y))
    cfg = short_config(t_end_sigma=0.2)
    setup = sl.build_setup(cfg)
    _, (state, X), _ = sl.run_experiment(setup)
    sig = setup.sigma
    lab = simulate(setup.gas, sig, setup.grid, sl.initial_state(setup),
                   t_end=cfg.t_end_sigma / abs(sig),
                   v_floor=V_FLOOR_FRAC * setup.profile.states.v_plus,
                   safety=CFL_SAFETY, record_dt=cfg.record_sigma / abs(sig))
    assert X == 0.0 and state.t == lab.t
    assert np.array_equal(state.v, lab.v) and np.array_equal(state.h, lab.h)


def test_step_size_counts_the_shift_drift(monkeypatch):
    # on a coarse grid the advective limit binds; in the co-moving frame the
    # advection speed is |sigma + Xdot|, so every step must satisfy the
    # advective limit with the largest |Xdot| of its own stages
    cfg = sl.ExperimentConfig(cells_per_layer=4, t_end_sigma=4.0, record_sigma=4.0)
    setup = sl.build_setup(cfg)
    gas, sig, dx = setup.gas, setup.sigma, setup.grid.dx
    rates, steps = [], []
    shift_rhs = sl.experiment.shift_rhs
    monkeypatch.setattr(sl.experiment, "shift_rhs",
                        lambda *a: rates.append(shift_rhs(*a)) or rates[-1])
    rkc2 = sl.solver.rkc2

    def traced(rhs, y, dt, rho, f0):
        # the step's stage 0 is f0, which the march evaluated at its start
        first = len(rates)
        out = rkc2(rhs, y, dt, rho, f0)
        steps.append((dt, float(np.min(y[0])), max(map(abs, [f0[2]] + rates[first:]))))
        return out

    monkeypatch.setattr(sl.solver, "rkc2", traced)
    sl.run_experiment(setup)
    advective_binds = 0
    for dt, vmin, rate in steps:
        dp_max = -float(gas.dpressure(vmin))
        advective = CFL_SAFETY * dx / (abs(sig) + rate + np.sqrt(dp_max))
        assert dt <= advective
        advective_binds += advective < CFL_SAFETY * dx * dx / (2.0 * dp_max)
    assert len(steps) > 10 and advective_binds == len(steps)
    assert max(rate for _, _, rate in steps) > abs(sig)  # the drift matters


def test_default_run_records_on_the_cadence(monkeypatch):
    # the march steps at the advective limit and writes each record by dense
    # output, so the records land on k * record_dt: 201 of them to t_end, in
    # 115 steps of 3 stages, whose first is the evaluation at the end of the
    # step before: 1 + 3*115 = 346 rhs evaluations
    cfg = sl.ExperimentConfig()
    setup = sl.build_setup(cfg)
    rec_dt = cfg.record_sigma / abs(setup.sigma)
    steps, evaluations = counted_march(monkeypatch)
    trace, (state, _), summary = sl.run_experiment(setup)
    assert (len(steps), len(evaluations), summary["records"]) == (115, 346, 201)
    npt.assert_array_equal(trace.t, np.arange(201) * rec_dt)
    assert state.t == cfg.t_end_sigma / abs(setup.sigma)


def test_steady_hold_march_is_not_set_by_the_record_cadence(monkeypatch):
    # a step clipped to each record time makes 1,000 steps of 3 stages
    # (3,000 rhs calls) on the benchmark's steady-hold config; at the
    # advective limit the march takes 255 steps, all but one of 4 stages:
    # 1 + 4*255 - 1 = 1,020 rhs calls for its 1,001 records
    cfg = sl.ExperimentConfig(steady_relax=True, perturb_kind="none", span_over_eps=20.0,
                              t_end_sigma=10.0)
    setup = sl.build_setup(cfg)
    steps, evaluations = counted_march(monkeypatch)
    trace, _, _ = sl.run_experiment(setup)
    assert (len(steps), len(evaluations), len(trace.t)) == (255, 1020, 1001)


def test_phase_aligned_steady_is_steady():
    setup = sl.build_setup(sl.ExperimentConfig(span_over_eps=20.0,
                                               steady_relax=True))
    state = phase_aligned_steady(setup)
    p = setup.gas.pressure(state.v)
    dv, dh = sl.semi_discrete_rhs(setup.profile.states.sigma, setup.grid,
                                  state.v, state.h, p)
    assert max(np.abs(dv).max(), np.abs(dh).max()) < 1e-10
    Y, B = sl.quick_yb(state.v, state.h, p, setup.frame)
    assert abs(Y) < 1e-12


@pytest.mark.parametrize("overrides", [
    {}, {"gamma": 1.4}, {"eps": 0.05}, {"cells_per_layer": 100}, {"lam": 0.05},
    {"gamma": 1.4, "eps": 0.05, "lam": 0.2}])
def test_phase_alignment_takes_a_few_chord_steps(overrides, monkeypatch):
    # Y is close to linear in the pin shift, so the solve at 0, the slope
    # probe and two or three chord steps reach Y's roundoff band
    solves = []

    def counted(*args):
        solves.append(1)
        return sl.steady_state(*args)

    monkeypatch.setattr(sl.experiment, "steady_state", counted)
    setup = sl.build_setup(sl.ExperimentConfig(steady_relax=True, perturb_kind="none",
                                               span_over_eps=20.0, **overrides))
    state = phase_aligned_steady(setup)
    Y, _ = sl.quick_yb(state.v, state.h, setup.gas.pressure(state.v), setup.frame)
    assert len(solves) <= 8
    assert abs(Y) <= 1e-12


def test_steady_run_holds_fixed_point():
    cfg = sl.ExperimentConfig(steady_relax=True, perturb_kind="none",
                              span_over_eps=20.0, t_end_sigma=1.0)
    trace, _, summary = sl.run_experiment(sl.build_setup(cfg))
    assert summary["max_abs_X"] < 1e-9
    assert np.abs(trace.Y).max() < 1e-12


@pytest.mark.parametrize("cells", [150, 200])
def test_steady_hold_runs_on_fine_grids(cells):
    # the steady Newton's roundoff floor passes 1e-13 from about 150 cells
    # per layer (1.9e-13 there, 3.2e-13 at 200), so the phase alignment's
    # solves must stop at the floor, not at 1e-13
    cfg = sl.ExperimentConfig(steady_relax=True, perturb_kind="none", span_over_eps=20.0,
                              t_end_sigma=0.1, cells_per_layer=cells)
    trace, _, summary = sl.run_experiment(sl.build_setup(cfg))
    assert summary["records"] == 11
    assert summary["max_abs_X"] < 1e-9
    assert np.abs(trace.Y).max() < 1e-12


def test_shift_settles_for_small_bump_on_aligned_state():
    # long-run convergence: on a phase-aligned background a weak bump gives
    # a shift trajectory whose last-10% spread is below 1e-4
    cfg = sl.ExperimentConfig(perturb_kind="bump", amplitude=5e-5,
                              amplitude_h=5e-5, steady_relax=True,
                              span_over_eps=20.0, t_end_sigma=15.0)
    trace, _, _ = sl.run_experiment(sl.build_setup(cfg))
    t, X = trace.t, trace.X
    last = t >= 0.9 * t[-1]
    spread = X[last].max() - X[last].min()
    assert spread < 1e-4, f"shift tail spread {spread:.3e}"
    assert abs(X[-1]) < 1.0


def test_saturated_branch_bookkeeping(shared_run):
    cfg = sl.ExperimentConfig(perturb_kind="bump", amplitude=0.2,
                              amplitude_h=1.2, width=5.0, span_over_eps=20.0,
                              t_end_sigma=1.0)
    trace, _, summary = shared_run(cfg)
    eps = 0.1
    sat = trace.branch_saturated.astype(bool)
    assert summary["saturated_fraction"] > 0.05
    assert sat.any() and (~sat).any()
    # on the saturated branch the bound holds with equality
    lhs = np.abs(trace.Xdot) * eps**2
    rhs = 1.0 + 2.0 * np.abs(trace.B)
    npt.assert_allclose(lhs[sat], rhs[sat], rtol=1e-12)
    assert np.all(lhs <= rhs * (1.0 + 1e-12))
    assert summary["max_shift_bound_ratio"] <= 1.0 + 1e-12
    # the recorded branch flag matches the |Y| >= eps^2 test
    npt.assert_array_equal(sat, np.abs(trace.Y) >= eps**2)
    # recorded overshoot is the positive part of |Xdot| eps^2 - 1
    npt.assert_allclose(trace.overshoot, np.clip(lhs - 1.0, 0.0, None),
                        atol=1e-12)
    # integrated overshoot obeys the 2 int |B| budget
    assert (np.trapezoid(trace.overshoot, trace.t)
            <= 2.0 * np.trapezoid(np.abs(trace.B), trace.t) + 1e-12)


def test_linear_branch_controller_formula():
    cfg = short_config(amplitude=1e-4, amplitude_h=1e-4, t_end_sigma=0.3)
    trace, _, _ = sl.run_experiment(sl.build_setup(cfg))
    eps = 0.1
    lin = ~trace.branch_saturated.astype(bool)
    assert lin.all()
    expected = -trace.Y[lin] / eps**4 * (1.0 + 2.0 * np.abs(trace.B[lin]))
    npt.assert_allclose(trace.Xdot[lin], expected, rtol=1e-10, atol=1e-12)


def test_audit_trace_identity_on_coarse_run():
    cfg = sl.ExperimentConfig(span_over_eps=20.0, t_end_sigma=1.0,
                              amplitude=0.01, amplitude_h=0.01)
    trace, _, _ = sl.run_experiment(sl.build_setup(cfg))
    rel = sl.audit_trace(trace)
    assert np.max(rel) < 0.01


def test_unweighted_pinned_identity():
    # with a nearly flat weight and the shift frozen at zero the balance
    # reduces to dE/dt = B - G; check it from records at 1% accuracy
    cfg = short_config(amplitude=0.01, amplitude_h=0.01, lam=1e-6,
                       t_end_sigma=1.0)
    setup = sl.build_setup(cfg)
    state = sl.initial_state(setup)
    pr, grid = setup.profile, setup.grid
    recs = []

    def on_record(s):
        bd = sl.compute_breakdown(s.v, s.h, setup.frame)
        recs.append((s.t, bd.weighted_entropy, bd.B, bd.G))

    simulate(setup.gas, pr.states.sigma, grid, state,
             t_end=cfg.t_end_sigma / abs(pr.states.sigma),
             v_floor=0.1 * pr.states.v_plus, on_record=on_record,
             record_dt=0.01)
    t, E, B, G = map(np.array, zip(*recs))
    dEdt = (E[2:] - E[:-2]) / (t[2:] - t[:-2])
    rhs = (B - G)[1:-1]
    scale = np.maximum(np.abs(B) + np.abs(G), 1e-14)[1:-1]
    assert np.max(np.abs(dEdt - rhs) / scale) < 0.01


def test_identity_audit_structure(monkeypatch):
    rels = []
    audit_trace = sl.experiment.audit_trace
    monkeypatch.setattr(sl.experiment, "audit_trace",
                        lambda trace: rels.append(audit_trace(trace)) or rels[-1])
    # 49 and 50 mismatches: the median of an odd and of an even count
    for t_end_sigma, n_rel in ((0.5, 49), (0.51, 50)):
        cfg = sl.ExperimentConfig(span_over_eps=10.0, t_end_sigma=t_end_sigma, width=5.0)
        audit = sl.identity_audit(cfg, refinements=(1,))
        level = audit["levels"][0]
        assert level["refine"] == 1
        assert level["max_rel"] < 0.01
        # the level's max and median, bit for bit as numpy takes them
        rel = rels[-1]
        assert rel.size == n_rel
        assert level["max_rel"] == np.max(rel) and level["median_rel"] == np.median(rel)


def test_identity_audit_solves_one_profile_for_its_ladder(monkeypatch):
    # the levels differ only in cells_per_layer and record_sigma, which the
    # profile and the weight do not read; each level scores as the set-up
    # that build_setup makes of it alone, bit for bit
    cfg = short_config(t_end_sigma=0.2)
    alone = {}
    for r in (1, 2, 3):
        rel = sl.experiment.audit_trace(
            sl.run_experiment(sl.build_setup(_audit_level(cfg, r)))[0])
        alone[r] = (np.max(rel), np.median(rel))
    solves = []
    solve_profile = sl.experiment.solve_profile
    monkeypatch.setattr(sl.experiment, "solve_profile",
                        lambda *a, **kw: solves.append(a) or solve_profile(*a, **kw))
    for refinements in ((1, 2), (1, 2, 3)):
        solves.clear()
        audit = sl.identity_audit(cfg, refinements=refinements)
        assert len(solves) == 1
        for r, level in zip(refinements, audit["levels"]):
            assert level["refine"] == r
            assert (level["max_rel"], level["median_rel"]) == alone[r]


def test_sweep_runs_overrides():
    res = sl.sweep([short_config(t_end_sigma=0.2, amplitude=a) for a in (0.005, 0.02)])
    assert len(res) == 2
    assert res[0]["config"]["amplitude"] == 0.005
    assert res[1]["config"]["amplitude"] == 0.02


def test_trace_csv_and_summary_json_roundtrip():
    cfg = short_config(t_end_sigma=0.2)
    trace, _, summary = sl.run_experiment(sl.build_setup(cfg))
    with tempfile.TemporaryDirectory() as d:
        csv_path = os.path.join(d, "trace.csv")
        json_path = os.path.join(d, "summary.json")
        sl.write_trace_csv(trace, csv_path)
        sl.write_summary_json(summary, json_path)
        with open(csv_path) as fh:
            header = fh.readline().strip().split(",")
        data = np.loadtxt(csv_path, delimiter=",", skiprows=1)
        loaded = json.loads(Path(json_path).read_text())
    assert header[0] == "t" and "X" in header and "Y" in header
    assert data.shape == (len(trace.t), len(header))
    npt.assert_allclose(data[:, header.index("Y")], trace.Y, rtol=1e-12)
    assert loaded["records"] == summary["records"]


def test_audit_error_is_space_error_not_time_error(monkeypatch):
    # at fixed dx, capping dt at half the record cadence (under the advective
    # limit on every step) moves the audit's max relative error by under 10%
    # at both refinements: the O(dx^2) space error dominates the RKC2 time
    # error
    cfg = sl.ExperimentConfig(span_over_eps=20.0)
    steps = []
    rkc2 = sl.solver.rkc2
    monkeypatch.setattr(sl.solver, "rkc2", lambda *a: steps.append(a[2]) or rkc2(*a))
    base = sl.identity_audit(cfg)
    n_base = len(steps)
    march = sl.experiment.march
    caps = []

    def half_cadence(rhs, y, t, t_end, limits, v_floor, record_dt, on_record):
        caps.append(0.5 * record_dt)

        def capped(y, f):
            dt, rho = limits(y, f)
            return min(dt, 0.5 * record_dt), rho

        return march(rhs, y, t, t_end, capped, v_floor, record_dt, on_record)

    monkeypatch.setattr(sl.experiment, "march", half_cadence)
    halved = sl.identity_audit(cfg)
    # the cap binds: every step of the halved-dt audit is at most half a
    # record interval, and it takes over twice the base audit's steps
    assert max(steps[n_base:]) <= max(caps)
    assert len(steps) - n_base > 2 * n_base
    for a, b in zip(base["levels"], halved["levels"]):
        assert abs(b["max_rel"] / a["max_rel"] - 1.0) < 0.1, (a, b)
