"""Coupled PDE + shift experiments: setup, traces, audits, steady runs."""

import json
import os
import tempfile
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

import shocklab as sl
from shocklab.experiment import c2_bump, phase_aligned_steady


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


def test_positivity_precondition():
    with pytest.raises(ValueError):
        sl.initial_state(sl.build_setup(short_config(amplitude=-0.6)))


def test_from_velocity_mode_consistency():
    # prescribing velocity instead of h reproduces h up to the discrete
    # pressure-gradient error O(dx^2)
    st_d = sl.initial_state(sl.build_setup(short_config(perturb_kind="none")))
    st_v = sl.initial_state(sl.build_setup(short_config(perturb_kind="none",
                                                        h_mode="from-velocity")))
    assert np.abs(st_v.h - st_d.h).max() < 1e-6


def test_large_amplitude_kind_runs():
    cfg = short_config(perturb_kind="large-amplitude", amplitude=0.3,
                       amplitude_h=0.3, t_end_sigma=0.2)
    trace, (state, X), summary = sl.run_experiment(sl.build_setup(cfg))
    assert np.min(state.v) > 0
    assert np.isfinite(trace.Y).all()


def test_trace_structure_and_summary():
    cfg = short_config(record_sigma=0.05)
    setup = sl.build_setup(cfg)
    snaps = []
    trace, (state, X), summary = sl.run_experiment(setup, snapshots=snaps)
    n = len(trace.t)
    for name in ("X", "Xdot", "weighted_entropy", "Y", "B", "G", "R",
                 "branch_saturated", "overshoot", "sup_w"):
        assert len(getattr(trace, name)) == n
    assert np.all(np.diff(trace.t) > 0)
    assert len(snaps) == n
    assert snaps[0][0] == trace.t[0]
    for key in ("entropy_initial", "entropy_final", "max_record_increment",
                "max_shift_bound_ratio", "max_abs_X", "saturated_fraction",
                "wall_time_s"):
        assert key in summary, key
    assert summary["records"] == n


def test_sup_w_column_is_max_pressure_perturbation():
    cfg = short_config(record_sigma=0.05)
    setup = sl.build_setup(cfg)
    snaps = []
    trace, _, _ = sl.run_experiment(setup, snapshots=snaps)
    assert np.any(trace.X != 0.0)  # the shift moves, so X enters the check
    expected = [np.max(np.abs(setup.gas.pressure(v)
                              - setup.profile.pressure_profile(setup.grid.x - X)))
                for (_, v, _), X in zip(snaps, trace.X)]
    npt.assert_array_equal(trace.sup_w, expected)


def test_entropy_decreases_for_small_bump():
    cfg = sl.ExperimentConfig(span_over_eps=20.0, t_end_sigma=2.0,
                              amplitude=0.01, amplitude_h=0.01)
    trace, _, summary = sl.run_experiment(sl.build_setup(cfg))
    E = trace.weighted_entropy
    assert summary["entropy_final"] < summary["entropy_initial"]
    assert summary["max_record_increment"] < 0  # strictly decreasing here


def test_mass_conserved_until_boundary_contact():
    cfg = short_config(t_end_sigma=1.0, amplitude=0.02, amplitude_h=0.0)
    setup = sl.build_setup(cfg)
    st0 = sl.initial_state(setup)
    x = setup.grid.x
    v_tilde = setup.profile.v_profile(x)
    m0 = np.trapezoid(st0.v - v_tilde, x)
    trace, (state, X), _ = sl.run_experiment(setup)
    m1 = np.trapezoid(state.v - v_tilde, x)
    assert abs(m0) > 1e-4
    assert abs(m1 - m0) < 1e-8


def test_phase_aligned_steady_is_steady():
    setup = sl.build_setup(sl.ExperimentConfig(span_over_eps=20.0,
                                               steady_relax=True))
    state = phase_aligned_steady(setup)
    p = setup.gas.pressure(state.v)
    dv, dh = sl.semi_discrete_rhs(setup.profile.states.sigma, setup.grid,
                                  state.v, state.h, p)
    assert max(np.abs(dv).max(), np.abs(dh).max()) < 1e-10
    Y, B = sl.quick_yb(setup.grid.x, state.v, state.h, p, setup.weight)
    assert abs(Y) < 1e-12


def test_steady_run_holds_fixed_point():
    cfg = sl.ExperimentConfig(steady_relax=True, perturb_kind="none",
                              span_over_eps=20.0, t_end_sigma=1.0)
    trace, _, summary = sl.run_experiment(sl.build_setup(cfg))
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


def test_saturated_branch_bookkeeping():
    cfg = sl.ExperimentConfig(perturb_kind="bump", amplitude=0.2,
                              amplitude_h=1.2, width=5.0, span_over_eps=20.0,
                              t_end_sigma=1.0)
    trace, _, summary = sl.run_experiment(sl.build_setup(cfg))
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
    pr, wt, grid = setup.profile, setup.weight, setup.grid
    recs = []

    def on_record(s):
        bd = sl.compute_breakdown(grid.x, s.v, s.h, wt)
        recs.append((s.t, bd.weighted_entropy, bd.B, bd.G))

    sl.simulate(setup.gas, pr.states.sigma, grid, state,
                t_end=cfg.t_end_sigma / abs(pr.states.sigma),
                v_floor=0.1 * pr.states.v_plus, on_record=on_record,
                record_dt=0.01)
    t, E, B, G = map(np.array, zip(*recs))
    dEdt = (E[2:] - E[:-2]) / (t[2:] - t[:-2])
    rhs = (B - G)[1:-1]
    scale = np.maximum(np.abs(B) + np.abs(G), 1e-14)[1:-1]
    assert np.max(np.abs(dEdt - rhs) / scale) < 0.01


def test_identity_audit_structure():
    cfg = sl.ExperimentConfig(span_over_eps=10.0, t_end_sigma=0.5, width=5.0)
    audit = sl.identity_audit(cfg, refinements=(1,))
    level = audit["levels"][0]
    assert level["refine"] == 1
    assert level["max_rel"] < 0.01


def test_sweep_runs_overrides():
    base = short_config(t_end_sigma=0.2)
    res = sl.sweep(base, [{"amplitude": 0.005}, {"amplitude": 0.02}])
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
