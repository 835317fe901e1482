"""Viscous shock profile: end states, ODE residual, monotonicity, tails."""

import os
import tempfile

import numpy as np
import numpy.testing as npt
import pytest

import shocklab as sl
from shocklab.profile import layer_coordinate_residual


# Frozen reference values for gamma = 2, v_minus = 1, u_minus = 0, eps = 0.1,
# produced by the end-state solver and kept as regression anchors.
V_PLUS = 0.9534625892455922
U_PLUS = -0.0682183338659101
SIGMA = -1.4658815941849288


def test_end_states_frozen_values(gas2):
    st = sl.end_states_from_amplitude(gas2, 0.1)
    npt.assert_allclose([st.v_plus, st.u_plus, st.sigma], [V_PLUS, U_PLUS, SIGMA], rtol=1e-12)


def test_end_states_rankine_hugoniot(gas2):
    st = sl.end_states_from_amplitude(gas2, 0.1)
    r1, r2 = st.rankine_hugoniot_residuals()
    assert abs(r1) < 1e-12 and abs(r2) < 1e-12


def test_end_states_amplitude_definition(gas2):
    # eps is the pressure jump: p_plus - p_minus = eps
    st = sl.end_states_from_amplitude(gas2, 0.1)
    assert abs((st.p_plus - st.p_minus) - 0.1) < 1e-12


def test_end_states_lax_ordering(gas2):
    # compressive back-to-front: v decreases, pressure increases
    st = sl.end_states_from_amplitude(gas2, 0.1)
    assert st.v_plus < st.gas.v_minus
    assert st.sigma < 0


def test_end_states_validation(gas2):
    with pytest.raises(ValueError):
        sl.end_states_from_amplitude(gas2, 0.0)
    with pytest.raises(ValueError):
        sl.end_states_from_amplitude(gas2, -0.1)


def test_profile_ode_residual(profile01):
    assert profile01.ode_residual_sup() < 1e-10


def test_profile_monotone(profile01):
    assert profile01.monotone()


def test_profile_centering(profile01):
    # v at xi = 0 sits at the midpoint of the end volumes
    st = profile01.states
    mid = 0.5 * (st.gas.v_minus + st.v_plus)
    assert abs(profile01.v_profile(0.0) - mid) < 1e-10


def test_profile_end_limits(profile01):
    st = profile01.states
    xi = profile01.xi
    assert abs(profile01.v_profile(xi[0]) - st.gas.v_minus) < 1e-9
    assert abs(profile01.v_profile(xi[-1]) - st.v_plus) < 1e-9


def test_h_slaved_to_pressure(profile01):
    # steady relation: sigma*h - p is constant, equal to sigma*u_minus - p_minus
    st = profile01.states
    x = np.linspace(profile01.xi[0], profile01.xi[-1], 4001)
    c = st.sigma * profile01.h_profile(x) - profile01.pressure_profile(x)
    c_ref = st.sigma * st.gas.u_minus - st.gas.p_minus
    assert np.max(np.abs(c - c_ref)) < 1e-11


def test_frame_consistency(profile01):
    # points past both ends of the stored window exercise the tail splices
    x = np.linspace(profile01.xi[0] - 30.0, profile01.xi[-1] + 30.0, 501)
    fr = profile01.frame(x)
    npt.assert_array_equal(fr["p"], profile01.pressure_profile(x))
    npt.assert_array_equal(fr["dp"], profile01.dpressure_profile(x))
    npt.assert_array_equal(fr["v"], profile01.v_profile(x))
    npt.assert_array_equal(fr["dv"], profile01.dv_profile(x))
    npt.assert_array_equal(fr["h"], profile01.h_profile(x))
    npt.assert_array_equal(fr["dh"], profile01.dh_profile(x))


def test_derivative_profiles_match_fd(profile01):
    x = np.linspace(-20.0, 20.0, 101)
    d = 1e-5
    fd = (profile01.v_profile(x + d) - profile01.v_profile(x - d)) / (2 * d)
    npt.assert_allclose(profile01.dv_profile(x), fd, atol=1e-8)
    fd_h = (profile01.h_profile(x + d) - profile01.h_profile(x - d)) / (2 * d)
    npt.assert_allclose(profile01.dh_profile(x), fd_h, atol=1e-8)


def test_layer_coordinate_roundtrip(profile01):
    y = np.linspace(0.05, 0.95, 19)
    xi = profile01.xi_of_y(y)
    npt.assert_allclose(profile01.y_of(xi), y, atol=1e-6)


def test_tail_rates_linear_in_eps_prediction(profile01):
    rep = sl.tail_decay_report(profile01)
    # fitted rates agree with the linearized end-state rates to ~0.2%
    assert abs(rep["rate_minus_fit"] / rep["rate_minus_lin"] - 1.0) < 2e-3
    assert abs(rep["rate_plus_fit"] / rep["rate_plus_lin"] - 1.0) < 2e-3


def test_analytic_tail_rates_frozen(profile01):
    rm, rp = sl.analytic_tail_rates(profile01.states)
    npt.assert_allclose([rm, rp], [0.0507574584, 0.0468818567], rtol=1e-8)


def test_interior_floor_scale(profile01):
    rep = sl.tail_decay_report(profile01)
    # min |p'| over the central half-layer, divided by eps^2: order 0.05
    assert 0.03 < rep["interior_floor_over_eps2"] < 0.08


def test_layer_coordinate_closure(profile01):
    # y(xi) solves y' = (eps/2 alpha) y(1-y) up to O(eps^2)
    rep = layer_coordinate_residual(profile01)
    assert rep["sup_residual"] / rep["sup_dy"] < 0.12


def test_solver_rejects_bad_eps(gas2):
    with pytest.raises(ValueError):
        sl.solve_profile(gas2, -0.1)


def test_profile_csv_export(profile01, weight01):
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "profile.csv")
        sl.write_profile_csv(profile01, path, weight=weight01)
        with open(path) as f:
            header = f.readline().strip()
            rows = f.readlines()
    cols = header.split(",")
    assert cols == ["xi", "v", "h", "p", "dp", "a", "da", "d2a"]
    assert len(rows) > 100
    data = np.loadtxt(rows, delimiter=",")
    assert data.shape == (len(rows), len(cols))
    # each column is the field at the stored samples, written to the last bit
    fields = profile01._fields(profile01.p)
    wf = weight01.frame(profile01.xi)
    npt.assert_array_equal(data[:, 0], profile01.xi)
    for j, key in enumerate(cols[1:5], start=1):
        npt.assert_array_equal(data[:, j], fields[key])
    for j, key in enumerate(cols[5:], start=5):
        npt.assert_array_equal(data[:, j], wf[key])


def test_frame_carries_gas_closures_at_v_tilde(profile01, setup_default):
    # p(v_tilde), q(v_tilde) and p'(v_tilde) ride in the frame, equal to the
    # GasModel closures at pf["v"]; dp derived from v_tilde equals the ODE
    # right-hand side evaluated the long way
    gas = profile01.gas
    x = setup_default.grid.x - 0.37
    pf = profile01.frame(x)
    assert np.array_equal(pf["pv"], gas.pressure(pf["v"]))
    assert np.array_equal(pf["qv"], gas.entropy(pf["v"]))
    assert np.array_equal(pf["dpv"], gas.dpressure(pf["v"]))
    assert np.array_equal(pf["dp"], profile01.dpressure_profile(x))


def test_pressure_profile_values_do_not_depend_on_the_other_points(profile01):
    # each point is evaluated on its own: a tail point in the same call must
    # not move the in-window values, and a NaN point gives NaN
    x = np.linspace(profile01.xi[0], profile01.xi[-1], 1001)
    with_tail = np.append(x, profile01.xi[-1] + 5.0)
    assert np.array_equal(profile01.pressure_profile(x),
                          profile01.pressure_profile(with_tail)[:-1])
    out = profile01.pressure_profile(np.array([np.nan, 0.0]))
    assert np.isnan(out[0]) and out[1] == profile01.pressure_profile(0.0)
