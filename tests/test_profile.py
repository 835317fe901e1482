"""Viscous shock profile: end states, ODE residual, monotonicity, tails."""

import dataclasses
import os
import tempfile
import warnings

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


@pytest.mark.parametrize("eps", [1e-17, 1e-9, 9.99e-4])
def test_end_states_reject_an_eps_the_window_cannot_hold(gas2, eps):
    # at 1e-17 p_plus rounds to p_minus; at 1e-9 the knot Newton fails; below
    # 2.2e-4*p(v_minus) the window's 1e-12*eps gap rounds away
    with pytest.raises(ValueError, match="eps out of supported range"):
        sl.end_states_from_amplitude(gas2, eps)
    sl.end_states_from_amplitude(gas2, 1e-3)


def test_knot_spacing_follows_the_window_not_the_half_width():
    # the window ends at |xi| ~ 570 long before L = 1e10, so a knot spacing
    # floored by 2L/500000 would leave 17 knots
    profile = sl.solve_profile(sl.GasModel(2.0, 1.0), 0.1, span_over_eps=1e9)
    assert profile.ode_residual_sup() < 1e-10  # criterion 06


def test_profile_ode_residual(profile01):
    assert profile01.ode_residual_sup() < 1e-10


def test_profile_monotone(profile01):
    assert profile01.monotone()


def test_profile_monotone_where_tail_knots_round_to_one_double():
    # at gamma = 1.4 far-tail neighbours round to the same double: the knot
    # differences hold exact zeros and no negative, and the profile is monotone
    profile = sl.solve_profile(sl.GasModel(1.4, 1.0), 0.1)
    assert np.any(np.diff(profile.p) == 0.0)
    assert profile.monotone()


def test_profile_with_one_swapped_knot_pair_is_not_monotone(profile01):
    # negative control: swapping two neighbouring knots breaks monotonicity
    p = profile01.p.copy()
    i = p.size // 2
    p[i], p[i + 1] = p[i + 1], p[i]
    assert not dataclasses.replace(profile01, p=p).monotone()


def test_profile_centering(profile01):
    # v at xi = 0 sits at the midpoint of the end volumes
    st = profile01.states
    mid = 0.5 * (st.gas.v_minus + st.v_plus)
    assert abs(profile01.frame(0.0)["v"] - mid) < 1e-10


def test_profile_end_limits(profile01):
    st = profile01.states
    v = profile01.frame(profile01.xi[[0, -1]])["v"]
    assert abs(v[0] - st.gas.v_minus) < 1e-9
    assert abs(v[1] - st.v_plus) < 1e-9


def test_h_slaved_to_pressure(profile01):
    # steady relation: sigma*h - p is constant, equal to sigma*u_minus - p_minus
    st = profile01.states
    x = np.linspace(profile01.xi[0], profile01.xi[-1], 4001)
    fr = profile01.frame(x)
    c = st.sigma * fr["h"] - fr["p"]
    c_ref = st.sigma * st.gas.u_minus - st.gas.p_minus
    assert np.max(np.abs(c - c_ref)) < 1e-11


def test_frame_consistency(profile01):
    # points past both ends of the stored window exercise the tail splices
    x = np.linspace(profile01.xi[0] - 30.0, profile01.xi[-1] + 30.0, 501)
    fr = profile01.frame(x)
    npt.assert_array_equal(fr["p"], profile01.pressure_profile(x))


def test_derivative_profiles_match_fd(profile01):
    x = np.linspace(-20.0, 20.0, 101)
    d = 1e-5
    fr, up, down = (profile01.frame(x + s) for s in (0.0, d, -d))
    npt.assert_allclose(fr["dv"], (up["v"] - down["v"]) / (2 * d), atol=1e-8)
    npt.assert_allclose(fr["dh"], (up["h"] - down["h"]) / (2 * d), atol=1e-8)


def test_tail_rates_linear_in_eps_prediction(profile01):
    rep = sl.tail_decay_report(profile01)
    # fitted rates agree with the linearized end-state rates to ~0.2%
    assert abs(rep["rate_minus_fit"] / rep["rate_minus_lin"] - 1.0) < 2e-3
    assert abs(rep["rate_plus_fit"] / rep["rate_plus_lin"] - 1.0) < 2e-3


def test_analytic_tail_rates_frozen(profile01):
    rm, rp = sl.analytic_tail_rates(profile01.states)
    npt.assert_allclose([rm, rp], [0.0507574584, 0.0468818567], rtol=1e-8)


def test_splice_rates_are_the_linearized_rates():
    # at gamma 100 the outer knots are not yet in the exponential regime: a
    # fit on them misses the rate by about 17%, so the tails beyond the
    # window continue at the linearized rates instead
    profile = sl.solve_profile(sl.GasModel(100.0, 1.0), 0.1)
    rm, rp = sl.analytic_tail_rates(profile.states)
    assert profile.tail_rate_minus == rm and profile.tail_rate_plus == rp
    rep = sl.tail_decay_report(profile)
    assert rep["rate_plus_fit"] < 0.9 * rp and rep["rate_minus_fit"] < 0.9 * rm


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


def test_frame_carries_gas_closures_at_v_tilde(profile01, weight01, setup_default):
    # p'(v_tilde) rides in the profile frame and p(v_tilde), q(v_tilde) in the
    # functional frame, the kernel's only reader of them, each equal to the
    # GasModel closure at the frame's v
    gas = profile01.gas
    x = setup_default.grid.x - 0.37
    pf = profile01.frame(x)
    assert np.array_equal(pf["dpv"], gas.dpressure(pf["v"]))
    assert "pv" not in pf and "qv" not in pf
    ff = sl.functional_frame(weight01, x)
    assert np.array_equal(ff["v"], pf["v"])
    assert np.array_equal(ff["pv"], gas.pressure(ff["v"]))
    assert np.array_equal(ff["qv"], gas.entropy(ff["v"]))


def test_pressure_profile_values_do_not_depend_on_the_other_points(profile01):
    # each point is evaluated on its own: a tail point in the same call must
    # not move the in-window values, and a NaN point gives NaN, with no
    # warning, in an array or on its own
    x = np.linspace(profile01.xi[0], profile01.xi[-1], 1001)
    with_tail = np.append(x, profile01.xi[-1] + 5.0)
    assert np.array_equal(profile01.pressure_profile(x),
                          profile01.pressure_profile(with_tail)[:-1])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = profile01.pressure_profile(np.array([np.nan, 0.0]))
        alone = profile01.pressure_profile(np.nan)
    assert np.isnan(out[0]) and out[1] == profile01.pressure_profile(0.0)
    assert alone.shape == () and np.isnan(alone)


def hermite_pressure_profile(profile, x):
    """p_tilde through scipy's CubicHermiteSpline on (xi, p, f(p)) and the tail splice."""
    from scipy.interpolate import CubicHermiteSpline

    x = np.asarray(x, dtype=float)
    lo, hi = profile.xi[0], profile.xi[-1]
    st = profile.states
    spline = CubicHermiteSpline(profile.xi, profile.p, profile._fields(profile.p)["dp"])
    out = spline(x)
    left, right = x < lo, x > hi
    # the tails start from the edge gaps of the knots
    out[left] = st.p_minus + (profile.p[0] - st.p_minus) * np.exp(
        profile.tail_rate_minus * (x[left] - lo))
    out[right] = st.p_plus - (st.p_plus - profile.p[-1]) * np.exp(
        -profile.tail_rate_plus * (x[right] - hi))
    np.clip(out, st.p_minus, st.p_plus, out=out)
    return out


@pytest.mark.parametrize("gamma, eps", [(2.0, 0.1), (2.0, 0.05), (1.4, 0.1), (1.4, 0.05)])
def test_pressure_profile_is_scipys_spline_bit_for_bit(gamma, eps):
    # the cell index comes from a search of the knots and the cubic is
    # evaluated in scipy's order; every value must be CubicHermiteSpline's
    # on the knot values and the ODE slopes there
    profile = sl.solve_profile(sl.GasModel(gamma, 1.0), eps)
    xi = profile.xi
    lo, hi = xi[0], xi[-1]
    rng = np.random.default_rng(7)
    cases = {
        "random": rng.uniform(lo, hi, 50_000),
        "knots": xi,
        "above knots": np.nextafter(xi, np.inf),
        "below knots": np.nextafter(xi, -np.inf),
        "window ends": np.array([lo, hi, np.nextafter(lo, 0.0), np.nextafter(hi, 0.0)]),
        "outside": np.concatenate([rng.uniform(lo - 200.0, lo, 500),
                                   rng.uniform(hi, hi + 200.0, 500), [-1e300, 1e300]]),
        "2-d": rng.uniform(lo, hi, (40, 25)),
    }
    for name, x in cases.items():
        got = profile.pressure_profile(x)
        want = hermite_pressure_profile(profile, x)
        assert got.shape == x.shape and np.array_equal(got, want), name
    for x in (0.0, np.float64(0.3), np.float64(hi), np.float64(lo - 1.0)):
        got = profile.pressure_profile(x)
        assert type(got) is np.ndarray and got.shape == ()
        assert got == hermite_pressure_profile(profile, x)


@pytest.mark.parametrize("gamma, eps", [(2.0, 0.1), (2.0, 0.05), (1.4, 0.1), (1.4, 0.05)])
def test_ode_residual_sees_one_wrong_knot(gamma, eps):
    # the residual is read between the knots, where the Hermite form does not
    # take its slope from the ODE: one knot raised by 1e-9*eps must push it
    # above criterion 06's bound of 1e-10
    profile = sl.solve_profile(sl.GasModel(gamma, 1.0), eps)
    assert profile.ode_residual_sup() < 1e-12
    for i in (profile.xi.size // 3, int(np.searchsorted(profile.xi, 0.0)), profile.xi.size - 5):
        p = profile.p.copy()
        p[i] += 1e-9 * eps
        assert dataclasses.replace(profile, p=p).ode_residual_sup() > 1e-10, i


@pytest.mark.parametrize("gamma, eps, ends", [
    # the window ends where p_tilde is 1e-12*eps from its limit, from a
    # 40-digit quadrature of the same ODE (mpmath), where that comes before L
    (1.4, 0.1, (-398.845508709, 435.457172522)),
    (1.4, 0.05, (-780.476113456, 816.363925868)),
])
def test_window_ends_where_the_gap_is_1e12_eps(gamma, eps, ends):
    profile = sl.solve_profile(sl.GasModel(gamma, 1.0), eps, span_over_eps=50.0)
    npt.assert_allclose([profile.xi[0], profile.xi[-1]], ends, rtol=1e-9)
    st = profile.states
    npt.assert_allclose([profile.p[0] - st.p_minus, st.p_plus - profile.p[-1]],
                        1e-12 * eps, rtol=5e-3)  # p itself rounds to 1e-16


# p_tilde at nine knots of the gamma = 2, eps = 0.1 profile (window +-400,
# 29,139 knots) from a 40-digit quadrature of the same ODE (mpmath: xi(p) =
# int dp/f(p) from p_tilde(0) = p(v_mid), solved for p at each knot's xi)
KNOTS = {  # index: (xi, p_tilde)
    0: (-400.0, 1.0000000001496838),
    3642: (-300.00686388907957, 1.0000000239547744),
    7284: (-200.0137277781591, 1.0000038334629682),
    10926: (-100.02059166723865, 1.000609468199547),
    14569: (0.0, 1.0482136102666386),
    18211: (99.99313611092045, 1.0990725949031053),
    21853: (199.9862722218409, 1.0999913888690958),
    25495: (299.97940833276135, 1.0999999207168287),
    29138: (400.0, 1.0999999992710312),
}


def test_knot_values_solve_the_ode_to_roundoff(profile01):
    assert profile01.xi.size == 29_139
    idx = list(KNOTS)
    xi_ref, p_ref = np.array(list(KNOTS.values())).T
    npt.assert_allclose(profile01.xi[idx], xi_ref, rtol=0, atol=1e-12)
    npt.assert_allclose(profile01.p[idx], p_ref, rtol=0, atol=1e-14 * 0.1)
