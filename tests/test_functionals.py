"""Weighted relative-entropy functionals and their decompositions."""

import numpy as np
import numpy.testing as npt
import pytest

import shocklab as sl
from shocklab.functionals import (FrameCache, _trapz, _yb_kernel,
                                  weighted_q_probe)


@pytest.fixture(scope="module")
def wide_x(setup_default):
    return setup_default.grid.x


def perturbed_state(profile, x, amp=0.01, seed=5):
    rng = np.random.default_rng(seed)
    base = np.exp(-((x - 2.0) / 6.0) ** 2)
    wob = np.exp(-(x / 15.0) ** 2) * np.cos(0.7 * x)
    v = profile.v_profile(x) + amp * base + 0.3 * amp * wob
    h = profile.h_profile(x) + amp * np.exp(-((x + 4.0) / 8.0) ** 2)
    return v, h


def test_all_functionals_vanish_at_profile(profile01, weight01, wide_x):
    x = wide_x
    bd = sl.compute_breakdown(x, profile01.v_profile(x), profile01.h_profile(x),
                              profile01, weight01)
    for name in ("Y", "Y_g", "Y_b", "Y_l", "B1", "B2", "B", "G1", "G2", "D", "G"):
        assert abs(getattr(bd, name)) < 1e-13, name
    assert abs(bd.weighted_entropy) < 1e-13


def test_decomposition_identities(profile01, weight01, wide_x):
    v, h = perturbed_state(profile01, wide_x)
    bd = sl.compute_breakdown(wide_x, v, h, profile01, weight01)
    assert abs(bd.Y - (bd.Y_g + bd.Y_b + bd.Y_l)) < 1e-14
    assert abs(bd.B - (bd.B1 + bd.B2)) < 1e-14
    assert abs(bd.G - (bd.G1 + bd.G2 + bd.D)) < 1e-14


def test_sign_structure(profile01, weight01, wide_x):
    # good terms are nonnegative by construction, for any admissible state
    for seed in range(5):
        v, h = perturbed_state(profile01, wide_x, amp=0.02, seed=seed)
        bd = sl.compute_breakdown(wide_x, v, h, profile01, weight01)
        assert bd.G1 >= 0 and bd.G2 >= 0 and bd.D >= 0
        assert bd.B1 >= 0  # sigma * v_tilde' > 0 and p(v|v_tilde) >= 0
        assert bd.weighted_entropy > 0


def test_entropy_weight_sandwich(profile01, weight01, wide_x):
    # a in [1/2, 1] pinches the weighted entropy between half and one times
    # the unweighted relative entropy
    v, h = perturbed_state(profile01, wide_x)
    bd = sl.compute_breakdown(wide_x, v, h, profile01, weight01)
    gas = profile01.states.gas
    eta = sl.eta_relative(gas, v, h, profile01.v_profile(wide_x),
                          profile01.h_profile(wide_x))
    unweighted = np.trapezoid(eta, wide_x)
    assert 0.5 * unweighted - 1e-12 <= bd.weighted_entropy <= unweighted + 1e-12


def test_quick_yb_agrees_with_breakdown(profile01, weight01, wide_x):
    v, h = perturbed_state(profile01, wide_x)
    for shift in (0.0, 0.37, -1.2):
        bd = sl.compute_breakdown(wide_x, v, h, profile01, weight01, shift=shift)
        Y, B = sl.quick_yb(wide_x, v, h, profile01, weight01, shift=shift)
        # one kernel computes both, so they agree to the last bit
        assert Y == bd.Y
        assert B == bd.B


def test_shift_moves_frame(profile01, weight01, wide_x):
    # a state equal to a translated profile scores zero at the matching
    # shift (frames evaluate the profile at x - shift)
    x = wide_x
    v = profile01.v_profile(x + 0.8)
    h = profile01.h_profile(x + 0.8)
    bd0 = sl.compute_breakdown(x, v, h, profile01, weight01, shift=0.0)
    bd1 = sl.compute_breakdown(x, v, h, profile01, weight01, shift=-0.8)
    assert bd1.weighted_entropy < 1e-13
    assert bd0.weighted_entropy > 1e-5
    assert abs(bd1.Y) < 1e-13


def test_frame_cache_consistency(profile01, weight01, wide_x):
    v, h = perturbed_state(profile01, wide_x)
    cache = FrameCache()
    for shift in (0.0, 0.0, 1e-9, 0.5, 0.5 + 5e-7, -0.3):
        y_direct = sl.quick_yb(wide_x, v, h, profile01, weight01, shift=shift)
        y_cached = sl.quick_yb(wide_x, v, h, profile01, weight01, shift=shift,
                               cache=cache)
        # cache reuse introduces at most ~|dshift| * sup|d(a eta)/dx| error
        assert abs(y_direct[0] - y_cached[0]) < 1e-6
        assert abs(y_direct[1] - y_cached[1]) < 1e-6


def test_frame_cache_exact_on_refresh(profile01, weight01, wide_x):
    v, h = perturbed_state(profile01, wide_x)
    cache = FrameCache()
    first = sl.quick_yb(wide_x, v, h, profile01, weight01, shift=0.0, cache=cache)
    moved = sl.quick_yb(wide_x, v, h, profile01, weight01, shift=2.0, cache=cache)
    direct = sl.quick_yb(wide_x, v, h, profile01, weight01, shift=2.0)
    assert moved == direct  # jump beyond tolerance forces a fresh frame


def test_truncation_clips_toward_profile(profile01, wide_x):
    x = wide_x
    v = profile01.v_profile(x) - 0.05 * np.exp(-(x / 10.0) ** 2)
    level = 0.02
    vt = sl.truncate_state(x, v, profile01, 0.0, level)
    p = profile01.states.gas.pressure
    w_before = p(v) - profile01.pressure_profile(x)
    w_after = p(vt) - profile01.pressure_profile(x)
    assert np.max(np.abs(w_after)) <= level + 1e-12
    # clipping never increases the pressure deviation and keeps its sign
    assert np.all(np.abs(w_after) <= np.abs(w_before) + 1e-14)
    assert np.all(w_after * w_before >= -1e-16)


def test_truncation_identity_below_level(profile01, wide_x):
    x = wide_x
    v = profile01.v_profile(x) - 1e-4 * np.exp(-(x / 10.0) ** 2)
    vt = sl.truncate_state(x, v, profile01, 0.0, 0.02)
    npt.assert_allclose(vt, v, rtol=0, atol=1e-14)


def test_bd_relative_functional_properties(profile01, wide_x):
    x = wide_x
    st = profile01.states
    v_tilde = profile01.v_profile(x)
    u_tilde = profile01.h_profile(x) - profile01.dpressure_profile(x)
    assert sl.bd_relative_functional(x, v_tilde, u_tilde, profile01) < 1e-12
    v = v_tilde + 0.02 * np.exp(-(x / 8.0) ** 2)
    val = sl.bd_relative_functional(x, v, u_tilde, profile01)
    assert val > 0


def test_normalized_layer_variables(profile01, weight01, wide_x):
    x = wide_x
    v = profile01.v_profile(x) + 1e-3 * np.exp(-(x / 5.0) ** 2)
    y, W = sl.normalized_layer_variables(x, v, profile01, weight01, 0.0)
    assert np.all(np.diff(y) > 0)
    assert y[0] >= 1e-3 - 1e-12 and y[-1] <= 1.0 - 1e-3 + 1e-12
    # at the exact profile W vanishes identically
    y0, W0 = sl.normalized_layer_variables(x, profile01.v_profile(x), profile01,
                                           weight01, 0.0)
    assert np.abs(W0).max() < 1e-12


def test_normalized_layer_variables_window_check(profile01, weight01):
    x = np.linspace(-40.0, 40.0, 401)  # far narrower than the layer window
    v = profile01.v_profile(x)
    with pytest.raises(ValueError):
        sl.normalized_layer_variables(x, v, profile01, weight01, 0.0)


def test_weighted_q_probe_smoke(profile01, weight01):
    rep = weighted_q_probe(profile01, weight01)
    eps, lam = 0.1, 0.5
    assert rep["t_star"] > 0
    # the nontrivial zero of Y sits at t ~ eps/lam
    assert 0.5 < rep["t_star_over_eps_by_lam"] < 2.5
    # the weighted Q integral at that state scales like eps^2/lam
    assert 0.05 < rep["ratio"] < 20.0


def test_kernel_relative_quantities_match_gas_closures_bitwise(profile01, weight01, wide_x):
    # the kernel evaluates p(v) and q(v) once and takes the closures at
    # v_tilde from the frame; the results must be the GasModel ones, bit for
    # bit.  p(v|v_tilde) enters only B1, so it is checked through B1.
    v, h = perturbed_state(profile01, wide_x)
    gas = profile01.gas
    sig, dx = profile01.sigma, wide_x[1] - wide_x[0]
    pf = weight01.frame(wide_x - 0.37)
    a = pf["a"]
    out = _yb_kernel(v, h, gas, sig, dx, pf)
    assert np.array_equal(out[5], gas.q_relative(v, pf["v"]))
    assert out[1] == sig * _trapz(a * pf["dv"] * gas.p_relative(v, pf["v"]), dx)
    assert np.array_equal(out[3], gas.pressure(v) - pf["p"])
