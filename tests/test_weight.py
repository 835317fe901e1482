"""Monotone weight built from the profile pressure: bounds, TV, derivatives."""

import numpy as np
import numpy.testing as npt
import pytest

import shocklab as sl


def test_weight_is_affine_in_profile_pressure(profile01, weight01):
    # a(xi) = 1 - lam*(p_tilde(xi) - p_minus)/eps by construction
    x = np.linspace(-80.0, 80.0, 2001)
    lam, eps = 0.5, profile01.states.eps
    expected = 1.0 - lam * (profile01.pressure_profile(x) - profile01.states.gas.p_minus) / eps
    npt.assert_allclose(weight01.a(x), expected, atol=1e-14)


def test_weight_report_bounds_and_tv(weight01):
    rep = sl.weight_report(weight01)
    assert rep["a_min"] >= 0.5 - 1e-12
    assert rep["a_max"] <= 1.0 + 1e-12
    assert rep["monotone_decreasing"]
    assert rep["sigma_da_nonneg"]
    # total variation equals lam to quadrature accuracy
    assert abs(rep["tv_minus_lam"]) < 1e-10


def test_weight_second_derivative_scale(weight01):
    # sup |a''| / (eps * sup |a'|) stays order one (frozen ~0.508)
    rep = sl.weight_report(weight01)
    assert 0.3 < rep["sup_d2a_over_eps_da"] < 1.0


def test_weight_slope_equivalent_to_profile_slope(weight01, profile01):
    # |a'| = (lam/eps)|p_tilde'| = (lam/eps)|p'(v)| |v_tilde'|, so the ratio
    # |a'| / ((lam/eps)|v_tilde'|) ranges over |p'| along the profile
    rep = sl.weight_report(weight01)
    gas = profile01.states.gas
    lo = abs(gas.dpressure(gas.v_minus))
    hi = abs(gas.dpressure(profile01.states.v_plus))
    assert rep["equiv_da_dv_min"] >= lo - 1e-9
    assert rep["equiv_da_dv_max"] <= hi + 1e-9


def test_weight_derivatives_match_fd(weight01):
    x = np.linspace(-30.0, 30.0, 101)
    d = 1e-5
    fd = (weight01.a(x + d) - weight01.a(x - d)) / (2 * d)
    npt.assert_allclose(weight01.da(x), fd, atol=1e-9)
    fd2 = (weight01.da(x + d) - weight01.da(x - d)) / (2 * d)
    npt.assert_allclose(weight01.d2a(x), fd2, atol=1e-8)


def test_weight_frame_matches_pointwise(weight01):
    x = np.linspace(-10.0, 10.0, 41)
    fr = weight01.frame(x)
    npt.assert_array_equal(fr["a"], weight01.a(x))
    npt.assert_array_equal(fr["da"], weight01.da(x))
    npt.assert_array_equal(fr["d2a"], weight01.d2a(x))


def test_weight_lambda_validation(profile01):
    with pytest.raises(ValueError):
        sl.build_weight(profile01, 0.0)
    with pytest.raises(ValueError):
        sl.build_weight(profile01, 0.6)


def test_weight_extreme_admissible_lambda(profile01):
    wt = sl.build_weight(profile01, 0.5)
    assert wt.a(np.array([1e6]))[0] >= 0.5 - 1e-12
