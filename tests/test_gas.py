"""Barotropic gas closures: pressure law, entropy pair, and fitted bounds."""

import numpy as np
import numpy.testing as npt
import pytest

import shocklab as sl
from shocklab.gas import (
    local_expansion_report,
    pressure_inverse_combination,
    inverse_combination_sweep,
)


def test_pressure_reference_point(gas2):
    assert gas2.pressure(1.0) == 1.0
    assert gas2.dpressure(1.0) == -2.0
    assert gas2.p_minus == 1.0


def test_pressure_derivatives_match_finite_differences(gas2):
    v = np.linspace(0.3, 3.0, 41)
    eps = 1e-6
    fd1 = (gas2.pressure(v + eps) - gas2.pressure(v - eps)) / (2 * eps)
    npt.assert_allclose(gas2.dpressure(v), fd1, rtol=1e-8)
    fd2 = (gas2.dpressure(v + eps) - gas2.dpressure(v - eps)) / (2 * eps)
    npt.assert_allclose(gas2.d2pressure(v), fd2, rtol=1e-7)


def test_pressure_inverse_roundtrip(gas2):
    v = np.linspace(0.2, 5.0, 37)
    npt.assert_allclose(gas2.pressure_inverse(gas2.pressure(v)), v, rtol=1e-13)


def test_entropy_is_pressure_antiderivative(gas2):
    # entropy Q satisfies Q'(v) = -p(v) for the barotropic entropy pair
    v = np.linspace(0.4, 2.5, 21)
    eps = 1e-6
    fd = (gas2.entropy(v + eps) - gas2.entropy(v - eps)) / (2 * eps)
    npt.assert_allclose(fd, -gas2.pressure(v), rtol=1e-8)


def test_relative_quantities_hand_values(gas2):
    # gamma = 2: Q(v) = 1/v, p(v) = 1/v^2
    # Q(2|1) = 0.5 - 1 + p(1)*(2-1) = 0.5
    assert abs(gas2.q_relative(2.0, 1.0) - 0.5) < 1e-14
    # p(2|1) = 0.25 - 1 - p'(1)*(2-1) = 1.25
    assert abs(gas2.p_relative(2.0, 1.0) - 1.25) < 1e-14


def test_relative_quantities_vanish_on_diagonal(gas2):
    v = np.linspace(0.3, 3.0, 11)
    npt.assert_allclose(gas2.q_relative(v, v), 0.0, atol=1e-15)
    npt.assert_allclose(gas2.p_relative(v, v), 0.0, atol=1e-15)


def test_relative_quantities_nonnegative(gas2):
    rng = np.random.default_rng(7)
    v = rng.uniform(0.2, 4.0, 200)
    w = rng.uniform(0.2, 4.0, 200)
    assert np.all(gas2.q_relative(v, w) >= 0.0)
    assert np.all(gas2.p_relative(v, w) >= 0.0)


def test_eta_relative_quadratic_structure(gas2):
    v1, h1, v2, h2 = 1.3, 0.2, 1.1, -0.1
    direct = 0.5 * (h1 - h2) ** 2 + gas2.q_relative(v1, v2)
    assert abs(sl.eta_relative(gas2, v1, h1, v2, h2) - direct) < 1e-15
    assert sl.eta_relative(gas2, v2, h2, v2, h2) == 0.0


def test_layer_constant_value(gas2):
    # gamma*c*p_minus/(gamma+1) with c = sqrt(-p'(v_minus)) = sqrt(2)
    assert abs(gas2.layer_constant - 2.0 * np.sqrt(2.0) / 3.0) < 1e-14


def test_gas_model_validation():
    with pytest.raises(ValueError):
        sl.GasModel(1.0, 1.0)
    with pytest.raises(ValueError):
        sl.GasModel(2.0, -1.0)


def test_fitted_bound_constants_frozen(gas2):
    c = sl.fit_bound_constants(gas2)
    npt.assert_allclose(
        [c.c_quad_low, c.c_lin_far, c.c_lip_p],
        [0.3184113654, 0.6356575468, 50.1415494513],
        rtol=1e-6,
    )
    assert c.c_prel_quad > 0 and c.c_prel_mixed > 0 and c.c_pq > 0


def test_global_bounds_hold_on_sweep(gas2):
    c = sl.fit_bound_constants(gas2)
    rng = np.random.default_rng(11)
    states = pr_states = None
    for _ in range(200):
        w = rng.uniform(0.26, 0.99)
        v = rng.uniform(0.05, 40.0)
        rep = sl.check_global_bounds(gas2, v, w, c)
        assert not rep["rejected"]
        assert rep["all_ok"], (v, w, rep)


def test_global_bounds_rejects_out_of_scope_base_point(gas2):
    c = sl.fit_bound_constants(gas2)
    rep = sl.check_global_bounds(gas2, 1.0, 0.1, c)  # w below v_minus/4
    assert rep["rejected"]


def test_local_expansion_limits(gas2):
    # second-order ratios vs pressure deviation at w = 1, gamma = 2:
    # p(v|w)/dp^2 -> (gamma+1)/(2 gamma p(w)) = 3/4,  q(v|w)/dp^2 -> 1/4
    rep = local_expansion_report(gas2, 1.0, 1e-4)
    assert abs(rep["limit_p"] - 0.75) < 1e-14
    assert abs(rep["limit_q"] - 0.25) < 1e-14
    assert rep["max_reldev_p"] < 2e-3
    assert rep["max_reldev_q"] < 2e-3


def test_local_expansion_reldev_scales_with_delta(gas2):
    r3 = local_expansion_report(gas2, 1.0, 1e-3)
    r4 = local_expansion_report(gas2, 1.0, 1e-4)
    assert r4["max_reldev_p"] < r3["max_reldev_p"]


def test_inverse_combination_second_order(gas2):
    sups, slope = inverse_combination_sweep(gas2, [0.1, 0.05, 0.025])
    assert 1.7 < slope < 2.3
    assert sups[0] > sups[1] > sups[2] > 0


def test_inverse_combination_domain_is_strict(gas2):
    p_minus, p_plus = 1.0, 1.1
    mid = pressure_inverse_combination(gas2, p_minus, p_plus, 1.05)
    assert abs(mid) < 0.01
    with pytest.raises(ValueError):
        pressure_inverse_combination(gas2, p_minus, p_plus, p_minus)


def test_report_functions_check_their_inputs(gas2):
    # the closures no longer validate, so the report functions that take
    # user data keep their own checks at the boundary
    for w in (0.0, -1.0, np.nan):
        with pytest.raises(ValueError):
            local_expansion_report(gas2, w, 1e-4)
    with pytest.raises(ValueError):
        pressure_inverse_combination(gas2, 1.0, 1.1, np.array([1.05, np.nan]))
