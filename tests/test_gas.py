"""Barotropic gas closures: pressure law and entropy pair."""

import numpy as np
import numpy.testing as npt
import pytest

import shocklab as sl
from references import p_relative, q_relative


def test_pressure_reference_point(gas2):
    assert gas2.pressure(1.0) == 1.0
    assert gas2.dpressure(1.0) == -2.0
    assert gas2.p_minus == 1.0


def test_pressure_derivatives_match_finite_differences(gas2):
    v = np.linspace(0.3, 3.0, 41)
    eps = 1e-6
    fd1 = (gas2.pressure(v + eps) - gas2.pressure(v - eps)) / (2 * eps)
    npt.assert_allclose(gas2.dpressure(v), fd1, rtol=1e-8)


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
    assert abs(q_relative(gas2, 2.0, 1.0) - 0.5) < 1e-14
    # p(2|1) = 0.25 - 1 - p'(1)*(2-1) = 1.25
    assert abs(p_relative(gas2, 2.0, 1.0) - 1.25) < 1e-14


def test_relative_quantities_vanish_on_diagonal(gas2):
    v = np.linspace(0.3, 3.0, 11)
    npt.assert_allclose(q_relative(gas2, v, v), 0.0, atol=1e-15)
    npt.assert_allclose(p_relative(gas2, v, v), 0.0, atol=1e-15)


def test_relative_quantities_nonnegative(gas2):
    rng = np.random.default_rng(7)
    v = rng.uniform(0.2, 4.0, 200)
    w = rng.uniform(0.2, 4.0, 200)
    assert np.all(q_relative(gas2, v, w) >= 0.0)
    assert np.all(p_relative(gas2, v, w) >= 0.0)


def test_layer_constant_value(gas2):
    # gamma*c*p_minus/(gamma+1) with c = sqrt(-p'(v_minus)) = sqrt(2)
    assert abs(gas2.layer_constant - 2.0 * np.sqrt(2.0) / 3.0) < 1e-14


def test_gas_model_validation():
    with pytest.raises(ValueError):
        sl.GasModel(1.0)
    # the left state is the unit, not a field
    with pytest.raises(TypeError):
        sl.GasModel(2.0, v_minus=1.0)
