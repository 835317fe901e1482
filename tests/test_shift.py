"""Shift-response function and the controller ODE right-hand side."""

import numpy as np
import numpy.testing as npt
import pytest

import shocklab as sl
from shocklab.shift import overshoot, phi_eps, r_residual, saturated


EPS = 0.1


def test_phi_knot_values_exact():
    # saturation branches at |y| >= eps^2, linear in between
    # the saturation value is -1/eps^2 bit-for-bit; in decimal that is -100
    # up to the representation error of 0.1**2 (one ulp)
    assert sl.phi_eps(0.02, EPS) == -1.0 / EPS**2
    assert sl.phi_eps(-0.02, EPS) == 1.0 / EPS**2
    npt.assert_allclose(sl.phi_eps(0.02, EPS), -100.0, rtol=1e-15)
    assert sl.phi_eps(EPS**2, EPS) == -1.0 / EPS**2
    assert sl.phi_eps(-(EPS**2), EPS) == 1.0 / EPS**2
    npt.assert_allclose(sl.phi_eps(0.005, EPS), -50.0, rtol=1e-14)
    assert sl.phi_eps(0.0, EPS) == 0.0


def phis(y):
    # phi_eps takes one scalar, as the shift ODE gives it
    return np.array([phi_eps(yi, EPS) for yi in y])


def test_phi_is_odd_and_monotone():
    y = np.linspace(-0.05, 0.05, 1001)
    vals = phis(y)
    npt.assert_allclose(vals + phis(-y), 0.0, atol=1e-12)
    assert np.all(np.diff(vals) <= 1e-12)


def test_phi_linear_branch_slope():
    y = np.linspace(-0.009, 0.009, 101)
    npt.assert_allclose(phis(y), -y / EPS**4, rtol=1e-13)


def test_shift_rhs_zero_at_equilibrium():
    assert sl.shift_rhs(0.0, 0.0, EPS) == 0.0


def test_shift_rhs_saturated_case():
    # Y beyond the knot with B = 0 gives exactly -1/eps^2
    assert sl.shift_rhs(2 * EPS**2, 0.0, EPS) == -1.0 / EPS**2


def test_shift_rhs_algebraic_bound_identity():
    # |Xdot| eps^2 <= 1 + 2|B| for every (Y, B)
    rng = np.random.default_rng(3)
    Y = rng.uniform(-0.1, 0.1, 500)
    B = rng.uniform(-1.0, 1.0, 500)
    for yi, bi in zip(Y, B):
        xdot = sl.shift_rhs(yi, bi, EPS)
        assert abs(xdot) * EPS**2 <= 1.0 + 2.0 * abs(bi) + 1e-12


def test_shift_rhs_sign_convention():
    # excess Y > 0 pushes X down, deficit pushes it up
    assert sl.shift_rhs(0.03, 0.2, EPS) < 0
    assert sl.shift_rhs(-0.03, 0.2, EPS) > 0


def test_saturated_predicate():
    assert saturated(0.02, EPS)
    assert saturated(-(EPS**2), EPS)
    assert not saturated(0.0099, EPS)


def test_overshoot_values():
    assert overshoot(250.0, EPS) == 1.5
    assert overshoot(-250.0, EPS) == 1.5
    assert overshoot(50.0, EPS) == 0.0


def test_r_residual_formula(profile01, weight01):
    # hand-evaluate the linear-branch contraction residual on one breakdown
    x = np.linspace(-60.0, 60.0, 601)
    v = profile01.v_profile(x) * (1.0 + 0.01 * np.exp(-(x / 5.0) ** 2))
    h = profile01.h_profile(x) + 0.01 * np.exp(-(x / 7.0) ** 2)
    bd = sl.compute_breakdown(v, h, sl.functional_frame(weight01, x))
    lam, eps = 0.5, EPS
    expected = (-bd.Y**2 / eps**4 + (1.0 + 0.1 * eps / lam) * abs(bd.B) - bd.G)
    assert abs(r_residual(bd, eps, lam) - expected) < 1e-12
