"""Standalone functional inequalities: constants, certifications, maximizers."""

import numpy as np
import numpy.testing as npt
import pytest

import shocklab as sl
from shocklab.inequalities import (
    G_ANALYTIC_THRESHOLD,
    G_CUSP,
    G_LIPSCHITZ_BOUND,
    R_DELTA_C1,
    DiscretizedW,
    E_poly,
    P_delta_poly,
    _legendre_maps,
    _r_delta_kernel,
    g_deriv,
    locate_g_critical_points,
    minimize,
)


THETA = sl.theta_constant()


# -- the logarithmic constant ------------------------------------------------

def test_theta_squared_identity():
    assert abs(THETA**2 - (5.0 - np.pi**2 / 3.0)) < 1e-15


def test_theta_quadrature_error():
    val = sl.theta_squared_quadrature()
    assert abs(val - THETA**2) <= 1e-15


# -- the Poincare slack ------------------------------------------------------

def test_poincare_equality_case():
    # f = 2y - 1: both sides equal 1/3
    slack = sl.poincare_slack_from_poly([-1.0, 2.0])
    assert abs(slack) < 1e-14


def test_poincare_random_polynomials():
    rng = np.random.default_rng(9)
    worst = np.inf
    for _ in range(100):
        coeffs = rng.normal(size=rng.integers(2, 9))
        worst = min(worst, sl.poincare_slack_from_poly(list(coeffs)))
    assert worst > -1e-12


# -- the cubic-with-root polynomial bound ------------------------------------

def test_g_endpoint_values():
    assert abs(sl.g_poly(-2.0) - (-4.0 / 3.0)) < 1e-14
    assert sl.g_poly(0.0) == 0.0


def test_g_derivative_exact_at_minus_one():
    assert g_deriv(-1.0) == 2.0


def test_g_derivative_matches_fd():
    xs = np.array([-1.8, -1.3, -0.7, -0.2])
    d = 1e-7
    fd = (sl.g_poly(xs + d) - sl.g_poly(xs - d)) / (2 * d)
    npt.assert_allclose(g_deriv(xs), fd, rtol=1e-5)


def test_g_domain_validation():
    with pytest.raises(ValueError):
        sl.g_poly(0.5)
    with pytest.raises(ValueError):
        sl.g_poly(-2.5)


def test_certify_g_negative():
    rep = sl.certify_g_negative(step=1e-4)
    assert rep.certified
    assert rep.margin > 0.08
    assert -0.0857 < rep.worst_value < -0.0855


def test_g_certificate_constants_follow_theta():
    # both constants are derived from the sharp theta, not from a copy of it
    assert G_LIPSCHITZ_BOUND == 6.0 + 2.0 * THETA
    assert G_ANALYTIC_THRESHOLD == (6.0 / (4.0 * THETA * 2.0 ** 1.5)) ** 2
    # the analytic bound covers the cusp only below its threshold
    assert 0.0 < G_CUSP < G_ANALYTIC_THRESHOLD


def test_g_has_interior_minimum_on_left_half():
    pts = locate_g_critical_points(lo=-1.99, hi=-1.01)
    mins = [p for p in pts if p["kind"] == "min"]
    assert len(mins) == 1
    assert abs(mins[0]["x"] - (-1.6842890620769355)) < 1e-9


def test_g_monotone_increasing_on_right_half():
    # g' stays positive on (-1, 0): no interior critical point there.
    # (The g' sign analysis near -1 + sqrt(3)/2 gives
    #  g'(-1 + sqrt(3)/2) = -1 + (2 - theta)*sqrt(3) > 0.)
    assert locate_g_critical_points(lo=-1.0, hi=0.0) == []
    xs = np.linspace(-0.999, -1e-4, 20001)
    assert np.all(g_deriv(xs) > 0)


def test_g_window_separates_sharp_theta_from_supercritical():
    # Negative control for acceptance criterion 02b: above theta_c ~ 1.37473
    # g' changes sign twice inside (-0.29289, -0.13397), a max then a min of
    # g; at the sharp theta it does not change sign there.
    xs = np.linspace(-1.0 + 1e-9, -1e-9, 200001)

    def window_extrema(theta):
        d = g_deriv(xs, theta=theta)
        i = np.where(np.sign(d[:-1]) * np.sign(d[1:]) < 0)[0]
        i = i[(xs[i] > -0.29289) & (xs[i + 1] < -0.13397)]
        return ["max" if d[k] > 0 else "min" for k in i]

    assert window_extrema(1.40) == ["max", "min"]
    assert window_extrema(THETA) == []


# -- the two-variable algebraic inequality -----------------------------------

def test_p_delta_at_origin():
    assert P_delta_poly(0.0, 0.0, 0.01) == 0.0
    assert E_poly(0.0, 0.0) == 0.0


def test_circle_identity():
    # on the E = 0 circle (upper branch) the two-variable polynomial at
    # delta = 0 collapses to the one-variable g
    phi = np.linspace(1e-3, np.pi - 1e-3, 2001)
    z1 = -1.0 + np.cos(phi)
    z2 = np.sin(phi)
    assert np.max(np.abs(E_poly(z1, z2))) < 1e-14
    p0 = P_delta_poly(z1, z2, 0.0)
    g = sl.g_poly(z1)
    assert np.max(np.abs(p0 - g)) < 5e-14


def test_certify_prop_algebra_small_box():
    rep = sl.certify_prop_algebra(box=(-1.0, 0.5, 0.0, 1.5), step=2e-3)
    assert rep.certified
    assert rep.worst_value <= 1e-10
    assert rep.details["admissible_points"] > 1000


def full_grid_prop_reference(delta=0.01, delta1=0.01, box=(-3.0, 1.0, 0.0, 3.0),
                             step=1e-3):
    """P_delta - E^2 on the whole box grid, -inf off the band: worst value,
    argmax (first in row-major order) and band point count."""
    z1_lo, z1_hi, z2_lo, z2_hi = box
    z1 = np.arange(0, round((z1_hi - z1_lo) / step) + 1) * step + z1_lo
    z2 = np.arange(0, round((z2_hi - z2_lo) / step) + 1) * step + z2_lo
    zz1, zz2 = z1[:, None], z2[None, :]
    E = E_poly(zz1, zz2)
    mask = np.abs(E) <= delta1
    val = np.where(mask, P_delta_poly(zz1, zz2, delta) - E * E, -np.inf)
    if not mask.any():
        return -np.inf, (np.nan, np.nan), 0
    i, j = np.unravel_index(np.argmax(val), val.shape)
    return float(val[i, j]), (float(z1[i]), float(z2[j])), int(mask.sum())


@pytest.mark.parametrize("kwargs", [
    {"step": 5e-3},
    {"delta": 0.05, "delta1": 0.05, "step": 5e-3},  # worst 1.2686, off the origin
    {"box": (-2.5, 0.5, -1.0, 1.0), "step": 4e-3},
    {"box": (5.0, 6.0, 5.0, 6.0), "step": 1e-2},
], ids=["default-box", "delta1-0.05", "z2-below-zero", "empty-band"])
def test_certify_prop_algebra_matches_full_grid(kwargs):
    worst, arg, count = full_grid_prop_reference(**kwargs)
    rep = sl.certify_prop_algebra(**kwargs)
    assert rep.worst_value == worst
    npt.assert_array_equal(rep.details["argmax"], arg)
    assert rep.details["admissible_points"] == count


def test_certify_prop_algebra_empty_band_is_not_certified():
    # |E| >= 59 on this box: no grid point is admissible, nothing is checked
    rep = sl.certify_prop_algebra(box=(5.0, 6.0, 5.0, 6.0), step=1e-2)
    assert rep.details["admissible_points"] == 0
    assert not rep.certified


# -- the constrained cubic functional ----------------------------------------

def uniform_W(value=0.1, n=101):
    return DiscretizedW.from_samples(np.full(n, value))


def test_r_delta_constant_hand_value():
    # W = 0.1, delta = 0.01: -(0.21)^2/0.01 + 1.01*0.01 + (2/3)*1e-3
    #                         + 0.01*1e-3 = -4.399223333...
    val = sl.r_delta(uniform_W(), 0.01)
    assert abs(val - (-4.3992233333333333)) < 1e-10


def test_r_delta_zero_at_zero():
    assert sl.r_delta(uniform_W(0.0), 0.01) == 0.0


def test_r_delta_negative_on_random_smooth(profile01):
    rng = np.random.default_rng(31)
    y = np.linspace(0.0, 1.0, 257)
    for _ in range(25):
        coeffs = rng.normal(scale=0.5, size=6)
        W = DiscretizedW.from_samples(
            np.polynomial.polynomial.polyval(y, coeffs))
        assert sl.r_delta(W, 0.01) < 1e-10


def test_discretized_w_legendre_matches_direct():
    coeffs = [0.1, -0.3, 0.2]
    W = DiscretizedW.from_legendre(coeffs)
    assert W.y.size == 64
    direct = np.polynomial.legendre.legval(2.0 * W.y - 1.0, coeffs)
    npt.assert_allclose(W.w, direct, atol=1e-13)


def test_moments_of_linear_function():
    y = np.linspace(0.0, 1.0, 20001)
    W = DiscretizedW.from_samples(y)
    m1, m2, m3, ma3, dir_ = W.moments()
    npt.assert_allclose([m1, m2, m3, ma3], [0.5, 1 / 3, 0.25, 0.25], rtol=1e-6)
    # int y(1-y) * 1 = 1/6
    npt.assert_allclose(dir_, 1 / 6, rtol=1e-6)


def test_maximize_r_delta_smoke():
    rep = sl.maximize_r_delta(n_starts=8)
    assert rep.worst_value <= 1e-6
    assert rep.details["n_starts"] == 8


def test_maximize_r_delta_reports_work_and_repeats():
    a = sl.maximize_r_delta(n_starts=4, seed=5)
    b = sl.maximize_r_delta(n_starts=4, seed=5)
    assert a.worst_value == b.worst_value
    assert a.details["nfev"] == b.details["nfev"] > 4
    assert a.details["nit"] > 0


@pytest.mark.parametrize("delta, expected", [
    (0.12, 0.1380436), (0.15, 0.4896589), (0.3, 2.277619)])
def test_maximize_r_delta_finds_the_positive_supremum(delta, expected):
    # R_delta(0) = 0, so at small delta a single start would certify; where
    # the supremum is positive the seeded search must reach it
    rep = sl.maximize_r_delta(delta=delta)
    npt.assert_allclose(rep.worst_value, expected, rtol=1e-6)
    assert not rep.certified


def test_maximize_r_delta_stays_nonpositive_at_delta_one_tenth():
    assert sl.maximize_r_delta(delta=0.1).worst_value <= 1e-8


@pytest.mark.parametrize("kwargs", [
    {"n_starts": 0}, {"delta": 0.0},
], ids=lambda kw: next(iter(kw)))
def test_maximize_r_delta_rejects_vacuous_input(kwargs):
    with pytest.raises(ValueError):
        sl.maximize_r_delta(**kwargs)


# -- the R_delta kernel behind the multistart --------------------------------

DELTA, C1 = 0.01, R_DELTA_C1
Y64 = np.linspace(0.0, 1.0, 64)
Q64 = np.trapezoid(np.eye(Y64.size), Y64, axis=0)
QD64 = Q64 * Y64 * (1.0 - Y64)


def legendre_point(scale):
    rng = np.random.default_rng(41)
    return rng.standard_normal(9) / (1.0 + np.arange(9)) ** 2 * scale


def grid_maps():
    return np.eye(Y64.size), np.gradient(np.eye(Y64.size), Y64, axis=0)


def kernel(rows, maps):
    return _r_delta_kernel(rows, *maps, Q64, QD64, DELTA)


def kernel_at(p, maps):
    """The kernel at one coefficient vector p, passed as a one-row batch."""
    val, grad = kernel(p[None], maps)
    return val[0], grad[0]


def test_legendre_maps_are_exact():
    c = legendre_point(1.0)
    A, D = _legendre_maps(Y64, 8)
    t = 2.0 * Y64 - 1.0
    npt.assert_allclose(A @ c, np.polynomial.legendre.legval(t, c), atol=1e-14)
    npt.assert_allclose(D @ c, 2.0 * np.polynomial.legendre.legval(
        t, np.polynomial.legendre.legder(c)), atol=1e-12)


@pytest.mark.parametrize("scale", [0.3, 4.0])
@pytest.mark.parametrize("raw", [False, True])
def test_r_delta_kernel_gradient_matches_central_differences(scale, raw):
    c = legendre_point(scale)
    A, D = _legendre_maps(Y64, 8)
    i2 = Q64 @ (A @ c) ** 2
    # one point inside the c1 ball and one well outside it
    assert (i2 < 0.5 * C1) if scale < 1.0 else (i2 > 2.0 * C1)
    maps, p = ((grid_maps(), A @ c) if raw else ((A, D), c))
    _, grad = kernel_at(p, maps)
    h = 1e-6 * np.abs(p).max()
    fd = np.array([(kernel_at(p + h * e, maps)[0] - kernel_at(p - h * e, maps)[0])
                   / (2.0 * h) for e in np.eye(p.size)])
    npt.assert_allclose(grad, fd, rtol=1e-6, atol=1e-6 * np.abs(grad).max())


@pytest.mark.parametrize("scale", [0.3, 4.0])
def test_r_delta_kernel_value_matches_r_delta(scale):
    A, _ = _legendre_maps(Y64, 8)
    w = A @ legendre_point(scale)
    i2 = DiscretizedW(y=Y64, w=w).moments()[1]
    W = DiscretizedW(y=Y64, w=w * min(1.0, np.sqrt(C1 / i2)))
    val, _ = kernel_at(w, grid_maps())
    npt.assert_allclose(val, sl.r_delta(W, DELTA), rtol=1e-12)


@pytest.mark.parametrize("raw", [False, True])
def test_r_delta_kernel_is_rowwise(raw):
    A, D = _legendre_maps(Y64, 8)
    coeffs = np.array([legendre_point(s) for s in (0.3, 4.0, -1.5, 0.0, 9.0)])
    maps, batch = ((grid_maps(), coeffs @ A.T) if raw else ((A, D), coeffs))
    i2 = (batch @ maps[0].T) ** 2 @ Q64
    # points inside the c1 ball and outside it
    assert (i2 < C1).sum() >= 2 and (i2 > C1).sum() >= 2
    vals, grads = kernel(batch, maps)
    assert vals.shape == (len(batch),) and grads.shape == batch.shape
    for p, val, grad in zip(batch, vals, grads):
        v1, g1 = kernel_at(p, maps)
        npt.assert_allclose(val, v1, rtol=1e-13, atol=1e-13)
        npt.assert_allclose(grad, g1, rtol=1e-13, atol=1e-13 * np.abs(g1).max())


def test_minimize_runs_each_row_and_drops_converged_rows():
    # the Rosenbrock function, one start per row; (1, 1) is the minimum
    rows_seen = []

    def rosen(x):
        rows_seen.append(len(x))
        a, b = x[:, 0], x[:, 1]
        f = (1.0 - a) ** 2 + 100.0 * (b - a * a) ** 2
        g = np.stack([-2.0 * (1.0 - a) - 400.0 * a * (b - a * a),
                      200.0 * (b - a * a)], axis=1)
        return f, g

    x0 = np.array([[-1.2, 1.0], [0.0, 0.0], [1.0, 1.0], [2.0, 2.5]])
    res = minimize(rosen, x0, maxiter=500, ftol=1e-15, gtol=1e-10)
    npt.assert_allclose(res.x, 1.0, atol=1e-6)
    assert np.all(res.fun < 1e-12)
    assert res.nfev == len(rows_seen) and 0 < res.nit < 500
    # the start at the minimum leaves before the first step
    assert rows_seen[0] == 4 and max(rows_seen[1:]) == 3
    npt.assert_array_equal(x0[2], [1.0, 1.0])  # x0 is not written to
