"""Standalone functional inequalities: constants, certifications, maximizers."""

import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from numpy.polynomial import polynomial as nppoly

import shocklab as sl
from references import DiscretizedW, r_delta
from shocklab import inequalities
from shocklab.inequalities import (
    G_ANALYTIC_THRESHOLD,
    G_CUSP,
    G_LIPSCHITZ_BOUND,
    R_DELTA_C1,
    E_poly,
    P_delta_poly,
    _legendre_maps,
    _r_delta_forms,
    _r_delta_hessian_at_zero,
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


def poincare_slack_reference(c):
    """The slack by numpy.polynomial arithmetic: products, f', integrals."""
    def integral(c):
        ci = nppoly.polyint(c)
        return nppoly.polyval(1.0, ci) - nppoly.polyval(0.0, ci)

    g = np.array(c, dtype=float)
    g[0] -= integral(c)
    d = nppoly.polyder(c)
    return (0.5 * integral(nppoly.polymul([0.0, 1.0, -1.0], nppoly.polymul(d, d)))
            - integral(nppoly.polymul(g, g)))


def test_poincare_rows_match_polynomial_arithmetic():
    rng = np.random.default_rng(3)
    rows = np.zeros((500, 9))  # degree 0 to 8, zero-padded to 9 coefficients
    degrees = rng.integers(0, 9, size=500)
    for row, deg in zip(rows, degrees):
        row[:deg + 1] = rng.standard_normal(deg + 1)
    slack = sl.poincare_slack_from_poly(rows)
    ref = [poincare_slack_reference(row[:deg + 1]) for row, deg in zip(rows, degrees)]
    assert slack.shape == (500,)
    npt.assert_allclose(slack, ref, rtol=0.0, atol=1e-13)
    # more zero padding is the same polynomial
    npt.assert_allclose(sl.poincare_slack_from_poly(np.pad(rows, ((0, 0), (0, 3)))),
                        slack, rtol=0.0, atol=1e-13)


def test_poincare_degree_one_rows_are_equality_cases():
    # f = a + b y: both sides equal b^2/12
    slack = sl.poincare_slack_from_poly(np.array([[-1.0, 2.0, 0.0, 0.0],
                                                  [3.0, -5.0, 0.0, 0.0]]))
    assert np.all(np.abs(slack) < 1e-14)


def test_poincare_one_polynomial_gives_a_float():
    assert type(sl.poincare_slack_from_poly([1.0, -2.0, 0.5])) is float
    assert type(sl.poincare_slack_from_poly(np.array([4.0]))) is float


# -- the cubic-with-root polynomial bound ------------------------------------

def test_g_endpoint_values():
    assert abs(sl.g_poly(-2.0) - (-4.0 / 3.0)) < 1e-14
    assert sl.g_poly(0.0) == 0.0


def test_g_cube_as_product_is_the_power_to_roundoff():
    # g_poly writes x^3 as x*x*x; on the certification grid it stays within
    # 4 ulp of the sum of |terms| of the x**3 form
    x = np.arange(-2.0, -G_CUSP + 0.5e-5, 1e-5)
    rad = np.clip(-x * x - 2.0 * x, 0.0, None)
    terms = [2.0 * x, -2.0 * x * x, -(4.0 / 3.0) * x ** 3,
             (4.0 * THETA / 3.0) * rad ** 1.5]
    ref = terms[0] + terms[1] + terms[2] + terms[3]
    bound = 4.0 * np.finfo(float).eps * sum(np.abs(t) for t in terms)
    assert np.all(np.abs(sl.g_poly(x) - ref) <= bound)


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


def plateau(x):
    """0 on about [-1.005, -0.995], negative elsewhere: a maximum that many
    grid points share, the first of them inside the grid."""
    return -np.abs(np.round(x, 2) + 1.0)


@pytest.mark.parametrize("g", [sl.g_poly, plateau], ids=["g", "plateau"])
@pytest.mark.parametrize("step", [1e-4, 3e-5])
def test_certify_g_negative_blocks_match_full_grid(monkeypatch, step, g):
    # the one-shot grid; blocks of 97 points put hundreds of seams in it,
    # and the last block, which holds -G_CUSP, is partial.  g itself is
    # largest at -G_CUSP
    x = np.arange(-2.0, -G_CUSP + 0.5 * step, step)
    x[-1] = -G_CUSP
    vals = g(x)
    i = int(np.argmax(vals))
    monkeypatch.setattr(inequalities, "g_poly", g)
    monkeypatch.setattr(inequalities, "BLOCK_POINTS", 97)
    assert x.size % 97
    rep = sl.certify_g_negative(step=step)
    assert rep.worst_value == vals[i]
    assert rep.details["argmax_grid"] == x[i]
    assert rep.margin == -(vals[i] + G_LIPSCHITZ_BOUND * step / 2.0)
    assert rep.details["grid_points"] == x.size


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


def test_certify_prop_algebra_certifies_prop_box_at_step_2e_3():
    rep = sl.certify_prop_algebra(step=2e-3)
    assert rep.certified
    assert rep.worst_value <= 1e-10
    assert rep.details["admissible_points"] == 7848


def full_grid_prop_reference(delta=0.01, delta1=0.01, step=1e-3):
    """P_delta - E^2 on the whole grid of inequalities.PROP_BOX, -inf off the
    band: worst value, argmax (first in row-major order) and band point count."""
    z1_lo, z1_hi, z2_lo, z2_hi = inequalities.PROP_BOX
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
    {"step": 0.7},  # no grid point in the band
    {"delta1": 0.5, "step": 5e-3},
    {"step": 7e-3},  # 4/7e-3 and 3/7e-3 are not integers
], ids=["default-box", "delta1-0.05", "empty-band", "delta1-0.5", "step-does-not-divide"])
def test_certify_prop_algebra_matches_full_grid(kwargs):
    worst, arg, count = full_grid_prop_reference(**kwargs)
    rep = sl.certify_prop_algebra(**kwargs)
    assert rep.worst_value == worst
    npt.assert_array_equal(rep.details["argmax"], arg)
    assert rep.details["admissible_points"] == count


@pytest.mark.parametrize("kwargs", [{"delta": 0.05, "delta1": 0.05, "step": 5e-3},
                                    {"delta1": 0.5, "step": 5e-3}])
def test_certify_prop_algebra_blocks_match_full_grid(monkeypatch, kwargs):
    # blocks of about 97 points: hundreds of blocks, seams inside a row's
    # column range and between rows
    monkeypatch.setattr(inequalities, "BLOCK_POINTS", 97)
    worst, arg, count = full_grid_prop_reference(**kwargs)
    rep = sl.certify_prop_algebra(**kwargs)
    assert rep.worst_value == worst
    npt.assert_array_equal(rep.details["argmax"], arg)
    assert rep.details["admissible_points"] == count


@pytest.mark.parametrize("certify, step, limit", [
    (sl.certify_g_negative, 1e-5, 1e6),
    (sl.certify_prop_algebra, 1e-3, 1.5e6),
], ids=["g", "prop"])
def test_certify_grids_hold_little_at_a_time(certify, step, limit):
    # both grids are evaluated BLOCK_POINTS at a time, so no temporary of
    # theirs crosses glibc's mmap threshold and a default grid's traced
    # peak stays under its limit (blocks of 1 << 17 points took 4.2 MB for
    # g and 3.3 MB for P_delta)
    tracemalloc.start()
    try:
        certify(step=step)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < limit, peak


def test_certify_prop_algebra_evaluates_e_near_the_band_only(monkeypatch):
    calls = []

    def counted(z1, z2):
        calls.append(np.broadcast(z1, z2).size)
        return E_poly(z1, z2)

    monkeypatch.setattr(inequalities, "E_poly", counted)
    rep = sl.certify_prop_algebra()
    assert rep.details["grid_points"] == 12_007_001
    assert sum(calls) == rep.details["evaluated_points"] < 0.01 * 12_007_001
    assert rep.details["admissible_points"] == 31_477


def test_certify_prop_algebra_empty_band_is_not_certified():
    # on the 7 x 5 grid of this step no point is admissible, nothing is checked
    rep = sl.certify_prop_algebra(step=0.7)
    assert rep.details["evaluated_points"] == 11
    assert rep.details["admissible_points"] == 0
    assert not rep.certified


# -- the constrained cubic functional ----------------------------------------

def uniform_W(value=0.1, n=101):
    return DiscretizedW.from_samples(np.full(n, value))


def test_r_delta_constant_hand_value():
    # W = 0.1, delta = 0.01: -(0.21)^2/0.01 + 1.01*0.01 + (2/3)*1e-3
    #                         + 0.01*1e-3 = -4.399223333...
    val = r_delta(uniform_W(), 0.01)
    assert abs(val - (-4.3992233333333333)) < 1e-10


def test_r_delta_zero_at_zero():
    assert r_delta(uniform_W(0.0), 0.01) == 0.0


def test_r_delta_negative_on_random_smooth(profile01):
    rng = np.random.default_rng(31)
    y = np.linspace(0.0, 1.0, 257)
    for _ in range(25):
        coeffs = rng.normal(scale=0.5, size=6)
        W = DiscretizedW.from_samples(
            np.polynomial.polynomial.polyval(y, coeffs))
        assert r_delta(W, 0.01) < 1e-10


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


def test_maximize_r_delta_reaches_the_supremum_where_it_cannot_scale():
    # above delta ~ 0.33 the second variation of -R_delta at 0 is indefinite,
    # and the search keeps the Legendre coefficients
    forms = _r_delta_forms(*_legendre_maps(Y64, 12), Q64, QD64)
    assert np.linalg.eigvalsh(_r_delta_hessian_at_zero(forms, 0.5))[0] < 0.0
    npt.assert_allclose(sl.maximize_r_delta(delta=0.5).worst_value, 22.31458, rtol=1e-6)


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
    """The kernel for W = maps[0] p, W' = maps[1] p, its forms built by
    the helper that maximize_r_delta uses."""
    return _r_delta_kernel(rows, maps[0], Q64, _r_delta_forms(*maps, Q64, QD64), DELTA)


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


@pytest.mark.parametrize("delta", [0.01, 0.3, 0.5])
def test_r_delta_hessian_at_zero_matches_central_differences(delta):
    A, D = _legendre_maps(Y64, 8)
    forms = _r_delta_forms(A, D, Q64, QD64)
    M = _r_delta_hessian_at_zero(forms, delta)
    h = 1e-6

    def grad(p):
        return _r_delta_kernel(p[None], A, Q64, forms, delta)[1][0]

    fd = np.array([(grad(h * e) - grad(-h * e)) / (2.0 * h) for e in np.eye(9)])
    npt.assert_allclose(M, M.T, rtol=0, atol=1e-12 * np.abs(M).max())
    npt.assert_allclose(M, -fd, rtol=1e-6, atol=1e-6 * np.abs(M).max())


@pytest.mark.parametrize("scale", [0.3, 4.0])
def test_r_delta_kernel_value_matches_r_delta(scale):
    A, _ = _legendre_maps(Y64, 8)
    w = A @ legendre_point(scale)
    i2 = DiscretizedW(y=Y64, w=w).moments()[1]
    W = DiscretizedW(y=Y64, w=w * min(1.0, np.sqrt(C1 / i2)))
    val, _ = kernel_at(w, grid_maps())
    npt.assert_allclose(val, r_delta(W, DELTA), rtol=1e-12)


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


def test_minimize_backtracks_to_the_minimizer_of_the_interpolating_quadratic():
    # f = x^2 from x = 0.3: the first step has unit length and lands on -0.7,
    # where Armijo fails; the quadratic through f(0), the slope and f(1) is f
    # itself, so its minimizer t = 0.3 (in [0.1, 0.5]) is the exact minimum.
    # Halving would try t = 0.5 and accept x = -0.2
    calls = []

    def square(x):
        calls.append(x.copy())
        return x[:, 0] ** 2, 2.0 * x

    res = minimize(square, [[0.3]], maxiter=1, ftol=0.0, gtol=0.0)
    npt.assert_allclose([c[0, 0] for c in calls], [0.3, -0.7, 0.0], atol=1e-15)
    assert res.nfev == 3 and res.nit == 1
    npt.assert_allclose(res.x, [[0.0]], atol=1e-15)


def test_minimize_backtracks_by_the_most_where_the_trial_value_is_nan():
    # x^2 on (-0.5, 0.5), nan outside: the first trial at -0.7 is nan, the
    # next step is 0.1 of it, and the search still reaches the minimum
    calls = []

    def square_inside(x):
        calls.append(x[0, 0])
        return np.where(np.abs(x[:, 0]) < 0.5, x[:, 0] ** 2, np.nan), 2.0 * x

    res = minimize(square_inside, [[0.3]], maxiter=50, ftol=0.0, gtol=1e-12)
    npt.assert_allclose(calls[:3], [0.3, -0.7, 0.2], atol=1e-15)
    npt.assert_allclose(res.x, [[0.0]], atol=1e-12)


def test_minimize_stops_a_line_search_that_rounding_decides():
    # f reads 1.0 at the start and one ulp more everywhere else, while the
    # gradient 1e-15 predicts a decrease of 1e-15 * t for a step t, under
    # the rounding of f (2.2e-16) once t < 0.22: Armijo fails on rounding
    # alone.  The search stops there instead of backtracking MAX_HALVINGS
    # times (42 calls in all), and it counts as failed: the row keeps its
    # start and stops
    rows_seen = []

    def flat(x):
        rows_seen.append(len(x))
        return np.where(x[:, 0] == 0.0, 1.0, 1.0 + 2.0 ** -52), np.full_like(x, 1e-15)

    res = minimize(flat, [[0.0]], maxiter=10, ftol=0.0, gtol=0.0)
    assert res.nit == 1 and res.nfev == len(rows_seen) < 5
    assert res.x[0, 0] == 0.0 and res.fun[0] == 1.0
