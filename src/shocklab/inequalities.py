"""Standalone functional inequalities behind the contraction argument.

Certified numerically, not proved: every negativity claim is checked by a
grid + Lipschitz slack, a graded Gauss-Legendre quadrature, or a seeded
multistart maximization, and each check returns a CertificationReport
with the worst value found and the margin.

Contents:
  * the sharp-sup constant  theta = sqrt(5 - pi^2/3)  and the singular
    quadrature that produces it,
  * the weighted Poincare inequality  int (f-mean)^2 <= 1/2 int y(1-y) f'^2
    on polynomials, both sides as exact quadratic forms in the coefficients,
    for a batch of polynomials at once,
  * the one-variable cubic-radical function g on [-2, 0] and its negativity,
  * the two-variable polynomial P_delta with constraint band |E| <= delta_1,
    evaluated only at the grid points next to the band's ring,
  * the constrained functional R_delta(W) on (0,1) and its multistart
    maximization: one batched L-BFGS ascent of all starts at once on the
    exact gradient of R_delta (``minimize``), for delta up to about 0.33 in
    coordinates where the second variation of R_delta at W = 0 is minus the
    identity; its quadratic moments are exact quadratic forms in the
    coefficients of W, built before the search rather than per call.

The module needs numpy and the standard library alone: the quadrature is
Gauss-Legendre on graded panels, the roots of g' come from a vectorized
bisection, the ascent is the batched L-BFGS defined here, and the seeded
starts are drawn from a ``random.Random``.
"""

import random
import time
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np
from numpy.polynomial import legendre as npleg

from .profile import BLOCK_POINTS

__all__ = [
    "CertificationReport",
    "theta_constant",
    "theta_squared_quadrature",
    "poincare_slack_from_poly",
    "g_poly",
    "g_deriv",
    "certify_g_negative",
    "locate_g_critical_points",
    "E_poly",
    "P_delta_poly",
    "certify_prop_algebra",
    "minimize",
    "maximize_r_delta",
]


@dataclass
class CertificationReport:
    target: str
    domain: str
    resolution: float
    worst_value: float
    margin: float
    certified: bool
    method: str
    details: dict = field(default_factory=dict)
    runtime_s: float = 0.0


# ---------------------------------------------------------------------------
# theta
# ---------------------------------------------------------------------------


def theta_constant():
    """theta = sqrt(5 - pi^2/3) ~ 1.3077 (closed form of the theta quadrature)."""
    return float(np.sqrt(5.0 - np.pi ** 2 / 3.0))


def _graded_gauss(lo, hi):
    """20-point Gauss-Legendre nodes and weights on [lo, hi], panels halving toward lo.

    The panel edges are lo + (hi - lo) 2^-j, j = 0..50, so each panel but
    the first is at least its own length away from lo: an integrand analytic
    except at or left of lo converges geometrically on every panel, and the
    first panel is too short (2^-50 of the span) to matter.
    """
    t, wt = npleg.leggauss(20)
    edges = lo + (hi - lo) * np.concatenate(
        [[0.0], 2.0 ** -np.arange(50, -1, -1.0)])
    a, half = edges[:-1, None], 0.5 * np.diff(edges)[:, None]
    return (a + half * (t + 1.0)).ravel(), (half * wt).ravel()


def theta_squared_quadrature():
    """int_0^1 (L(y) + L(1-y))^2 dy, L(x) = -x - log(1-x), on Gauss-Legendre
    panels graded toward 0.

    The integrand equals (1 + log(y(1-y)))^2 and is symmetric about 1/2, so
    the integral is twice the one over (0, 1/2]; the panels of _graded_gauss
    resolve the log singularity at 0.
    """
    y, wt = _graded_gauss(0.0, 0.5)
    return 2.0 * (wt @ (1.0 + np.log(y * (1.0 - y))) ** 2)


# ---------------------------------------------------------------------------
# weighted Poincare inequality
# ---------------------------------------------------------------------------


def poincare_slack_from_poly(coeffs):
    """Exact slack 1/2 int y(1-y) f'^2 - int (f - mean)^2 for polynomials f.

    coeffs holds the ascending power-basis coefficients on [0, 1] of one
    polynomial, or an (m, K) array with one polynomial per row (a row may be
    zero-padded); the result is a float, or the m slacks.  Both sides are
    exact quadratic forms in the coefficients: with g = c - mean e0 the
    centred coefficients, int (f - mean)^2 = g^T H g, H_ij = 1/(i+j+1), and
    with d the coefficients of f', int y(1-y) f'^2 = d^T H_w d,
    (H_w)_ij = 1/(i+j+2) - 1/(i+j+3).  Centring first keeps the left side
    free of the cancellation of c^T H c - mean^2, so the slack of a true
    polynomial is >= -O(1e-16) for coefficients of order 1.
    """
    c = np.asarray(coeffs, dtype=float)
    rows = np.atleast_2d(c)
    k = np.arange(rows.shape[1])
    g = rows.copy()
    g[:, 0] -= rows @ (1.0 / (k + 1.0))
    s = k[:, None] + k[None, :]
    lhs = np.einsum("mi,ij,mj->m", g, 1.0 / (s + 1.0), g)
    d = rows[:, 1:] * k[1:]
    s = s[:-1, :-1]
    rhs = 0.5 * np.einsum("mi,ij,mj->m", d, 1.0 / (s + 2.0) - 1.0 / (s + 3.0), d)
    slack = rhs - lhs
    return float(slack[0]) if c.ndim == 1 else slack


# ---------------------------------------------------------------------------
# the one-variable function g on [-2, 0]
# ---------------------------------------------------------------------------


def _check_g_domain(x):
    x = np.asarray(x, dtype=float)
    if np.any(x < -2.0) or np.any(x > 0.0):
        raise ValueError("g is defined on [-2, 0]")
    return x


def g_poly(x):
    """g(x) = 2x - 2x^2 - (4/3)x^3 + (4 theta/3)(-x^2-2x)^(3/2) on [-2, 0]."""
    x = _check_g_domain(x)
    th = theta_constant()
    rad = np.clip(-x * x - 2.0 * x, 0.0, None)
    return 2.0 * x - 2.0 * x * x - (4.0 / 3.0) * (x * x * x) + (4.0 * th / 3.0) * rad ** 1.5


def g_deriv(x, theta=None):
    """g'(x) = 2 - 4x - 4x^2 - 4 theta (x+1) sqrt(-x^2-2x)."""
    x = _check_g_domain(x)
    th = theta_constant() if theta is None else theta
    rad = np.clip(-x * x - 2.0 * x, 0.0, None)
    return 2.0 - 4.0 * x - 4.0 * x * x - 4.0 * th * (x + 1.0) * np.sqrt(rad)


#: global bound for |g'| on [-2, 0]: |2-4x-4x^2| <= 6 (checked at the
#: vertex x=-1/2 and both endpoints) and
#: |4 theta (x+1) sqrt(1-(x+1)^2)| <= 2 theta  (|z sqrt(1-z^2)| <= 1/2)
G_LIPSCHITZ_BOUND = 6.0 + 2.0 * theta_constant()

#: the analytic near-zero bound  g(x) <= 2x + (4 theta/3)(2|x|)^(3/2)
#: is strictly negative for |x| < (6 / (4 theta 2^(3/2)))^2
G_ANALYTIC_THRESHOLD = (6.0 / (4.0 * theta_constant() * 2.0 ** 1.5)) ** 2

#: the cusp (-G_CUSP, 0) that the analytic bound covers, below the threshold
G_CUSP = 0.15


def certify_g_negative(step=1e-5):
    """Certify g < 0 on (-2, 0): grid + Lipschitz slack on [-2, -G_CUSP],
    analytic cusp bound on (-G_CUSP, 0).

    The grid margin is -(max g + L*step/2) with the global derivative bound
    L; on the cusp, G_CUSP = 0.15 lies below the analytic threshold ~0.164,
    where the bound 2x + (4 theta/3)(2|x|)^(3/2) is strictly negative away
    from 0 (with margin -> 0 as x -> 0 since g(0) = 0).  The grid is that
    of np.arange(-2, -G_CUSP + step/2, step) with its last point moved to
    -G_CUSP, evaluated BLOCK_POINTS at a time; the worst value and where it
    first occurs are the full grid's.
    """
    t0 = time.perf_counter()
    # np.arange's own points: -2 + i dx, with dx = (-2 + step) + 2 its step
    n = int(np.ceil((-G_CUSP + 0.5 * step + 2.0) / step))
    dx = (-2.0 + step) + 2.0
    worst, arg = -np.inf, np.nan
    for lo in range(0, n, BLOCK_POINTS):
        x = -2.0 + np.arange(lo, min(lo + BLOCK_POINTS, n)) * dx
        if lo + x.size == n:
            x[-1] = -G_CUSP
        vals = g_poly(x)
        i = int(np.argmax(vals))
        if vals[i] > worst:
            worst, arg = float(vals[i]), float(x[i])
    slack = G_LIPSCHITZ_BOUND * step / 2.0
    margin = -(worst + slack)
    certified = margin > 0.0
    return CertificationReport(
        target="g < 0 on (-2, 0)",
        domain=f"grid [-2, {-G_CUSP}] + analytic ({-G_CUSP}, 0)",
        resolution=step,
        worst_value=worst,
        margin=margin,
        certified=certified,
        method="grid+Lipschitz",
        details={
            "argmax_grid": arg,
            "lipschitz_bound": G_LIPSCHITZ_BOUND,
            "analytic_threshold": G_ANALYTIC_THRESHOLD,
            "grid_points": n,
        },
        runtime_s=time.perf_counter() - t0,
    )


def _bisect(f, a, b, sign_a):
    """Roots of f in the brackets [a, b] (arrays or scalars), all at once.

    sign_a is the sign of f at a.  Each bracket is halved down to a width of
    1e-14, and its midpoint is returned.
    """
    for _ in range(int(np.ceil(np.log2(np.max(np.abs(b - a)) / 1e-14)))):
        mid = 0.5 * (a + b)
        right = np.sign(f(mid)) == sign_a
        a = np.where(right, mid, a)
        b = np.where(right, b, mid)
    return 0.5 * (a + b)


def locate_g_critical_points(lo=-1.0, hi=0.0):
    """Roots of g' on (lo, hi) by a 200001-point sign-change scan + bisection.

    Returns a list of dicts {x, kind} with kind in {"max", "min"} from the
    sign pattern of g' around the root.  An empty list means g' has no sign
    change between neighbouring scan points.  A root where g' only touches
    zero is not found, and neither is a root that falls exactly on a scan
    point (sign 0); so an empty list shows g monotone only together with a
    positive lower bound on |g'|, as acceptance criterion 02b asserts.
    """
    x = np.linspace(lo + 1e-9, hi - 1e-9, 200001)
    d = g_deriv(x)
    i = np.flatnonzero(np.sign(d[:-1]) * np.sign(d[1:]) < 0)
    if i.size == 0:
        return []
    sign_a = np.sign(d[i])
    return [{"x": float(r), "kind": "max" if sa > 0 else "min"}
            for r, sa in zip(_bisect(g_deriv, x[i], x[i + 1], sign_a), sign_a)]


# ---------------------------------------------------------------------------
# the two-variable polynomial with constraint band
# ---------------------------------------------------------------------------


def E_poly(z1, z2):
    """E = Z1^2 + Z2^2 + 2 Z1; |E| <= delta_1 is the admissible band."""
    z1 = np.asarray(z1, dtype=float)
    z2 = np.asarray(z2, dtype=float)
    return z1 * z1 + z2 * z2 + 2.0 * z1


def P_delta_poly(z1, z2, delta):
    """(1+d)(Z1^2+Z2^2) + 2 Z1 Z2^2 + (2/3)Z1^3 + 6d(|Z1|Z2^2+|Z1|^3)
    - 2(1 - d - (2/3+d) theta Z2) Z2^2."""
    th = theta_constant()
    z1 = np.asarray(z1, dtype=float)
    z2 = np.asarray(z2, dtype=float)
    a1 = np.abs(z1)
    z2sq = z2 * z2
    return ((1.0 + delta) * (z1 * z1 + z2sq) + 2.0 * z1 * z2sq
            + (2.0 / 3.0) * (z1 * z1 * z1) + 6.0 * delta * (a1 * z2sq + a1 * a1 * a1)
            - 2.0 * (1.0 - delta - (2.0 / 3.0 + delta) * th * z2) * z2sq)


#: the box (z1_lo, z1_hi, z2_lo, z2_hi) of certify_prop_algebra's grid
PROP_BOX = (-3.0, 1.0, 0.0, 3.0)


def _band_columns(z1, step, n2, delta1):
    """The columns of each row of the PROP_BOX grid z1 x (j step, j < n2)
    that can lie in the band |E| <= delta1, one range per row, as the
    arrays (first column, column count).

    E = (z1+1)^2 + z2^2 - 1, so the band is the ring between the circles of
    radius sqrt(1 -+ delta1) about (-1, 0); on the box z2 >= 0, so a row
    meets the ring in [r_lo, r_hi] alone.  The range is widened by 1e-9
    (1 + delta1) in E (far beyond E's rounding at the ring's points) and by
    one column on each side, and is empty where the row misses the ring;
    the caller applies the float test to it.
    """
    a = (z1 + 1.0) ** 2
    widen = 1e-9 * (1.0 + delta1)
    outer = 1.0 + delta1 + widen - a
    r_hi = np.sqrt(np.maximum(outer, 0.0))
    r_lo = np.sqrt(np.maximum(1.0 - delta1 - widen - a, 0.0))
    start = np.floor(r_lo / step) - 1.0
    stop = np.where(outer < 0.0, start, np.ceil(r_hi / step) + 2.0)
    start = np.clip(start, 0, n2).astype(np.intp)
    return start, np.clip(stop, 0, n2).astype(np.intp) - start


def certify_prop_algebra(delta=0.01, delta1=0.01, step=1e-3):
    """Grid-certify  P_delta - E^2 <= 1e-10  on the band {|E| <= delta1}.

    The grid covers PROP_BOX, where z2 >= 0.  E is evaluated only at the
    grid points next to the band's ring (``_band_columns``), BLOCK_POINTS
    at a time plus up to one row, and P_delta only at those that pass
    |E| <= delta1; the band points, the worst value and where it first
    occurs in row-major order are the full grid's.  details count the
    grid's points, the E evaluations and the band's points.  A grid with no
    point in the band certifies nothing.
    """
    t0 = time.perf_counter()
    tol = 1e-10
    z1_lo, z1_hi, z2_lo, z2_hi = PROP_BOX
    z1 = np.arange(0, round((z1_hi - z1_lo) / step) + 1) * step + z1_lo
    z2 = np.arange(0, round((z2_hi - z2_lo) / step) + 1) * step + z2_lo
    start, count = _band_columns(z1, step, z2.size, delta1)
    first = np.cumsum(count) - count
    blocks = np.split(np.arange(count.size),
                      np.flatnonzero(np.diff(first // BLOCK_POINTS)) + 1)
    worst = -np.inf
    arg = (np.nan, np.nan)
    n_admissible = 0
    for k in blocks:
        n = count[k]
        r = np.repeat(k, n)
        c = np.arange(n.sum()) + np.repeat(start[k] - (np.cumsum(n) - n), n)
        E = E_poly(z1[r], z2[c])
        band = np.abs(E) <= delta1
        if not band.any():
            continue
        r, c, e = r[band], c[band], E[band]
        n_admissible += r.size
        val = P_delta_poly(z1[r], z2[c], delta) - e * e
        j = int(np.argmax(val))
        if val[j] > worst:
            worst = float(val[j])
            arg = (float(z1[r[j]]), float(z2[c[j]]))
    certified = n_admissible > 0 and worst <= tol
    return CertificationReport(
        target="P_delta - E^2 <= 0 on |E| <= delta1",
        domain=f"box {PROP_BOX}, band |E|<={delta1}",
        resolution=step,
        worst_value=worst,
        margin=tol - worst,
        certified=certified,
        method="grid",
        details={"delta": delta, "delta1": delta1, "argmax": arg,
                 "grid_points": int(z1.size * z2.size),
                 "evaluated_points": int(count.sum()),
                 "admissible_points": n_admissible},
        runtime_s=time.perf_counter() - t0,
    )


# ---------------------------------------------------------------------------
# the constrained functional R_delta on (0,1)
# ---------------------------------------------------------------------------


#: the bound C1 on int W^2, the points of the uniform y-grid on [0, 1]
#: that samples W, and the Legendre degree of W, in the R_delta search
R_DELTA_C1 = 10.0
R_DELTA_N_GRID = 64
R_DELTA_DEGREE = 12


def _legendre_maps(y, degree):
    """Matrices taking Legendre coefficients (on 2y-1) to samples of W and of
    its exact derivative W' on y."""
    t = 2.0 * y - 1.0
    return (npleg.legvander(t, degree),
            2.0 * npleg.legval(t, npleg.legder(np.eye(degree + 1))).T)


def _r_delta_forms(A, D, q, qd):
    """The exact quadratic forms of R_delta's moments in the coefficients p
    of W = A p, W' = D p, as (G, a, H): int W^2 = p^T G p, int W = a . p and
    int y(1-y) W'^2 = p^T H p, with G = A^T diag(q) A, a = A^T q and
    H = D^T diag(qd) D.

    q and qd = q y(1-y) are the trapezoid weight vectors of the y-grid
    (q @ f is np.trapezoid(f, y)).
    """
    return A.T @ (q[:, None] * A), A.T @ q, D.T @ (qd[:, None] * D)


def _r_delta_kernel(rows, A, q, forms, delta):
    """R_delta and its exact gradient for W = A p, row by row.

    rows is an (m, k) array with one coefficient vector p per row; the
    result is the m values and the (m, k) gradients.  q is the trapezoid
    weight vector of the y-grid and forms = (G, a, H) are the quadratic forms
    of ``_r_delta_forms``: int W^2, int W and int y(1-y) W'^2 come from them,
    so only W is sampled, for its cubic terms, and never W'.
    Each W is first projected radially onto {int W^2 <= C1}: with
    s = sqrt(C1/int W^2) the map p -> s p has Jacobian
    s (I - p (G p)^T / int W^2).  |W|^3 is C^1 with derivative 3|W|W.
    """
    G, a, H = forms
    gp = rows @ G
    hp = rows @ H
    i2w = np.einsum("ij,ij->i", gp, rows)
    proj = i2w > R_DELTA_C1
    s = np.sqrt(R_DELTA_C1 / np.where(proj, i2w, R_DELTA_C1))
    i2 = np.where(proj, R_DELTA_C1, i2w)
    u = s[:, None] * (rows @ A.T)
    u2 = u * u
    au = np.abs(u)
    b = i2 + 2.0 * s * (rows @ a)
    val = (-b * b / delta + (1.0 + delta) * i2 + (2.0 / 3.0) * ((u2 * u) @ q)
           + delta * ((u2 * au) @ q) - (1.0 - delta) * s * s * np.einsum("ij,ij->i", hp, rows))
    # the gradient in the projected coefficients s p, where G s p = s G p
    grad = ((q * (2.0 * u2 + 3.0 * delta * au * u)) @ A
            - (4.0 * b / delta)[:, None] * (s[:, None] * gp + a)
            + s[:, None] * (2.0 * (1.0 + delta) * gp - 2.0 * (1.0 - delta) * hp))
    if proj.any():
        r = np.flatnonzero(proj)
        dot = np.einsum("ij,ij->i", grad[r], rows[r])
        grad[r] = s[r, None] * (grad[r] - gp[r] * (dot / i2w[r])[:, None])
    return val, grad


def _r_delta_hessian_at_zero(forms, delta):
    """M, the Hessian of -R_delta at W = 0 in the coefficients p, from the
    forms (G, a, H) of ``_r_delta_forms``.

    Only the quadratic terms of R_delta have a second variation at 0:
    M = (8/d) a a^T - 2(1+d) G + 2(1-d) H.
    """
    G, a, H = forms
    return (8.0 / delta) * np.outer(a, a) - 2.0 * (1.0 + delta) * G + 2.0 * (1.0 - delta) * H


#: curvature pairs each row keeps, the Armijo sufficient-decrease constant and
#: the most backtracking steps in one iteration (each shrinks the step to at
#: most half)
LBFGS_MEMORY = 10
ARMIJO_C = 1e-4
MAX_HALVINGS = 40


def minimize(fun, x0, *, maxiter, ftol, gtol):
    """Minimize from every row of x0 at once with one batched L-BFGS.

    fun takes an (m, k) array and returns the m values and the (m, k)
    gradients.  Each row keeps its own limited-memory inverse Hessian (the
    two-loop recursion, Nocedal & Wright 2006, Alg. 7.4) and its own Armijo
    backtracking from the full step: a rejected step t gives way to the
    minimizer of the quadratic through f(0), the slope at 0 and f(t), kept
    within [0.1 t, 0.5 t] (N&W section 3.5); a nan f(t) gives 0.1 t.  A
    line search fails after MAX_HALVINGS rejected steps, or once the
    predicted decrease -t * slope of a rejected step is within machine
    epsilon of |f|, where rounding alone decides the Armijo test.  A row
    stops when its decrease falls to ftol * max(|f_old|, |f_new|, 1), when
    its largest gradient entry falls to gtol, when its line search fails or
    after maxiter iterations; from then on it is left out of the calls of
    fun.  A curvature pair with s.y <= 0 is kept as a no-op (rho = 0), so
    every row's inverse Hessian stays positive definite.

    Returns a namespace with x and fun, the best point and value of each row,
    nfev, the number of calls of fun, and nit, the number of iterations of
    the batch.
    """
    x = np.array(x0, dtype=float, ndmin=2)
    f, g = fun(x)
    nfev, nit = 1, 0
    x_out, f_out = x.copy(), f.copy()
    m, k = x.shape
    act = np.arange(m)
    S = np.zeros((LBFGS_MEMORY, m, k))
    Y = np.zeros((LBFGS_MEMORY, m, k))
    rho = np.zeros((LBFGS_MEMORY, m))
    # the first step has unit length, as in L-BFGS-B
    gamma = 1.0 / np.maximum(np.sqrt(np.einsum("ij,ij->i", g, g)), np.finfo(float).tiny)
    keep = np.abs(g).max(axis=1) > gtol
    for it in range(maxiter):
        if not keep.all():
            act, x, f, g, gamma = act[keep], x[keep], f[keep], g[keep], gamma[keep]
            S, Y, rho = S[:, keep], Y[:, keep], rho[:, keep]
        if act.size == 0:
            break
        nit += 1
        # two-loop recursion over the stored pairs, newest first
        order = [(it - 1 - j) % LBFGS_MEMORY for j in range(min(it, LBFGS_MEMORY))]
        d = -g
        alpha = np.empty((LBFGS_MEMORY, act.size))
        for j in order:
            alpha[j] = rho[j] * np.einsum("ij,ij->i", S[j], d)
            d -= alpha[j][:, None] * Y[j]
        d *= gamma[:, None]
        for j in reversed(order):
            beta = rho[j] * np.einsum("ij,ij->i", Y[j], d)
            d += (alpha[j] - beta)[:, None] * S[j]
        slope = np.einsum("ij,ij->i", g, d)
        # Armijo backtracking, each row on its own step t
        t = np.ones(act.size)
        x_new = x + d
        f_new, g_new = fun(x_new)
        nfev += 1
        need = ~(f_new <= f + ARMIJO_C * slope)
        rounding = np.finfo(float).eps * np.abs(f)
        for _ in range(MAX_HALVINGS):
            # a row whose predicted decrease -t*slope is within the rounding
            # of f has its Armijo test decided by rounding alone: it stops
            r = np.flatnonzero(need & (-t * slope > rounding))
            if r.size == 0:
                break
            tr = t[r]
            tq = -0.5 * slope[r] * tr * tr / (f_new[r] - f[r] - slope[r] * tr)
            # fmax, unlike clip, takes 0.1 t where f(t), and so tq, is nan
            t[r] = np.fmin(np.fmax(tq, 0.1 * tr), 0.5 * tr)
            x_new[r] = x[r] + t[r, None] * d[r]
            f_new[r], g_new[r] = fun(x_new[r])
            nfev += 1
            need[r] = ~(f_new[r] <= f[r] + ARMIJO_C * t[r] * slope[r])
        # a row whose line search failed keeps its last point and stops
        moved = ~need
        x_out[act[moved]], f_out[act[moved]] = x_new[moved], f_new[moved]
        flat = f - f_new <= ftol * np.maximum(np.maximum(np.abs(f), np.abs(f_new)), 1.0)
        keep = moved & ~flat & (np.abs(g_new).max(axis=1) > gtol)
        s_vec, y_vec = x_new - x, g_new - g
        sy = np.einsum("ij,ij->i", s_vec, y_vec)
        curved = sy > 0.0
        slot = it % LBFGS_MEMORY
        S[slot], Y[slot] = s_vec, y_vec
        rho[slot] = curved / np.where(curved, sy, 1.0)
        yy = np.einsum("ij,ij->i", y_vec, y_vec)
        gamma = np.where(curved, sy / np.where(curved, yy, 1.0), gamma)
        x, f, g = x_new, f_new, g_new
    return SimpleNamespace(x=x_out, fun=f_out, nfev=nfev, nit=nit)


def maximize_r_delta(delta=0.01, n_starts=200, seed=20240817):
    """Seeded multistart maximization of R_delta under int W^2 <= C1 = R_DELTA_C1,
    W of Legendre degree R_DELTA_DEGREE sampled on R_DELTA_N_GRID uniform
    points of [0, 1].

    Starts are random Legendre coefficient vectors p (decaying spectrum,
    random radius), all ascended together by one batched L-BFGS
    (``minimize``) on the exact gradient.  The term -(1/d)(int W^2 + 2 int W)^2
    makes the problem stiff: its curvature 8/d in the direction of int W
    dwarfs the others.  So where M, the Hessian of -R_delta at W = 0
    (``_r_delta_hessian_at_zero``), is positive definite, M = L L^T, the
    search runs in z = L^T p, where that Hessian is the identity (N&W
    section 7.2); the starts are the same W.  M is positive definite up to
    d ~ 0.33; above that the search stays in the Legendre coefficients.

    Returns a CertificationReport whose worst_value is the largest R_delta
    found (the claim is that it stays <= 0 up to discretization noise);
    details carry the ascent's nfev, nit and rows: batched kernel calls,
    batched iterations and the sum of the calls' batch sizes.
    """
    if n_starts < 1 or not delta > 0.0:
        raise ValueError("need n_starts >= 1 and delta > 0")
    t0 = time.perf_counter()
    rng = random.Random(seed)
    y = np.linspace(0.0, 1.0, R_DELTA_N_GRID)
    q = np.trapezoid(np.eye(y.size), y, axis=0)
    qd = q * y * (1.0 - y)
    leg, leg_d = _legendre_maps(y, R_DELTA_DEGREE)
    k = R_DELTA_DEGREE + 1
    starts = np.empty((n_starts, k))
    for row in starts:
        row[:] = [rng.gauss(0.0, 1.0) for _ in range(k)]
        row /= (1.0 + np.arange(k)) ** 2
        row *= rng.uniform(0.05, np.sqrt(R_DELTA_C1))

    forms = _r_delta_forms(leg, leg_d, q, qd)
    try:
        chol = np.linalg.cholesky(_r_delta_hessian_at_zero(forms, delta))
    except np.linalg.LinAlgError:
        pass  # M is indefinite: the search stays in p
    else:  # W = leg p = (leg L^-T) z
        to_p = np.linalg.inv(chol).T
        leg, starts = leg @ to_p, starts @ chol
        forms = _r_delta_forms(leg, leg_d @ to_p, q, qd)
    rows = 0

    def neg_r_delta(z):
        nonlocal rows
        rows += len(z)
        val, grad = _r_delta_kernel(z, leg, q, forms, delta)
        return -val, -grad

    res = minimize(neg_r_delta, starts, maxiter=200, ftol=1e-14, gtol=1e-12)
    best_val = -float(np.min(res.fun))
    return CertificationReport(
        target="R_delta(W) <= 0 under int W^2 <= C1",
        domain=f"Legendre deg<={R_DELTA_DEGREE}, n={y.size}",
        resolution=1.0 / (y.size - 1),
        worst_value=best_val,
        margin=-best_val,
        certified=bool(best_val <= 1e-8),
        method="multistart",
        details={"delta": delta, "c1": R_DELTA_C1, "n_starts": n_starts, "seed": seed,
                 "nfev": res.nfev, "nit": res.nit, "rows": rows},
        runtime_s=time.perf_counter() - t0,
    )
