"""Standalone functional inequalities behind the contraction argument.

Certified numerically, not proved: every negativity claim is checked by a
grid + Lipschitz slack, a graded Gauss-Legendre quadrature, or a seeded
multistart maximization, and each check returns a CertificationReport
with the worst value found and the margin.

Contents:
  * the sharp-sup constant  theta = sqrt(5 - pi^2/3)  and the singular
    quadrature that produces it,
  * the weighted Poincare inequality  int (f-mean)^2 <= 1/2 int y(1-y) f'^2
    on polynomials, in exact coefficient arithmetic,
  * the one-variable cubic-radical function g on [-2, 0] and its negativity,
  * the two-variable polynomial P_delta with constraint band |E| <= delta_1,
  * the constrained functional R_delta(W) on (0,1) and its multistart
    maximization: one batched L-BFGS ascent of all starts at once on the
    exact gradient of R_delta (``minimize``).

The module needs numpy alone: the quadrature is Gauss-Legendre on graded
panels, the roots of g' come from a vectorized bisection, and the ascent is
the batched L-BFGS defined here.
"""

import time
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np
from numpy.polynomial import legendre as npleg
from numpy.polynomial import polynomial as nppoly

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
    "DiscretizedW",
    "r_delta",
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


def _poly_integral_01(c):
    """Exact int_0^1 of a polynomial given ascending coefficients."""
    ci = nppoly.polyint(c)
    return float(nppoly.polyval(1.0, ci) - nppoly.polyval(0.0, ci))


def poincare_slack_from_poly(coeffs):
    """Exact slack 1/2 int y(1-y) f'^2 - int (f - mean)^2 for a polynomial f.

    coeffs are ascending power-basis coefficients on [0, 1]; all integrals are
    done in exact coefficient arithmetic (roundoff only), so the slack of a
    true polynomial is >= -O(1e-14).
    """
    c = np.asarray(coeffs, dtype=float)
    mean = _poly_integral_01(c)
    g = c.copy()
    g[0] -= mean
    lhs = _poly_integral_01(nppoly.polymul(g, g))
    d = nppoly.polyder(c)
    wd2 = nppoly.polymul([0.0, 1.0, -1.0], nppoly.polymul(d, d))
    rhs = 0.5 * _poly_integral_01(wd2)
    return rhs - lhs


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
    return 2.0 * x - 2.0 * x * x - (4.0 / 3.0) * x ** 3 + (4.0 * th / 3.0) * rad ** 1.5


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
    from 0 (with margin -> 0 as x -> 0 since g(0) = 0).
    """
    t0 = time.perf_counter()
    x = np.arange(-2.0, -G_CUSP + 0.5 * step, step)
    x[-1] = -G_CUSP
    vals = g_poly(x)
    i = int(np.argmax(vals))
    worst = float(vals[i])
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
            "argmax_grid": float(x[i]),
            "lipschitz_bound": G_LIPSCHITZ_BOUND,
            "analytic_threshold": G_ANALYTIC_THRESHOLD,
            "grid_points": int(x.size),
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
            + (2.0 / 3.0) * z1 ** 3 + 6.0 * delta * (a1 * z2sq + a1 ** 3)
            - 2.0 * (1.0 - delta - (2.0 / 3.0 + delta) * th * z2) * z2sq)


def certify_prop_algebra(delta=0.01, delta1=0.01, box=(-3.0, 1.0, 0.0, 3.0),
                         step=1e-3):
    """Grid-certify  P_delta - E^2 <= 1e-10  on the band {|E| <= delta1}.

    The box is (z1_lo, z1_hi, z2_lo, z2_hi).  E is evaluated 64 z1 rows at a
    time to bound memory, P_delta only at the band's points.  Reports the
    worst admissible value and where it first occurs in row-major order.  A
    box whose grid has no point in the band certifies nothing.
    """
    t0 = time.perf_counter()
    tol = 1e-10
    z1_lo, z1_hi, z2_lo, z2_hi = box
    z1 = np.arange(0, round((z1_hi - z1_lo) / step) + 1) * step + z1_lo
    z2 = np.arange(0, round((z2_hi - z2_lo) / step) + 1) * step + z2_lo
    worst = -np.inf
    arg = (np.nan, np.nan)
    n_admissible = 0
    for i0 in range(0, z1.size, 64):
        E = E_poly(z1[i0:i0 + 64, None], z2[None, :])
        r, c = np.nonzero(np.abs(E) <= delta1)
        if r.size == 0:
            continue
        n_admissible += r.size
        e = E[r, c]
        val = P_delta_poly(z1[i0 + r], z2[c], delta) - e * e
        j = int(np.argmax(val))
        if val[j] > worst:
            worst = float(val[j])
            arg = (float(z1[i0 + r[j]]), float(z2[c[j]]))
    certified = n_admissible > 0 and worst <= tol
    return CertificationReport(
        target="P_delta - E^2 <= 0 on |E| <= delta1",
        domain=f"box {box}, band |E|<={delta1}",
        resolution=step,
        worst_value=worst,
        margin=tol - worst,
        certified=certified,
        method="grid",
        details={"delta": delta, "delta1": delta1, "argmax": arg,
                 "grid_points": int(z1.size * z2.size),
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


@dataclass
class DiscretizedW:
    """W sampled on a uniform y-grid over [0,1] (endpoints included)."""

    y: np.ndarray
    w: np.ndarray

    @classmethod
    def from_samples(cls, w):
        w = np.asarray(w, dtype=float)
        return cls(y=np.linspace(0.0, 1.0, w.size), w=w)

    @classmethod
    def from_legendre(cls, coeffs):
        """W = sum_k coeffs[k] P_k(2y - 1) on R_DELTA_N_GRID points."""
        y = np.linspace(0.0, 1.0, R_DELTA_N_GRID)
        w = npleg.legval(2.0 * y - 1.0, np.asarray(coeffs, dtype=float))
        return cls(y=y, w=w)

    def moments(self):
        """(int W, int W^2, int W^3, int |W|^3, int y(1-y)|W'|^2) by trapezoid."""
        y, w = self.y, self.w
        wp = np.gradient(w, y)
        return (
            float(np.trapezoid(w, y)),
            float(np.trapezoid(w * w, y)),
            float(np.trapezoid(w ** 3, y)),
            float(np.trapezoid(np.abs(w) ** 3, y)),
            float(np.trapezoid(y * (1.0 - y) * wp * wp, y)),
        )


def r_delta(W, delta):
    """R_delta of a DiscretizedW:
    -(1/d)(int W^2 + 2 int W)^2 + (1+d) int W^2 + (2/3) int W^3
    + d int |W|^3 - (1-d) int y(1-y)|W'|^2."""
    i1, i2, i3, i3a, dir_term = W.moments()
    return (-(i2 + 2.0 * i1) ** 2 / delta + (1.0 + delta) * i2
            + (2.0 / 3.0) * i3 + delta * i3a - (1.0 - delta) * dir_term)


def _legendre_maps(y, degree):
    """Matrices taking Legendre coefficients (on 2y-1) to samples of W and of
    its exact derivative W' on y."""
    t = 2.0 * y - 1.0
    return (npleg.legvander(t, degree),
            2.0 * npleg.legval(t, npleg.legder(np.eye(degree + 1))).T)


def _r_delta_kernel(rows, A, D, q, qd, delta):
    """R_delta and its exact gradient for W = A p, W' = D p, row by row.

    rows is an (m, k) array with one coefficient vector p per row; the
    result is the m values and the (m, k) gradients.  q and qd = q y(1-y)
    are the trapezoid weight vectors of the y-grid (q @ f is
    np.trapezoid(f, y)).
    Each W is first projected radially onto {int W^2 <= C1}: with
    s = sqrt(C1/int W^2) the map w -> s w has Jacobian
    s (I - w (q w)^T / int W^2), applied to both W and W'.  |W|^3 is C^1 with
    derivative 3|W|W.
    """
    w = rows @ A.T
    wp = rows @ D.T
    qw = q * w
    i2w = np.einsum("ij,ij->i", qw, w)
    proj = i2w > R_DELTA_C1
    s = np.sqrt(R_DELTA_C1 / np.where(proj, i2w, R_DELTA_C1))[:, None]
    i2 = np.where(proj, R_DELTA_C1, i2w)
    u = s * w
    v = s * wp
    i1 = u @ q
    u2 = u * u
    au = np.abs(u)
    a = i2 + 2.0 * i1
    val = (-a * a / delta + (1.0 + delta) * i2 + (2.0 / 3.0) * ((u2 * u) @ q)
           + delta * ((u2 * au) @ q) - (1.0 - delta) * ((v * v) @ qd))
    g_u = q * (-(4.0 * a[:, None] / delta) * (u + 1.0) + 2.0 * (1.0 + delta) * u
               + 2.0 * u2 + 3.0 * delta * au * u)
    g_v = -2.0 * (1.0 - delta) * qd * v
    grad = g_u @ A + g_v @ D
    if proj.any():
        r = np.flatnonzero(proj)
        dot = np.einsum("ij,ij->i", g_u[r], w[r]) + np.einsum("ij,ij->i", g_v[r], wp[r])
        grad[r] = s[r] * (grad[r] - (qw[r] @ A) * (dot / i2w[r])[:, None])
    return val, grad


#: curvature pairs each row keeps, the Armijo sufficient-decrease constant and
#: the most step halvings in one iteration
LBFGS_MEMORY = 10
ARMIJO_C = 1e-4
MAX_HALVINGS = 40


def minimize(fun, x0, *, maxiter, ftol, gtol):
    """Minimize from every row of x0 at once with one batched L-BFGS.

    fun takes an (m, k) array and returns the m values and the (m, k)
    gradients.  Each row keeps its own limited-memory inverse Hessian (the
    two-loop recursion, Nocedal & Wright 2006, Alg. 7.4) and its own Armijo
    backtracking by halving from the full step.  A row stops when its
    decrease falls to ftol * max(|f_old|, |f_new|, 1), when its largest
    gradient entry falls to gtol, when its line search finds no decrease or
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
        for _ in range(MAX_HALVINGS):
            if not need.any():
                break
            r = np.flatnonzero(need)
            t[r] *= 0.5
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

    Starts are random Legendre coefficient vectors (decaying spectrum, random
    radius), all ascended together by one batched L-BFGS (``minimize``) on the
    exact gradient.  Returns a CertificationReport whose worst_value is the
    largest R_delta found (the claim is that it stays <= 0 up to
    discretization noise); details carry the ascent's nfev and nit.  They
    count batched kernel calls and batched iterations, each covering every
    start still active.
    """
    if n_starts < 1 or not delta > 0.0:
        raise ValueError("need n_starts >= 1 and delta > 0")
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    y = np.linspace(0.0, 1.0, R_DELTA_N_GRID)
    q = np.trapezoid(np.eye(y.size), y, axis=0)
    qd = q * y * (1.0 - y)
    leg, leg_d = _legendre_maps(y, R_DELTA_DEGREE)
    k = R_DELTA_DEGREE + 1
    starts = np.empty((n_starts, k))
    for row in starts:
        row[:] = rng.standard_normal(k) / (1.0 + np.arange(k)) ** 2
        row *= rng.uniform(0.05, np.sqrt(R_DELTA_C1))

    def neg_r_delta(p):
        val, grad = _r_delta_kernel(p, leg, leg_d, q, qd, delta)
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
                 "nfev": res.nfev, "nit": res.nit},
        runtime_s=time.perf_counter() - t0,
    )
