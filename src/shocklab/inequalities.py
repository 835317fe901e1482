"""Standalone functional inequalities behind the contraction argument.

Certified numerically, not proved: every negativity claim is checked by a
grid + Lipschitz slack, a quadrature with analytic endpoint handling, or a
seeded multistart maximization, and each check returns a CertificationReport
with the worst value found and the margin.

Contents:
  * the sharp-sup constant  theta = sqrt(5 - pi^2/3)  and the singular
    quadrature that produces it,
  * the sup-deviation estimate  |f(x) - mean(f)| <= sqrt(L(x)+L(1-x)) * sqrt(D),
  * the weighted Poincare inequality  int (f-mean)^2 <= 1/2 int y(1-y) f'^2
    (exact polynomial route and sampled route),
  * the one-variable cubic-radical function g on [-2, 0] and its negativity,
  * the two-variable polynomial P_delta with constraint band |E| <= delta_1,
  * the constrained functional R_delta(W) on (0,1) and its multistart
    maximization (L-BFGS-B on the exact gradient of R_delta).
"""

import time
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import legendre as npleg
from numpy.polynomial import polynomial as nppoly
from scipy.integrate import quad
from scipy.optimize import brentq, minimize

__all__ = [
    "CertificationReport",
    "log_remainder",
    "theta_constant",
    "theta_squared_quadrature",
    "sup_deviation_slack",
    "poincare_slack_from_poly",
    "poincare_slack_from_samples",
    "g_poly",
    "g_deriv",
    "certify_g_negative",
    "locate_g_critical_points",
    "E_poly",
    "P_delta_poly",
    "certify_prop_algebra",
    "DiscretizedW",
    "r_delta",
    "maximize_r_delta",
    "cubic_mean_decomposition",
    "centered_cubic_bound_slack",
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
# theta and the sup estimate
# ---------------------------------------------------------------------------


def log_remainder(x):
    """L(x) = -x - log(1-x), the remainder of the log series; L >= 0 on [0,1)."""
    x = np.asarray(x, dtype=float)
    if np.any(x >= 1.0):
        raise ValueError("log_remainder needs x < 1")
    return -x - np.log1p(-x)


def theta_constant():
    """theta = sqrt(5 - pi^2/3) ~ 1.3077 (closed form of the theta quadrature)."""
    return float(np.sqrt(5.0 - np.pi ** 2 / 3.0))


def _tail_piece(eta):
    """int_0^eta (1 + log(1-y) + log y)^2 dy with the log y parts done exactly.

    Expansion: (A + log y)^2 = A^2 + 2A log y + log^2 y with A = 1 + log(1-y).
    The log y and log^2 y moments have closed forms; the cross term
    2 log(1-y) log y and the smooth A^2 go to adaptive quadrature (bounded
    integrands).
    """
    # exact: int_0^eta log y dy, int_0^eta log^2 y dy
    i_log = eta * (np.log(eta) - 1.0)
    i_log2 = eta * (np.log(eta) ** 2 - 2.0 * np.log(eta) + 2.0)
    i_a2 = quad(lambda y: (1.0 + np.log1p(-y)) ** 2, 0.0, eta,
                epsabs=1e-14, epsrel=1e-13)[0]
    i_cross = quad(lambda y: np.log1p(-y) * np.log(y), 0.0, eta,
                   epsabs=1e-14, epsrel=1e-13)[0]
    return i_a2 + 2.0 * (i_log + i_cross) + i_log2


def theta_squared_quadrature(eta=0.05):
    """int_0^1 (L(y) + L(1-y))^2 dy by split quadrature.

    The integrand equals (1 + log(y(1-y)))^2; both endpoints get the analytic
    tail treatment of _tail_piece (the integrand is symmetric), the middle is
    a regular adaptive quadrature.
    """
    if not (0.0 < eta < 0.5):
        raise ValueError("eta must lie in (0, 1/2)")
    middle = quad(lambda y: (1.0 + np.log(y * (1.0 - y))) ** 2, eta, 1.0 - eta,
                  epsabs=1e-14, epsrel=1e-13, limit=200)[0]
    return middle + 2.0 * _tail_piece(eta)


def sup_deviation_slack(y, f):
    """Min over interior samples of  sqrt(L(x)+L(1-x))*sqrt(D) - |f(x)-mean|.

    D = int y(1-y)|f'|^2 (trapezoid, central differences).  Nonnegative slack
    is the sup-deviation estimate; returns (min slack, argmin location).
    """
    y = np.asarray(y, dtype=float)
    f = np.asarray(f, dtype=float)
    mean = np.trapezoid(f, y)
    fp = np.gradient(f, y)
    D = np.trapezoid(y * (1.0 - y) * fp ** 2, y)
    interior = (y > 0.0) & (y < 1.0)
    lsum = log_remainder(y[interior]) + log_remainder(1.0 - y[interior])
    rhs = np.sqrt(lsum) * np.sqrt(max(D, 0.0))
    slack = rhs - np.abs(f[interior] - mean)
    i = int(np.argmin(slack))
    return float(slack[i]), float(y[interior][i])


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


def poincare_slack_from_samples(y, f):
    """Trapezoid version of the Poincare slack for sampled f."""
    y = np.asarray(y, dtype=float)
    f = np.asarray(f, dtype=float)
    mean = np.trapezoid(f, y)
    lhs = np.trapezoid((f - mean) ** 2, y)
    fp = np.gradient(f, y)
    rhs = 0.5 * np.trapezoid(y * (1.0 - y) * fp ** 2, y)
    return float(rhs - lhs)


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


def certify_g_negative(step=1e-5, eta=0.15):
    """Certify g < 0 on (-2, 0): grid + Lipschitz slack on [-2, -eta],
    analytic cusp bound on (-eta, 0).

    The grid margin is -(max g + L*step/2) with the global derivative bound
    L; the cusp side needs eta below the analytic threshold ~0.164 (there the
    bound 2x + (4 theta/3)(2|x|)^(3/2) is strictly negative away from 0, with
    margin -> 0 as x -> 0 since g(0) = 0).
    """
    t0 = time.perf_counter()
    if not (0.0 < eta < G_ANALYTIC_THRESHOLD):
        raise ValueError(f"eta must lie in (0, {G_ANALYTIC_THRESHOLD:.6f})")
    x = np.arange(-2.0, -eta + 0.5 * step, step)
    x[-1] = -eta
    vals = g_poly(x)
    i = int(np.argmax(vals))
    worst = float(vals[i])
    slack = G_LIPSCHITZ_BOUND * step / 2.0
    margin = -(worst + slack)
    certified = margin > 0.0
    return CertificationReport(
        target="g < 0 on (-2, 0)",
        domain=f"grid [-2, {-eta}] + analytic ({-eta}, 0)",
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
    roots = []
    sign_change = np.where(np.sign(d[:-1]) * np.sign(d[1:]) < 0)[0]
    for i in sign_change:
        r = brentq(g_deriv, x[i], x[i + 1], xtol=1e-14)
        kind = "max" if d[i] > 0 else "min"
        roots.append({"x": float(r), "kind": kind})
    return roots


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

    The box is (z1_lo, z1_hi, z2_lo, z2_hi); evaluation is chunked over 64
    z1 rows at a time to bound memory.  Reports the worst admissible value
    and where it occurs.  A box whose grid has no point in the band certifies
    nothing and is reported as not certified.
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
        zz1 = z1[i0:i0 + 64][:, None]
        zz2 = z2[None, :]
        E = E_poly(zz1, zz2)
        mask = np.abs(E) <= delta1
        if not np.any(mask):
            continue
        n_admissible += int(mask.sum())
        val = P_delta_poly(zz1, zz2, delta) - E * E
        val = np.where(mask, val, -np.inf)
        j = np.unravel_index(np.argmax(val), val.shape)
        if val[j] > worst:
            worst = float(val[j])
            arg = (float(zz1[j[0], 0]), float(zz2[0, j[1]]))
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
    def from_legendre(cls, coeffs, n=64):
        y = np.linspace(0.0, 1.0, n)
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


def _r_delta_kernel(p, A, D, q, qd, delta, c1):
    """R_delta and its exact gradient for W = A p, W' = D p.

    q and qd = q y(1-y) are the trapezoid weight vectors of the y-grid
    (q @ f is np.trapezoid(f, y)).  W is
    first projected radially onto {int W^2 <= c1}: with s = sqrt(c1/int W^2)
    the map w -> s w has Jacobian s (I - w (q w)^T / int W^2), applied to
    both W and W'.  |W|^3 is C^1 with derivative 3|W|W.
    """
    w = A @ p
    wp = D @ p
    qw = q * w
    i2w = qw @ w
    if i2w > c1:
        s, i2 = np.sqrt(c1 / i2w), c1
    else:
        s, i2 = 1.0, i2w
    u = s * w
    v = s * wp
    i1 = q @ u
    u2 = u * u
    au = np.abs(u)
    a = i2 + 2.0 * i1
    val = (-a * a / delta + (1.0 + delta) * i2 + (2.0 / 3.0) * (q @ (u2 * u))
           + delta * (q @ (u2 * au)) - (1.0 - delta) * (qd @ (v * v)))
    g_u = q * (-(4.0 * a / delta) * (u + 1.0) + 2.0 * (1.0 + delta) * u
               + 2.0 * u2 + 3.0 * delta * au * u)
    g_v = -2.0 * (1.0 - delta) * qd * v
    grad = A.T @ g_u + D.T @ g_v
    if s != 1.0:
        grad = s * (grad - (A.T @ qw) * ((g_u @ w + g_v @ wp) / i2w))
    return val, grad


def _neg_r_delta(p, *args):
    val, grad = _r_delta_kernel(p, *args)
    return -val, -grad


def maximize_r_delta(delta=0.01, c1=10.0, n_grid=64, n_starts=200, degree=12,
                     seed=20240817):
    """Seeded multistart maximization of R_delta under int W^2 <= c1.

    Starts are random Legendre coefficient vectors (decaying spectrum, random
    radius), ascended with L-BFGS-B on the exact gradient; the best candidate
    is then re-optimized over its raw grid values, again with the exact
    gradient (W' is the matrix form of np.gradient, as in
    DiscretizedW.moments).  Returns a CertificationReport whose worst_value
    is the largest R_delta found (the claim is that it stays <= 0 up to
    discretization noise); details carry nfev and nit summed over every
    L-BFGS-B run.
    """
    if n_starts < 1 or n_grid < 3 or degree < 0:
        raise ValueError("need n_starts >= 1, n_grid >= 3 and degree >= 0")
    if not (delta > 0.0 and c1 > 0.0):
        raise ValueError("need delta > 0 and c1 > 0")
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    y = np.linspace(0.0, 1.0, n_grid)
    eye = np.eye(n_grid)
    q = np.trapezoid(eye, y, axis=0)
    qd = q * y * (1.0 - y)
    leg, leg_d = _legendre_maps(y, degree)
    nfev = nit = 0

    def ascend(x0, A, D, options):
        nonlocal nfev, nit
        res = minimize(_neg_r_delta, x0, args=(A, D, q, qd, delta, c1),
                       jac=True, method="L-BFGS-B", options=options)
        nfev += int(res.nfev)
        nit += int(res.nit)
        return res

    best_val = -np.inf
    best_W = None
    for _ in range(n_starts):
        c0 = rng.standard_normal(degree + 1) / (1.0 + np.arange(degree + 1)) ** 2
        c0 *= rng.uniform(0.05, np.sqrt(c1))
        res = ascend(c0, leg, leg_d,
                     {"maxiter": 200, "ftol": 1e-14, "gtol": 1e-12})
        if -res.fun > best_val:
            best_val = -res.fun
            w = leg @ res.x
            i2 = q @ (w * w)
            best_W = w * np.sqrt(c1 / i2) if i2 > c1 else w

    res = ascend(best_W, eye, np.gradient(eye, y, axis=0),
                 {"maxiter": 300, "ftol": 1e-15, "gtol": 1e-13})
    best_val = max(best_val, -res.fun)

    return CertificationReport(
        target="R_delta(W) <= 0 under int W^2 <= C1",
        domain=f"Legendre deg<={degree} + raw grid, n={n_grid}",
        resolution=1.0 / (n_grid - 1),
        worst_value=float(best_val),
        margin=-float(best_val),
        certified=bool(best_val <= 1e-8),
        method="multistart",
        details={"delta": delta, "c1": c1, "n_starts": n_starts, "seed": seed,
                 "nfev": nfev, "nit": nit},
        runtime_s=time.perf_counter() - t0,
    )


# ---------------------------------------------------------------------------
# property-check helpers
# ---------------------------------------------------------------------------


def cubic_mean_decomposition(W):
    """(int W^3, recomposition int (W-m)^3 + 2m int (W-m)^2 + m int W^2)."""
    y, w = W.y, W.w
    m = np.trapezoid(w, y)
    lhs = np.trapezoid(w ** 3, y)
    c = w - m
    rhs = np.trapezoid(c ** 3, y) + 2.0 * m * np.trapezoid(c * c, y) + m * np.trapezoid(w * w, y)
    return float(lhs), float(rhs)


def centered_cubic_bound_slack(W):
    """Slack of  int |W - mean|^3 <= theta * Z2 * int y(1-y)|W'|^2."""
    y, w = W.y, W.w
    m = np.trapezoid(w, y)
    c = w - m
    z2 = np.sqrt(max(np.trapezoid(c * c, y), 0.0))
    wp = np.gradient(w, y)
    dir_term = np.trapezoid(y * (1.0 - y) * wp * wp, y)
    return float(theta_constant() * z2 * dir_term - np.trapezoid(np.abs(c) ** 3, y))
