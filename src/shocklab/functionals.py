"""Weighted relative-entropy functionals along the shifted profile.

Each integral int f*g is the trapezoid rule on the uniform grid as one dot
product, dx*(sum f_i g_i - (f_0 g_0 + f_n g_n)/2), in np.einsum's loop (BLAS
ddot may change its last bits with the thread count).  A shift X moves the
*profile and weight*, never the field: by change of variables

    int a(xi) eta(U(xi+X) | Utilde(xi)) dxi
  = int a(xi-X) eta(U(xi) | Utilde(xi-X)) dxi,

so every reference quantity is evaluated at xi - X through the profile
interpolant.  Working variables:

    w = p(v) - p_tilde          (pressure perturbation)
    b = (h - h_tilde) - w/sigma (outgoing component)

The entropy-balance rate splits as  d/dt int a*eta = Xdot*Y + B - G  with

    Y  = -int a' eta + int a (-p_tilde' (v-v_tilde) + h_tilde' (h-h_tilde))
    B  = B1 + B2,  B1 = sigma int a v_tilde' p(v|v_tilde),
                   B2 = 1/(2 sigma) int a' w^2 + 1/2 int a'' w^2
    G  = G1 + G2 + D,  G1 = sigma/2 int a' b^2,  G2 = sigma int a' q(v|v_tilde),
                   D = int a |d_xi w|^2

(G1, G2, D are individually nonnegative for a 1-shock: sigma < 0 and a' <= 0).
Y further decomposes exactly into good/bad/linear parts Y_g + Y_b + Y_l used
by the truncation arguments.
"""

from dataclasses import dataclass

import numpy as np

from .solver import _d1

__all__ = [
    "FunctionalBreakdown",
    "compute_breakdown",
    "quick_yb",
    "truncate_state",
    "bd_relative_functional",
    "normalized_layer_variables",
]


@dataclass(frozen=True)
class FunctionalBreakdown:
    weighted_entropy: float
    Y: float
    Y_g: float
    Y_b: float
    Y_l: float
    B1: float
    B2: float
    B: float
    G1: float
    G2: float
    D: float
    G: float
    sup_w: float  # max |w| = max |p(v) - p_tilde| on the grid


def _quad(f, g, dx):
    """Trapezoid rule for int f*g with no product array (module docstring)."""
    return float(dx * (np.einsum("i,i", f, g) - 0.5 * (f[0] * g[0] + f[-1] * g[-1])))


def _yb_kernel(v, h, p, gas, sig, dx, pf):
    """Y, B1, B2 and the pointwise arrays (w, h - h_tilde, q(v|v_tilde), eta).

    p is p(v), which every caller already has; pf is a weight frame
    (WeightFn.frame at the shifted points), which brings the closures at
    v_tilde.  q(v) is evaluated once.  q(v|v_tilde) and p(v|v_tilde) keep
    the operation order of GasModel.q_relative and p_relative, so they match
    those bit for bit.
    """
    a, da, d2a = pf["a"], pf["da"], pf["d2a"]
    dv = v - pf["v"]
    w = p - pf["p"]
    dh_field = h - pf["h"]
    q_rel = gas.entropy(v) - pf["qv"] + pf["pv"] * dv
    p_rel = p - pf["pv"] - pf["dpv"] * dv
    eta = 0.5 * dh_field ** 2 + q_rel
    Y = -_quad(da, eta, dx) + _quad(a, -pf["dp"] * dv + pf["dh"] * dh_field, dx)
    B1 = sig * _quad(a, pf["dv"] * p_rel, dx)
    w2 = w ** 2
    B2 = _quad(da, w2, dx) / (2.0 * sig) + 0.5 * _quad(d2a, w2, dx)
    return Y, B1, B2, w, dh_field, q_rel, eta


def compute_breakdown(x, v, h, weight, shift=0.0, frame=None):
    """Full functional breakdown of the state (v, h) on grid x at shift X.

    Grid must be uniform; `frame`, if given, is weight.frame(x - shift).
    Returns a FunctionalBreakdown; see the module docstring for the
    formulas.  The Y decomposition satisfies Y = Y_g + Y_b + Y_l
    identically (same discrete arrays on both sides).
    """
    x = np.asarray(x, dtype=float)
    dx = x[1] - x[0]
    gas, sig = weight.profile.gas, weight.profile.sigma
    pf = weight.frame(x - shift) if frame is None else frame
    a, da = pf["a"], pf["da"]
    Y, B1, B2, w, dh_field, q_rel, eta = _yb_kernel(v, h, gas.pressure(v), gas, sig, dx, pf)
    b = dh_field - w / sig

    def T(f, g):
        return _quad(f, g, dx)

    i_da_q = T(da, q_rel)
    i_da_b2 = T(da, b ** 2)
    Y_g = (-T(da, w ** 2) / (2.0 * sig * sig) - i_da_q
           - T(a, pf["dp"] * (v - pf["v"])) + T(a, pf["dh"] * w) / sig)
    Y_b = -0.5 * i_da_b2 - T(da, w * b) / sig
    Y_l = T(a, pf["dh"] * b)
    G1 = 0.5 * sig * i_da_b2
    G2 = sig * i_da_q
    D = T(a, _d1(w, dx) ** 2)

    return FunctionalBreakdown(
        weighted_entropy=T(a, eta),
        Y=Y, Y_g=Y_g, Y_b=Y_b, Y_l=Y_l,
        B1=B1, B2=B2, B=B1 + B2,
        G1=G1, G2=G2, D=D, G=G1 + G2 + D,
        sup_w=float(np.max(np.abs(w))),
    )


def quick_yb(x, v, h, p, weight, shift=0.0, frame=None):
    """(Y, B) only, for the shift ODE at every RK stage; p = p(v), frame as in
    compute_breakdown."""
    x = np.asarray(x, dtype=float)
    pf = weight.frame(x - shift) if frame is None else frame
    pr = weight.profile
    Y, B1, B2 = _yb_kernel(v, h, p, pr.gas, pr.sigma, x[1] - x[0], pf)[:3]
    return Y, B1 + B2


def truncate_state(x, v, profile, shift, level):
    """Pressure-truncated volume field: p(v_bar) = p_tilde + clip(w, -level, level).

    level > 0.  Truncation keeps the relative entropy ordering
    q(v|v_tilde) >= q(v_bar|v_tilde) pointwise and drops the dissipation by
    exactly int a |d_xi (p(v)-p(v_bar))|^2 in the continuum.
    """
    if not (level > 0.0):
        raise ValueError("truncation level must be positive")
    gas = profile.gas
    p_t = profile.pressure_profile(np.asarray(x, dtype=float) - shift)
    w = gas.pressure(v) - p_t
    return gas.pressure_inverse(p_t + np.clip(w, -level, level))


def bd_relative_functional(x, v, u, profile):
    """Unweighted relative functional of (v, u) data against the profile.

    int [ 1/2 (u + d_xi p(v) - h_tilde)^2 + q(v|v_tilde) ] dxi  with the
    solver's central difference for d_xi p(v); this is the quantity that is
    finite for finite-energy data and controls the weighted entropy at t=0.
    """
    x = np.asarray(x, dtype=float)
    dx = x[1] - x[0]
    gas = profile.gas
    pf = profile.frame(x)
    h_eff = u + _d1(gas.pressure(v), dx)
    integrand = 0.5 * (h_eff - pf["h"]) ** 2 + gas.q_relative(v, pf["v"])
    return _quad(np.ones_like(x), integrand, dx)  # the weight a = 1


def weighted_q_probe(weight):
    """Size of int |a'| q(v|v_tilde) for the largest layer-aligned
    perturbation the shift functional tolerates.

    A nonnegative bump S supported on the layer is added to v with amplitude
    t; Y(t) = -t int a p~' S + O(t^2) with the quadratic entropy term of the
    opposite sign, so Y has a nontrivial zero t* (the amplitude where the
    linear and quadratic parts of Y cancel, t* ~ eps/lam).  At that
    amplitude — an admissible state for the |Y| <= eps^2 branch — the report
    returns int |a'| q, whose predicted size is eps^2/lam.
    """
    from scipy.optimize import brentq  # a report helper: the march needs no scipy

    profile, lam = weight.profile, weight.lam
    gas, eps = profile.gas, profile.eps
    alpha = gas.layer_constant
    L = 40.0 / eps
    x = np.linspace(-L, L, 4001)
    dx = x[1] - x[0]
    pf = weight.frame(x)
    width = 4.0 * alpha / eps  # ~ two layer widths
    S = np.clip(1.0 - (x / width) ** 2, 0.0, None) ** 3

    def Y_of(t):  # h untouched
        v = pf["v"] + t * S
        return _yb_kernel(v, pf["h"], gas.pressure(v), gas, profile.sigma, dx, pf)[0]

    # bracket the nontrivial zero: Y < 0 for small t, > 0 past t* ~ eps/lam
    t_lo = 1e-3 * eps / lam
    t_hi = eps / lam
    it = 0
    while Y_of(t_hi) < 0.0:
        t_hi *= 2.0
        it += 1
        if it > 12:
            raise RuntimeError("no sign change for the layer probe amplitude")
    t_star = brentq(Y_of, t_lo, t_hi, xtol=1e-14)
    v = pf["v"] + t_star * S
    iq = _quad(np.abs(pf["da"]), gas.q_relative(v, pf["v"]), dx)
    return {
        "t_star": float(t_star),
        "t_star_over_eps_by_lam": float(t_star * lam / eps),
        "int_abs_da_q": iq,
        "eps2_over_lam": eps ** 2 / lam,
        "ratio": iq / (eps ** 2 / lam),
    }


def normalized_layer_variables(x, v, weight, shift=0.0):
    """Resample the pressure perturbation to the layer coordinate.

    Returns (y, W) on a uniform 257-point y-grid in [1e-3, 1 - 1e-3], where
    y = (p_tilde - p_minus)/eps is the layer progress variable and
    W = (lam/eps) * (p(v) - p_tilde) the normalized perturbation, both read
    along the weight's shifted profile.
    """
    from scipy.interpolate import CubicSpline  # a report helper: the march needs no scipy

    x = np.asarray(x, dtype=float)
    profile = weight.profile
    gas = profile.gas
    w_spline = CubicSpline(x, gas.pressure(v) - profile.pressure_profile(x - shift))
    y = np.linspace(1e-3, 1.0 - 1e-3, 257)
    xi_y = profile.xi_of_y(y) + shift
    if np.any(xi_y < x[0]) or np.any(xi_y > x[-1]):
        raise ValueError("layer window (after shift) exceeds the field grid")
    W = (weight.lam / profile.eps) * w_spline(xi_y)
    return y, W
