"""Weighted relative-entropy functionals along the shifted profile.

A shift X moves the *profile and weight*, never the field: by change of
variables

    int a(xi) eta(U(xi+X) | Utilde(xi)) dxi
  = int a(xi-X) eta(U(xi) | Utilde(xi-X)) dxi,

so a state is scored against functional_frame(weight, x - X), which folds
each frame-side factor of the integrals with the trapezoid weights into one
constant vector: every integral is one dot product in np.einsum's loop (BLAS
ddot may change its last bits with the thread count).  Working variables:

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

from .inequalities import _bisect
from .profile import _hermite_coef, _hermite_eval
from .solver import _d1

__all__ = [
    "FunctionalBreakdown",
    "functional_frame",
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


def _dot(c, g):
    """<c, g> in np.einsum's loop (module docstring)."""
    return float(np.einsum("i,i", c, g))


def _trapezoid_weights(x):
    """tw on the uniform points x: dx, with half weight at the two ends."""
    tw = np.full(x.size, x[1] - x[0])
    tw[[0, -1]] *= 0.5
    return tw


def functional_frame(weight, x):
    """The weight frame at the uniform points x folded for the functionals:
    dx, sigma, the gas, the fields v, p, h, dpv of ShockProfile._fields, the
    gas closures pv = p(v_tilde) and qv = q(v_tilde) (pv differs from p by
    roundoff), which q(v|v_tilde) and p(v|v_tilde) read, and, with tw the
    trapezoid weights, ta = tw a, tda = tw a', ta_dp = tw a p_tilde', ta_dh =
    tw a h_tilde', tb1 = sigma tw a v_tilde' and tb2 = tw (a'/(2 sigma) + a''/2)."""
    pf = weight.frame(x)
    sig, gas = weight.profile.sigma, weight.profile.gas
    tw = _trapezoid_weights(x)
    ta = tw * pf["a"]
    return {
        "dx": x[1] - x[0], "sigma": sig, "gas": gas,
        **{k: pf[k] for k in ("v", "p", "h", "dpv")},
        "pv": gas.pressure(pf["v"]), "qv": gas.entropy(pf["v"]),
        "ta": ta, "tda": tw * pf["da"], "ta_dp": ta * pf["dp"], "ta_dh": ta * pf["dh"],
        "tb1": sig * ta * pf["dv"],
        "tb2": tw * (pf["da"] / (2.0 * sig) + 0.5 * pf["d2a"]),
    }


def _yb_kernel(v, h, p, fr):
    """Y, B1, B2 and the pointwise arrays (w, h - h_tilde, q(v|v_tilde), eta).

    p is p(v), which every caller already has; fr is a functional frame.
    q(v) is evaluated once.  q(v|v_tilde) and p(v|v_tilde) keep the
    operation order of GasModel.q_relative and p_relative, so they match
    those bit for bit.
    """
    dv = v - fr["v"]
    w = p - fr["p"]
    dh_field = h - fr["h"]
    q_rel = fr["gas"].entropy(v) - fr["qv"] + fr["pv"] * dv
    p_rel = p - fr["pv"] - fr["dpv"] * dv
    eta = 0.5 * dh_field ** 2 + q_rel
    Y = _dot(fr["ta_dh"], dh_field) - _dot(fr["tda"], eta) - _dot(fr["ta_dp"], dv)
    B1 = _dot(fr["tb1"], p_rel)
    B2 = _dot(fr["tb2"], w ** 2)
    return Y, B1, B2, w, dh_field, q_rel, eta


def compute_breakdown(v, h, frame):
    """Full functional breakdown of the state (v, h) against a functional frame.

    Returns a FunctionalBreakdown; see the module docstring for the
    formulas.  The Y decomposition satisfies Y = Y_g + Y_b + Y_l
    identically (same discrete arrays on both sides).
    """
    sig, ta, tda = frame["sigma"], frame["ta"], frame["tda"]
    Y, B1, B2, w, dh_field, q_rel, eta = _yb_kernel(v, h, frame["gas"].pressure(v), frame)
    b = dh_field - w / sig
    i_da_q = _dot(tda, q_rel)
    i_da_b2 = _dot(tda, b ** 2)
    Y_g = (-_dot(tda, w ** 2) / (2.0 * sig * sig) - i_da_q
           - _dot(frame["ta_dp"], v - frame["v"]) + _dot(frame["ta_dh"], w) / sig)
    Y_b = -0.5 * i_da_b2 - _dot(tda, w * b) / sig
    Y_l = _dot(frame["ta_dh"], b)
    G1 = 0.5 * sig * i_da_b2
    G2 = sig * i_da_q
    D = _dot(ta, _d1(w, frame["dx"]) ** 2)

    return FunctionalBreakdown(
        weighted_entropy=_dot(ta, eta),
        Y=Y, Y_g=Y_g, Y_b=Y_b, Y_l=Y_l,
        B1=B1, B2=B2, B=B1 + B2,
        G1=G1, G2=G2, D=D, G=G1 + G2 + D,
        sup_w=float(np.max(np.abs(w))),
    )


def quick_yb(v, h, p, frame):
    """(Y, B) only, for the shift ODE at every RK stage; p = p(v), frame as in
    compute_breakdown."""
    Y, B1, B2 = _yb_kernel(v, h, p, frame)[:3]
    return Y, B1 + B2


def truncate_state(v, frame, level):
    """Pressure-truncated volume field: p(v_bar) = p_tilde + clip(w, -level, level).

    level > 0; frame is a functional frame.  Truncation keeps the relative
    entropy ordering q(v|v_tilde) >= q(v_bar|v_tilde) pointwise and drops the
    dissipation by exactly int a |d_xi (p(v)-p(v_bar))|^2 in the continuum.
    """
    if not (level > 0.0):
        raise ValueError("truncation level must be positive")
    gas, p_t = frame["gas"], frame["p"]
    return gas.pressure_inverse(p_t + np.clip(gas.pressure(v) - p_t, -level, level))


def bd_relative_functional(x, v, u, profile):
    """Unweighted relative functional of (v, u) data against the profile.

    int [ 1/2 (u + d_xi p(v) - h_tilde)^2 + q(v|v_tilde) ] dxi  with the
    solver's central difference for d_xi p(v); this is the quantity that is
    finite for finite-energy data and controls the weighted entropy at t=0.
    """
    x = np.asarray(x, dtype=float)
    gas = profile.gas
    pf = profile.frame(x)
    h_eff = u + _d1(gas.pressure(v), x[1] - x[0])
    integrand = 0.5 * (h_eff - pf["h"]) ** 2 + gas.q_relative(v, pf["v"])
    return _dot(_trapezoid_weights(x), integrand)  # the weight a = 1


def weighted_q_probe(weight):
    """Size of int |a'| q(v|v_tilde) for the largest layer-aligned
    perturbation the shift functional tolerates.

    A nonnegative bump S supported on the layer is added to v with amplitude
    t; Y(t) = -t int a p~' S + O(t^2) with the quadratic entropy term of the
    opposite sign, so Y has a nontrivial zero t* (the amplitude where the
    linear and quadratic parts of Y cancel, t* ~ eps/lam).  At that
    amplitude — an admissible state for the |Y| <= eps^2 branch — the report
    returns int |a'| q, whose predicted size is eps^2/lam.  t* comes from
    bisection to a width of 1e-14 on a doubling bracket.
    """
    profile, lam = weight.profile, weight.lam
    gas, eps = profile.gas, profile.eps
    alpha = gas.layer_constant
    L = 40.0 / eps
    x = np.linspace(-L, L, 4001)
    fr = functional_frame(weight, x)
    width = 4.0 * alpha / eps  # ~ two layer widths
    S = np.clip(1.0 - (x / width) ** 2, 0.0, None) ** 3

    def Y_of(t):  # h untouched
        v = fr["v"] + t * S
        return _yb_kernel(v, fr["h"], gas.pressure(v), fr)[0]

    # bracket the nontrivial zero: Y < 0 for small t, > 0 past t* ~ eps/lam
    t_lo, t_hi = 1e-3 * eps / lam, eps / lam
    for _ in range(13):
        if Y_of(t_hi) >= 0.0:
            break
        t_hi *= 2.0
    else:
        raise RuntimeError("no sign change for the layer probe amplitude")
    t_star = _bisect(Y_of, t_lo, t_hi, -1.0)
    v = fr["v"] + t_star * S
    iq = _dot(np.abs(fr["tda"]), gas.q_relative(v, fr["v"]))
    return {
        "t_star": float(t_star),
        "t_star_over_eps_by_lam": float(t_star * lam / eps),
        "int_abs_da_q": iq,
        "eps2_over_lam": eps ** 2 / lam,
        "ratio": iq / (eps ** 2 / lam),
    }


def normalized_layer_variables(x, v, weight):
    """Resample the pressure perturbation to the layer coordinate.

    Returns (y, W) on a uniform 257-point y-grid in [1e-3, 1 - 1e-3], where
    y = (p_tilde - p_minus)/eps is the layer progress variable and
    W = (lam/eps) * (p(v) - p_tilde) the normalized perturbation, both read
    along the weight's profile.  Between the points of the uniform grid x,
    w = p(v) - p_tilde is the cubic Hermite interpolant with central-difference
    slopes (_d1), third order in dx.
    """
    x = np.asarray(x, dtype=float)
    profile = weight.profile
    w = profile.gas.pressure(v) - profile.pressure_profile(x)
    y = np.linspace(1e-3, 1.0 - 1e-3, 257)
    xi_y = profile.xi_of_y(y)
    if np.any(xi_y < x[0]) or np.any(xi_y > x[-1]):
        raise ValueError("layer window exceeds the field grid")
    dx = x[1] - x[0]
    if not np.allclose(np.diff(x), dx, rtol=1e-9, atol=0.0):  # _d1 takes one spacing
        raise ValueError("the field grid x must be uniform")
    coef = _hermite_coef(x, w, _d1(w, dx))
    W = (weight.lam / profile.eps) * _hermite_eval(x, coef, xi_y)
    return y, W
