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
from .solver import central_gradient

__all__ = [
    "FunctionalBreakdown",
    "functional_frame",
    "compute_breakdown",
    "quick_yb",
]


@dataclass(frozen=True)
class FunctionalBreakdown:
    """The breakdown of one state; of a block of states (`compute_breakdown`
    on (K, n) stacks), each field is an array of K values instead."""

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
    """<c, g> over g's last axis in np.einsum's loop (module docstring), one
    einsum form for a state and a block: a float for 1-d g, one value per
    row for a 2-d g, each row's bit for bit the value of that row alone."""
    out = np.einsum("...i,i->...", g, c)
    return float(out) if g.ndim == 1 else out


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


def breakdown_work(shape):
    """The workspace of `compute_breakdown` and `quick_yb` for states of this
    shape: 8 separate arrays (`experiment.RECORD_BLOCK_FLOATS` sizes them)."""
    return [np.empty(shape) for _ in range(8)]


def _yb_kernel(v, h, p, fr, work=None):
    """Y, B1, B2 and the pointwise arrays (w, h - h_tilde, q(v|v_tilde), eta,
    v - v_tilde, w*w).

    p is p(v), which every caller already has; fr is a functional frame.
    v, h and p are 1-d, or 2-d with one state per row (Y, B1 and B2 are then
    arrays of one value per row).  The arrays go into `work` as in
    compute_breakdown; p may be work[4], which ends as p(v|v_tilde).  q(v)
    is evaluated once.  q(v|v_tilde) keeps the operation order of q(v) -
    q(w) + p(w)(v - w), and p(v|v_tilde) that of p(v) - p(w) - p'(w)(v - w),
    so each matches its plain form bit for bit.
    """
    work = breakdown_work(np.shape(v)) if work is None else work
    dv, w, dh_field, q_rel, p_rel, eta, w2, tmp = work
    np.subtract(v, fr["v"], out=dv)
    np.subtract(p, fr["p"], out=w)
    np.subtract(h, fr["h"], out=dh_field)
    np.subtract(fr["gas"].entropy(v, out=q_rel), fr["qv"], out=q_rel)
    q_rel += np.multiply(fr["pv"], dv, out=tmp)
    np.subtract(np.subtract(p, fr["pv"], out=p_rel), np.multiply(fr["dpv"], dv, out=tmp), out=p_rel)
    np.add(np.multiply(np.square(dh_field, out=eta), 0.5, out=eta), q_rel, out=eta)
    np.multiply(w, w, out=w2)
    Y = _dot(fr["ta_dh"], dh_field) - _dot(fr["tda"], eta) - _dot(fr["ta_dp"], dv)
    B1 = _dot(fr["tb1"], p_rel)
    B2 = _dot(fr["tb2"], w2)
    return Y, B1, B2, w, dh_field, q_rel, eta, dv, w2


def compute_breakdown(v, h, frame, work=None):
    """Full functional breakdown of the state (v, h) against a functional frame.

    Returns a FunctionalBreakdown; see the module docstring for the
    formulas.  The Y decomposition satisfies Y = Y_g + Y_b + Y_l
    identically (same discrete arrays on both sides).  v and h may also be
    (K, n) stacks of K states: every field is then an array of K values, and
    entry k is the field of row k alone, bit for bit.  Every temporary of
    v's size goes into `work` (`breakdown_work(v.shape)`, allocated if None),
    whose values on entry are never read."""
    work = breakdown_work(np.shape(v)) if work is None else work
    sig, ta, tda = frame["sigma"], frame["ta"], frame["tda"]
    Y, B1, B2, w, dh_field, q_rel, eta, dv, w2 = _yb_kernel(
        v, h, frame["gas"].pressure(v, out=work[4]), frame, work)
    b, tmp = work[4], work[7]  # p(v|v_tilde), spent in B1, and the scratch array
    np.subtract(dh_field, np.divide(w, sig, out=tmp), out=b)
    i_da_q = _dot(tda, q_rel)
    i_da_b2 = _dot(tda, np.square(b, out=tmp))
    Y_g = (-_dot(tda, w2) / (2.0 * sig * sig) - i_da_q
           - _dot(frame["ta_dp"], dv) + _dot(frame["ta_dh"], w) / sig)
    Y_b = -0.5 * i_da_b2 - _dot(tda, np.multiply(w, b, out=tmp)) / sig
    Y_l = _dot(frame["ta_dh"], b)
    G1 = 0.5 * sig * i_da_b2
    G2 = sig * i_da_q
    D = _dot(ta, np.square(central_gradient(w, frame["dx"], out=tmp), out=tmp))
    sup_w = np.abs(w, out=tmp).max(axis=-1)

    return FunctionalBreakdown(
        weighted_entropy=_dot(ta, eta),
        Y=Y, Y_g=Y_g, Y_b=Y_b, Y_l=Y_l,
        B1=B1, B2=B2, B=B1 + B2,
        G1=G1, G2=G2, D=D, G=G1 + G2 + D,
        sup_w=sup_w if w.ndim > 1 else float(sup_w),
    )


def quick_yb(v, h, p, frame, work=None):
    """(Y, B) only, for the shift ODE at every RK stage; p = p(v), frame and
    work as in compute_breakdown."""
    Y, B1, B2 = _yb_kernel(v, h, p, frame, work)[:3]
    return Y, B1 + B2


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
    iq = _dot(np.abs(fr["tda"]), _yb_kernel(v, fr["h"], gas.pressure(v), fr)[5])
    return {
        "t_star": float(t_star),
        "t_star_over_eps_by_lam": float(t_star * lam / eps),
        "int_abs_da_q": iq,
        "eps2_over_lam": eps ** 2 / lam,
        "ratio": iq / (eps ** 2 / lam),
    }
