"""Barotropic gas closures in Lagrangian coordinates.

Everything downstream (profiles, PDE, functionals) talks to the gas law only
through this module: pressure p(v) = v**(-gamma), the entropy-flux potential
q(v) = v**(1-gamma)/(gamma-1) with q'(v) = -p(v), and the relative
("Bregman gap") versions of both.  All functions broadcast over numpy arrays.

The closures are bare formulas and do not check their arguments: they run at
every RK stage, so positivity and finiteness are checked where data enters
(the starting state of a march, and the march guard after every step).  A
non-positive v gives no exception: nan at non-integral gamma, a finite but
meaningless number at integral gamma.
"""

from dataclasses import dataclass

import numpy as np

__all__ = [
    "GasModel",
    "eta_relative",
    "GasBoundConstants",
    "fit_bound_constants",
    "check_global_bounds",
    "local_expansion_report",
    "pressure_inverse_combination",
    "inverse_combination_sweep",
]

#: v_minus - v_plus is about v_minus*log(1 + eps/p(v_minus))/gamma, so the
#: profile's ODE residual grows about linearly in gamma.  At the default
#: window `shocklab profile` passes up to gamma 1e7 for every eps of the
#: supported range (worst residual 3.7e-9 at eps = 9.99*p(v_minus)) and fails
#: from 3e7 (1.1e-8 there, over the check's 1e-8); at 1e6 the worst is
#: 5.3e-10.  From 1e15 p(v) at the layer's middle rounds onto p(v_minus) and
#: the profile quadrature's panel count overflows; from 1e17 v_plus rounds
#: onto v_minus
MAX_GAMMA = 1e6

#: log10 range of p(v_minus) = v_minus**-gamma, checked in logs so that no
#: power overflows.  The profile's ODE residual grows with p(v_minus): some
#: eps of the supported range passes `shocklab profile` up to p(v_minus) =
#: 10**3.5 for gamma 1.01 to 1e3 (none from 1e4) and up to 10**1.5 at gamma
#: 1e6 (none from 1e2); the upper bound is 3.2x inside 10**1.5.  Near gamma 1
#: the profile solve's step estimate overflows from p(v_minus) = 1e-78 (gamma
#: 1.0001, eps = 9.99*p(v_minus)); the lower bound is 8 decades above that
P_MINUS_LOG10_RANGE = (-70.0, 1.0)


@dataclass(frozen=True)
class GasModel:
    """Pressure law p(v) = v**(-gamma) with reference left state (v_minus, u_minus).

    1 < gamma <= MAX_GAMMA and log10 p(v_minus) in P_MINUS_LOG10_RANGE are
    required; v_minus > 0 is the specific volume far to the left, u_minus
    the velocity there.  The viscosity built into the transformed system is
    mu(v) = gamma*v**(-gamma), which is what makes the v-equation diffuse
    exactly p(v).
    """

    gamma: float
    v_minus: float
    u_minus: float = 0.0

    def __post_init__(self):
        if not (1.0 < self.gamma <= MAX_GAMMA):
            raise ValueError(f"gamma must lie in (1, {MAX_GAMMA:g}], got {self.gamma!r}")
        if not (self.v_minus > 0.0):
            raise ValueError(f"v_minus must be > 0, got {self.v_minus!r}")
        lo, hi = P_MINUS_LOG10_RANGE
        log_p = -self.gamma * np.log10(self.v_minus)
        if not lo <= log_p <= hi:
            raise ValueError(f"gamma = {self.gamma!r} and v_minus = {self.v_minus!r} give "
                             f"p(v_minus) = 10**{log_p:.6g}, outside [1e{lo:g}, 1e{hi:g}]")

    # -- bare closures ----------------------------------------------------

    def pressure(self, v):
        v = np.asarray(v, dtype=float)
        return v ** (-self.gamma)

    def pressure_inverse(self, p):
        p = np.asarray(p, dtype=float)
        return p ** (-1.0 / self.gamma)

    def dpressure(self, v):
        """p'(v) = -gamma * v**(-gamma-1) (negative for v > 0)."""
        v = np.asarray(v, dtype=float)
        return -self.gamma * v ** (-self.gamma - 1.0)

    def d2pressure(self, v):
        v = np.asarray(v, dtype=float)
        return self.gamma * (self.gamma + 1.0) * v ** (-self.gamma - 2.0)

    def entropy(self, v):
        """q(v) = v**(1-gamma)/(gamma-1); q'(v) = -p(v), q'' = -p' > 0."""
        v = np.asarray(v, dtype=float)
        return v ** (1.0 - self.gamma) / (self.gamma - 1.0)

    # -- relative (Bregman) quantities ------------------------------------

    def q_relative(self, v, w):
        """q(v|w) = q(v) - q(w) - q'(w)(v-w) >= 0, with q'(w) = -p(w)."""
        v = np.asarray(v, dtype=float)
        w = np.asarray(w, dtype=float)
        return self.entropy(v) - self.entropy(w) + self.pressure(w) * (v - w)

    def p_relative(self, v, w):
        """p(v|w) = p(v) - p(w) - p'(w)(v-w) >= 0 (p is convex)."""
        v = np.asarray(v, dtype=float)
        w = np.asarray(w, dtype=float)
        return self.pressure(v) - self.pressure(w) - self.dpressure(w) * (v - w)

    # -- reference-state derived numbers ----------------------------------

    @property
    def p_minus(self):
        return float(self.v_minus ** (-self.gamma))

    @property
    def acoustic_speed(self):
        """sigma = sqrt(-p'(v_minus)), the Lagrangian sound speed at the left state."""
        return float(np.sqrt(self.gamma) * self.v_minus ** (-(self.gamma + 1.0) / 2.0))

    @property
    def layer_constant(self):
        """gamma * sigma * p(v_minus) / (gamma + 1); sets the layer slope dy/dxi ~ eps/(2*alpha)."""
        return self.gamma * self.acoustic_speed * self.p_minus / (self.gamma + 1.0)


def eta_relative(gas, v1, h1, v2, h2):
    """Relative entropy |h1-h2|**2/2 + q(v1|v2) for the (v, h) system."""
    dh = np.asarray(h1, dtype=float) - np.asarray(h2, dtype=float)
    return 0.5 * dh ** 2 + gas.q_relative(v1, v2)


# ---------------------------------------------------------------------------
# Global quadratic/linear bounds on the relative quantities.
#
# The inequalities below hold with *some* constants on the stated ranges;
# the constants are fitted on deterministic grids and meant to be frozen by
# the caller (the test suite pins them once).  Violated preconditions come
# back as a rejected report, never an exception, so parameter sweeps can
# skip bad points.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GasBoundConstants:
    """Fitted constants for the global bounds of :func:`check_global_bounds`."""

    c_quad_low: float      # q(v|w) >= c_quad_low * |v-w|^2      for v <= 3 v_minus
    c_lin_far: float       # q(v|w) >= c_lin_far * |v-w|          for v >= 3 v_minus
    c_lip_p: float         # |p(v)-p(w)| <= c_lip_p * |v-w|       for v >= v_minus/2
    c_prel_quad: float     # p(v|w) <= c_prel_quad * |v-w|^2      for v >= v_minus/2
    c_prel_mixed: float    # p(v|w) <= c_prel_mixed * (|v-w| + |p(v)-p(w)|)  for all v
    c_pq: float            # |p(v)-p(w)|^2 <= c_pq * q(v|w)       near w ~ v_minus


def fit_bound_constants(gas):
    """Fit the global bound constants on a deterministic (v, w) grid.

    w ranges over (v_minus/4, v_minus) on 400 linear points, v over
    (v_minus/40, 40*v_minus) on 1600 log-spaced points; each constant is the
    extremal observed ratio times a safety factor of 1.05 on the bounding side.
    """
    vm = gas.v_minus
    safety = 1.05
    w = np.linspace(0.2501 * vm, 0.9999 * vm, 400)
    v = np.geomspace(vm / 40.0, 40.0 * vm, 1600)
    V, W = np.meshgrid(v, w, indexing="ij")
    dv = np.abs(V - W)
    q_rel = gas.q_relative(V, W)
    p_rel = gas.p_relative(V, W)
    dp = np.abs(gas.pressure(V) - gas.pressure(W))
    tiny = 1e-300

    near = (V <= 3.0 * vm) & (dv > 1e-10)
    c_quad_low = float(np.min(q_rel[near] / (dv[near] ** 2 + tiny)))

    far = (V >= 3.0 * vm) & (dv > 1e-10)
    c_lin_far = float(np.min(q_rel[far] / (dv[far] + tiny)))

    mid = (V >= 0.5 * vm) & (dv > 1e-10)
    c_lip_p = float(np.max(dp[mid] / (dv[mid] + tiny)))
    c_prel_quad = float(np.max(p_rel[mid] / (dv[mid] ** 2 + tiny)))

    allv = dv > 1e-10
    c_prel_mixed = float(np.max(p_rel[allv] / (dv[allv] + dp[allv] + tiny)))

    # pressure/entropy equivalence near the reference state: both v and w
    # within a fixed neighbourhood of v_minus.
    loc = (np.abs(V - vm) <= 0.5 * vm) & (np.abs(W - vm) <= 0.5 * vm) & (dv > 1e-10)
    c_pq = float(np.max(dp[loc] ** 2 / (q_rel[loc] + tiny)))

    return GasBoundConstants(
        c_quad_low=c_quad_low / safety,
        c_lin_far=c_lin_far / safety,
        c_lip_p=c_lip_p * safety,
        c_prel_quad=c_prel_quad * safety,
        c_prel_mixed=c_prel_mixed * safety,
        c_pq=c_pq * safety,
    )


def check_global_bounds(gas, v, w, constants):
    """Evaluate the global bounds at (v, w) against fitted constants.

    Returns a dict report.  If (v, w) violates the preconditions
    (w must lie in (v_minus/4, v_minus); v > 0) the report carries
    ``rejected=True`` and no verdicts, rather than raising, so grid sweeps
    can skip bad points cheaply.
    """
    vm = gas.v_minus
    v = float(v)
    w = float(w)
    if not (v > 0.0 and np.isfinite(v)) or not (vm / 4.0 < w < vm):
        return {"rejected": True, "reason": "precondition: v>0 and w in (v_minus/4, v_minus)"}

    dv = abs(v - w)
    dp = abs(gas.pressure(v) - gas.pressure(w))
    q_rel = float(gas.q_relative(v, w))
    p_rel = float(gas.p_relative(v, w))
    checks = {}
    if v <= 3.0 * vm:
        checks["q_quadratic_low"] = q_rel >= constants.c_quad_low * dv ** 2
    else:
        checks["q_linear_far"] = q_rel >= constants.c_lin_far * dv
    if v >= 0.5 * vm:
        checks["p_lipschitz"] = dp <= constants.c_lip_p * dv
        checks["p_rel_quadratic"] = p_rel <= constants.c_prel_quad * dv ** 2
    checks["p_rel_mixed"] = p_rel <= constants.c_prel_mixed * (dv + dp)
    # monotonicity of q(.|w) away from w, probed at the midpoint
    u = 0.5 * (v + w)
    checks["q_monotone"] = q_rel >= float(gas.q_relative(u, w)) - 1e-15
    return {"rejected": False, "checks": checks, "all_ok": all(checks.values())}


def local_expansion_report(gas, w, delta):
    """Second-order expansion ratios of p(v|w) and q(v|w) near v = w.

    For |p(v)-p(w)| <= delta the exact ratios p(v|w)/|p(v)-p(w)|^2 and
    q(v|w)/|p(v)-p(w)|^2 approach (gamma+1)/(2*gamma*p(w)) and
    p(w)**(-1/gamma-1)/(2*gamma).  Returns the worst relative deviation of
    each ratio from its limit over a dense v-grid.
    """
    w = float(w)
    if not (w > 0.0 and np.isfinite(w)):
        raise ValueError("w must be positive and finite")
    pw = float(gas.pressure(w))
    if not (delta > 0 and delta < pw):
        raise ValueError("need 0 < delta < p(w)")
    p_grid = np.linspace(pw - delta, pw + delta, 2001)
    # the ratio is 0/0 at p = pw; below ~5% of delta it is pure roundoff
    p_grid = p_grid[np.abs(p_grid - pw) > 0.05 * delta]
    v = gas.pressure_inverse(p_grid)
    dp2 = (p_grid - pw) ** 2
    ratio_p = gas.p_relative(v, w) / dp2
    ratio_q = gas.q_relative(v, w) / dp2
    lim_p = (gas.gamma + 1.0) / (2.0 * gas.gamma * pw)
    lim_q = pw ** (-1.0 / gas.gamma - 1.0) / (2.0 * gas.gamma)
    return {
        "limit_p": lim_p,
        "limit_q": lim_q,
        "max_reldev_p": float(np.max(np.abs(ratio_p / lim_p - 1.0))),
        "max_reldev_q": float(np.max(np.abs(ratio_q / lim_q - 1.0))),
    }


def pressure_inverse_combination(gas, p_minus, p_plus, p):
    """Residual of the two-sided secant-slope identity for v(p) = p**(-1/gamma).

    For p strictly between p_minus and p_plus the combination
    (v-v_minus)/(p-p_minus) + (v-v_plus)/(p_plus-p) balances the curvature
    term 0.5*p''(v_minus)/p'(v_minus)**2 * (v_minus - v_plus) up to
    O((p_plus-p_minus)**2); this returns the (signed) residual.
    """
    p = np.asarray(p, dtype=float)
    if not (p_plus > p_minus > 0.0):
        raise ValueError("need 0 < p_minus < p_plus")
    if not np.all((p > p_minus) & (p < p_plus)):
        raise ValueError("p must lie strictly between p_minus and p_plus")
    vmi = float(gas.pressure_inverse(p_minus))
    vpl = float(gas.pressure_inverse(p_plus))
    v = gas.pressure_inverse(p)
    curv = 0.5 * float(gas.d2pressure(vmi)) / float(gas.dpressure(vmi)) ** 2
    return (v - vmi) / (p - p_minus) + (v - vpl) / (p_plus - p) + curv * (vmi - vpl)


def inverse_combination_sweep(gas, eps_list):
    """Sup-norm of the combination residual per shock strength, plus fitted slope.

    Returns (sups, slope) where slope is the log-log regression exponent of
    sup-residual against eps; second-order accuracy shows up as slope ~ 2.
    """
    p_m = gas.p_minus
    sups = []
    for eps in eps_list:
        p_p = p_m + float(eps)
        p = np.linspace(p_m, p_p, 515)[1:-1]
        r = pressure_inverse_combination(gas, p_m, p_p, p)
        sups.append(float(np.max(np.abs(r))))
    sups = np.array(sups)
    slope = float(np.polyfit(np.log(np.asarray(eps_list, float)), np.log(sups), 1)[0])
    return sups, slope
