"""Viscous shock profiles as a scalar ODE in the pressure variable.

A 1-shock connecting (v_minus, u_minus) to (v_plus, u_plus) with strength
eps = p(v_plus) - p(v_minus) > 0 travels with speed

    sigma = -sqrt((p_plus - p_minus) / (v_minus - v_plus))  < 0.

In the co-moving frame the profile solves the scalar equation

    sigma * (p_tilde)' = sigma^2 * (v_tilde - v_plus) + (p_tilde - p_plus),

integrated here in p_tilde = p(v_tilde) (monotone increasing in xi), outward
from the normalization v_tilde(0) = (v_minus + v_plus)/2.  The effective
velocity component is slaved pointwise: h_tilde = u_minus + (p_tilde - p_minus)/sigma.

Integration stops when p_tilde is within 1e-12*eps of its limit (or at the
window edge); beyond the stored window the profile continues by exponential
tails with rates fitted from the last stored decade.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import solve_ivp
from scipy.interpolate import CubicSpline

from .gas import GasModel

__all__ = [
    "ShockEndStates",
    "end_states_from_amplitude",
    "ShockProfile",
    "solve_profile",
    "tail_decay_report",
    "write_profile_csv",
]


@dataclass(frozen=True)
class ShockEndStates:
    """Rankine-Hugoniot data of a 1-shock of strength eps = [p]."""

    gas: GasModel
    eps: float
    v_plus: float
    u_plus: float
    sigma: float

    @property
    def v_minus(self):
        return self.gas.v_minus

    @property
    def u_minus(self):
        return self.gas.u_minus

    @property
    def p_minus(self):
        return self.gas.p_minus

    @property
    def p_plus(self):
        return self.gas.p_minus + self.eps

    def rankine_hugoniot_residuals(self):
        """(sigma[v] + [u], sigma[u] - [p]) — both vanish for consistent data."""
        dv = self.v_plus - self.v_minus
        du = self.u_plus - self.u_minus
        dp = self.p_plus - self.p_minus
        return (self.sigma * dv + du, self.sigma * du - dp)


def end_states_from_amplitude(gas, eps):
    """Right state and speed of the 1-shock with pressure jump eps > 0."""
    eps = float(eps)
    if not (eps > 0.0 and np.isfinite(eps)):
        raise ValueError("eps must be positive and finite")
    if eps >= 10.0 * gas.p_minus:
        raise ValueError("eps out of supported range (need eps < 10*p(v_minus)"
                         f" = {10.0 * gas.p_minus:g}), got {eps!r}")
    p_plus = gas.p_minus + eps
    v_plus = float(gas.pressure_inverse(p_plus))
    sigma = -float(np.sqrt(eps / (gas.v_minus - v_plus)))
    u_plus = gas.u_minus + eps / sigma
    return ShockEndStates(gas=gas, eps=eps, v_plus=v_plus, u_plus=u_plus, sigma=sigma)


def _profile_rhs(states):
    """d p_tilde / d xi as f(p_tilde, v_tilde) with v_tilde = p_tilde**(-1/gamma).

    The caller supplies v_tilde: most have it at hand, or need it again for
    p'(v_tilde).
    """
    sig = states.sigma
    v_plus = states.v_plus
    p_plus = states.p_plus

    def f(p, v):
        return (sig * sig * (v - v_plus) + (p - p_plus)) / sig

    return f


@dataclass
class ShockProfile:
    """Sampled profile plus dense interpolant and exponential tail splices.

    The samples xi, p cover the stored window [xi[0], xi[-1]] in the two
    uniform pieces that solve_profile builds.  :meth:`frame` evaluates every
    profile field at any xi (tails handled by the splice);
    the named methods (v_profile, dpressure_profile, ...) are views of one
    field of it.  Derivatives come from the ODE right-hand side, so stored
    samples satisfy the profile equation identically; the independent
    accuracy check is :meth:`ode_residual_sup`, which differentiates the
    interpolant instead.
    """

    states: ShockEndStates
    xi: np.ndarray
    p: np.ndarray
    _spline: CubicSpline = field(repr=False)
    tail_rate_minus: float
    tail_rate_plus: float
    tail_amp_minus: float
    tail_amp_plus: float
    _n_lo: int = field(init=False, repr=False)
    _inv_h_lo: float = field(init=False, repr=False)
    _inv_h_hi: float = field(init=False, repr=False)
    _coef: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        # solve_profile samples two uniform pieces that meet at xi = 0:
        # n_lo cells on [xi[0], 0] and the rest on [0, xi[-1]]
        n_lo = int(np.searchsorted(self.xi, 0.0))
        self._n_lo = n_lo
        self._inv_h_lo = n_lo / -self.xi[0]
        self._inv_h_hi = (self.xi.size - 1 - n_lo) / self.xi[-1]
        self._coef = np.ascontiguousarray(self._spline.c.T)  # one row per cell

    # -- core evaluation --------------------------------------------------

    @property
    def gas(self):
        return self.states.gas

    @property
    def eps(self):
        return self.states.eps

    @property
    def sigma(self):
        return self.states.sigma

    def pressure_profile(self, x):
        """p_tilde(xi) for any xi, exponential splice beyond the stored window.

        Inside the window this is the stored cubic spline, with the values of
        CubicSpline.__call__ bit for bit, at about half its cost: the cell
        comes from the uniform knot spacing instead of a search.  The result
        has x's shape (0-d for a scalar), and a NaN point gives NaN.
        """
        x = np.asarray(x, dtype=float)
        xk = self.xi
        lo, hi = xk[0], xk[-1]
        last = xk.size - 2
        # each point is evaluated on its own; points beyond the window are
        # clipped to it here and overwritten by the tails below
        xc = np.clip(x.ravel(), lo, hi)  # a NaN point stays NaN
        # the cell index from the uniform piece the point lies in, which
        # can be one off next to a knot; the comparisons put it right
        t = xc * np.where(xc < 0.0, self._inv_h_lo, self._inv_h_hi)
        t += self._n_lo
        np.fmax(t, 0.0, out=t)  # and a NaN point reads cell 0
        i = t.astype(np.intp)
        np.minimum(i, last, out=i)
        i -= xc < xk.take(i)
        i += xc >= xk.take(i + 1)
        np.minimum(i, last, out=i)  # the last cell is closed at xi[-1]
        s = xc - xk.take(i)
        c0, c1, c2, c3 = self._coef.take(i, axis=0).T
        # scipy's order: ((c3 + c2*s) + c1*s**2) + c0*(s**2*s)
        s2 = s * s
        out = c2 * s
        out += c3
        out += c1 * s2
        s2 *= s
        s2 *= c0
        out += s2
        out = out.reshape(x.shape)
        left = x < lo
        if np.any(left):
            out[left] = self.states.p_minus + self.tail_amp_minus * np.exp(
                self.tail_rate_minus * (x[left] - lo)
            )
        right = x > hi
        if np.any(right):
            out[right] = self.states.p_plus - self.tail_amp_plus * np.exp(
                -self.tail_rate_plus * (x[right] - hi)
            )
        np.clip(out, self.states.p_minus, self.states.p_plus, out=out)
        return out

    def _fields(self, p):
        """Every profile field at the pressure values p = p_tilde(xi).

        p, dp, d2p, v, dv, h, dh: everything downstream derives from p_tilde
        and the ODE relation.  Also the gas closures at v_tilde, pv = p(v_tilde),
        qv = q(v_tilde) and dpv = p'(v_tilde) (pv differs from p by roundoff),
        which the relative quantities q(v|v_tilde) and p(v|v_tilde) need at
        every use of the frame.
        """
        gas = self.gas
        sig = self.sigma
        v = gas.pressure_inverse(p)
        dp = _profile_rhs(self.states)(p, v)
        dpv = gas.dpressure(v)
        return {
            "p": p,
            "dp": dp,
            "d2p": (sig * sig / dpv + 1.0) * dp / sig,
            "v": v,
            "dv": dp / dpv,
            "h": self.states.u_minus + (p - self.states.p_minus) / sig,
            "dh": dp / sig,
            "pv": gas.pressure(v),
            "qv": gas.entropy(v),
            "dpv": dpv,
        }

    def frame(self, x):
        """All profile fields at xi (see _fields) from one interpolant pass."""
        return self._fields(self.pressure_profile(x))

    # views of one field of the frame

    def dpressure_profile(self, x):
        """(p_tilde)'(xi) through the profile equation (smooth across the splice)."""
        return self.frame(x)["dp"]

    def v_profile(self, x):
        return self.frame(x)["v"]

    def dv_profile(self, x):
        """(v_tilde)' = (p_tilde)'/p'(v_tilde)  (negative: v decreases)."""
        return self.frame(x)["dv"]

    def h_profile(self, x):
        return self.frame(x)["h"]

    def dh_profile(self, x):
        return self.frame(x)["dh"]

    # -- normalized layer coordinate --------------------------------------

    def y_of(self, x):
        """y(xi) = (p_tilde - p_minus)/eps in [0, 1), the layer progress variable."""
        return (self.pressure_profile(x) - self.states.p_minus) / self.eps

    def xi_of_y(self, y):
        """Inverse of y_of on the stored window (monotone interpolation)."""
        y = np.asarray(y, dtype=float)
        ys = (self.p - self.states.p_minus) / self.eps
        if np.any(y <= ys[0]) or np.any(y >= ys[-1]):
            raise ValueError("y outside the stored window of the profile")
        return np.interp(y, ys, self.xi)

    # -- diagnostics -------------------------------------------------------

    def ode_residual_sup(self):
        """sup over stored grid of |sigma*p' - sigma^2*(v-v_plus) - (p-p_plus)|.

        p' here comes from differentiating the interpolant — an independent
        path from the stored ODE right-hand side.
        """
        dps = self._spline.derivative()(self.xi)
        f = self._fields(self.p)["dp"]
        return float(np.max(np.abs(self.sigma * (dps - f))))

    def monotone(self):
        return bool(np.all(np.diff(self.p) > 0.0))


def solve_profile(gas, eps, span_over_eps=40.0):
    """Integrate the profile ODE outward from xi = 0 and build a ShockProfile.

    span_over_eps sets the window half-width L = span_over_eps/eps.  Each side
    stops early when |p_tilde - p_limit| < 1e-12*eps.  The sample step is
    chosen so the cubic interpolant's derivative error stays below
    1e-11 (the rate estimate eps/(2*alpha_gamma) sets the scale).
    """
    states = end_states_from_amplitude(gas, eps)
    f = _profile_rhs(states)
    sig = states.sigma
    p_minus, p_plus = states.p_minus, states.p_plus
    v_mid = 0.5 * (gas.v_minus + states.v_plus)
    p0 = float(gas.pressure(v_mid))
    L = span_over_eps / eps

    rate_hat = eps / (2.0 * gas.layer_constant)
    # cubic-spline derivative error ~ (h^3/24)*max|p''''| with |p''''| ~ eps*rate^4
    h = (24.0 * 1e-11 / (10.0 * max(abs(sig), 1.0) * eps * rate_hat ** 4)) ** (1.0 / 3.0)
    h = min(h, 0.2 / rate_hat, L / 50.0)
    h = max(h, 2.0 * L / 500_000.0)

    def rhs(_x, y):
        p = y[0]
        return [f(p, max(p, 1e-300) ** (-1.0 / gas.gamma))]

    ev_plus = lambda _x, y: y[0] - (p_plus - 1e-12 * eps)
    ev_plus.terminal = True
    ev_minus = lambda _x, y: y[0] - (p_minus + 1e-12 * eps)
    ev_minus.terminal = True

    kw = dict(method="DOP853", rtol=1e-13, atol=1e-16, dense_output=True)
    sol_fwd = solve_ivp(rhs, (0.0, L), [p0], events=ev_plus, **kw)
    sol_bwd = solve_ivp(rhs, (0.0, -L), [p0], events=ev_minus, **kw)
    if not (sol_fwd.success and sol_bwd.success):
        raise RuntimeError("profile ODE integration failed")

    xi_hi = float(sol_fwd.t[-1])
    xi_lo = float(sol_bwd.t[-1])
    n_fwd = max(int(np.ceil(xi_hi / h)), 8)
    n_bwd = max(int(np.ceil(-xi_lo / h)), 8)
    x_fwd = np.linspace(0.0, xi_hi, n_fwd + 1)
    x_bwd = np.linspace(xi_lo, 0.0, n_bwd + 1)
    p_fwd = sol_fwd.sol(x_fwd)[0]
    p_bwd = sol_bwd.sol(x_bwd)[0]
    xi = np.concatenate([x_bwd[:-1], x_fwd])
    p = np.concatenate([p_bwd[:-1], p_fwd])
    p = np.clip(p, p_minus, p_plus)

    spline = CubicSpline(xi, p)

    # tail rates fitted on the last stored decade of each side
    rate_minus, amp_minus = _fit_tail(xi, p - p_minus, side="left")
    rate_plus, amp_plus = _fit_tail(xi, p_plus - p, side="right")

    return ShockProfile(
        states=states,
        xi=xi,
        p=p,
        _spline=spline,
        tail_rate_minus=rate_minus,
        tail_rate_plus=rate_plus,
        tail_amp_minus=amp_minus,
        tail_amp_plus=amp_plus,
    )


def _fit_tail(xi, gap, side):
    """Fit gap ~ A*exp(±rate*xi) on the outer 15% of one side; returns (rate, edge gap)."""
    n = len(xi)
    m = max(int(0.15 * n), 8)
    if side == "left":
        sl = slice(0, m)
        edge = gap[0]
    else:
        sl = slice(n - m, n)
        edge = gap[-1]
    x = xi[sl]
    g = np.maximum(gap[sl], 1e-300)
    slope = np.polyfit(x, np.log(g), 1)[0]
    rate = abs(float(slope))
    return rate, float(max(edge, 0.0))


def analytic_tail_rates(states):
    """Linearized decay rates at the two rest points of the profile ODE.

    Returns (rate_minus, rate_plus): d/dp of the ODE right-hand side at
    p_minus and p_plus; the profile approaches its limits like exp(-rate|xi|).
    """
    gas = states.gas
    sig = states.sigma
    out = []
    for p_star in (states.p_minus, states.p_plus):
        v_star = float(gas.pressure_inverse(p_star))
        fp = (sig * sig / float(gas.dpressure(v_star)) + 1.0) / sig
        out.append(abs(fp))
    return tuple(out)


def tail_decay_report(profile):
    """Tail-rate and interior-floor diagnostics of a solved profile.

    Returns a dict with fitted vs linearized tail rates per side, the
    normalized interior floor  min |v_tilde'| / eps^2  over [-1/eps, 1/eps],
    and the centre-slope ratio  v_tilde'(0) / (-(v_minus - v_plus)*rate/4)
    (logistic-shape sanity number, ~1 for small eps).
    """
    states = profile.states
    eps = states.eps
    an_minus, an_plus = analytic_tail_rates(states)
    # the core grid plus xi = 0 in one pass; each point is evaluated on its own
    dv = profile.dv_profile(np.append(np.linspace(-1.0 / eps, 1.0 / eps, 2001), 0.0))
    floor = float(np.min(np.abs(dv[:-1]))) / eps ** 2
    dv0 = float(dv[-1])
    amp = states.v_minus - states.v_plus
    rate_mean = 0.5 * (profile.tail_rate_minus + profile.tail_rate_plus)
    centre_ratio = abs(dv0) / (amp * rate_mean / 4.0)
    return {
        "rate_minus_fit": profile.tail_rate_minus,
        "rate_plus_fit": profile.tail_rate_plus,
        "rate_minus_lin": an_minus,
        "rate_plus_lin": an_plus,
        "interior_floor_over_eps2": floor,
        "centre_slope_ratio": centre_ratio,
    }


def layer_coordinate_residual(profile):
    """Sup deviation of the layer coordinate from its logistic closure.

    y(xi) = (p_tilde - p_minus)/eps traverses (0, 1); to leading order in the
    amplitude it solves y' = (eps/(2*alpha)) y(1-y) with alpha the gas layer
    constant, and the remainder is O(eps^2) absolute (one power from y',
    one from the closure).  Returns the sup of |y' - closure| together with
    the sup of y' for normalization.
    """
    states = profile.states
    eps = states.eps
    alpha = states.gas.layer_constant
    fr = profile.frame(np.linspace(profile.xi[0], profile.xi[-1], 4001))
    y = (fr["p"] - states.p_minus) / eps
    dy = fr["dp"] / eps
    closure = (eps / (2.0 * alpha)) * y * (1.0 - y)
    resid = np.abs(dy - closure)
    return {
        "sup_residual": float(np.max(resid)),
        "sup_dy": float(np.max(dy)),
        "eps": eps,
    }


def write_profile_csv(profile, path, weight=None):
    """Dump xi, v, h, p, dp columns (plus a, da, d2a when a weight is given)."""
    fr = profile._fields(profile.p)
    cols = [profile.xi] + [fr[k] for k in ("v", "h", "p", "dp")]
    header = "xi,v,h,p,dp"
    if weight is not None:
        wf = weight.frame(profile.xi)
        cols += [wf[k] for k in ("a", "da", "d2a")]
        header += ",a,da,d2a"
    np.savetxt(path, np.column_stack(cols), delimiter=",", header=header, comments="")
