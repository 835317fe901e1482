"""Viscous shock profiles as a scalar ODE in the pressure variable.

A 1-shock connecting (v_minus, 0) = (1, 0) to (v_plus, u_plus) with strength
eps = p(v_plus) - p(v_minus) > 0 travels with speed

    sigma = -sqrt((p_plus - p_minus) / (v_minus - v_plus))  < 0.

In the co-moving frame the profile solves the scalar equation

    sigma * (p_tilde)' = sigma^2 * (v_tilde - v_plus) + (p_tilde - p_plus),

integrated here in p_tilde = p(v_tilde) (monotone increasing in xi), outward
from the normalization v_tilde(0) = (v_minus + v_plus)/2.  The effective
velocity component is slaved pointwise: h_tilde = (p_tilde - p_minus)/sigma.
The equations are invariant under u -> u + c, so the shock from (1, c) is
this one with c added to u and h; `GasModel` states the scaling that maps it
onto a shock from another left volume.

The equation is scalar and autonomous, so xi(p_tilde) is a quadrature.  In
the logit s = log(y/(1-y)) of the layer variable y = (p_tilde - p_minus)/eps
its integrand dxi/ds = eps*y*(1-y)/f(p_tilde) is smooth and bounded (it tends
to 1/rate at each end): solve_profile integrates it on Chebyshev panels and
finds p_tilde at the uniform knots by a vectorized Newton solve on xi(s).
The window ends where p_tilde is within 1e-12*eps of its limit (or at
|xi| = L); between the knots the profile is the cubic Hermite interpolant of
(p_tilde, f(p_tilde)), and beyond the window it continues by exponential tails
at the linearized rates of the two rest points (`analytic_tail_rates`).  numpy
alone does all of it.
"""

from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import chebyshev

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
    """Rankine-Hugoniot data of a 1-shock of strength eps = [p] from (v_minus, 0)."""

    gas: GasModel
    eps: float
    v_plus: float
    u_plus: float
    sigma: float

    @property
    def v_minus(self):
        return self.gas.v_minus

    @property
    def p_minus(self):
        return self.gas.p_minus

    @property
    def p_plus(self):
        return self.gas.p_minus + self.eps

    def rankine_hugoniot_residuals(self):
        """(sigma[v] + [u], sigma[u] - [p]), [u] = u_plus — both vanish for consistent data."""
        dv = self.v_plus - self.v_minus
        dp = self.p_plus - self.p_minus
        return (self.sigma * dv + self.u_plus, self.sigma * self.u_plus - dp)


def end_states_from_amplitude(gas, eps):
    """Right state and speed of the 1-shock with pressure jump eps > 0."""
    eps = float(eps)
    if not (eps > 0.0 and np.isfinite(eps)):
        raise ValueError("eps must be positive and finite")
    # the profile window ends 1e-12*eps short of each end state, a gap that p
    # resolves only for eps above 2.2e-4 (one ulp of p(v_minus) = 1 over
    # 1e-12).  At gamma 2 and 1.4, `shocklab profile` passes and its fitted
    # tail rates are within 0.3% of the linearized ones at eps = 3e-4; at 1e-4
    # or 5e-5 the outer knots round onto the end state and the rates are off
    # by 8x to 22x
    if not 1e-3 <= eps < 10.0:
        raise ValueError(f"eps out of supported range [1e-3, 10), got {eps!r}")
    p_plus = gas.p_minus + eps
    v_plus = float(gas.pressure_inverse(p_plus))
    sigma = -float(np.sqrt(eps / (gas.v_minus - v_plus)))
    u_plus = eps / sigma
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
    uniform pieces that solve_profile builds; the interpolant is the cubic
    Hermite form with the slopes f(p) at the knots.  Beyond the window the
    edge gap p[0] - p_minus (p_plus - p[-1]) decays at tail_rate_minus
    (tail_rate_plus), the linearized rate of the ODE at that rest point
    (`analytic_tail_rates`): the outer knots need not be in the exponential
    regime yet, so a fit on them can miss the rate (at gamma 100 by 17%).
    :meth:`frame` evaluates every profile field at any xi (tails handled by
    the splice) and is the one reader of them;
    :meth:`pressure_profile` gives p_tilde alone.  Derivatives come from the
    ODE right-hand side, so stored samples satisfy the profile equation
    identically; the independent accuracy check is :meth:`ode_residual_sup`,
    which differentiates the interpolant between the knots instead.
    """

    states: ShockEndStates
    xi: np.ndarray
    p: np.ndarray
    dp: np.ndarray = field(init=False, repr=False)  # the knot slopes f(p)
    tail_rate_minus: float = field(init=False)
    tail_rate_plus: float = field(init=False)

    def __post_init__(self):
        f, v_of = _profile_rhs(self.states), self.gas.pressure_inverse
        cuts = range(BLOCK_POINTS, self.p.size, BLOCK_POINTS)
        self.dp = np.concatenate([f(p, v_of(p)) for p in np.split(self.p, cuts)])
        self.tail_rate_minus, self.tail_rate_plus = analytic_tail_rates(self.states)

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

        Inside the window this is the stored cubic, evaluated as scipy's
        PPoly.__call__ evaluates it, bit for bit.  The result has x's shape
        (0-d for a scalar), and a NaN point gives NaN.
        """
        x = np.asarray(x, dtype=float)
        st = self.states
        lo, hi = self.xi[0], self.xi[-1]
        # points beyond the window are overwritten by the tails below
        out = _hermite_eval(self.xi, self.p, self.dp, x.ravel()).reshape(x.shape)
        left = x < lo
        if np.any(left):
            out[left] = st.p_minus + (self.p[0] - st.p_minus) * np.exp(
                self.tail_rate_minus * (x[left] - lo))
        right = x > hi
        if np.any(right):
            out[right] = st.p_plus - (st.p_plus - self.p[-1]) * np.exp(
                -self.tail_rate_plus * (x[right] - hi))
        np.clip(out, st.p_minus, st.p_plus, out=out)
        return out

    def _fields(self, p):
        """Every profile field at the pressure values p = p_tilde(xi).

        p, dp, d2p, v, dv, h, dh: everything downstream derives from p_tilde
        and the ODE relation.  Also dpv = p'(v_tilde), from which d2p and dv
        derive.
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
            "h": (p - self.states.p_minus) / sig,
            "dh": dp / sig,
            "dpv": dpv,
        }

    def frame(self, x):
        """All profile fields at xi (see _fields) from one interpolant pass."""
        return self._fields(self.pressure_profile(x))

    # -- normalized layer coordinate --------------------------------------

    def y_of(self, x):
        """y(xi) = (p_tilde - p_minus)/eps in [0, 1), the layer progress variable."""
        return (self.pressure_profile(x) - self.states.p_minus) / self.eps

    # -- diagnostics -------------------------------------------------------

    def ode_residual_sup(self):
        """sup over the cell midpoints of |sigma*p' - sigma^2*(v-v_plus) - (p-p_plus)|.

        p and p' here come from the interpolant, p' by differentiating it.  At
        the knots the Hermite form takes its slopes from the ODE, so the
        residual vanishes there by construction; at the midpoints a wrong
        knot value shows.
        """
        dx = np.diff(self.xi)
        s = 0.5 * dx
        c0, c1, c2, c3 = _hermite_coef(dx, self.p[:-1], self.p[1:], self.dp[:-1], self.dp[1:])
        p = ((c0 * s + c1) * s + c2) * s + c3
        dps = (3.0 * c0 * s + 2.0 * c1) * s + c2
        f = _profile_rhs(self.states)(p, self.gas.pressure_inverse(p))
        return float(np.max(np.abs(self.sigma * (dps - f))))

    def monotone(self):
        """Knots never fall (far-tail neighbours may round to one double), p rises."""
        return bool(np.all(np.diff(self.p) >= 0.0) and self.p[-1] > self.p[0])


def _hermite_coef(dx, y0, y1, dy0, dy1):
    """The cubic Hermite form (c0, c1, c2, c3) in s of a cell of width dx,
    through y0 at s = 0 and y1 at s = dx with slopes dy0 and dy1 there.

    Scipy's PPoly layout, computed in CubicHermiteSpline's order; the
    arguments are floats or arrays, one cell per entry.
    """
    slope = (y1 - y0) / dx
    t = (dy0 + dy1 - 2 * slope) / dx
    return t / dx, (slope - dy0) / dx - t, dy0, y0


def _hermite_eval(xk, y, dy, x):
    """The cubic Hermite interpolant of (xk, y) with slopes dy at the 1-d
    points x, clipped to [xk[0], xk[-1]]: each point's cell cubic from its two
    knots (`_hermite_coef`), evaluated as scipy's PPoly.__call__ evaluates it,
    bit for bit; each point on its own, and a NaN point gives NaN."""
    xc = np.clip(x, xk[0], xk[-1])
    # the last cell is closed at xk[-1]
    i = np.clip(np.searchsorted(xk, xc, side="right") - 1, 0, xk.size - 2)
    x0, i1 = xk.take(i), i + 1
    s = xc - x0
    c0, c1, c2, c3 = _hermite_coef(xk.take(i1) - x0, y.take(i), y.take(i1), dy.take(i),
                                   dy.take(i1))
    # scipy's order: ((c3 + c2*s) + c1*s**2) + c0*(s**2*s)
    s2 = s * s
    out = c2 * s
    out += c3
    out += c1 * s2
    s2 *= s
    s2 *= c0
    out += s2
    return out


#: the points a blocked vector pass takes at a time (the knots of solve_profile
#: and ShockProfile, the grid points of both certify grids in inequalities): no
#: temporary of theirs crosses glibc's 128 KiB mmap threshold, so none moves it
#: when freed
BLOCK_POINTS = 8192
#: the quadrature xi(s): Chebyshev panels of this width in s and this degree
#: (half the width at degree 20 moves no knot value by more than 5e-15*eps)
PANEL_WIDTH = 0.25
PANEL_DEGREE = 14


def _panel_rule():
    """The quadrature on one panel, mapped to [-1, 1].

    Returns the Chebyshev nodes t, the matrix from the integrand's values at
    t to the Chebyshev coefficients of its antiderivative that vanishes at -1,
    and the matrix from those values to that antiderivative at t.
    """
    n = PANEL_DEGREE + 1
    t = np.cos(np.pi * (np.arange(n) + 0.5) / n)[::-1]
    to_coef = (2.0 / n) * chebyshev.chebvander(t, n - 1).T  # discrete orthogonality
    to_coef[0] *= 0.5
    to_int = chebyshev.chebint(to_coef, lbnd=-1)
    return t, to_int, chebyshev.chebvander(t, n) @ to_int


def _dxi_dlogit(states):
    """dxi/ds = eps*y*(1-y)/f(p_tilde) at s = log(y/(1-y)), y = (p_tilde - p_minus)/eps.

    f is written from the nearer end state, sigma*f = sigma^2*(v - v_end) +
    (p - p_end) (at the left end by sigma^2*(v_minus - v_plus) = eps), with
    v - v_end from expm1 and log1p, so it keeps its relative accuracy where
    p_tilde - p_end is far below eps.  Returns the function and the map s -> p_tilde.
    """
    gas, eps, sig = states.gas, states.eps, states.sigma
    p_minus, p_plus = states.p_minus, states.p_plus
    k = -1.0 / gas.gamma

    def nearer_end(s):
        """min(y, 1 - y), p_tilde - p_end and the side, from the nearer end state."""
        a = np.exp(-np.abs(s))
        near = a / (1.0 + a)
        left = s < 0.0
        return near, np.where(left, eps, -eps) * near, left

    def p_of(s):
        _, gap, left = nearer_end(s)
        return np.where(left, p_minus, p_plus) + gap

    def dxi_ds(s):
        near, gap, left = nearer_end(s)
        p_end = np.where(left, p_minus, p_plus)
        v_end = np.where(left, gas.v_minus, states.v_plus)
        sig_f = sig * sig * v_end * np.expm1(k * np.log1p(gap / p_end)) + gap
        return sig * eps * near * (1.0 - near) / sig_f

    return dxi_ds, p_of


def solve_profile(gas, eps, span_over_eps=40.0):
    """Solve the profile ODE, normalized at xi = 0, and build a ShockProfile.

    span_over_eps sets the window half-width L = span_over_eps/eps.  Each side
    stops early where |p_tilde - p_limit| = 1e-12*eps.  The sample step is
    chosen so the cubic interpolant's derivative error stays below
    1e-11 (the rate estimate eps/(2*alpha_gamma) sets the scale).

    xi(s) = int_{s0}^{s} dxi/ds is the antiderivative of the Chebyshev
    interpolant of dxi/ds on panels of PANEL_WIDTH in s, s0 the logit at
    xi = 0; each knot's s comes from Newton's method on xi(s) = xi_k, started
    from linear interpolation in the panel nodes, all knots in step.
    """
    states = end_states_from_amplitude(gas, eps)
    sig = states.sigma
    p_minus, p_plus = states.p_minus, states.p_plus
    v_mid = 0.5 * (gas.v_minus + states.v_plus)
    p0 = float(gas.pressure(v_mid))
    L = span_over_eps / eps

    rate_hat = eps / (2.0 * gas.layer_constant)
    # cubic interpolant's derivative error ~ (h^3/24)*max|p''''| with |p''''| ~ eps*rate^4
    h = (24.0 * 1e-11 / (10.0 * max(abs(sig), 1.0) * eps * rate_hat ** 4)) ** (1.0 / 3.0)
    h = min(h, 0.2 / rate_hat, L / 50.0)

    # panels of xi(s) from s0 outward past y = 1e-12 and 1 - 1e-12
    dxi_ds, p_of = _dxi_dlogit(states)
    y0 = (p0 - p_minus) / eps
    s0 = float(np.log(y0 / (1.0 - y0)))
    s_end = float(np.log1p(-1e-12) - np.log(1e-12))
    n_left = int(np.ceil((s_end + s0) / PANEL_WIDTH))
    left = s0 + PANEL_WIDTH * np.arange(-n_left, int(np.ceil((s_end - s0) / PANEL_WIDTH)))
    t_nodes, to_int, to_nodes = _panel_rule()
    nodes = left[:, None] + (0.5 * PANEL_WIDTH) * (t_nodes + 1.0)
    g = (0.5 * PANEL_WIDTH) * dxi_ds(nodes)
    coef = np.ascontiguousarray((g @ to_int.T).T)  # one column per panel
    xi_left = np.concatenate([[0.0], np.cumsum(coef.sum(axis=0))])  # T_k(1) = 1
    xi_left -= xi_left[n_left]

    def xi_of(s):
        j = np.clip(((s - left[0]) / PANEL_WIDTH).astype(np.intp), 0, left.size - 1)
        t = (s - left.take(j)) * (2.0 / PANEL_WIDTH) - 1.0
        # Clenshaw's recurrence for sum_k c_k T_k(t), one coefficient at a time
        t2 = 2.0 * t
        b1 = b2 = 0.0
        for ck in coef[:0:-1]:
            b1, b2 = ck.take(j) + t2 * b1 - b2, b1
        return xi_left.take(j) + (coef[0].take(j) + t * b1 - b2)

    xi_hi = min(float(xi_of(s_end)), L)
    xi_lo = max(float(xi_of(-s_end)), -L)
    h = max(h, (xi_hi - xi_lo) / 500_000.0)  # at most about 500,000 knots
    n_fwd = max(int(np.ceil(xi_hi / h)), 8)
    n_bwd = max(int(np.ceil(-xi_lo / h)), 8)
    # linspace(xi_lo, 0, n_bwd + 1)[:-1] then linspace(0, xi_hi, n_fwd + 1), in place
    xi = np.arange(float(n_bwd + n_fwd + 1))
    xi[n_bwd:] -= n_bwd
    xi[n_bwd:] *= xi_hi / n_fwd
    xi[:n_bwd] *= (0.0 - xi_lo) / n_bwd
    xi[:n_bwd] += xi_lo
    xi[-1] = xi_hi

    # Newton from linear interpolation in the panel nodes, a block of knots at a
    # time; a step of at most 1e-7 leaves an error of the order of its square
    s = np.interp(xi, (xi_left[:-1, None] + g @ to_nodes.T).ravel(), nodes.ravel())
    cuts = range(BLOCK_POINTS, xi.size, BLOCK_POINTS)
    blocks = list(zip(np.split(s, cuts), np.split(xi, cuts)))  # views
    for _ in range(8):
        step = 0.0
        for sb, xb in blocks:
            ds = (xi_of(sb) - xb) / dxi_ds(sb)
            sb -= ds
            step = np.maximum(step, np.max(np.abs(ds)))
        if step <= 1e-7:
            break
    else:
        raise RuntimeError("profile knots: Newton on xi(s) did not converge")
    for sb, _ in blocks:
        np.clip(p_of(sb), p_minus, p_plus, out=sb)  # s becomes p in place
    return ShockProfile(states, xi, s)


def _fit_tail(xi, gap, side):
    """The rate of gap ~ A*exp(±rate*xi), fitted on the outer 15% of one side."""
    m = max(int(0.15 * len(xi)), 8)
    sl = slice(0, m) if side == "left" else slice(len(xi) - m, None)
    slope = np.polyfit(xi[sl], np.log(np.maximum(gap[sl], 1e-300)), 1)[0]
    return abs(float(slope))


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

    Returns a dict with the tail rates fitted on the outer knots
    (`_fit_tail`) vs the linearized rates per side, the
    normalized interior floor  min |v_tilde'| / eps^2  over [-1/eps, 1/eps],
    and the centre-slope ratio  v_tilde'(0) / (-(v_minus - v_plus)*rate/4)
    (logistic-shape sanity number, ~1 for small eps).
    """
    states = profile.states
    eps = states.eps
    an_minus, an_plus = analytic_tail_rates(states)
    fit_minus = _fit_tail(profile.xi, profile.p - states.p_minus, side="left")
    fit_plus = _fit_tail(profile.xi, states.p_plus - profile.p, side="right")
    # the core grid plus xi = 0 in one pass; each point is evaluated on its own
    dv = profile.frame(np.append(np.linspace(-1.0 / eps, 1.0 / eps, 2001), 0.0))["dv"]
    floor = float(np.min(np.abs(dv[:-1]))) / eps ** 2
    dv0 = float(dv[-1])
    amp = states.v_minus - states.v_plus
    rate_mean = 0.5 * (fit_minus + fit_plus)
    centre_ratio = abs(dv0) / (amp * rate_mean / 4.0)
    return {
        "rate_minus_fit": fit_minus,
        "rate_plus_fit": fit_plus,
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
