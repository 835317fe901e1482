"""Method-of-lines solver for the shock-frame effective-velocity system.

In the frame moving with speed sigma the unknowns (v, h) obey

    v_t = sigma*v_xi + h_xi - (p(v))_xixi
    h_t = sigma*h_xi - (p(v))_xi

(the diffusion acts exactly on p(v); since p' < 0 the v-equation is
parabolic with diffusivity |p'(v)|).  Discretization: second-order central
differences on a uniform grid, Dirichlet-pinned end values, and in time the
second-order Runge-Kutta-Chebyshev step (RKC2; Verwer, Hundsdorfer and
Sommeijer, Numer. Math. 57, 1990; Sommeijer, Shampine and Verwer, JCAM 88,
1998).  dt = safety*dx/c_max is the advective limit only: instead of
shrinking dt to the explicit parabolic limit dx^2/(2*max|p'(v)|), each step
takes as many stages as its stability interval along the negative real axis
needs to cover dt times the diffusion operator's spectral radius.

`march` is the package's one guarded time loop and steps by `rkc2`, the one
time step, with dt and the stage count's bound from one `stable_dt` call per
step.  The coupled experiment marches (v, h, X) with it in the frame of the
shifted profile, where sigma becomes sigma + Xdot.  The record cadence does
not clip dt: `march` writes each record from the cubic Hermite interpolant
of the step that holds it.

Also here: a damped-Newton solver for the *discrete* steady state (a run
started from it stays put to machine precision, which the shift-coupled
steady tests need), with a Thomas solve of its tridiagonal Jacobian.
"""

from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .profile import _hermite_coef

__all__ = [
    "Grid",
    "FieldState",
    "semi_discrete_rhs",
    "stable_dt",
    "rkc2_stages",
    "rkc2",
    "march",
    "steady_state",
    "effective_velocity",
]

#: about 85 times the longest march of any test, demo or benchmark workload
#: (1,181 steps, in criterion 10)
MAX_STEPS = 100_000

#: RKC2 damping: it costs about 2% of the undamped stability interval and
#: widens the stability region into a strip about the real axis, room for the
#: imaginary part that the central-difference advection adds (Verwer,
#: Hundsdorfer and Sommeijer 1990)
RKC_DAMPING = 2.0 / 13.0
#: a step takes the fewest stages s with RKC_MARGIN*beta_s >= dt*rho, so a
#: step stays clear of the edge of its stability interval [-beta_s, 0]
RKC_MARGIN = 0.8
#: beyond this the step count, not the stage count, should grow; dt*rho
#: reaches it only near v = 0 (beta_200 is about 2.6e4)
MAX_STAGES = 200

#: the fewest cells a Grid takes
MIN_CELLS = 8

#: the steady Newton stops at max|F| <= max(1e-13, NEWTON_FLOOR*eps*scale),
#: eps the machine epsilon and scale = max p/dx^2 + |sigma| max v/dx at the
#: pinned ends.  Run to its stall, Newton ends 1.5 to 4.3 times eps*scale
#: above zero (gamma 1.4, 2 and 3, eps 0.05 and 0.1, 25 to 300 cells per layer)
NEWTON_FLOOR = 8.0


@dataclass(frozen=True)
class Grid:
    """Uniform grid with n cells (n+1 points) on [lo, hi]."""

    lo: float
    hi: float
    n: int

    def __post_init__(self):
        if not (self.hi > self.lo and self.n >= MIN_CELLS):
            raise ValueError(f"need hi > lo and at least {MIN_CELLS} cells")

    @property
    def dx(self):
        return (self.hi - self.lo) / self.n

    @cached_property
    def x(self):
        """Grid points, built once per grid and read-only (callers share them)."""
        x = np.linspace(self.lo, self.hi, self.n + 1)
        x.flags.writeable = False
        return x


@dataclass
class FieldState:
    t: float
    v: np.ndarray
    h: np.ndarray


def central_gradient(f, dx, out=None):
    """np.gradient(f, dx, axis=-1) in its operations (central inside, one-sided
    at the ends), into `out` when given: a float array of f's shape, not f.
    Every first difference of the package is this one: the rhs's, D's and
    those of the initial state."""
    out = np.empty(np.shape(f)) if out is None else out
    np.subtract(f[..., 2:], f[..., :-2], out=out[..., 1:-1])
    out[..., 1:-1] /= 2.0 * dx
    np.divide(f[..., 1] - f[..., 0], dx, out=out[..., 0])
    np.divide(f[..., -1] - f[..., -2], dx, out=out[..., -1])
    return out


def effective_velocity(gas, grid, v, u):
    """h = u + (p(v))_xi, the derivative by central_gradient, as in the
    march's semi_discrete_rhs."""
    return u + central_gradient(gas.pressure(v), grid.dx)


def semi_discrete_rhs(sigma, grid, v, h, p):
    """Right-hand side arrays (dv, dh) with p = p(v); boundary rows are zero (pinned).

    The first differences of v, h and p are central_gradient's three
    arrays; the one second difference of p is inline, in p's array once its
    first difference is spent.  The caller passes p(v): the coupled march
    needs it again for the shift functionals of the same stage.
    """
    dx = grid.dx
    dv, dh, dp = (central_gradient(f, dx) for f in (v, h, p))
    iv, ih, tmp = dv[1:-1], dh[1:-1], dp[1:-1]
    # sigma*d1v + d1h - d2p and sigma*d1h - d1p in place, d2p in d1p's array
    # once d1p is spent: at n = 8001 temporaries would trim glibc's heap
    np.add(np.multiply(iv, sigma, out=iv), ih, out=iv)
    np.multiply(ih, sigma, out=ih)
    ih -= tmp
    np.add(np.subtract(p[2:], np.multiply(2.0, p[1:-1], out=tmp), out=tmp), p[:-2], out=tmp)
    iv -= np.divide(tmp, dx * dx, out=tmp)
    dv[0] = dv[-1] = dh[0] = dh[-1] = 0.0
    return dv, dh


def stable_dt(gas, sigma, grid, v, safety, drift=0.0):
    """(dt, rho) of a step from v, both from p'(min v).

    dt = safety*dx/c_max is the advective step, with drift bounding |Xdot|
    of a moving frame (safety has no default: a run passes
    experiment.CFL_SAFETY).  The parabolic limit sets `rkc2`'s stage
    count, not dt, through rho = 4*|p'(min v)|/dx^2: the Gershgorin bound on
    the spectral radius of the linearized diffusion dv -> -D2(p'(v)*dv),
    whose absolute row sums are (|p'_(i-1)| + 2|p'_i| + |p'_(i+1)|)/dx^2.
    """
    vmin = float(np.min(v))
    if vmin <= 0.0:
        raise ValueError("non-positive v in stable_dt")
    # |p'| is largest at min v
    dp_max = float(-gas.dpressure(vmin))
    c_max = abs(sigma) + drift + float(np.sqrt(dp_max))
    return safety * grid.dx / c_max, 4.0 * dp_max / (grid.dx * grid.dx)


@cache
def _rkc2_scheme(s):
    """(beta_s, stage-1 coefficient, stages 2..s) of the s-stage RKC2 method.

    With w0 = 1 + RKC_DAMPING/s^2, w1 = T_s'(w0)/T_s''(w0), b_j =
    T_j''(w0)/T_j'(w0)^2 (b_0 = b_1 = b_2) and a_j = 1 - b_j*T_j(w0), the
    step's stability polynomial is R_s(z) = a_s + b_s*T_s(w0 + w1*z) =
    1 + z + z^2/2 + O(z^3), with |R_s| <= 1 on [-beta_s, 0], beta_s =
    (w0 + 1)/w1.  Stage j >= 2 carries (mu_j, nu_j, mu~_j, gamma~_j) =
    (2 b_j w0/b_(j-1), -b_j/b_(j-2), 2 b_j w1/b_(j-1), -a_(j-1) mu~_j).
    """
    w0 = 1.0 + RKC_DAMPING / (s * s)
    T, dT, d2T = [1.0, w0], [0.0, 1.0], [0.0, 0.0]  # T_j, T_j', T_j'' at w0
    for j in range(2, s + 1):
        T.append(2.0 * w0 * T[j - 1] - T[j - 2])
        dT.append(2.0 * T[j - 1] + 2.0 * w0 * dT[j - 1] - dT[j - 2])
        d2T.append(4.0 * dT[j - 1] + 2.0 * w0 * d2T[j - 1] - d2T[j - 2])
    w1 = dT[s] / d2T[s]
    b = [d2T[2] / dT[2] ** 2] * 2 + [d2T[j] / dT[j] ** 2 for j in range(2, s + 1)]
    stages = []
    for j in range(2, s + 1):
        mut = 2.0 * b[j] * w1 / b[j - 1]
        stages.append((2.0 * b[j] * w0 / b[j - 1], -b[j] / b[j - 2], mut,
                       -(1.0 - b[j - 1] * T[j - 1]) * mut))
    return (w0 + 1.0) / w1, b[1] * w1, tuple(stages)


def rkc2_stages(dt_rho):
    """The fewest stages s >= 2 with RKC_MARGIN*beta_s >= dt*rho."""
    s = 2
    while RKC_MARGIN * _rkc2_scheme(s)[0] < dt_rho:
        if s == MAX_STAGES:
            raise RuntimeError(f"stage-count limit: dt*rho = {dt_rho:.6g} needs more "
                               f"than {MAX_STAGES} RKC2 stages")
        s += 1
    return s


def rkc2(rhs, y, dt, rho, f0):
    """One RKC2 step of y' = rhs(y) for a tuple y of arrays or floats.

    rho bounds the spectral radius of rhs's Jacobian along the negative real
    axis (for the march, the rho of `stable_dt`); the step takes
    rkc2_stages(dt*rho) stages:

        Y_0 = y,  Y_1 = Y_0 + mu~_1 dt F_0,
        Y_j = (1 - mu_j - nu_j) Y_0 + mu_j Y_(j-1) + nu_j Y_(j-2)
              + mu~_j dt F_(j-1) + gamma~_j dt F_0,

    with F_j = rhs(Y_j), and returns Y_s.  f0 is F_0 = rhs(y), which the
    caller holds (first same as last: `march` passes the F it evaluated at
    the end of the previous step), so a step makes s - 1 rhs calls.
    """
    _, mut1, stages = _rkc2_scheme(rkc2_stages(dt * rho))
    prev, cur = y, tuple(a + (mut1 * dt) * f for a, f in zip(y, f0))
    for mu, nu, mut, gamt in stages:
        f = rhs(cur)
        prev, cur = cur, tuple(
            (1.0 - mu - nu) * a0 + mu * a1 + nu * a2 + (mut * dt) * f1 + (gamt * dt) * g0
            for a0, a1, a2, f1, g0 in zip(y, cur, prev, f, f0))
    return cur


def _finite(y):
    """Every entry of the tuple y of arrays and floats is finite."""
    return all(np.isfinite(a).all() for a in y)


def _dense(t0, y0, f0, t1, y1, f1, times):
    """The states at the nonempty, ascending list of times in [t0, t1] (to
    within 1e-12) of the step (t0, y0) -> (t1, y1), as one block per
    component of y: row j of a block (an entry, for a float component) is
    that component at times[j].

    A time at the step's end takes y1 itself; the others take the cubic
    Hermite interpolant of y with the slopes f0 and f1 at the two ends
    (Hairer, Norsett and Wanner, Solving ODEs I, II.6).  The interpolant is
    linear in (y0, y1, f0, f1), so row j is
    ((W[j][0]*y0 + W[j][1]*y1) + W[j][2]*f0) + W[j][3]*f1, with W[j] the
    values at times[j] of the step's four Hermite basis cubics: the cell
    cubics of `profile._hermite_coef`, the profile interpolant's, with unit
    value y0, y1 or slope f0, f1 and the other three zero.
    """
    h = t1 - t0
    coef = [_hermite_coef(h, *basis) for basis in np.eye(4).tolist()]
    # the times ascend, so those at the step's end come last
    W = [[((c0 * s + c1) * s + c2) * s + c3 for c0, c1, c2, c3 in coef]
         for s in (t - t0 for t in times if t < t1 - 1e-12)]
    out = []
    for a0, a1, g0, g1 in zip(y0, y1, f0, f1):
        if isinstance(a0, np.ndarray):
            # row by row in place: a broadcast (m, 1)*(n,) product is slower
            block = np.empty((len(times), a0.size))
            for row, (w0, w1, w2, w3) in zip(block, W):
                np.multiply(w0, a0, out=row)
                row += w1 * a1
                row += w2 * g0
                row += w3 * g1
            block[len(W):] = a1
        else:
            block = np.array([w0 * a0 + w1 * a1 + w2 * g0 + w3 * g1 for w0, w1, w2, w3 in W]
                             + [a1] * (len(times) - len(W)))
        out.append(block)
    return tuple(out)


def march(rhs, y, t, t_end, limits, v_floor, record_dt, on_record):
    """March the tuple y = (v, ...) from t to t_end by `rkc2` steps with the
    positivity guard.

    rhs(y) is y's time derivative F, a tuple like y; limits(y, f) returns
    (dt, rho) at y, given f = rhs(y), as `stable_dt` does: the stable step,
    clipped to t_end alone, and the bound that sets the step's stage count.
    It is called once per step; a halved retry reuses its rho.  The march
    evaluates F once at the start and once at the end of each accepted step,
    and hands that F to the next step's limits and to `rkc2` as f0 (first
    same as last), so the slopes at both ends of every step cost one extra
    rhs call per march.  on_record(t, y) fires at the start and at each time
    t + k*record_dt up to t_end; a record inside a step is the cubic Hermite
    interpolant of y between the step's two ends with their slopes
    (`_dense`, which evaluates the records of a step as one block per
    component; y is then a tuple of row views of the blocks, which the
    march does not reuse).

    The start must have v > 0 and every component finite.  A step is
    retried with halved dt, up to 5 times, if its result has a non-finite
    entry or min(v) not above v_floor, or else if a record inside it does
    (a cubic can dip between two positive ends); persistent failure raises
    and says which of the two tripped.  F at the step's end is evaluated
    only once the step result has passed: at non-integral gamma p(v) of a
    v <= 0 is NaN with a RuntimeWarning.  This guard is the march's only
    state check: the gas closures inside a step do not validate.  An
    internal stage of the step (one of `rkc2`'s s stages) that goes
    non-positive gives NaN at non-integral gamma, but finite values at
    integral gamma (v**-2 is finite for v < 0); it is then caught only if
    the step result falls to the floor.  A march that would take more than
    MAX_STEPS steps raises instead of running on.  Returns (t, y).
    """
    if not record_dt > 0.0:
        raise ValueError(f"record_dt must be positive, got {record_dt}")
    if not _finite(y):
        raise ValueError("starting state must be finite")
    if not np.min(y[0]) > 0.0:
        raise ValueError("starting v must be positive")
    f = rhs(y)
    on_record(t, y)
    t_rec, k = t, 1  # the next record is at t_rec + k*record_dt
    steps = 0
    while t < t_end - 1e-12:
        if steps == MAX_STEPS:
            raise RuntimeError(f"step-count limit: {MAX_STEPS} steps reached at "
                               f"t = {t:.6g} before t_end = {t_end:.6g}")
        dt, rho = limits(y, f)
        dt = min(dt, t_end - t)
        for _ in range(6):  # the first try and up to 5 halvings
            cand = rkc2(rhs, y, dt, rho, f)
            finite = _finite(cand)
            if finite and np.min(cand[0]) > v_floor:
                f_end = rhs(cand)
                k_end = k
                while t_rec + k_end * record_dt <= t + dt + 1e-12:
                    k_end += 1
                times = (t_rec + record_dt * np.arange(k, k_end)).tolist()
                if not times:
                    break
                recs = _dense(t, y, f, t + dt, cand, f_end, times)
                finite = _finite(recs)
                if finite and recs[0].min() > v_floor:
                    break
            dt *= 0.5
        else:
            if not finite:
                raise RuntimeError(
                    "non-finite state: NaN or inf in the stepped state persists "
                    "after 5 dt halvings"
                )
            raise RuntimeError(
                f"positivity guard: v <= {v_floor} persists after 5 dt halvings"
            )
        for j, tj in enumerate(times):
            on_record(tj, tuple(block[j] for block in recs))
        t, y, f, k, steps = t + dt, cand, f_end, k_end, steps + 1
    return t, y


def steady_state(gas, sigma, grid, v0, h0):
    """Damped Newton for the discrete steady state, boundary values pinned.

    The steady h-equation integrates exactly: sigma*h - p(v) must equal a
    constant C, which eliminates h (and with it the checkerboard null mode
    of the central first difference, which makes the naive 2n x 2n Newton
    system numerically singular).  C is read off the supplied boundary data,
    which must satisfy the relation at both ends; Newton then runs on the
    scalar v-system

        sigma*D1 v + D1[(p(v)+C)/sigma] - D2 p(v) = 0

    with a tridiagonal Jacobian, and h = (p(v)+C)/sigma is reconstructed.
    Both components of the full right-hand side vanish for the result, to
    the roundoff floor of evaluating them (NEWTON_FLOOR).
    """
    v = v0.copy()
    dx = grid.dx
    p_left, p_right = gas.pressure(v0[0]), gas.pressure(v0[-1])
    C = sigma * h0[0] - p_left
    C_right = sigma * h0[-1] - p_right
    if abs(C_right - C) > 1e-11 * max(1.0, abs(C)):
        raise ValueError(
            "boundary data inconsistent with a steady state: sigma*h - p(v) "
            f"differs across ends by {C_right - C:.3e}; build h from v"
        )
    scale = float(max(p_left, p_right)) / (dx * dx) + abs(sigma) * max(v0[0], v0[-1]) / dx
    tol = max(1e-13, NEWTON_FLOOR * float(np.finfo(float).eps) * scale)

    def resid(v):
        p = gas.pressure(v)
        return semi_discrete_rhs(sigma, grid, v, (p + C) / sigma, p)[0][1:-1]

    F = resid(v)
    for _ in range(40):
        nrm = float(np.max(np.abs(F)))
        if nrm <= tol:
            return v, (gas.pressure(v) + C) / sigma
        pv = gas.dpressure(v)
        c1 = 1.0 / (2.0 * dx)
        c2 = 1.0 / (dx * dx)
        # J = sigma*D1 + D1 diag(p'/sigma) - D2 diag(p')
        lo = (-sigma - pv[:-2] / sigma) * c1 - pv[:-2] * c2
        di = 2.0 * pv[1:-1] * c2
        up = (sigma + pv[2:] / sigma) * c1 - pv[2:] * c2
        delta = _thomas(lo, di, up, -F)
        step = 1.0
        for _bt in range(12):
            v_try = v.copy()
            v_try[1:-1] += step * delta
            if np.min(v_try) > 0.0:
                F_try = resid(v_try)
                if float(np.max(np.abs(F_try))) < nrm:
                    v, F = v_try, F_try
                    break
            step *= 0.5
        else:
            raise RuntimeError("steady-state Newton stalled (no descent step)")
    raise RuntimeError(f"steady-state Newton did not reach tol={tol:.3g}")


def _thomas(lo, di, up, rhs):
    """x with lo[i]*x[i-1] + di[i]*x[i] + up[i]*x[i+1] = rhs[i] (lo[0], up[-1] unused).

    Elimination without pivoting (the Thomas algorithm).  The steady Jacobian
    needs none: its interior columns sum to zero, and while the cell Peclet
    number |sigma + p'/sigma|*dx/(2|p'|) stays below 1 its off-diagonals are
    positive, so it is column diagonally dominant.
    """
    lo, di, c, x = lo.tolist(), di.tolist(), up.tolist(), rhs.tolist()
    c[0] /= di[0]
    x[0] /= di[0]
    for i in range(1, len(x)):
        w = di[i] - lo[i] * c[i - 1]
        c[i] /= w
        x[i] = (x[i] - lo[i] * x[i - 1]) / w
    for i in range(len(x) - 2, -1, -1):
        x[i] -= c[i] * x[i + 1]
    return np.array(x)

