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

`rkc2` and `march` are the package's one time step and one guarded time
loop: `simulate` marches (v, h) with them, the coupled experiment (v, h, X)
in the frame of the shifted profile, where sigma becomes sigma + Xdot.  The
record cadence does not clip dt: `march` writes each record from the cubic
Hermite interpolant of the step that holds it.

Also here: a damped-Newton solver for the *discrete* steady state (a run
started from it stays put to machine precision, which the shift-coupled
steady tests need), with a Thomas solve of its tridiagonal Jacobian, and
binary checkpoint IO.
"""

import os
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .profile import _hermite_coef

__all__ = [
    "Grid",
    "FieldState",
    "semi_discrete_rhs",
    "stable_dt",
    "diffusion_radius",
    "rkc2_stages",
    "rkc2",
    "march",
    "simulate",
    "steady_state",
    "effective_velocity",
    "write_checkpoint",
    "read_checkpoint",
]

CHECKPOINT_MAGIC = b"SHCKPT01"

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


def effective_velocity(gas, grid, v, u):
    """h = u + (p(v))_xi, the derivative by np.gradient: central inside,
    one-sided at the ends (the march uses semi_discrete_rhs)."""
    return u + np.gradient(gas.pressure(v), grid.dx)


def semi_discrete_rhs(sigma, grid, v, h, p):
    """Right-hand side arrays (dv, dh) with p = p(v); boundary rows are zero (pinned).

    The caller passes p(v): the coupled march needs it again for the shift
    functionals of the same stage.
    """
    dx = grid.dx
    dv = np.zeros_like(v)
    dh = np.zeros_like(h)
    d1v = (v[2:] - v[:-2]) / (2.0 * dx)
    d1h = (h[2:] - h[:-2]) / (2.0 * dx)
    d1p = (p[2:] - p[:-2]) / (2.0 * dx)
    d2p = (p[2:] - 2.0 * p[1:-1] + p[:-2]) / (dx * dx)
    dv[1:-1] = sigma * d1v + d1h - d2p
    dh[1:-1] = sigma * d1h - d1p
    return dv, dh


def stable_dt(gas, sigma, grid, v, safety, drift=0.0):
    """safety * advective step dx/c_max; drift bounds |Xdot| of a moving frame.

    safety has no default: a run passes ExperimentConfig.cfl_safety and
    `simulate` its own argument.  The parabolic limit is the stage count's job (`rkc2`), not dt's.
    """
    vmin = float(np.min(v))
    if vmin <= 0.0:
        raise ValueError("non-positive v in stable_dt")
    # |p'| is largest at min v
    c_max = abs(sigma) + drift + float(np.sqrt(-gas.dpressure(vmin)))
    return safety * grid.dx / c_max


def diffusion_radius(gas, grid, v):
    """4*|p'(min v)|/dx^2: the Gershgorin bound on the spectral radius of the
    linearized diffusion dv -> -D2(p'(v)*dv), whose absolute row sums are
    (|p'_(i-1)| + 2|p'_i| + |p'_(i+1)|)/dx^2."""
    return 4.0 * float(-gas.dpressure(np.min(v))) / (grid.dx * grid.dx)


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
    axis (for the march, `diffusion_radius`); the step takes rkc2_stages(dt*rho)
    stages:

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
    return all(np.all(np.isfinite(a)) for a in y)


def _dense(t0, y0, f0, t1, y1, f1, times):
    """The states at the times in [t0, t1] (to within 1e-12) of the step
    (t0, y0) -> (t1, y1), one tuple like y per time.

    A time at the step's end takes y1 itself; the others take the cubic
    Hermite interpolant of y with the slopes f0 and f1 at the two ends
    (Hairer, Norsett and Wanner, Solving ODEs I, II.6).  The interpolant is
    linear in (y0, y1, f0, f1), so it is the sum of the four with the weights
    of the four Hermite basis cubics of the step at that time; the form of
    `profile._hermite_coef` gives these as its four curves with unit values
    and slopes (the rows of the identity).
    """
    basis = np.eye(4)
    c0, c1, c2, c3 = _hermite_coef(np.array([t0, t1]), basis[:2], basis[2:])[0]
    out = []
    for t in times:
        if t >= t1 - 1e-12:
            out.append(y1)
            continue
        s = t - t0
        w0, w1, w2, w3 = ((c0 * s + c1) * s + c2) * s + c3
        out.append(tuple(w0 * a0 + w1 * a1 + w2 * g0 + w3 * g1
                         for a0, a1, g0, g1 in zip(y0, y1, f0, f1)))
    return out


def march(step, rhs, y, t, t_end, dt_limit, v_floor, record_dt=None, on_record=None):
    """March the tuple y = (v, ...) from t to t_end with the positivity guard.

    rhs(y) is y's time derivative F, a tuple like y; step(y, dt, f0) returns
    the state one step of size dt later, given f0 = rhs(y); dt_limit(y, f)
    is the stable step at y, given f = rhs(y).  dt is clipped to t_end alone.
    The march evaluates F once at the start and once at the end of each
    accepted step, and hands that F to the next step's dt_limit and step
    (first same as last), so the slopes at both ends of every step cost one
    extra rhs call per march.  When
    record_dt is set, on_record(t, y) fires at the start and at each time
    t + k*record_dt up to t_end; a record inside a step is the cubic Hermite
    interpolant of y between the step's two ends with their slopes (`_dense`).

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
    if record_dt is not None and not record_dt > 0.0:
        raise ValueError(f"record_dt must be positive, got {record_dt}")
    if not _finite(y):
        raise ValueError("starting state must be finite")
    if not np.min(y[0]) > 0.0:
        raise ValueError("starting v must be positive")
    f = rhs(y)
    if on_record is not None:
        on_record(t, y)
    t_rec, k = t, 1  # the next record is at t_rec + k*rec_dt
    rec_dt = np.inf if record_dt is None else record_dt
    steps = 0
    while t < t_end - 1e-12:
        if steps == MAX_STEPS:
            raise RuntimeError(f"step-count limit: {MAX_STEPS} steps reached at "
                               f"t = {t:.6g} before t_end = {t_end:.6g}")
        dt = min(dt_limit(y, f), t_end - t)
        for _ in range(6):  # the first try and up to 5 halvings
            cand = step(y, dt, f)
            finite = _finite(cand)
            if finite and np.min(cand[0]) > v_floor:
                f_end = rhs(cand)
                k_end = k
                while t_rec + k_end * rec_dt <= t + dt + 1e-12:
                    k_end += 1
                times = t_rec + rec_dt * np.arange(k, k_end)
                recs = _dense(t, y, f, t + dt, cand, f_end, times)
                finite = all(map(_finite, recs))
                if finite and all(np.min(r[0]) > v_floor for r in recs):
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
        if on_record is not None:
            for tj, r in zip(times.tolist(), recs):
                on_record(tj, r)
        t, y, f, k, steps = t + dt, cand, f_end, k_end, steps + 1
    return t, y


def simulate(gas, sigma, grid, state, t_end, v_floor, safety=0.4, on_record=None,
             record_dt=None):
    """March the PDE to t_end with the guards of `march`.

    The starting state must be finite with v > 0 (ValueError otherwise).

    When record_dt is set, on_record(state) fires at each record time
    (including t = 0); without it, only at t = 0.
    """
    if not safety > 0.0:
        raise ValueError(f"safety must be positive, got {safety}")

    def rhs(y):
        return semi_discrete_rhs(sigma, grid, *y, gas.pressure(y[0]))

    t, (v, h) = march(
        lambda y, dt, f0: rkc2(rhs, y, dt, diffusion_radius(gas, grid, y[0]), f0), rhs,
        (state.v.copy(), state.h.copy()), state.t, t_end,
        lambda y, f: stable_dt(gas, sigma, grid, y[0], safety), v_floor, record_dt,
        None if on_record is None else lambda t, y: on_record(FieldState(t, *y)))
    return FieldState(t, v, h)


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
    Both components of the full right-hand side vanish for the result.
    """
    v = v0.copy()
    dx = grid.dx
    C = sigma * h0[0] - gas.pressure(v0[0])
    C_right = sigma * h0[-1] - gas.pressure(v0[-1])
    if abs(C_right - C) > 1e-11 * max(1.0, abs(C)):
        raise ValueError(
            "boundary data inconsistent with a steady state: sigma*h - p(v) "
            f"differs across ends by {C_right - C:.3e}; build h from v"
        )

    def resid(v):
        p = gas.pressure(v)
        return semi_discrete_rhs(sigma, grid, v, (p + C) / sigma, p)[0][1:-1]

    F = resid(v)
    for _ in range(40):
        nrm = float(np.max(np.abs(F)))
        if nrm <= 1e-13:
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
    raise RuntimeError("steady-state Newton did not reach tol=1e-13")


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


# ---------------------------------------------------------------------------
# binary restart checkpoints
#
# Layout (all little-endian): 8-byte magic b"SHCKPT01", int64 n_points,
# float64 t, float64 shift X, then v[n_points] and h[n_points] as float64:
# 32 + 16*n_points bytes in all.
# ---------------------------------------------------------------------------


def _check_state(t, shift, v, h):
    if not (np.isfinite(t) and np.isfinite(shift)):
        raise ValueError(f"corrupt checkpoint header: t = {t!r}, shift = {shift!r}")
    for name, a in (("v", v), ("h", h)):
        if not np.all(np.isfinite(a)):
            raise ValueError(f"checkpoint body has a non-finite {name}")
    if not np.all(v > 0.0):
        raise ValueError("checkpoint body has v <= 0")


def write_checkpoint(path, t, shift, v, h):
    """Write (t, shift, v, h); refuses a state that read_checkpoint rejects."""
    v = np.asarray(v, dtype="<f8")
    h = np.asarray(h, dtype="<f8")
    if v.shape != h.shape or v.ndim != 1 or v.size < 1:
        raise ValueError("v and h must be nonempty 1-d arrays of equal length")
    _check_state(t, shift, v, h)
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        np.array([v.size], dtype="<i8").tofile(f)
        np.array([t, shift], dtype="<f8").tofile(f)
        v.tofile(f)
        h.tofile(f)


def read_checkpoint(path):
    """Returns (t, shift, v, h).

    Raises ValueError on a bad magic, a header with n < 1 points, a file size
    other than the 32 + 16*n bytes the header promises (truncated, or with
    trailing bytes), a non-finite t, shift, v or h, or a v <= 0.  The size is
    checked first, so a corrupt n never asks for more than the file holds.
    """
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        if f.read(8) != CHECKPOINT_MAGIC:
            raise ValueError("not a shocklab checkpoint (bad magic)")
        if size < 32:
            raise ValueError(f"truncated checkpoint: {size} bytes, the header alone is 32")
        n = int(np.fromfile(f, dtype="<i8", count=1)[0])
        t, shift = np.fromfile(f, dtype="<f8", count=2).tolist()
        if n < 1:
            raise ValueError(f"corrupt checkpoint header: n = {n} points")
        expected = 32 + 16 * n
        if size != expected:
            kind = "truncated checkpoint" if size < expected else "trailing bytes in checkpoint"
            raise ValueError(f"{kind}: {size} bytes, the header's n = {n} needs {expected}")
        v = np.fromfile(f, dtype="<f8", count=n)
        h = np.fromfile(f, dtype="<f8", count=n)
    _check_state(t, shift, v, h)
    return t, shift, v, h
