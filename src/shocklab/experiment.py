"""Contraction experiments: perturb a profile, march the coupled system, record.

A run builds (gas, end states, profile, weight, grid), applies a perturbation,
then advances (v, h, X) together — the shift ODE right-hand side is evaluated
inside every RKC2 stage from the current stage values, not lagged.  dt is the
advective limit (with the shift's drift); the record cadence does not set it.
At each time k*record_dt the full functional breakdown is recorded into a
ContractionTrace, from the cubic Hermite interpolant of (v, h, X) between the
two ends of the step that holds it (`solver.march`).

The state is marched at xi = x - X(t), in the frame of the shifted profile
where int a(xi) eta(U | Utilde(xi)) dxi lives.  As d/dt|_xi = d/dt|_x +
Xdot d/dxi, the PDE drift is sigma + Xdot and the weight frame is fixed:
build_setup folds it into one functional frame for every stage and record.
The recorded states, the final state and the checkpoint are at xi.

The identity audit re-runs a configuration on a resolution ladder and checks
that the centered time-difference of the recorded weighted entropy matches
Xdot*Y + B - G at the recorded instants, at a relative error that shrinks
like dx^2 (the record cadence is scaled with dx so both error sources do).
"""

import json
import time
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from . import solver
from .functionals import compute_breakdown, functional_frame, quick_yb
from .gas import GasModel
from .profile import end_states_from_amplitude, solve_profile
from .shift import overshoot, r_residual, saturated, shift_rhs
from .solver import (FieldState, Grid, diffusion_radius, effective_velocity, march,
                     rkc2, semi_discrete_rhs, stable_dt, steady_state)
from .weight import build_weight, check_lam

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "ContractionTrace",
    "LabSetup",
    "build_setup",
    "initial_state",
    "phase_aligned_steady",
    "run_experiment",
    "identity_audit",
    "sweep",
    "write_trace_csv",
    "write_summary_json",
]


class ConfigError(ValueError):
    """A config or override that no run can start from."""


#: 25 times the largest grid of any test, demo or benchmark workload (40,000
#: cells); a run holds about 0.25 kB per cell, so about 0.3 GB at the limit
MAX_CELLS = 1_000_000

#: bound on |amplitude| and |amplitude_h|: about 800 times the largest value
#: of any test, demo or benchmark workload (1.2).  On the default grid a run
#: with |amplitude_h| >= 100 already stops at the positivity guard; values
#: near 1e300 overflow the march and the functionals before any guard speaks.
MAX_AMPLITUDE = 1e3

#: bound on modes times the cells of the perturbation support for
#: `random-fourier`: at 35-43 ns per mode and cell (measured on 2e4 to 2e5
#: cells), about 0.4 s of set-up; about 8,000 times the largest product that
#: any test, demo or benchmark workload runs (6 modes on 200 cells)
MAX_MODE_CELLS = 10_000_000

#: the profile's knot spacing is at most L/50, and its ODE residual grows
#: about like 1/span_over_eps once the knots crowd.  With gamma <= 1e6 and eps
#: over the whole supported range, `shocklab profile` passes down to 0.3
#: (worst residual 9.4e-9 at gamma 1e6, eps 9.99*p(v_minus)) and fails at 0.1
#: (2.9e-8, over the check's 1e-8); at 1 the worst is 3.7e-9.  Near 1e-300
#: the tail fit's polyfit fails
MIN_SPAN_OVER_EPS = 1.0


@dataclass(frozen=True)
class ExperimentConfig:
    """Flat, file-mappable configuration of a contraction run."""

    gamma: float = 2.0
    v_minus: float = 1.0
    u_minus: float = 0.0
    eps: float = 0.1
    lam: float = 0.5            # weight slope; desk-scale default 5*eps
    span_over_eps: float = 40.0  # grid half-width L = span_over_eps/eps
    cells_per_layer: int = 50    # dx = (1/eps)/cells_per_layer
    t_end_sigma: float = 2.0     # t_end = t_end_sigma/|sigma|
    record_sigma: float = 0.01   # record_dt = record_sigma/|sigma|; written by dense output
    cfl_safety: float = 0.4
    v_floor_frac: float = 0.1    # guard floor = frac * v_plus
    steady_relax: bool = False   # Newton-relax to the discrete steady state first
    perturb_kind: str = "bump"   # none | bump | random-fourier | large-amplitude
    amplitude: float = 0.01      # v-amplitude
    amplitude_h: float = 0.01    # h (or u) amplitude
    width: float = 20.0          # perturbation support half-width, centred at 0
    modes: int = 6               # random-fourier mode count
    seed: int = 1234
    h_mode: str = "direct"       # direct | from-velocity

    def _check_numbers(self, keys):
        for key in keys:
            value = getattr(self, key)
            if isinstance(value, float) and not np.isfinite(value):
                raise ValueError(f"{key} must be finite, got {value!r}")
            if key in ("eps", "cells_per_layer", "t_end_sigma", "record_sigma",
                       "cfl_safety", "width") and not value > 0.0:
                raise ValueError(f"{key} must be positive, got {value!r}")

    def validate_profile(self):
        """Check the keys a profile and its weight read (`shocklab profile` reads no other)."""
        self._check_numbers(("gamma", "v_minus", "u_minus", "eps", "span_over_eps", "lam"))
        if self.span_over_eps < MIN_SPAN_OVER_EPS:
            raise ValueError(f"span_over_eps must be at least {MIN_SPAN_OVER_EPS:g}, "
                             f"got {self.span_over_eps!r}")
        # the ranges of gamma, v_minus and eps are the gas's and the profile's
        end_states_from_amplitude(GasModel(gamma=self.gamma, v_minus=self.v_minus,
                                           u_minus=self.u_minus), self.eps)
        check_lam(self.lam)
        return self

    def validate(self):
        if self.perturb_kind not in ("none", "bump", "random-fourier", "large-amplitude"):
            raise ValueError(f"unknown perturbation kind {self.perturb_kind!r}")
        if self.h_mode not in ("direct", "from-velocity"):
            raise ValueError(f"unknown h_mode {self.h_mode!r}")
        self.validate_profile()
        self._check_numbers([f.name for f in fields(self)])
        if self.seed < 0:  # np.random.default_rng takes no negative seed
            raise ValueError(f"seed must be nonnegative, got {self.seed!r}")
        if self.modes < 1:  # no mode is no perturbation
            raise ValueError(f"modes must be at least 1, got {self.modes!r}")
        # mode k has wavelength 2 width / k, and the grid (dx = 1/(eps
        # cells_per_layer)) resolves none shorter than 2 dx
        nyquist = self.width * self.eps * self.cells_per_layer
        if self.perturb_kind == "random-fourier" and self.modes > nyquist:
            raise ValueError(f"modes = {self.modes!r} is over the {nyquist:.4g} modes the grid "
                             f"resolves on the support (width / dx = width * eps * "
                             f"cells_per_layer)")
        mode_cells = self.modes * 2.0 * nyquist  # the support has 2 width / dx cells
        if self.perturb_kind == "random-fourier" and mode_cells > MAX_MODE_CELLS:
            raise ValueError(f"modes = {self.modes!r} on the {2.0 * nyquist:.4g} cells of the "
                             f"support make {mode_cells:.4g} mode-cells, over the limit of "
                             f"{MAX_MODE_CELLS}")
        for key in ("amplitude", "amplitude_h"):
            if abs(getattr(self, key)) > MAX_AMPLITUDE:
                raise ValueError(f"{key} must lie within [-{MAX_AMPLITUDE:g}, "
                                 f"{MAX_AMPLITUDE:g}], got {getattr(self, key)!r}")
        cells = 2.0 * self.span_over_eps * self.cells_per_layer
        if not solver.MIN_CELLS <= cells <= MAX_CELLS:
            raise ConfigError(f"span_over_eps = {self.span_over_eps!r} and cells_per_layer = "
                              f"{self.cells_per_layer!r} make {cells:.4g} cells, outside "
                              f"[{solver.MIN_CELLS}, {MAX_CELLS}]")
        if self.steady_relax and self.perturb_kind == "large-amplitude":
            # the stretched layer replaces the relaxed wave, which would be
            # computed only to be thrown away
            raise ConfigError("steady_relax = true does not apply to "
                              "perturb_kind = 'large-amplitude'")
        if not 0.0 < self.v_floor_frac < 1.0:
            # the guard floor frac * v_plus must stay below v_plus, the
            # lowest value of the profile
            raise ValueError(f"v_floor_frac must lie in (0, 1), got {self.v_floor_frac!r}")
        if self.cfl_safety > 1.0:
            # at 1 dt already sits at the advective limit
            raise ValueError(f"cfl_safety must be at most 1, got {self.cfl_safety!r}")
        L = self.span_over_eps / self.eps
        if self.width > 0.8 * L:
            raise ValueError(f"width = {self.width!r} is over 0.8 L = {0.8 * L:.6g}, with "
                             f"L = span_over_eps / eps = {self.span_over_eps!r} / {self.eps!r}: "
                             "the perturbation support must stay within 80% of the domain")
        # a step has dt < cfl_safety*dx/|sigma|  (+1: end tolerance); the
        # parabolic limit sets the stage count and the records are written
        # by dense output, so neither sets dt
        min_steps = self.t_end_sigma * self.eps * self.cells_per_layer / self.cfl_safety
        if min_steps > solver.MAX_STEPS + 1:
            raise ConfigError(f"t_end_sigma = {self.t_end_sigma!r} needs at least {min_steps:.4g} "
                              f"steps, over the step-count limit of {solver.MAX_STEPS}")
        return self


@dataclass
class LabSetup:
    """Everything a run needs, built once from a config (`frame`: functional_frame)."""

    config: ExperimentConfig
    profile: object
    weight: object
    grid: Grid
    frame: dict

    @property
    def gas(self):
        return self.profile.gas

    @property
    def sigma(self):
        return self.profile.sigma

    @property
    def eps(self):
        return self.profile.eps


def build_setup(config):
    config.validate()
    gas = GasModel(gamma=config.gamma, v_minus=config.v_minus, u_minus=config.u_minus)
    # the profile window reaches 10/eps past each end of the grid
    profile = solve_profile(gas, config.eps, span_over_eps=config.span_over_eps + 10.0)
    weight = build_weight(profile, config.lam)
    L = config.span_over_eps / config.eps
    dx = 1.0 / (config.eps * config.cells_per_layer)
    n = int(np.ceil(2.0 * L / dx))
    grid = Grid(lo=-L, hi=L, n=n)
    return LabSetup(config=config, profile=profile, weight=weight, grid=grid,
                    frame=functional_frame(weight, grid.x))


# ---------------------------------------------------------------------------
# initial data
# ---------------------------------------------------------------------------


def c2_bump(s):
    """(1-s^2)^3 on |s|<1, zero outside — twice continuously differentiable."""
    s = np.asarray(s, dtype=float)
    core = np.clip(1.0 - s * s, 0.0, None)
    return core ** 3


def _fourier_noise(x, width, modes, rng):
    """Seeded random Fourier sum under a C^2 window, sup-normalized to 1."""
    s = x / width
    on = np.abs(s) < 1.0  # the window's support; the sum is zero elsewhere
    s = s[on]
    acc = np.zeros_like(s)
    for k in range(1, modes + 1):
        a_k, b_k = rng.standard_normal(2) / k
        acc += a_k * np.cos(np.pi * k * s) + b_k * np.sin(np.pi * k * s)
    out = np.zeros_like(x)
    out[on] = acc * c2_bump(s)
    sup = np.max(np.abs(out))
    return out / sup if sup > 0 else out


def phase_aligned_steady(setup):
    """Discrete steady state whose shift functional Y vanishes.

    The Dirichlet pin values select the phase of the discrete steady state;
    at fixed pins that phase sits O(dx^2) off the continuum profile, and the
    controller (gain 1/eps^4) would faithfully walk X to that offset.  Sliding
    the pins along the profile tails by beta slides the phase, so a root of
    beta -> Y(steady(beta)) gives a state that is both machine-steady (it
    never moves) and functionally aligned (Y = 0), which is the discrete
    analogue of "the wave itself never drifts".

    Y is linear in beta to about three digits, so chord steps on the slope
    of one probe reach the root in one or two steps.  There Y stops being a
    function of beta and becomes the roundoff of the Newton solve (about
    1e-14 on the defaults): the steady state is only that well conditioned.
    So the iteration stops at the first step that does not lower |Y|, and
    returns the best state seen, with no tolerance to choose.
    """
    gas, pr, grid = setup.gas, setup.profile, setup.grid
    C = setup.sigma * gas.u_minus - gas.p_minus

    def ymis(beta):
        v0 = pr.frame(grid.x + beta)["v"]
        v_s, h_s = steady_state(gas, setup.sigma, grid, v0,
                                (gas.pressure(v0) + C) / setup.sigma)
        Y, _ = quick_yb(v_s, h_s, gas.pressure(v_s), setup.frame)
        return Y, v_s, h_s

    y0, v_s, h_s = ymis(0.0)
    slope = (ymis(1e-4)[0] - y0) / 1e-4
    beta = 0.0
    for _ in range(60):
        step = beta - y0 / slope
        y1, v1, h1 = ymis(step)
        if not abs(y1) < abs(y0):  # Y's noise band
            break
        beta, y0, v_s, h_s = step, y1, v1, h1
    return FieldState(t=0.0, v=v_s, h=h_s)


def initial_state(setup):
    """Profile + configured perturbation, with the positivity precondition checked."""
    cfg = setup.config
    x = setup.grid.x
    pr = setup.profile
    if cfg.steady_relax:
        ref = phase_aligned_steady(setup)
        v0, h0 = ref.v, ref.h
    else:
        # large-amplitude stretches the layer (an O(1) bump); one frame
        # serves v, h and, in from-velocity mode, the reference's u
        s = 1.6 if cfg.perturb_kind == "large-amplitude" else 1.0
        fr = pr.frame(s * x)
        v0, h0 = fr["v"], fr["h"]

    z = x / cfg.width
    if cfg.perturb_kind == "none":
        dv = dh = np.zeros_like(x)
    elif cfg.perturb_kind == "random-fourier":
        rng = np.random.default_rng(cfg.seed)
        dv = cfg.amplitude * _fourier_noise(x, cfg.width, cfg.modes, rng)
        dh = cfg.amplitude_h * _fourier_noise(x, cfg.width, cfg.modes, rng)
    else:  # bump and large-amplitude
        dv = cfg.amplitude * c2_bump(z)
        dh = cfg.amplitude_h * c2_bump(z)

    v = v0 + dv
    if np.min(v) < 0.5 * pr.states.v_plus:
        raise ConfigError(f"amplitude = {cfg.amplitude!r} drives v below v_plus/2; "
                          "reduce |amplitude|")

    if cfg.h_mode == "direct":
        h = h0 + dh
    else:
        # prescribe velocity u = u0 + dh, then h = u + d_xi p(v); the reference's
        # u0 = h0 - d_xi p(v0) takes the solver's difference on the relaxed state
        # and d/dxi p(s*xi) = s*p' on the profile
        dp0 = (np.gradient(setup.gas.pressure(v0), setup.grid.dx) if cfg.steady_relax
               else s * fr["dp"])
        h = effective_velocity(setup.gas, setup.grid, v, h0 - dp0 + dh)

    return FieldState(t=0.0, v=v, h=h)


# ---------------------------------------------------------------------------
# coupled march
# ---------------------------------------------------------------------------


@dataclass
class ContractionTrace:
    t: np.ndarray
    X: np.ndarray
    Xdot: np.ndarray
    weighted_entropy: np.ndarray
    Y: np.ndarray
    Y_g: np.ndarray
    Y_b: np.ndarray
    Y_l: np.ndarray
    B1: np.ndarray
    B2: np.ndarray
    B: np.ndarray
    G1: np.ndarray
    G2: np.ndarray
    D: np.ndarray
    G: np.ndarray
    R: np.ndarray
    branch_saturated: np.ndarray
    overshoot: np.ndarray
    sup_w: np.ndarray

    def as_matrix(self):
        return np.column_stack([getattr(self, f.name) for f in fields(self)])


def _coupled_rhs(setup):
    """The right-hand side (dv, dh, Xdot) of (v, h, X) at xi = x - X, for
    `solver.rkc2` and `solver.march`.

    Each call computes p(v), (Y, B) on the set-up's functional frame, Xdot =
    shift_rhs(Y, B, eps), and the PDE at drift sigma + Xdot.  The rate is the
    third entry of the result, so the march's step limit reads it there."""
    def rhs(y):
        v, h, X = y
        p = setup.gas.pressure(v)  # one p(v) per stage, for both consumers
        Y, B = quick_yb(v, h, p, setup.frame)
        rate = shift_rhs(Y, B, setup.eps)
        dv, dh = semi_discrete_rhs(setup.sigma + rate, setup.grid, v, h, p)
        return dv, dh, rate

    return rhs


def coupled_rk4_step(setup, v, h, X, dt, f0):
    """One time step of (v, h, X) at xi = x - X: an RKC2 step (`solver.rkc2`)
    of `_coupled_rhs`, its stage count set by the diffusion radius at the
    step's start, and f0 the right-hand side there.

    Returns the tuple (v, h, X) one step later.  (The name predates the RKC2
    step; the benchmark tracer observes the step by this name and reads dt
    as its 5th argument.)"""
    return rkc2(_coupled_rhs(setup), (v, h, X), dt,
                diffusion_radius(setup.gas, setup.grid, v), f0)


def run_experiment(setup):
    """March the coupled system to t_end, recording the breakdown at the cadence.

    Returns (trace, final FieldState with shift, summary dict).  All states
    are at xi = x - X (module docstring).
    """
    cfg, sig, eps = setup.config, setup.sigma, setup.eps
    t_end = cfg.t_end_sigma / abs(sig)
    rec_dt = cfg.record_sigma / abs(sig)
    v_floor = cfg.v_floor_frac * setup.profile.states.v_plus

    state = initial_state(setup)
    rows = {f.name: [] for f in fields(ContractionTrace)}
    t_wall = time.perf_counter()

    def record(t, y):
        v, h, X = y
        bd = compute_breakdown(v, h, setup.frame)
        rate = shift_rhs(bd.Y, bd.B, eps)
        for f in fields(bd):
            rows[f.name].append(getattr(bd, f.name))
        rows["t"].append(t)
        rows["X"].append(X)
        rows["Xdot"].append(rate)
        rows["R"].append(r_residual(bd, eps, cfg.lam))
        rows["branch_saturated"].append(1.0 if saturated(bd.Y, eps) else 0.0)
        rows["overshoot"].append(overshoot(rate, eps))

    # drift bound 2|Xdot|, with Xdot = f[2] at the step's start.  The
    # advective limit holds while |Xdot| at most doubles within a step
    t, (v, h, X) = march(
        lambda y, dt, f0: coupled_rk4_step(setup, *y, dt, f0), _coupled_rhs(setup),
        (state.v, state.h, 0.0), 0.0, t_end,
        lambda y, f: stable_dt(setup.gas, sig, setup.grid, y[0], cfg.cfl_safety,
                               drift=2.0 * abs(f[2])),
        v_floor, rec_dt, record)

    trace = ContractionTrace(**{name: np.array(col) for name, col in rows.items()})
    summary = summarize_trace(trace, setup, time.perf_counter() - t_wall)
    return trace, (FieldState(t=t, v=v, h=h), X), summary


def summarize_trace(trace, setup, wall_time):
    cfg = setup.config
    E = trace.weighted_entropy
    increments = np.diff(E)
    lin = trace.branch_saturated < 0.5
    worst_R_linear = float(np.max(trace.R[lin])) if np.any(lin) else float("nan")
    shift_ratio = np.abs(trace.Xdot) * setup.eps ** 2 / (1.0 + 2.0 * np.abs(trace.B))
    return {
        "config": asdict(cfg),
        "sigma": setup.sigma,
        "dx": setup.grid.dx,
        "frame": "co-moving, xi = x - X",
        "records": int(trace.t.size),
        "entropy_initial": float(E[0]),
        "entropy_final": float(E[-1]),
        "max_record_increment": float(np.max(increments)) if increments.size else 0.0,
        "worst_R_linear_branch": worst_R_linear,
        "max_shift_bound_ratio": float(np.max(shift_ratio)),
        "max_abs_X": float(np.max(np.abs(trace.X))),
        "max_overshoot": float(np.max(trace.overshoot)),
        "saturated_fraction": float(np.mean(trace.branch_saturated)),
        "wall_time_s": wall_time,
    }


# ---------------------------------------------------------------------------
# identity audit and sweeps
# ---------------------------------------------------------------------------


def audit_trace(trace):
    """Relative error series of d/dt int a*eta vs Xdot*Y + B - G at interior records."""
    t, E = trace.t, trace.weighted_entropy
    dEdt = (E[2:] - E[:-2]) / (t[2:] - t[:-2])
    rhs = (trace.Xdot * trace.Y + trace.B - trace.G)[1:-1]
    scale = np.maximum(np.abs(trace.B) + trace.G, 1e-14)[1:-1]
    return np.abs(dEdt - rhs) / scale


def _audit_level(config, r):
    """Refinement r of the audit ladder: cells_per_layer times r, the record
    cadence over r."""
    return replace(config, cells_per_layer=config.cells_per_layer * r,
                   record_sigma=config.record_sigma / r)


def identity_audit(config, refinements=(1, 2)):
    """Run the config on a resolution ladder and audit the entropy identity.

    Each refinement r multiplies cells_per_layer by r and divides the record
    cadence by r, so the audit error should scale ~ dx^2.  Every level is
    validated before the first one runs.  Returns a dict with per-level
    max/median relative errors and the coarse/fine ratios.
    """
    configs = [_audit_level(config, r).validate() for r in refinements]
    levels = []
    for r, cfg in zip(refinements, configs):
        setup = build_setup(cfg)
        trace, _, _ = run_experiment(setup)
        rel = audit_trace(trace)
        levels.append({
            "refine": r,
            "dx": setup.grid.dx,
            "max_rel": float(np.max(rel)),
            "median_rel": float(np.median(rel)),
        })
    out = {"levels": levels}
    if len(levels) >= 2:
        out["ratio_max"] = levels[0]["max_rel"] / levels[-1]["max_rel"]
        out["ratio_median"] = levels[0]["median_rel"] / levels[-1]["median_rel"]
    return out


def sweep(base_config, overrides_list):
    """Run a family of configs (dicts of field overrides); returns summaries.

    A point whose run fails (a RuntimeError: the march guard, a non-finite
    state or the step-count limit) gives {"error": message} in place of its
    summary, and the remaining points still run.  A config error raises.
    """
    out = []
    for overrides in overrides_list:
        try:
            _, _, summary = run_experiment(build_setup(replace(base_config, **overrides)))
        except RuntimeError as exc:
            summary = {"error": str(exc)}
        out.append(summary)
    return out


# ---------------------------------------------------------------------------
# output files
# ---------------------------------------------------------------------------


def write_trace_csv(trace, path):
    np.savetxt(path, trace.as_matrix(), delimiter=",",
               header=",".join(f.name for f in fields(trace)), comments="")


def write_summary_json(summary, path):
    with open(path, "w") as f:
        json.dump(summary, f, indent=2, sort_keys=True)
        f.write("\n")
