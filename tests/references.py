"""Reference implementations that the tests compare the package with.

None of these is part of shocklab: each is the plain form of something the
package computes in a faster or more general way, kept here as its oracle.

  * `simulate`: the bare lab-frame march of (v, h), built from the public
    `solver.march` and `solver.stable_dt`; the coupled march with the shift
    frozen matches it bit for bit.
  * `DiscretizedW` and `r_delta`: R_delta of a sampled W by trapezoid
    moments, the oracle of the batched R_delta kernel's value test.
  * `q_relative` and `p_relative`: q(v|w) and p(v|w) in the operation
    order of `_yb_kernel`, which matches each bit for bit, from numpy's **.
  * `config_to_text`: a config in the key = value form, the inverse of
    `parse_config_text`.
"""

from dataclasses import dataclass, fields

import numpy as np
from numpy.polynomial import legendre as npleg

from shocklab.inequalities import R_DELTA_N_GRID
from shocklab.solver import FieldState, march, semi_discrete_rhs, stable_dt


def simulate(gas, sigma, grid, state, t_end, v_floor, safety=0.4,
             on_record=lambda state: None, record_dt=None):
    """March the PDE to t_end with the guards of `march`.

    The starting state must be finite with v > 0 (ValueError otherwise).

    on_record(state) fires at each record time, every record_dt from the
    start (by default t_end - state.t: the start and the end alone).
    """

    def rhs(y):
        return semi_discrete_rhs(sigma, grid, *y, gas.pressure(y[0]))

    t, (v, h) = march(
        rhs, (state.v.copy(), state.h.copy()), state.t, t_end,
        lambda y, f: stable_dt(gas, sigma, grid, y[0], safety), v_floor,
        t_end - state.t if record_dt is None else record_dt,
        lambda t, y: on_record(FieldState(t, *y)))
    return FieldState(t, v, h)


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
    def from_legendre(cls, coeffs):
        """W = sum_k coeffs[k] P_k(2y - 1) on R_DELTA_N_GRID points."""
        y = np.linspace(0.0, 1.0, R_DELTA_N_GRID)
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


def q_relative(gas, v, w):
    """q(v|w) = q(v) - q(w) - q'(w)(v-w) >= 0, with q'(w) = -p(w).

    q and p are written out with numpy's ** rather than taken from the gas,
    whose closures may compute into a given array by np.power: ** switches
    to np.reciprocal for the exponent -1 (q at gamma 2) and to np.square for
    2, so a match here holds np.power to those bits."""
    v = np.asarray(v, dtype=float)
    w = np.asarray(w, dtype=float)
    g = gas.gamma
    return v ** (1.0 - g) / (g - 1.0) - w ** (1.0 - g) / (g - 1.0) + w ** (-g) * (v - w)


def p_relative(gas, v, w):
    """p(v|w) = p(v) - p(w) - p'(w)(v-w) >= 0 (p is convex), with numpy's **
    as q_relative."""
    v = np.asarray(v, dtype=float)
    w = np.asarray(w, dtype=float)
    g = gas.gamma
    return v ** (-g) - w ** (-g) - (-g * w ** (-g - 1.0)) * (v - w)


def config_to_text(config):
    """The config in the key = value form that parse_config_text reads."""
    return "".join(f"{f.name} = {getattr(config, f.name)}\n" for f in fields(config))
