"""Barotropic gas closures in Lagrangian coordinates.

Everything downstream (profiles, PDE, functionals) talks to the gas law only
through this module: pressure p(v) = v**(-gamma), the entropy-flux potential
q(v) = v**(1-gamma)/(gamma-1) with q'(v) = -p(v).  The relative ("Bregman
gap") forms q(v|w) and p(v|w) are built from these where they are used
(`functionals._yb_kernel`).  All functions broadcast over numpy arrays.

The closures are bare formulas and do not check their arguments: they run at
every RK stage, so positivity and finiteness are checked where data enters
(the starting state of a march, and the march guard after every step).  A
non-positive v gives no exception: nan at non-integral gamma, a finite but
meaningless number at integral gamma.
"""

from dataclasses import dataclass

import numpy as np

__all__ = ["GasModel"]

#: v_minus - v_plus is about v_minus*log(1 + eps/p(v_minus))/gamma, so the
#: profile's ODE residual grows with gamma.  At p(v_minus) = 1 `shocklab
#: profile` passes up to gamma 1e7 for every eps of the supported range
#: (worst residual 7.7e-7*eps at eps = 1e-3*p(v_minus), under the check's
#: 1e-6*eps) and fails from 3e7 (2.9e-6*eps there); at 1e6 the worst is
#: 9.8e-8*eps.  From 1e15 p(v) at the layer's middle rounds onto p(v_minus)
#: and the profile quadrature's panel count overflows; from 1e17 v_plus
#: rounds onto v_minus
MAX_GAMMA = 1e6

#: log10 range of p(v_minus) = v_minus**-gamma, checked in logs so that no
#: power overflows.  The profile's ODE residual relative to eps grows with
#: p(v_minus) above 1: `shocklab profile` passes for every eps of the
#: supported range and every gamma from 1.01 to 1e6 up to p(v_minus) = 10**2
#: (worst residual 1.3e-7*eps, at gamma 1e6), and at gamma 1e6 for none from
#: 10**3.5; the upper bound is 10x inside 10**2.  Near gamma 1 the profile
#: solve's step estimate overflows from p(v_minus) = 1e-78 (gamma 1.0001,
#: eps = 9.99*p(v_minus)); the lower bound is 8 decades above that
P_MINUS_LOG10_RANGE = (-70.0, 1.0)


@dataclass(frozen=True)
class GasModel:
    """Pressure law p(v) = v**(-gamma) with reference left state (v_minus, 0).

    1 < gamma <= MAX_GAMMA and log10 p(v_minus) in P_MINUS_LOG10_RANGE are
    required; v_minus > 0 is the specific volume far to the left, where the
    velocity is 0 (the equations are invariant under u -> u + c, so another
    left velocity is a shift of every u).  The viscosity built into the
    transformed system is mu(v) = gamma*v**(-gamma), which is what makes the
    v-equation diffuse exactly p(v).
    """

    gamma: float
    v_minus: float

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

    # -- bare closures (pressure and entropy also into a given out) -------

    def pressure(self, v, out=None):
        return np.power(np.asarray(v, dtype=float), -self.gamma, out=out)

    def pressure_inverse(self, p):
        p = np.asarray(p, dtype=float)
        return p ** (-1.0 / self.gamma)

    def dpressure(self, v):
        """p'(v) = -gamma * v**(-gamma-1) (negative for v > 0)."""
        v = np.asarray(v, dtype=float)
        return -self.gamma * v ** (-self.gamma - 1.0)

    def entropy(self, v, out=None):
        """q(v) = v**(1-gamma)/(gamma-1); q'(v) = -p(v), q'' = -p' > 0."""
        q = np.power(np.asarray(v, dtype=float), 1.0 - self.gamma, out=out)
        return np.divide(q, self.gamma - 1.0, out=out)

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
