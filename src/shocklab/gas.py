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

#: v_minus - v_plus is about log(1 + eps)/gamma, so the profile's ODE
#: residual grows with gamma.  `shocklab profile` passes up to gamma 1e7 for
#: every eps of the supported range (worst residual 7.7e-7*eps at eps = 1e-3,
#: under the check's 1e-6*eps) and fails from 3e7 (2.9e-6*eps there); at 1e6
#: the worst is 9.8e-8*eps.  From 1e15 p(v) at the layer's middle rounds onto
#: p(v_minus) and the profile quadrature's panel count overflows; from 1e17
#: v_plus rounds onto v_minus
MAX_GAMMA = 1e6


@dataclass(frozen=True)
class GasModel:
    """Pressure law p(v) = v**(-gamma), 1 < gamma <= MAX_GAMMA, with the
    left state (v_minus, 0) = (1, 0), so p(v_minus) = 1.

    Another left state is no new physics.  The equations are invariant under
    u -> u + c and covariant under v -> k*v, u and h -> k**((1-gamma)/2)*u,
    x -> b*x with b = k**(-(gamma+1)/2) (t fixed), p and eps -> k**(-gamma)*p,
    which maps the shock from (1, 0) onto the shock from (k, 0); Y scales by
    k**(1-gamma), and the weighted entropy, B, G and D by b*k**(1-gamma).
    Only the shift law's gain Phi_eps(Y)*(2|B| + 1) does not map.  The
    viscosity built into the transformed system is mu(v) = gamma*v**(-gamma),
    which is what makes the v-equation diffuse exactly p(v).
    """

    gamma: float

    #: the specific volume far to the left, where the velocity is 0
    v_minus = 1.0

    def __post_init__(self):
        if not (1.0 < self.gamma <= MAX_GAMMA):
            raise ValueError(f"gamma must lie in (1, {MAX_GAMMA:g}], got {self.gamma!r}")

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
