"""Shift dynamics: the drift that keeps the profile glued to the solution.

The shift X(t) obeys  Xdot = Phi_eps(Y) * (2|B| + 1)  with the capped-linear
response

    Phi_eps(y) =  1/eps^2        y <= -eps^2
                 -y/eps^4        |y| <= eps^2
                 -1/eps^2        y >= eps^2

(continuous at the knots).  Two consequences are exact algebra and get
asserted, not simulated: |Xdot|*eps^2 <= 1 + 2|B| always, and on the
saturated branch Xdot*Y <= -(2|B|+1)|Y|/eps^2 <= -2|B|.  On the linear branch
the useful object is the residual

    R = -Y^2/eps^4 + (1 + margin)|B| - G,   margin = 0.1*eps/lam,

whose nonpositivity is what makes the entropy rate negative there.
"""

import numpy as np

__all__ = ["phi_eps", "shift_rhs", "saturated", "r_residual", "overshoot"]


def phi_eps(y, eps):
    """Capped-linear shift response at a float y, or at each entry of an
    array y; exact at the knots."""
    e2 = eps * eps
    if isinstance(y, np.ndarray):
        return np.where(y <= -e2, 1.0 / e2, np.where(y >= e2, -1.0 / e2, -y / (e2 * e2)))
    return float(1.0 / e2 if y <= -e2 else -1.0 / e2 if y >= e2 else -y / (e2 * e2))


def shift_rhs(Y, B, eps):
    """Xdot = Phi_eps(Y) * (2|B| + 1)."""
    return phi_eps(Y, eps) * (2.0 * abs(B) + 1.0)


def saturated(Y, eps):
    """True on the saturated branch |Y| >= eps^2."""
    return abs(Y) >= eps * eps


def r_residual(breakdown, eps, lam):
    """R = -Y^2/eps^4 + (1 + 0.1*eps/lam)|B| - G of a breakdown.

    For a breakdown of a block of states (arrays of Y, B and G), each entry
    is the R of that state alone, bit for bit: Y^2 is Y*Y, which is correctly
    rounded for a float and for each entry of an array alike.
    """
    Y = breakdown.Y
    margin = 0.1 * eps / lam
    return -(Y * Y) / eps ** 4 + (1.0 + margin) * abs(breakdown.B) - breakdown.G


def overshoot(xdot, eps):
    """f = (|Xdot|*eps^2 - 1)_+ ; bounded by 2|B| pointwise."""
    return np.maximum(abs(xdot) * eps * eps - 1.0, 0.0)
