"""Monotone weight function riding on the shock profile.

a(xi) = 1 - lam * (p_tilde(xi) - p_minus) / eps  decreases from 1 to 1-lam,
so a' = -lam*(p_tilde)'/eps has one sign (sigma*a' >= 0 for a 1-shock) and
total variation exactly lam.  Derivatives come from the profile ODE relation,
not finite differences.
"""

from dataclasses import dataclass

import numpy as np

__all__ = ["WeightFn", "build_weight", "weight_report"]


@dataclass(frozen=True)
class WeightFn:
    profile: object
    lam: float

    def frame(self, x):
        """The profile frame at xi plus a, da, d2a, from one profile-frame pass."""
        fr = self.profile.frame(x)
        s = -self.lam / self.profile.eps
        fr["a"] = 1.0 + s * (fr["p"] - self.profile.states.p_minus)
        fr["da"] = s * fr["dp"]
        fr["d2a"] = s * fr["d2p"]
        return fr

    # views of one field of the frame

    def a(self, x):
        return self.frame(x)["a"]

    def da(self, x):
        return self.frame(x)["da"]

    def d2a(self, x):
        return self.frame(x)["d2a"]


def check_lam(lam):
    """Raise ValueError unless the slope lam lies in (0, 1/2] (1/2 for lam = 5*eps runs)."""
    if not (0.0 < lam <= 0.5):
        raise ValueError(f"lam must lie in (0, 1/2], got {lam!r}")


def build_weight(profile, lam):
    """Weight with slope parameter lam in (0, 1/2]."""
    lam = float(lam)
    check_lam(lam)
    return WeightFn(profile=profile, lam=lam)


def weight_report(weight):
    """Shape diagnostics: range, monotonicity, TV vs lam, |a''|/(eps|a'|) sup.

    TV is trapezoid over the stored window plus the exact tail remainders
    lam*(p-gap)/eps; it telescopes to lam up to quadrature error.
    """
    pr = weight.profile
    eps = pr.eps
    lam = weight.lam
    x = np.linspace(pr.xi[0], pr.xi[-1], 20001)
    fr = weight.frame(x)
    a, da, d2a, dv = fr["a"], fr["da"], fr["d2a"], fr["dv"]

    # x runs from xi[0] to xi[-1] exactly, so the window ends are fr["p"][[0, -1]]
    tv_window = float(np.trapezoid(np.abs(da), x))
    tail_lo = lam * (fr["p"][0] - pr.states.p_minus) / eps
    tail_hi = lam * (pr.states.p_plus - fr["p"][-1]) / eps
    tv = tv_window + tail_lo + tail_hi

    equiv = np.abs(da) * eps / (lam * np.maximum(np.abs(dv), 1e-300))

    return {
        "a_min": float(a.min()),
        "a_max": float(a.max()),
        "monotone_decreasing": bool(np.all(np.diff(a) <= 1e-15)),
        "sigma_da_nonneg": bool(np.all(pr.sigma * da >= -1e-18)),
        "tv": tv,
        "tv_minus_lam": tv - lam,
        "sup_d2a_over_eps_da": float(np.max(np.abs(d2a) / (eps * np.maximum(np.abs(da), 1e-300)))),
        "equiv_da_dv_min": float(equiv.min()),
        "equiv_da_dv_max": float(equiv.max()),
    }
