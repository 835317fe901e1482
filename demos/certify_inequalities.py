"""Certify the standalone scalar inequalities that back the energy estimate.

Four independent checks, each returning a report with the worst value found
and the certified margin:
  1. the interpolation constant theta^2 = 5 - pi^2/3 via graded quadrature,
  2. g < 0 on (-2, 0) by grid + Lipschitz slack plus an analytic cusp bound,
  3. the quartic-vs-square comparison on a box band |E| <= delta1,
  4. seeded multistart maximization of the cubic profile functional R_delta
     (the claim is that the maximum never exceeds zero).

Parameters here are chosen to finish in a few seconds; the test suite reruns
the same certifications at tighter resolution.
"""

import numpy as np

from shocklab.inequalities import (
    certify_g_negative, certify_prop_algebra, locate_g_critical_points,
    maximize_r_delta, poincare_slack_from_poly, theta_constant,
    theta_squared_quadrature,
)


def show(rep):
    verdict = "CERTIFIED" if rep.certified else "NOT certified"
    print("%s  [%s]" % (rep.target, verdict))
    print("  domain     : %s" % rep.domain)
    print("  worst value: %.6e   margin: %.6e" % (rep.worst_value, rep.margin))
    print("  method     : %s   (%.2f s)" % (rep.method, rep.runtime_s))
    for k, v in rep.details.items():
        print("    %s = %s" % (k, v))
    print()


# -- 1. interpolation constant ---------------------------------------------
exact = 5.0 - np.pi ** 2 / 3.0
quad = theta_squared_quadrature()
print("theta^2: quadrature %.15f vs closed form %.15f  (diff %.1e)" %
      (quad, exact, abs(quad - exact)))
print("theta = %.8f" % theta_constant())
print()

# -- 2. negativity of the scaled cubic g -----------------------------------
show(certify_g_negative(step=1e-4))

# note: a scan of (-1, 0) finds no interior critical point at all -- the
# derivative is positive there, so the only interior extremum on (-2, 0)
# is the minimum left of -1.
crit = locate_g_critical_points(-1.0, 0.0)
print("critical points of g on (-1, 0): %s" % crit)
crit = locate_g_critical_points(-1.99, -1.01)
print("critical points of g on (-2, -1): %s  (the global minimum)" % crit)
print()

# -- 3. quartic remainder dominated by the square --------------------------
show(certify_prop_algebra(delta=0.01, delta1=0.01, step=2e-3))

# -- 4. the cubic functional stays nonpositive -----------------------------
show(maximize_r_delta(n_starts=40))

# bonus: the weighted Poincare slack at the extremal profile f = 2y - 1
slack = poincare_slack_from_poly(np.array([-1.0, 2.0]))
print("Poincare slack at the extremal linear profile: %.2e (zero = equality)"
      % slack)
