"""Build a viscous shock wave and look at its basic health indicators.

The wave connects the left state (v_minus, 0) = (1, 0), where p = 1, to a
compressed state picked so the pressure jump equals eps; `GasModel` states
the scaling that maps it onto a wave from another left volume.  We print the end states, the jump-condition residuals, the
internal ODE residual of the connecting orbit, and the exponential tail
rates on both sides, then drop the whole thing to CSV.
"""

import numpy as np

import shocklab as sl

gas = sl.GasModel(gamma=2.0)
eps = 0.1

profile = sl.solve_profile(gas, eps)
st = profile.states

print("end states (eps = %g):" % eps)
print("  v: %.10f -> %.10f" % (gas.v_minus, st.v_plus))
print("  u: %.10f -> %.10f" % (0.0, st.u_plus))
print("  wave speed sigma = %.10f" % st.sigma)

r1, r2 = st.rankine_hugoniot_residuals()
print("jump-condition residuals: %.2e, %.2e" % (r1, r2))
print("connecting-orbit residual (sup): %.2e" % profile.ode_residual_sup())
print("monotone decreasing v: %s" % profile.monotone())

rep = sl.tail_decay_report(profile)
print("tail rates:  fitted  -side %.6f  +side %.6f" %
      (rep["rate_minus_fit"], rep["rate_plus_fit"]))
print("             linear  -side %.6f  +side %.6f" %
      (rep["rate_minus_lin"], rep["rate_plus_lin"]))

# the layer-coordinate closure: y' ~ (eps/2 alpha) y(1-y)
x = np.linspace(-120.0, 120.0, 9)
print("sample points:")
for xi, v in zip(x, profile.frame(x)["v"]):
    print("  xi = %7.1f   v = %.8f   y = %.5f" % (xi, v, profile.y_of(xi)))

weight = sl.build_weight(profile, lam=0.5)
sl.write_profile_csv(profile, "profile_eps0.1.csv", weight=weight)
print("wrote profile_eps0.1.csv")
