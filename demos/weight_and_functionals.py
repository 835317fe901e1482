"""Inspect the weight function and score a hand-made perturbed state.

The weight is an affine function of the profile pressure, decreasing from 1
to 1-lam across the layer.  We check its reported properties, then build a
state = profile + bump and print the full functional breakdown (shift
sensitivity Y, bad terms B, good terms G) that drives the contraction
machinery.
"""

import numpy as np

import shocklab as sl

gas = sl.GasModel(2.0, 1.0)
profile = sl.solve_profile(gas, 0.1)
weight = sl.build_weight(profile, lam=0.5)

rep = sl.weight_report(weight)
print("weight report:")
for k, v in rep.items():
    print("  %-24s %s" % (k, v))

# a state near the wave: smooth bumps in v and h
x = np.linspace(-400.0, 400.0, 4001)
v = profile.v_profile(x) + 0.01 * np.exp(-((x - 2.0) / 6.0) ** 2)
h = profile.h_profile(x) + 0.01 * np.exp(-((x + 4.0) / 8.0) ** 2)

frame = sl.functional_frame(weight, x)  # the weight folded for the integrals
bd = sl.compute_breakdown(v, h, frame)
print("\nfunctional breakdown at the perturbed state:")
print("  weighted entropy  %.6e" % bd.weighted_entropy)
print("  Y  = %.6e   (= %.2e + %.2e + %.2e)" % (bd.Y, bd.Y_g, bd.Y_b, bd.Y_l))
print("  B  = %.6e   (B1 %.2e + B2 %.2e)" % (bd.B, bd.B1, bd.B2))
print("  G  = %.6e   (G1 %.2e + G2 %.2e + D %.2e)" % (bd.G, bd.G1, bd.G2, bd.D))

# the same numbers vanish identically at the unperturbed wave
bd0 = sl.compute_breakdown(profile.v_profile(x), profile.h_profile(x), frame)
print("\nat the exact wave: entropy %.1e, Y %.1e, B %.1e, G %.1e"
      % (bd0.weighted_entropy, bd0.Y, bd0.B, bd0.G))

# scoring against a translated frame (built at the points x - shift): the
# minimum over shifts sits at the translation that matches the state
shifts = np.linspace(-2.0, 2.0, 9)
v_moved = profile.v_profile(x + 0.8)
h_moved = profile.h_profile(x + 0.8)
print("\nentropy of a translated wave vs scoring shift:")
for s in shifts:
    e = sl.compute_breakdown(v_moved, h_moved, sl.functional_frame(weight, x - s))
    print("  shift %5.2f   entropy %.3e" % (s, e.weighted_entropy))
