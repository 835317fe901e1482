"""Small-amplitude scaling diagnostics across a range of wave strengths.

Two checks on how the internal layer behaves as the pressure jump eps
shrinks:
  * the layer coordinate y = (p_tilde - p_minus)/eps approaches its logistic
    closure with an O(eps^2) residual (fitted exponent ~ 2),
  * the weighted relative-flux integral at the largest admissible
    layer-aligned perturbation scales like eps^2/lam across lam choices.
"""

import numpy as np

import shocklab as sl
from shocklab.functionals import weighted_q_probe
from shocklab.profile import layer_coordinate_residual

gas = sl.GasModel(2.0)

print("layer closure residual vs wave strength")
print("  eps      sup|y' - closure|   sup y'     relative")
eps_list = [0.1, 0.05, 0.025, 0.0125]
rel = []
for eps in eps_list:
    prof = sl.solve_profile(gas, eps)
    rep = layer_coordinate_residual(prof)
    r = rep["sup_residual"] / rep["sup_dy"]
    rel.append(r)
    print("  %-7g  %.6e        %.3e  %.3e" %
          (eps, rep["sup_residual"], rep["sup_dy"], r))

slope = np.polyfit(np.log(eps_list), np.log(rel), 1)[0]
print("fitted exponent of the relative residual: %.3f (expect ~ 1, i.e." % slope)
print("absolute residual ~ eps^2 against a sup y' ~ eps normalization)")
print()

print("weighted relative-flux probe: int |a'| q at the admissible amplitude")
print("  eps     lam    t*lam/eps   int|a'|q     eps^2/lam   ratio")
rows = []
for eps in [0.1, 0.07, 0.05]:
    prof = sl.solve_profile(gas, eps)
    for lam in [0.25, 0.35, 0.5]:
        w = sl.build_weight(prof, lam)
        rep = weighted_q_probe(w)
        rows.append((eps, rep["int_abs_da_q"]))
        print("  %-6g  %-5g  %.3f       %.3e    %.3e   %.3f" %
              (eps, lam, rep["t_star_over_eps_by_lam"], rep["int_abs_da_q"],
               rep["eps2_over_lam"], rep["ratio"]))

by_eps = {}
for eps, iq in rows:
    by_eps.setdefault(eps, []).append(iq)
eps_u = sorted(by_eps, reverse=True)
means = [np.mean(by_eps[e]) for e in eps_u]
slope = np.polyfit(np.log(eps_u), np.log(means), 1)[0]
print("fitted exponent of int|a'|q in eps (lam-averaged): %.3f (expect ~ 2)"
      % slope)
