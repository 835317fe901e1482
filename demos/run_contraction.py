"""Run the coupled evolution + shift controller and watch the entropy fall.

A bump perturbation rides on the wave; the controller translates the
comparison frame so the weighted relative entropy decreases record by
record.  We print a compact table of the trace and the summary verdicts.
"""

import shocklab as sl

cfg = sl.ExperimentConfig(
    gamma=2.0, eps=0.1, lam=0.5,
    span_over_eps=20.0, t_end_sigma=2.0,
    perturb_kind="bump", amplitude=0.01, amplitude_h=0.01,
)
setup = sl.build_setup(cfg)
trace, (state, X), summary = sl.run_experiment(setup)

print("grid: dx = %.3f, %d points;  %d records" %
      (setup.grid.dx, setup.grid.n + 1, summary["records"]))
print()
print("   t        X          Y          B          G        entropy")
step = max(1, len(trace.t) // 12)
for i in range(0, len(trace.t), step):
    print("%6.2f  %9.5f  %9.2e  %9.2e  %9.2e  %11.5e" %
          (trace.t[i], trace.X[i], trace.Y[i], trace.B[i], trace.G[i],
           trace.weighted_entropy[i]))

print()
print("entropy: %.6e -> %.6e (ratio %.3f)" %
      (summary["entropy_initial"], summary["entropy_final"],
       summary["entropy_final"] / summary["entropy_initial"]))
print("largest record-to-record increment: %.2e (negative = monotone decay)"
      % summary["max_record_increment"])
print("shift bound |Xdot| eps^2 <= 1 + 2|B|: worst ratio %.12f"
      % summary["max_shift_bound_ratio"])
print("saturated-branch fraction of records: %.3f"
      % summary["saturated_fraction"])

sl.write_trace_csv(trace, "contraction_trace.csv")
sl.write_summary_json(summary, "contraction_summary.json")
print("\nwrote contraction_trace.csv, contraction_summary.json")
