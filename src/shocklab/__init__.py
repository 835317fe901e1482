"""Numerical laboratory for weighted-entropy contraction of viscous shocks.

The package builds traveling-wave profiles of the barotropic system in mass
coordinates, evolves perturbations in the effective variables (specific
volume, shifted velocity), evaluates the weighted relative-entropy rate and
its sign decomposition together with the stabilizing shift, and certifies
the standalone scalar/functional inequalities the contraction estimate rests
on.

numpy is the only runtime dependency.
"""

from .gas import (GasBoundConstants, GasModel, check_global_bounds,
                  eta_relative, fit_bound_constants)
from .profile import (ShockEndStates, ShockProfile, analytic_tail_rates,
                      end_states_from_amplitude, solve_profile,
                      tail_decay_report, write_profile_csv)
from .weight import WeightFn, build_weight, weight_report
from .solver import (FieldState, Grid, read_checkpoint, semi_discrete_rhs,
                     simulate, stable_dt, steady_state, write_checkpoint)
from .functionals import (FunctionalBreakdown, bd_relative_functional,
                          compute_breakdown, functional_frame,
                          normalized_layer_variables, quick_yb, truncate_state)
from .shift import phi_eps, r_residual, shift_rhs
from .experiment import (ContractionTrace, ExperimentConfig, LabSetup,
                         audit_trace, build_setup, identity_audit,
                         initial_state, run_experiment, summarize_trace,
                         sweep, write_summary_json, write_trace_csv)
from .inequalities import (CertificationReport, DiscretizedW,
                           certify_g_negative, certify_prop_algebra, g_poly,
                           maximize_r_delta, poincare_slack_from_poly, r_delta,
                           theta_constant, theta_squared_quadrature)
from .config import apply_overrides, load_config, parse_config_text

__version__ = "0.1.0"
