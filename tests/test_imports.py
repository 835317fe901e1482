"""shocklab runs on numpy alone: scipy stays off the import path of the
package, the march, the whole CLI and the report helpers."""

import os
import subprocess
import sys

import shocklab as sl

# scipy set to None in sys.modules makes every scipy import raise ImportError
NO_SCIPY = """
import sys
sys.modules["scipy"] = None
"""

# every scipy module in sys.modules that was really loaded
LOADED_SCIPY = """
loaded = [m for m, mod in sys.modules.items()
          if m.split(".")[0] == "scipy" and mod is not None]
assert not loaded, loaded
print("ok")
"""

MARCH = NO_SCIPY + """
import shocklab as sl
for sets in ({}, {"steady_relax": True, "perturb_kind": "none"}):
    sl.initial_state(sl.build_setup(sl.ExperimentConfig(**sets)))
short = sl.ExperimentConfig(span_over_eps=10.0, t_end_sigma=0.2, width=5.0)
sl.run_experiment(sl.build_setup(short))
sl.identity_audit(short, refinements=(1, 2))
""" + LOADED_SCIPY

SHORT = ["--set", "span_over_eps=10", "--set", "t_end_sigma=0.2", "--set", "width=5"]

CLI = NO_SCIPY + f"""
import contextlib, io
from shocklab.cli import main
for argv in (["profile"], ["verify-inequalities", "--fast"],
             ["simulate", *{SHORT!r}], ["audit", *{SHORT!r}]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    assert code == 0, (argv, code)
""" + LOADED_SCIPY

REPORTS = NO_SCIPY + """
import numpy as np
import shocklab as sl
from shocklab.functionals import weighted_q_probe
profile = sl.solve_profile(sl.GasModel(2.0, 1.0), 0.1)
weight = sl.build_weight(profile, 0.5)
assert 0.5 < weighted_q_probe(weight)["t_star_over_eps_by_lam"] < 2.5
x = np.linspace(-400.0, 400.0, 4001)
y, W = sl.normalized_layer_variables(x, profile.v_profile(x) + 1e-3 * np.exp(-(x / 5.0) ** 2),
                                     weight)
assert np.all(np.isfinite(W)) and np.abs(W).max() > 0
""" + LOADED_SCIPY

# scipy importable, but importing the CLI loads none of it
CLI_IMPORT = """
import sys
import shocklab.cli
""" + LOADED_SCIPY


def run_python(code):
    src = os.path.dirname(os.path.dirname(sl.__file__))
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    out = subprocess.run([sys.executable, "-W", "error", "-c", code],
                         capture_output=True, text=True, env=env, timeout=300)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "ok"


def test_the_march_path_imports_no_scipy():
    run_python(MARCH)


def test_the_cli_runs_without_scipy():
    run_python(CLI)


def test_the_report_helpers_run_without_scipy():
    run_python(REPORTS)


def test_importing_the_cli_loads_no_scipy():
    run_python(CLI_IMPORT)


def test_the_inequality_names_are_re_exported():
    from shocklab import inequalities

    for name in ("CertificationReport", "DiscretizedW", "certify_g_negative",
                 "certify_prop_algebra", "g_poly", "maximize_r_delta",
                 "poincare_slack_from_poly", "r_delta", "theta_constant",
                 "theta_squared_quadrature"):
        assert getattr(sl, name) is getattr(inequalities, name)
