"""The march path runs on numpy alone: scipy stays off its import path."""

import os
import subprocess
import sys

import shocklab as sl

# scipy set to None in sys.modules makes every scipy import raise ImportError
NO_SCIPY_MARCH = r"""
import sys
sys.modules["scipy"] = None
import shocklab as sl
for sets in ({}, {"steady_relax": True, "perturb_kind": "none"}):
    sl.initial_state(sl.build_setup(sl.ExperimentConfig(**sets)))
short = sl.ExperimentConfig(span_over_eps=10.0, t_end_sigma=0.2, width=5.0)
sl.run_experiment(sl.build_setup(short))
sl.identity_audit(short, refinements=(1, 2))
assert "shocklab.inequalities" not in sys.modules
print("ok")
"""


def test_the_march_path_imports_no_scipy():
    src = os.path.dirname(os.path.dirname(sl.__file__))
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    out = subprocess.run([sys.executable, "-W", "error", "-c", NO_SCIPY_MARCH],
                         capture_output=True, text=True, env=env, timeout=300)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "ok"


def test_the_inequality_names_load_on_first_use():
    # PEP 562: sl.maximize_r_delta and the other re-exported names still work
    from shocklab import inequalities

    for name in sl._INEQUALITIES:
        assert getattr(sl, name) is getattr(inequalities, name)
        assert name in dir(sl)
