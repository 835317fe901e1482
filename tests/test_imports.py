"""shocklab runs on numpy alone: scipy stays off the import path of the
package, the march, the whole CLI and the report helpers; and no command
loads numpy.random or numpy.ma, whose first imports cost more than the
work they would do (seeded draws come from the standard library's random).
Nothing sets glibc's malloc thresholds, not even the CLI entry of a command
that marches: set-up and records run in memory that needs no such tuning."""

import json
import os
import subprocess
import sys

import pytest

import shocklab as sl

# scipy set to None in sys.modules makes every scipy import raise ImportError
NO_SCIPY = """
import sys
sys.modules["scipy"] = None
"""

# neither numpy.random nor numpy.ma has been imported
NO_NUMPY_RANDOM_OR_MA = """
loaded = [m for m in ("numpy.random", "numpy.ma") if m in sys.modules]
assert not loaded, loaded
"""

# every scipy module in sys.modules that was really loaded
LOADED_SCIPY = """
loaded = [m for m, mod in sys.modules.items()
          if m.split(".")[0] == "scipy" and mod is not None]
assert not loaded, loaded
"""

MARCH = NO_SCIPY + """
import shocklab as sl
for sets in ({}, {"steady_relax": True, "perturb_kind": "none"}):
    sl.initial_state(sl.build_setup(sl.ExperimentConfig(**sets)))
short = sl.ExperimentConfig(span_over_eps=10.0, t_end_sigma=0.2, width=5.0)
sl.run_experiment(sl.build_setup(short))
sl.identity_audit(short, refinements=(1, 2))
""" + NO_NUMPY_RANDOM_OR_MA + LOADED_SCIPY

SHORT = ["--set", "span_over_eps=10", "--set", "t_end_sigma=0.2", "--set", "width=5"]

CLI = NO_SCIPY + f"""
import contextlib, io
from shocklab.cli import main
for argv in (["profile"], ["verify-inequalities"],
             ["simulate", *{SHORT!r}],
             ["simulate", *{SHORT!r}, "--set", "perturb_kind=random-fourier"],
             ["audit", *{SHORT!r}]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    assert code == 0, (argv, code)
""" + NO_NUMPY_RANDOM_OR_MA + LOADED_SCIPY

REPORTS = NO_SCIPY + """
import shocklab as sl
from shocklab.functionals import weighted_q_probe
profile = sl.solve_profile(sl.GasModel(2.0), 0.1)
weight = sl.build_weight(profile, 0.5)
assert 0.5 < weighted_q_probe(weight)["t_star_over_eps_by_lam"] < 2.5
""" + LOADED_SCIPY

# scipy importable, but importing the CLI loads none of it
CLI_IMPORT = """
import sys
import shocklab.cli
""" + LOADED_SCIPY

# ctypes.CDLL, patched before anything imports shocklab, records each
# mallopt call made through it in RecordingCDLL.calls instead of making it;
# every other symbol resolves as before
RECORD_MALLOPT = """
import ctypes

class RecordingCDLL(ctypes.CDLL):
    calls = []

    def __getattr__(self, name):
        if name == "mallopt":
            return lambda *args: RecordingCDLL.calls.append(args) or 1
        return super().__getattr__(name)

ctypes.CDLL = RecordingCDLL
"""

# one fresh process runs the parts in this order, CLI_IMPORT first while
# scipy is still importable, and prints {part: "ok" or its traceback} with
# {part: the mallopt calls it made} under "mallopt"
PARTS = [("cli_import", CLI_IMPORT), ("march", MARCH), ("cli", CLI), ("reports", REPORTS)]
CHILD = RECORD_MALLOPT + f"PARTS = {PARTS!r}\n" + """
import json, traceback
report, mallopt = {}, {}
for name, code in PARTS:
    start = len(RecordingCDLL.calls)
    try:
        exec(code, {})
        report[name] = "ok"
    except Exception:
        report[name] = traceback.format_exc()
    mallopt[name] = RecordingCDLL.calls[start:]
print(json.dumps({**report, "mallopt": mallopt}))
"""


@pytest.fixture(scope="module")
def report():
    src = os.path.dirname(os.path.dirname(sl.__file__))
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    out = subprocess.run([sys.executable, "-W", "error", "-c", CHILD],
                         capture_output=True, text=True, env=env, timeout=300)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_the_march_path_imports_no_scipy(report):
    assert report["march"] == "ok", report["march"]


def test_the_cli_runs_without_scipy(report):
    assert report["cli"] == "ok", report["cli"]


def test_the_report_helpers_run_without_scipy(report):
    assert report["reports"] == "ok", report["reports"]


def test_importing_the_cli_loads_no_scipy(report):
    assert report["cli_import"] == "ok", report["cli_import"]


def test_nothing_sets_the_malloc_thresholds(report):
    # importing shocklab or its CLI, build_setup, run_experiment, the report
    # helpers and the CLI part's five cli.main calls, three of which march,
    # leave the allocator as it is
    assert report["mallopt"] == {name: [] for name, _ in PARTS}


def test_the_inequality_names_are_re_exported():
    from shocklab import inequalities

    for name in ("CertificationReport", "certify_g_negative", "certify_prop_algebra",
                 "g_poly", "maximize_r_delta", "poincare_slack_from_poly",
                 "theta_constant", "theta_squared_quadrature"):
        assert getattr(sl, name) is getattr(inequalities, name)
