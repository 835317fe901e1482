"""Key-value config parsing and the command-line entry points."""

import json
import os
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest

import shocklab as sl
from shocklab.cli import main
from shocklab.config import config_to_text


def test_parse_config_text_basics():
    text = """
    # comment line
    eps = 0.05
    gamma = 1.4        # inline comment
    perturb_kind = random-fourier
    steady_relax = true
    modes = 8
    """
    kv = sl.parse_config_text(text)
    assert kv["eps"] == 0.05
    assert kv["gamma"] == 1.4
    assert kv["perturb_kind"] == "random-fourier"
    assert kv["steady_relax"] is True
    assert kv["modes"] == 8


def test_parse_config_rejects_garbage():
    with pytest.raises(ValueError):
        sl.parse_config_text("eps 0.05")
    with pytest.raises(ValueError):
        sl.parse_config_text("= 0.05")
    with pytest.raises(KeyError):
        sl.apply_overrides(sl.ExperimentConfig(),
                           sl.parse_config_text("no_such_knob = 1"))


def test_apply_overrides():
    cfg = sl.ExperimentConfig()
    out = sl.apply_overrides(cfg, {"eps": 0.05, "amplitude": 0.002})
    assert out.eps == 0.05 and out.amplitude == 0.002
    assert cfg.eps == 0.1  # original untouched
    with pytest.raises(KeyError):
        sl.apply_overrides(cfg, {"bogus": 1})


def test_overrides_are_type_checked():
    cfg = sl.ExperimentConfig()
    for text, key in (("eps = abc", "eps"), ("cells_per_layer = 50.5", "cells_per_layer"),
                      ("modes = 2.5", "modes"), ("steady_relax = 1", "steady_relax"),
                      ("perturb_kind = 3", "perturb_kind"), ("gamma = true", "gamma")):
        with pytest.raises(ValueError, match=repr(key)):
            sl.apply_overrides(cfg, sl.parse_config_text(text))
    out = sl.apply_overrides(cfg, {"cells_per_layer": 60.0, "gamma": 3})
    assert out.cells_per_layer == 60 and type(out.cells_per_layer) is int
    assert out.gamma == 3.0 and type(out.gamma) is float


def test_march_settings_must_be_positive_and_finite():
    # each of these used to start a march whose dt never left 0 (or a crash)
    cfg = sl.ExperimentConfig()
    for key in ("record_sigma", "cfl_safety", "t_end_sigma"):
        for value in (0, -0.01, float("nan"), float("inf")):
            with pytest.raises(ValueError, match=key):
                sl.apply_overrides(cfg, {key: value})


def test_lam_and_cfl_safety_upper_bounds_are_closed():
    cfg = sl.ExperimentConfig()
    for key, value in (("lam", 0.5 + 1e-12), ("lam", float("nan")),
                       ("cfl_safety", 1.0 + 1e-12)):
        with pytest.raises(ValueError, match=key):
            sl.apply_overrides(cfg, {key: value})
    out = sl.apply_overrides(cfg, {"lam": 0.5, "cfl_safety": 1.0})
    assert out.lam == 0.5 and out.cfl_safety == 1.0


def test_config_text_roundtrip():
    cfg = sl.ExperimentConfig(eps=0.07, perturb_kind="none", modes=9,
                              steady_relax=True)
    again = sl.apply_overrides(sl.ExperimentConfig(),
                               sl.parse_config_text(config_to_text(cfg)))
    assert again == cfg


def test_load_config_with_base():
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "run.cfg")
        with open(path, "w") as f:
            f.write("eps = 0.05\namplitude = 0.002\n")
        cfg = sl.load_config(path, base=sl.ExperimentConfig(gamma=1.4))
    assert cfg.gamma == 1.4 and cfg.eps == 0.05 and cfg.amplitude == 0.002


# -- CLI ----------------------------------------------------------------------

def test_cli_profile_exit_zero_and_csv():
    with tempfile.TemporaryDirectory() as d:
        csv = os.path.join(d, "prof.csv")
        rc = main(["profile", "--set", "eps=0.1", "--out", csv,
                   "--with-weight"])
        with open(csv) as fh:
            header = fh.readline().strip().split(",")
    assert rc == 0
    assert "a" in header and "v" in header


def test_cli_simulate_artifacts():
    with tempfile.TemporaryDirectory() as d:
        trace = os.path.join(d, "trace.csv")
        summary = os.path.join(d, "summary.json")
        chk = os.path.join(d, "final.chk")
        rc = main(["simulate",
                   "--set", "span_over_eps=10", "--set", "t_end_sigma=0.3",
                   "--set", "width=5",
                   "--trace", trace, "--summary", summary,
                   "--checkpoint", chk])
        assert rc == 0
        loaded = json.loads(Path(summary).read_text())
        t, X, v, h = sl.read_checkpoint(chk)
        n_rows = len(Path(trace).read_text().strip().splitlines()) - 1
    assert loaded["records"] == n_rows
    assert np.all(v > 0)
    assert t > 0


def test_cli_sweep():
    with tempfile.TemporaryDirectory() as d:
        out = os.path.join(d, "sweep.json")
        rc = main(["sweep", "--set", "span_over_eps=10",
                   "--set", "t_end_sigma=0.2", "--set", "width=5",
                   "amplitude", "0.005,0.01", "--out", out])
        rows = json.loads(Path(out).read_text())
    assert rc == 0
    assert len(rows) == 2
    assert rows[0]["overrides"]["amplitude"] == 0.005


def test_cli_audit_exit_zero():
    rc = main(["audit", "--set", "span_over_eps=10",
               "--set", "t_end_sigma=0.5", "--set", "width=5",
               "--refine", "2"])
    assert rc == 0


@pytest.mark.parametrize("item, key", [
    ("eps=abc", "eps"),
    ("cells_per_layer=50.5", "cells_per_layer"),
    ("record_sigma=-0.01", "record_sigma"),
    ("t_end_sigma=nan", "t_end_sigma"),
    ("eps=0", "eps"),
    ("eps=-0.1", "eps"),
    ("lam=0.7", "lam"),
    ("lam=0", "lam"),
    ("cfl_safety=5", "cfl_safety"),
    ("amplitude=nan", "amplitude"),
    ("gamma=1", "gamma"),
    ("v_minus=-1", "v_minus"),
    ("eps=12", "eps"),
    ("span_over_eps=-40", "span_over_eps"),
    ("profile_margin_over_eps=-45", "profile_margin_over_eps"),
    ("cells_per_layer=0", "cells_per_layer"),
    ("width=0", "width"),
    ("width=-5", "width"),
    ("v_floor_frac=2", "v_floor_frac"),
    ("amplitude=-0.6", "amplitude"),
    ("no_such_knob=1", "no_such_knob"),
    ("eps", "key = value"),
])
def test_cli_config_error_is_one_line(capsys, item, key):
    rc = main(["simulate", "--set", item])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert key in err


def test_cli_config_error_from_file_and_sweep(capsys):
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "bad.cfg")
        with open(path, "w") as f:
            f.write("t_end_sigma = -1\n")
        assert main(["simulate", "--config", path]) == 2
        assert "t_end_sigma" in capsys.readouterr().err
        assert main(["simulate", "--config", os.path.join(d, "missing.cfg")]) == 2
        assert capsys.readouterr().err.startswith("error: ")
    assert main(["sweep", "record_sigma", "0.01,-0.01"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "record_sigma" in err
    # a perturbation that drives v below v_plus/2 is found once the profile is built
    for argv in (["audit", "--set", "amplitude=-0.6"], ["sweep", "amplitude", "-0.6"]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "amplitude" in err


def test_steady_relax_with_a_stretched_layer_is_a_config_error(capsys):
    # the stretched layer would replace the relaxed wave, so no run uses it
    with pytest.raises(sl.experiment.ConfigError, match="steady_relax.*large-amplitude"):
        sl.ExperimentConfig(steady_relax=True, perturb_kind="large-amplitude").validate()
    assert main(["simulate", "--set", "steady_relax=true",
                 "--set", "perturb_kind=large-amplitude"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "steady_relax" in err and "large-amplitude" in err


def test_step_bound_counts_the_advective_limit(capsys):
    # at record_sigma = 1 the advective limit binds the bound: dt <
    # cfl_safety*dx/|sigma| is 12.5 steps per unit of t_end_sigma at the
    # defaults, so 10000 cannot end inside MAX_STEPS
    assert main(["simulate", "--set", "t_end_sigma=10000", "--set", "record_sigma=1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: t_end_sigma = 10000") and err.count("\n") == 1
    sl.ExperimentConfig(t_end_sigma=8000.0, record_sigma=1.0).validate()
    with pytest.raises(ValueError, match="t_end_sigma"):
        sl.ExperimentConfig(t_end_sigma=8001.0, record_sigma=1.0).validate()


@pytest.mark.parametrize("overrides", [{}, {"gamma": 1.4, "eps": 0.05},
                                       {"cells_per_layer": 100, "cfl_safety": 0.9}])
def test_step_bound_refuses_no_run_that_could_finish(overrides, monkeypatch):
    # with the cap set to the steps a run takes, validate() must let it start
    steps = []
    step = sl.experiment.coupled_rk4_step
    monkeypatch.setattr(sl.experiment, "coupled_rk4_step",
                        lambda *a: steps.append(1) or step(*a))
    cfg = sl.ExperimentConfig(span_over_eps=10.0, width=5.0, t_end_sigma=1.0,
                              record_sigma=0.1, **overrides)
    sl.run_experiment(sl.build_setup(cfg))
    monkeypatch.setattr(sl.solver, "MAX_STEPS", len(steps))
    cfg.validate()


def test_sweep_verdict_is_the_simulate_verdict(capsys, monkeypatch):
    # a point whose shift rate leaves its bound fails the sweep, as in simulate
    summary = {"entropy_initial": 1.0, "entropy_final": 0.5, "max_shift_bound_ratio": 2.0}
    monkeypatch.setattr(sl.cli, "sweep", lambda cfg, overrides: [summary for _ in overrides])
    assert main(["sweep", "amplitude", "0.01"]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == "sweep check: FAIL"


def test_cli_run_failure_is_one_line(capsys, monkeypatch):
    # a run that fails in the march is one "error: run failed: ..." line and
    # exit 3, apart from config errors (2) and failed checks (1)
    assert main(["simulate", "--set", "v_floor_frac=0.9", "--set", "amplitude=-0.3"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: run failed: positivity guard") and err.count("\n") == 1
    monkeypatch.setattr(sl.solver, "MAX_STEPS", 3)
    # t_end_sigma = 0.3 at record_sigma = 1 passes validate()'s lower bound of
    # 3.75 steps (dt < cfl_safety*dx/|sigma|), but the march takes 11
    assert main(["simulate", "--set", "span_over_eps=10", "--set", "width=5",
                 "--set", "t_end_sigma=0.3", "--set", "record_sigma=1"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: run failed: step-count limit: 3 steps")
    assert err.count("\n") == 1


def test_cli_sweep_runs_past_a_failed_point(capsys):
    with tempfile.TemporaryDirectory() as d:
        out = os.path.join(d, "sweep.json")
        rc = main(["sweep", "--set", "span_over_eps=10", "--set", "t_end_sigma=0.2",
                   "--set", "width=5", "--set", "amplitude=-0.3",
                   "v_floor_frac", "0.9,0.1", "--out", out])
        rows = json.loads(Path(out).read_text())
    assert rc == 3
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("v_floor_frac = 0.9: run failed: positivity guard")
    assert lines[1].startswith("v_floor_frac = 0.1: entropy ")
    assert rows[0]["overrides"] == {"v_floor_frac": 0.9}
    assert rows[0]["error"].startswith("positivity guard") and "summary" not in rows[0]
    assert rows[1]["summary"]["config"]["v_floor_frac"] == 0.1


def test_cli_verify_inequalities_fast(capsys):
    rc = main(["verify-inequalities", "--fast"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 5 and all(ln.startswith("[PASS] ") for ln in lines)
    # every check reports its work and its runtime
    assert all(re.search(r"\(\d+ [^()]*, \d+\.\d{3} s\)$", ln) for ln in lines)
    assert re.search(r"max found = \S+ \(\d+ objective calls", lines[-1])


def test_cli_verify_inequalities_rejects_zero_trials(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify-inequalities", "--poincare-trials", "0"])
    assert exc.value.code == 2
    assert "--poincare-trials" in capsys.readouterr().err
