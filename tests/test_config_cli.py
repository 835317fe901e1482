"""Key-value config parsing and the command-line entry points."""

import json
import os
import re
import tempfile

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
        header = open(csv).readline().strip().split(",")
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
        loaded = json.load(open(summary))
        t, X, v, h = sl.read_checkpoint(chk)
        n_rows = len(open(trace).read().strip().splitlines()) - 1
    assert loaded["records"] == n_rows
    assert np.all(v > 0)
    assert t > 0


def test_cli_sweep():
    with tempfile.TemporaryDirectory() as d:
        out = os.path.join(d, "sweep.json")
        rc = main(["sweep", "--set", "span_over_eps=10",
                   "--set", "t_end_sigma=0.2", "--set", "width=5",
                   "amplitude", "0.005,0.01", "--out", out])
        rows = json.load(open(out))
    assert rc == 0
    assert len(rows) == 2
    assert rows[0]["overrides"]["amplitude"] == 0.005


def test_cli_audit_exit_zero():
    rc = main(["audit", "--set", "span_over_eps=10",
               "--set", "t_end_sigma=0.5", "--set", "width=5",
               "--refine", "2"])
    assert rc == 0


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
