"""Key-value config parsing and the command-line entry points."""

import json
import os
import re
import tempfile
from dataclasses import asdict
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


def test_readme_config_block_lists_every_key_with_its_default():
    # the ini block under "Configuration" in the README is the list of keys
    text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Configuration\n.*?```ini\n(.*?)```", text, re.S).group(1)
    assert sl.parse_config_text(block) == asdict(sl.ExperimentConfig())


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


def test_cli_profile_passes_at_gamma_1_4(capsys):
    assert main(["profile", "--set", "gamma=1.4"]) == 0
    assert "profile check: PASS" in capsys.readouterr().out


def test_cli_profile_checks_only_the_keys_it_reads(capsys):
    # eps = 2 with the default width puts the perturbation outside the
    # domain, which a run refuses and a profile never reads
    assert main(["profile", "--set", "eps=2"]) == 0
    assert "profile check: PASS" in capsys.readouterr().out
    assert main(["simulate", "--set", "eps=2"]) == 2
    err = capsys.readouterr().err
    assert err == ("error: width = 20.0 is over 0.8 L = 16, with L = span_over_eps / eps = "
                   "40.0 / 2.0: the perturbation support must stay within 80% of the domain\n")
    # a bad value of a key the profile reads is still a config error
    assert main(["profile", "--set", "eps=-1"]) == 2
    assert capsys.readouterr().err == "error: eps must be positive, got -1.0\n"


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
    ("profile_margin_over_eps=10", "unknown config key 'profile_margin_over_eps'"),
    ("margin_coeff=0.1", "unknown config key 'margin_coeff'"),
    ("center=0", "unknown config key 'center'"),
    ("stretch=1.6", "unknown config key 'stretch'"),
    ("seed=-1", "seed"),
    ("modes=0", "modes"),
    ("cells_per_layer=0", "cells_per_layer"),
    ("width=0", "width"),
    ("width=-5", "width"),
    ("v_floor_frac=2", "v_floor_frac"),
    ("amplitude=-0.6", "amplitude"),
    ("amplitude=1e300", "amplitude"),
    ("amplitude_h=1e300", "amplitude_h"),
    ("amplitude_h=-inf", "amplitude_h"),
    ("no_such_knob=1", "no_such_knob"),
    ("eps", "key = value"),
])
def test_cli_config_error_is_one_line(capsys, item, key):
    rc = main(["simulate", "--set", item])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert key in err


@pytest.mark.parametrize("command", ["profile", "simulate"])
def test_cli_tiny_eps_is_one_line(capsys, command):
    # 1e-17 was a ZeroDivisionError (p_plus rounds to p_minus), 1e-9 a failed
    # Newton solve for the knots
    for eps in ("1e-17", "1e-9"):
        assert main([command, "--set", f"eps={eps}"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: eps out of supported range") and err.count("\n") == 1


def test_grid_size_is_capped(capsys):
    # a grid has 2*span_over_eps*cells_per_layer cells: 1e11 at span_over_eps
    # = 1e9, which Grid.x cannot allocate; validate() refuses it by name
    assert main(["simulate", "--set", "span_over_eps=1e9"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "span_over_eps" in err and "cells_per_layer" in err
    limit = sl.experiment.MAX_CELLS
    sl.ExperimentConfig(span_over_eps=limit / 100, cells_per_layer=50).validate()
    with pytest.raises(sl.experiment.ConfigError, match="span_over_eps.*cells_per_layer"):
        sl.ExperimentConfig(span_over_eps=limit / 100, cells_per_layer=51).validate()


def test_fourier_mode_count_is_capped_at_the_grid_resolution(capsys):
    # mode k has wavelength 2 width / k and the grid resolves none shorter
    # than 2 dx: width / dx = 20 * 0.1 * 50 = 100 modes at the defaults
    sl.ExperimentConfig(perturb_kind="random-fourier", modes=100).validate()
    with pytest.raises(ValueError, match="modes = 101"):
        sl.ExperimentConfig(perturb_kind="random-fourier", modes=101).validate()
    with pytest.raises(ValueError, match="modes = 21"):
        sl.ExperimentConfig(perturb_kind="random-fourier", modes=21, width=4.0).validate()
    # the other kinds draw no modes
    sl.ExperimentConfig(perturb_kind="bump", modes=101).validate()
    # one loop pass per mode over the grid: without the cap this runs for days
    assert main(["simulate", "--set", "perturb_kind=random-fourier",
                 "--set", "modes=1000000000"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: modes = 1000000000") and err.count("\n") == 1


def test_fourier_modes_times_support_cells_is_capped():
    # the widest support and finest grid validate() admits: width = 0.8 L on
    # 1e6 cells puts 800,000 cells on the support, whose Nyquist count of
    # 400,000 modes would take hours of set-up; validate() alone, no run
    limit = sl.experiment.MAX_MODE_CELLS
    extreme = sl.ExperimentConfig(perturb_kind="random-fourier", span_over_eps=1e4,
                                  cells_per_layer=50, width=8e4, modes=400_000)
    with pytest.raises(ValueError, match="^modes = 400000 .* over the limit of 10000000$"):
        extreme.validate()
    # 20,000 support cells at the defaults with width = 2000 (span 1e4)
    edge = dict(perturb_kind="random-fourier", span_over_eps=1e4, width=2000.0)
    sl.ExperimentConfig(**edge, modes=limit // 20_000).validate()
    with pytest.raises(ValueError, match="modes"):
        sl.ExperimentConfig(**edge, modes=limit // 20_000 + 1).validate()


def test_amplitudes_are_bounded(capsys):
    # at 1e300 the march and the functionals overflow before any guard
    # speaks; the bound is stated in the one error line
    bound = sl.experiment.MAX_AMPLITUDE
    for key in ("amplitude", "amplitude_h"):
        sl.ExperimentConfig(**{key: bound}).validate()
        with pytest.raises(ValueError, match=f"{key} must lie within \\[-1000, 1000\\]"):
            sl.ExperimentConfig(**{key: -1.001 * bound}).validate()
    assert main(["simulate", "--set", "amplitude_h=1e300"]) == 2
    assert capsys.readouterr().err == ("error: amplitude_h must lie within [-1000, 1000], "
                                       "got 1e+300\n")


def test_support_error_names_its_keys(capsys):
    assert main(["simulate", "--set", "width=400"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert all(key in err for key in ("width", "span_over_eps", "eps"))
    sl.ExperimentConfig(width=32.0).validate()  # 0.8 L = 0.8 * 40 / 0.1


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


@pytest.mark.parametrize("argv, flag", [
    (["audit", "--refine", "0"], "--refine"),  # a division by zero in identity_audit
    (["audit", "--refine", "-1"], "--refine"),
    (["verify-inequalities", "--seed", "-1"], "--seed"),  # numpy's ValueError
])
def test_cli_rejects_a_bad_count_at_parse_time(argv, flag, capsys):
    # refused by the parser, before any run: exit 2 and one error line
    # (after argparse's usage line) that names the flag
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    errors = [ln for ln in err.splitlines() if "error:" in ln]
    assert len(errors) == 1 and flag in errors[0] and "Traceback" not in err
