"""Key-value config parsing and the command-line entry points."""

import json
import os
import re
import tempfile
import warnings
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

import shocklab as sl
from references import config_to_text
from shocklab.cli import (AUDIT_MISMATCH_TOL, AUDIT_RATIO_BAND, JUMP_RESIDUAL_TOL,
                          PROFILE_RESIDUAL_TOL, _audit_ok, _jump_conditions_ok, _profile_ok,
                          main)


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
                      ("steady_relax = yes", "steady_relax"),
                      ("steady_relax = on", "steady_relax"),
                      ("perturb_kind = 3", "perturb_kind"), ("gamma = true", "gamma")):
        with pytest.raises(ValueError, match=repr(key)):
            sl.apply_overrides(cfg, sl.parse_config_text(text))
    out = sl.apply_overrides(cfg, {"cells_per_layer": 60.0, "gamma": 3})
    assert out.cells_per_layer == 60 and type(out.cells_per_layer) is int
    assert out.gamma == 3.0 and type(out.gamma) is float


def test_march_settings_must_be_positive_and_finite():
    # each of these used to start a march whose dt never left 0 (or a crash)
    cfg = sl.ExperimentConfig()
    for key in ("record_sigma", "t_end_sigma"):
        for value in (0, -0.01, float("nan"), float("inf")):
            with pytest.raises(ValueError, match=key):
                sl.apply_overrides(cfg, {key: value})


def test_lam_upper_bound_is_closed():
    cfg = sl.ExperimentConfig()
    for value in (0.5 + 1e-12, float("nan")):
        with pytest.raises(ValueError, match="lam"):
            sl.apply_overrides(cfg, {"lam": value})
    assert sl.apply_overrides(cfg, {"lam": 0.5}).lam == 0.5


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


def test_readme_python_api_block_runs(capsys):
    # the code block under "Python API" in the README, run as written
    text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Python API\n.*?```python\n(.*?)```", text, re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    assert float(lines[0].split()[0]) > 0.0  # the bumped state's weighted entropy
    assert 0.0 < float(lines[1]) < 1.0  # the entropy ratio of the run


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


@pytest.mark.parametrize("gamma, eps", [(2.0, 0.1), (1.4, 1e-3), (1.4, 9.99)])
def test_profile_verdict_bounds_the_residual_relative_to_eps(gamma, eps):
    # negative control: one mid-layer knot raised until the residual is just
    # over PROFILE_RESIDUAL_TOL * eps fails, just under passes, at the
    # defaults and at each end of the eps range, four decades apart
    profile = sl.solve_profile(sl.GasModel(gamma), eps)
    rh = profile.states.rankine_hugoniot_residuals()

    def ok(pr):
        return _profile_ok(pr, rh, pr.ode_residual_sup())

    assert ok(profile)
    i = int(np.searchsorted(profile.xi, 0.0))

    def raised(dp):
        p = profile.p.copy()
        p[i] += dp
        return replace(profile, p=p)

    per_dp = raised(1e-6 * eps).ode_residual_sup() / (1e-6 * eps)
    bound = PROFILE_RESIDUAL_TOL * eps
    over, under = raised(1.01 * bound / per_dp), raised(0.99 * bound / per_dp)
    assert under.ode_residual_sup() < bound < over.ode_residual_sup()
    assert over.monotone()
    assert ok(under) and not ok(over)


@pytest.mark.parametrize("gamma, eps", [(2.0, 0.1), (1.4, 1e-3), (1.4, 9.99)])
def test_jump_verdict_bounds_the_residuals_relative_to_the_jump(gamma, eps):
    # negative control: u_plus moved until the larger Rankine-Hugoniot
    # residual is just over JUMP_RESIDUAL_TOL * |u_plus| fails, just under
    # passes, at the defaults and at each end of the eps range, where the
    # jump |u_plus| is 8.4e-4 and 2.9
    states = sl.end_states_from_amplitude(sl.GasModel(gamma), eps)

    def ok(st):
        return _jump_conditions_ok(st.rankine_hugoniot_residuals(), st.u_plus)

    assert ok(states)

    def moved(frac):
        # sigma*[u] - [p] moves by sigma*du, sigma*[v] + [u] by du
        du = frac * JUMP_RESIDUAL_TOL * abs(states.u_plus)
        return replace(states, u_plus=states.u_plus + du / max(1.0, abs(states.sigma)))

    def ratio(st):
        return max(map(abs, st.rankine_hugoniot_residuals())) / abs(st.u_plus)

    over, under = moved(1.01), moved(0.99)
    assert ratio(under) < JUMP_RESIDUAL_TOL < ratio(over)
    assert ok(under) and not ok(over)


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
    # and so is a key that no config has
    for key in ("u_minus", "v_minus"):
        assert main(["profile", "--set", f"{key}=1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: unknown config key '{key}'") and err.count("\n") == 1


def test_cli_simulate_artifacts():
    with tempfile.TemporaryDirectory() as d:
        trace = os.path.join(d, "trace.csv")
        summary = os.path.join(d, "summary.json")
        rc = main(["simulate",
                   "--set", "span_over_eps=10", "--set", "t_end_sigma=0.3",
                   "--set", "width=5",
                   "--trace", trace, "--summary", summary])
        assert rc == 0
        loaded = json.loads(Path(summary).read_text())
        n_rows = len(Path(trace).read_text().strip().splitlines()) - 1
    assert loaded["records"] == n_rows


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


@pytest.mark.parametrize("r", [2, 3])
def test_audit_verdict_judges_the_mismatch_and_the_refinement_ratio(r):
    lo, hi = AUDIT_RATIO_BAND

    def report(max_rel, ratio_over_r2):
        return {"levels": [{"max_rel": max_rel}, {}], "ratio_max": ratio_over_r2 * r ** 2}

    inside = AUDIT_MISMATCH_TOL * (1.0 - 1e-6)
    assert _audit_ok(report(inside, lo * (1.0 + 1e-6)), r)
    assert _audit_ok(report(inside, hi * (1.0 - 1e-6)), r)
    assert not _audit_ok(report(inside, lo * (1.0 - 1e-6)), r)
    assert not _audit_ok(report(inside, hi * (1.0 + 1e-6)), r)
    assert not _audit_ok(report(AUDIT_MISMATCH_TOL * (1.0 + 1e-6), 1.0), r)


def test_cli_config_file_beats_the_defaults_and_set_beats_the_file(tmp_path, capsys,
                                                                    monkeypatch):
    path = tmp_path / "run.cfg"
    path.write_text("eps = 0.05\namplitude = 0.002\n")
    built = []

    def stop(cfg):
        built.append(cfg)
        raise RuntimeError("stopped before the run")

    monkeypatch.setattr(sl.cli, "build_setup", stop)
    assert main(["simulate", "--config", str(path), "--set", "amplitude=0.003"]) == 3
    assert "stopped before the run" in capsys.readouterr().err
    assert built == [sl.ExperimentConfig(eps=0.05, amplitude=0.003)]


def test_cli_audit_refuses_a_refinement_it_cannot_run_before_running_any(capsys,
                                                                         monkeypatch):
    # the fine level has 3.2e6 cells; the coarse one is fine on its own
    runs = []

    def run(setup):
        runs.append(setup)
        raise RuntimeError("a level ran")

    monkeypatch.setattr(sl.experiment, "run_experiment", run)
    assert main(["audit", "--set", "cells_per_layer=400", "--refine", "100"]) == 2
    err = capsys.readouterr().err
    assert runs == []
    assert err.count("\n") == 1 and "refinement 100" in err and "40000" in err
    # a library caller is refused before any level runs as well
    with pytest.raises(sl.experiment.ConfigError, match="cells"):
        sl.identity_audit(sl.ExperimentConfig(cells_per_layer=400), refinements=(1, 100))
    assert runs == []


def test_audit_refuses_a_level_with_too_few_records_before_running_any(capsys, monkeypatch):
    # the centred difference of audit_trace needs a record between two
    # others; t_end_sigma = record_sigma gives the coarse level two records,
    # which ended in a zero-size np.max after both levels ran
    runs = []
    monkeypatch.setattr(sl.experiment, "run_experiment", runs.append)
    assert main(["audit", "--set", "t_end_sigma=0.01"]) == 2
    err = capsys.readouterr().err
    assert runs == []
    assert err.startswith("error: refinement 1 (") and err.count("\n") == 1
    assert "t_end_sigma = 0.01 and record_sigma = 0.01 make fewer than the 3 records" in err
    with pytest.raises(sl.experiment.ConfigError, match="t_end_sigma.*record_sigma"):
        sl.identity_audit(sl.ExperimentConfig(t_end_sigma=0.01))
    assert runs == []


@pytest.mark.parametrize("item, key", [
    ("eps=abc", "eps"),
    ("cells_per_layer=50.5", "cells_per_layer"),
    ("record_sigma=-0.01", "record_sigma"),
    ("t_end_sigma=nan", "t_end_sigma"),
    ("eps=0", "eps"),
    ("eps=-0.1", "eps"),
    ("lam=0.7", "lam"),
    ("lam=0", "lam"),
    ("amplitude=nan", "amplitude"),
    ("gamma=1", "gamma"),
    ("gamma=1e17", "gamma"),  # was a ZeroDivisionError: v_plus rounds onto v_minus
    ("eps=12", "eps"),
    ("span_over_eps=-40", "span_over_eps"),
    ("profile_margin_over_eps=10", "unknown config key 'profile_margin_over_eps'"),
    ("margin_coeff=0.1", "unknown config key 'margin_coeff'"),
    ("center=0", "unknown config key 'center'"),
    ("stretch=1.6", "unknown config key 'stretch'"),
    ("cfl_safety=5", "unknown config key 'cfl_safety'"),
    ("v_floor_frac=2", "unknown config key 'v_floor_frac'"),
    ("u_minus=0", "unknown config key 'u_minus'"),
    ("v_minus=1", "unknown config key 'v_minus'"),
    ("seed=-1", "seed"),
    ("modes=0", "modes"),
    ("cells_per_layer=0", "cells_per_layer"),
    ("width=0", "width"),
    ("width=-5", "width"),
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


@pytest.mark.parametrize("item", ["gamma=1e8", "gamma=1e15", "span_over_eps=1e-8",
                                  "span_over_eps=1e-300"])
def test_cli_profile_refuses_gamma_and_span_it_cannot_solve(capsys, item):
    # these printed FAIL (1e8, 1e-8) or ended in an OverflowError (gamma 1e15)
    # or a LinAlgError from the tail fit (1e-300)
    assert main(["profile", "--set", item]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: " + item.split("=")[0]) and err.count("\n") == 1


def test_cli_profile_passes_at_the_gamma_and_span_bounds(capsys):
    # the worst corner of the sweep behind the bounds: largest gamma and eps
    # on the narrowest window
    assert main(["profile", "--set", f"gamma={sl.gas.MAX_GAMMA!r}", "--set", "eps=9.99",
                 "--set", f"span_over_eps={sl.experiment.MIN_SPAN_OVER_EPS!r}"]) == 0
    assert capsys.readouterr().out.endswith("profile check: PASS\n")


@pytest.mark.parametrize("command", ["simulate", "audit"])
def test_grid_needs_the_cells_a_grid_takes(capsys, command):
    # 2 * span_over_eps * cells_per_layer = 6 cells was Grid's raw ValueError
    assert main([command, "--set", "span_over_eps=1", "--set", "cells_per_layer=3",
                 "--set", "width=0.5"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "span_over_eps" in err and "cells_per_layer" in err
    sl.ExperimentConfig(span_over_eps=1.0, cells_per_layer=4, width=0.5).validate()


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
        # the left state is fixed at (1, 0): the equations are invariant under
        # u -> u + c and covariant under a scaling of v, and the retired keys
        # are unknown to every command
        for key in ("u_minus", "v_minus"):
            with open(path, "w") as f:
                f.write(f"{key} = 1.0\n")
            for command in ("simulate", "profile"):
                assert main([command, "--config", path]) == 2
                err = capsys.readouterr().err
                assert err.startswith(f"error: unknown config key '{key}'") and err.count("\n") == 1
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
    # CFL_SAFETY*dx/|sigma| is 12.5 steps per unit of t_end_sigma at the
    # defaults, so 10000 cannot end inside MAX_STEPS
    assert main(["simulate", "--set", "t_end_sigma=10000", "--set", "record_sigma=1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: t_end_sigma = 10000") and err.count("\n") == 1
    sl.ExperimentConfig(t_end_sigma=8000.0, record_sigma=1.0).validate()
    with pytest.raises(ValueError, match="t_end_sigma"):
        sl.ExperimentConfig(t_end_sigma=8001.0, record_sigma=1.0).validate()


def test_record_bound_refuses_a_run_that_would_not_end(capsys):
    # t_end_sigma / record_sigma records: 2e6 at 1e-6 ran on past 20 s, and
    # 1e-300 asked for about 1e300
    with pytest.raises(sl.experiment.ConfigError, match="record_sigma"):
        sl.ExperimentConfig(record_sigma=1e-6).validate()
    for value in ("1e-6", "1e-300"):
        assert main(["simulate", "--set", f"record_sigma={value}"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: record_sigma = {float(value)!r}") and err.count("\n") == 1
    # t_end_sigma / record_sigma + 1 records, at most MAX_RECORDS of them
    limit = sl.experiment.MAX_RECORDS
    sl.ExperimentConfig(t_end_sigma=(limit - 1) * 0.01, record_sigma=0.01).validate()
    with pytest.raises(sl.experiment.ConfigError, match="record_sigma"):
        sl.ExperimentConfig(t_end_sigma=limit * 0.01, record_sigma=0.01).validate()
    # the audit's fine level divides record_sigma by r, and is checked first
    # (66,668 records at r = 1, 133,334 at r = 2)
    assert main(["audit", "--set", "record_sigma=0.00003", "--refine", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: refinement 2 (") and "record_sigma = 1.5e-05 makes" in err


@pytest.mark.parametrize("argv, key", [
    (["simulate", "--set", "width=1e-300"], "width"),  # overflowed in c2_bump
], ids=["width-1e-300"])
def test_cli_refuses_an_overflowing_value_under_warnings_as_errors(argv, key, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key} ") and err.count("\n") == 1


def test_width_at_its_bound_is_accepted():
    L = 40.0 / 0.1
    bound = sl.experiment.MIN_WIDTH_OVER_L * L
    sl.ExperimentConfig(width=bound).validate()
    with pytest.raises(ValueError, match="width"):
        sl.ExperimentConfig(width=0.5 * bound).validate()


@pytest.mark.parametrize("overrides, safety", [
    ({}, sl.experiment.CFL_SAFETY), ({"gamma": 1.4, "eps": 0.05}, sl.experiment.CFL_SAFETY),
    ({"cells_per_layer": 100}, 0.9),
], ids=["overrides0", "overrides1", "overrides2"])
def test_step_bound_refuses_no_run_that_could_finish(overrides, safety, monkeypatch):
    # with the cap set to the steps a run takes, validate() must let it start
    monkeypatch.setattr(sl.experiment, "CFL_SAFETY", safety)
    steps = []
    rkc2 = sl.solver.rkc2
    monkeypatch.setattr(sl.solver, "rkc2", lambda *a: steps.append(1) or rkc2(*a))
    cfg = sl.ExperimentConfig(span_over_eps=10.0, width=5.0, t_end_sigma=1.0,
                              record_sigma=0.1, **overrides)
    sl.run_experiment(sl.build_setup(cfg))
    monkeypatch.setattr(sl.solver, "MAX_STEPS", len(steps))
    cfg.validate()


def test_sweep_verdict_is_the_simulate_verdict(capsys, monkeypatch):
    # a point whose shift rate leaves its bound fails the sweep, as in simulate
    summary = {"entropy_initial": 1.0, "entropy_final": 0.5, "max_shift_bound_ratio": 2.0}
    monkeypatch.setattr(sl.cli, "sweep", lambda configs: [summary for _ in configs])
    assert main(["sweep", "amplitude", "0.01"]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == "sweep check: FAIL"


def test_cli_run_failure_is_one_line(capsys, monkeypatch):
    # a run that fails in the march is one "error: run failed: ..." line and
    # exit 3, apart from config errors (2) and failed checks (1)
    monkeypatch.setattr(sl.experiment, "V_FLOOR_FRAC", 0.9)
    assert main(["simulate", "--set", "amplitude=-0.3"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: run failed: positivity guard") and err.count("\n") == 1
    monkeypatch.setattr(sl.solver, "MAX_STEPS", 3)
    # t_end_sigma = 0.3 at record_sigma = 1 passes validate()'s lower bound of
    # 3.75 steps (dt < CFL_SAFETY*dx/|sigma|), but the march takes 11
    assert main(["simulate", "--set", "span_over_eps=10", "--set", "width=5",
                 "--set", "t_end_sigma=0.3", "--set", "record_sigma=1"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: run failed: step-count limit: 3 steps")
    assert err.count("\n") == 1


def test_cli_sweep_runs_past_a_failed_point(capsys, monkeypatch):
    # under a guard floor of 0.9 v_plus the dip of amplitude -0.3 fails, and
    # the sweep runs on to the next point
    monkeypatch.setattr(sl.experiment, "V_FLOOR_FRAC", 0.9)
    with tempfile.TemporaryDirectory() as d:
        out = os.path.join(d, "sweep.json")
        rc = main(["sweep", "--set", "span_over_eps=10", "--set", "t_end_sigma=0.2",
                   "--set", "width=5", "--out", out, "--", "amplitude", "-0.3,0.01"])
        rows = json.loads(Path(out).read_text())
    assert rc == 3
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("amplitude = -0.3: run failed: positivity guard")
    assert lines[1].startswith("amplitude = 0.01: entropy ")
    assert rows[0]["overrides"] == {"amplitude": -0.3}
    assert rows[0]["error"].startswith("positivity guard") and "summary" not in rows[0]
    assert rows[1]["summary"]["config"]["amplitude"] == 0.01


def test_cli_sweep_checks_its_points_not_the_base(capsys):
    # the --set base amplitude = 5000 is out of range, but no point runs it
    assert main(["sweep", "--set", "span_over_eps=10", "--set", "t_end_sigma=0.2",
                 "--set", "width=5", "--set", "amplitude=5000", "amplitude", "0.01"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "sweep check: PASS"


def test_cli_verify_inequalities(capsys):
    rc = main(["verify-inequalities"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 5 and all(ln.startswith("[PASS] ") for ln in lines)
    # every check reports its work and its runtime
    assert all(re.search(r"\(\d+ [^()]*, \d+\.\d{3} s\)$", ln) for ln in lines)
    assert re.search(r"max found = \S+ \(\d+ batched calls over \d+ rows, \d+ iterations, ",
                     lines[-1])
    # the band check reports how many points it evaluated, not only the grid
    assert re.search(r"\(\d+ grid points, \d+ evaluated, \d+ in the band, ", lines[3])


def refused_by_the_parser(argv, capsys):
    """The one error line of a command line that the parser refuses with exit 2."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    errors = [ln for ln in err.splitlines() if "error:" in ln]
    assert len(errors) == 1 and "Traceback" not in err
    return errors[0]


@pytest.mark.parametrize("argv, flag", [
    (["audit", "--refine", "0"], "--refine"),  # a division by zero in identity_audit
    (["audit", "--refine", "-1"], "--refine"),
    (["verify-inequalities", "--seed", "-1"], "--seed"),  # random.Random takes |seed|
    # a tolerance of nan failed every run and inf passed every run; the
    # entropy growth threshold is now a constant, so the flag itself is refused
    (["simulate", "--tol", "nan"], "--tol"),
    (["simulate", "--tol", "inf"], "--tol"),
    (["audit", "--refine", "1"], "--refine"),  # compared the coarse level with itself
])
def test_cli_rejects_a_bad_count_at_parse_time(argv, flag, capsys):
    # refused by the parser, before any run: exit 2 and one error line
    # (after argparse's usage line) that names the flag
    assert flag in refused_by_the_parser(argv, capsys)


@pytest.mark.parametrize("argv", [
    ["sweep", "amplitude", "0.01", "--tol", "1e-8"],
    ["audit", "--tol", "0.01"],
    ["verify-inequalities", "--poincare-trials", "200"],
    ["simulate", "--checkpoint", os.devnull],
    ["verify-inequalities", "--fast"],
], ids=["sweep-tol", "audit-tol", "verify-inequalities-poincare-trials",
        "simulate-checkpoint", "verify-inequalities-fast"])
def test_cli_refuses_a_retired_flag(argv, capsys):
    # the entropy growth and audit mismatch thresholds and the polynomial
    # count are constants of the CLI; the flags that set them are unknown.
    # The restart file had no reader, and its flag is gone too.  Each
    # certificate has one resolution, the library's default
    error = refused_by_the_parser(argv, capsys)
    flag = next(arg for arg in argv if arg.startswith("--"))
    assert "unrecognized arguments" in error and flag in error


@pytest.mark.parametrize("argv", [
    ["profile", "--out"],
    ["simulate", "--trace"],
    ["simulate", "--summary"],
    ["sweep", "amplitude", "0.01", "--out"],
], ids=["profile-out", "simulate-trace", "simulate-summary", "sweep-out"])
def test_cli_refuses_an_unwritable_output_path_at_parse_time(argv, tmp_path, capsys):
    # a path in a directory that does not exist, or one that names a
    # directory, is refused before any set-up, not after the whole run with
    # a traceback
    for path in (str(tmp_path / "missing" / "out"), str(tmp_path), "new" + os.sep, ""):
        assert argv[-1] in refused_by_the_parser(argv + [path], capsys)

