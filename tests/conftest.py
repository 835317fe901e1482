"""Shared fixtures and the acceptance-summary reporting hook.

Session-scoped fixtures hold the objects that are expensive to build (the
reference shock profile and its weight, and the runs that more than one test
reads) so the whole suite builds each of them once.
"""

import pytest

import shocklab as sl

# One line per acceptance criterion, printed in the terminal summary so the
# pass/fail verdicts are visible even when pytest captures stdout.
ACCEPTANCE_LINES = []


def record_acceptance(line):
    ACCEPTANCE_LINES.append(line)


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.write_sep("=", "acceptance summary")
    for line in ACCEPTANCE_LINES:
        terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def gas2():
    """Reference gas: gamma = 2, v_minus = 1."""
    return sl.GasModel(2.0)


@pytest.fixture(scope="session")
def profile01(gas2):
    """Reference shock profile at strength eps = 0.1."""
    return sl.solve_profile(gas2, 0.1)


@pytest.fixture(scope="session")
def weight01(profile01):
    """Reference weight with total variation 0.5 on the eps = 0.1 profile."""
    return sl.build_weight(profile01, 0.5)


@pytest.fixture(scope="session")
def setup_default():
    """Default experiment setup (gamma = 2, eps = 0.1, lam = 0.5)."""
    return sl.build_setup(sl.ExperimentConfig())


@pytest.fixture(scope="session")
def shared_run():
    """run_experiment(build_setup(config)), run once per config for the whole
    session.  The tests that share a run only read it, and none of them has a
    monkeypatch in force: a patched run is not the run that others read."""
    runs = {}

    def run(config):
        if config not in runs:
            runs[config] = sl.run_experiment(sl.build_setup(config))
        return runs[config]

    return run
