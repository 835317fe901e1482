"""Tracer self-check.

Each workload's traced run at the default seed must reproduce the span
counts recorded when the benchmark was defined (``Workload.expected``), with
no step rejected by the positivity guard.  Run with

    python3 -m pytest perfbench/test_selfcheck.py

It takes about a minute: one traced run of each workload.
"""

import time

import pytest

from run import run_child
from tracer import Tracer
from workloads import DEFAULT_SEED, WORKLOADS


def test_self_time_is_duration_minus_children():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: time.sleep(0.01))

    def body():
        inner()
        inner()
        time.sleep(0.01)

    tracer.wrap("outer", body)()
    table = tracer.span_table()
    assert table["inner"][0] == 2 and table["outer"][0] == 1
    assert tracer.parents == [-1, 0, 0]
    assert table["outer"][2] == pytest.approx(table["outer"][1] - table["inner"][1])
    assert table["outer"][2] >= 0.01


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_counts_match_definition(name):
    workload = WORKLOADS[name]
    result = run_child(workload, DEFAULT_SEED, "run", time.monotonic() + 170.0, trace=True)
    layers = result["layers"]
    assert {k: layers[k][0] for k in workload.expected} == workload.expected
    assert layers["experiment.steps_rejected"][0] == 0
    ok, seen = workload.check(result["stdout"])
    assert ok and result["exit_code"] == 0, seen
