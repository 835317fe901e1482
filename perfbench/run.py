"""shocklab benchmark: time CLI workloads end to end, or trace one run per layer.

    python3 perfbench/run.py --workload audit-r2 --seed 1 --seconds 30 --trace 0

Every timed unit is a fresh child process (perfbench/child.py) running one
workload through ``shocklab.cli.main(argv)`` with BLAS/OpenMP pinned to one
thread.  Runs are closed-loop: the next child starts when the previous one
has exited, until ``--seconds`` have passed (at least one run).  Set-up is
timed in separate children, once to warm the bytecode cache and then
SETUP_REPEATS times.  A seeded workload's first run uses --seed; later runs
use seeds drawn from it.

--trace 0 reports the end-to-end metrics: medians of wall_s, setup_s and
peak_rss_mb.  --trace 1 runs the workload once untraced and once traced and
reports the per-layer metrics plus the tracing overhead.  Every run's CLI
output is checked against the acceptance tolerances; a run that misses one,
or exits non-zero, counts as failed.  ``--workload all`` runs every workload
in turn.  The last stdout line is the JSON result.
"""

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import DEFAULT_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 7
#: every child is stopped by this many seconds after the run started
RUN_DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in THREAD_VARS:
        env[var] = "1"
    return env


class ChildFailed(RuntimeError):
    pass


def run_child(workload, seed, phase, deadline, trace=False):
    """Result dict of one child; a child that crashes or overruns the deadline
    raises ChildFailed."""
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload.name,
           "--seed", str(seed), "--phase", phase]
    if trace:
        cmd.append("--trace")
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{workload.name} {phase}: timed out after {timeout:.0f} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        raise ChildFailed(f"{workload.name} {phase}: exit {proc.returncode}: {tail[0]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_commit():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def measure(workload, seed, seconds, trace):
    """Run one workload; returns (attempted, failed, metrics, report lines,
    versions)."""
    deadline = time.monotonic() + RUN_DEADLINE_S
    lines = []
    run_child(workload, seed, "setup", deadline)  # fills the bytecode cache
    setups = [run_child(workload, seed, "setup", deadline) for _ in range(SETUP_REPEATS)]
    runs, crashed = [], []
    # the first run uses the seed itself, later ones seeds drawn from it, so
    # a run of a seeded workload averages over inputs and stays reproducible
    draw = random.Random(seed)

    def attempt(run_seed, traced=False):
        try:
            result = run_child(workload, run_seed, "run", deadline, trace=traced)
            runs.append(dict(result, seed=run_seed))
        except ChildFailed as exc:
            crashed.append(str(exc))

    if trace:
        attempt(seed)
        attempt(seed, traced=True)
    else:
        t0 = time.monotonic()
        attempt(seed)
        while time.monotonic() - t0 < seconds and time.monotonic() < deadline:
            attempt(draw.randrange(2 ** 31))
    if len(runs) < (2 if trace else 1):
        raise ChildFailed("; ".join(crashed))

    failed = len(crashed)
    lines += [f"run FAILED: {msg}" for msg in crashed]
    for i, result in enumerate(runs):
        ok, seen = workload.check(result["stdout"])
        ok = ok and result["exit_code"] == 0
        failed += not ok
        lines.append(f"run {i + 1}{' traced' if trace and i else ''}: "
                     f"{'ok' if ok else 'FAILED'} seed {result['seed']} exit {result['exit_code']} "
                     f"wall_s {result['wall_s']:.4f} peak_rss_mb {result['peak_rss_mb']:.1f} "
                     f"seen {json.dumps(seen)}")

    if trace:
        traced = runs[1]
        metrics = {k: tuple(v) for k, v in traced["layers"].items()}
        metrics["trace.overhead_s"] = (traced["wall_s"] - runs[0]["wall_s"], "s")
        for name, want in sorted(workload.expected.items()):
            got = metrics[name][0]
            lines.append(f"count {name}: {got}, {want} when the benchmark was defined")
        spans = sorted(traced["spans"].items(), key=lambda kv: -kv[1][2])
        lines.append("span                                      calls   incl_s    self_s")
        lines += [f"{n:<40} {c:>7} {i:9.4f} {s:9.4f}" for n, (c, i, s) in spans]
    else:
        metrics = {
            "wall_s": (statistics.median(r["wall_s"] for r in runs), "s"),
            "setup_s": (statistics.median(s["setup_s"] for s in setups), "s"),
            "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in runs), "MB"),
        }
        lines.append(f"samples: {len(runs)} runs, {len(setups)} set-ups; "
                     f"wall_s min {min(r['wall_s'] for r in runs):.4f} "
                     f"max {max(r['wall_s'] for r in runs):.4f}")
    return len(runs) + len(crashed), failed, metrics, lines, runs[0]["versions"]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "shocklab" / "cli.py").is_file():
        print(f"error: no shocklab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    metrics = {}
    for name in names:
        try:
            n, bad, wl_metrics, lines, versions = measure(
                WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        except ChildFailed as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        attempted += n
        failed += bad
        stamp = {"workload": name, "seed": args.seed, "trace": args.trace,
                 "commit": git_commit(), "nproc": len(os.sched_getaffinity(0)),
                 "platform": platform.platform(), **versions,
                 **{var: "1" for var in THREAD_VARS}}
        print(f"[{name}] env {json.dumps(stamp)}")
        for line in lines:
            print(f"[{name}] {line}")
        for metric, (value, unit) in wl_metrics.items():
            print(f"[{name}] {metric} = {value:.6g} {unit}")
            key = metric if len(names) == 1 else f"{name}.{metric}"
            metrics[key] = {"value": value, "unit": unit}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
