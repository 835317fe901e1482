"""One shocklab run in a fresh process: the unit the benchmark times.

    python3 perfbench/child.py --workload NAME --seed N --phase setup|run [--trace]

``setup`` times ``import shocklab`` plus, on the contraction workloads,
``build_setup`` and ``initial_state`` of the workload's config.  ``run`` times
one ``shocklab.cli.main(argv)`` call with its printout captured; with
``--trace`` the tracer is installed first and the per-layer metrics and the
span table come back too.  The last stdout line is one JSON object.
"""

import argparse
import contextlib
import io
import json
import platform
import resource
import sys
import time

from workloads import WORKLOADS


def _setup(workload):
    t0 = time.perf_counter()
    import shocklab as sl
    import_s = time.perf_counter() - t0
    if workload.sets is not None:
        cfg = sl.apply_overrides(sl.ExperimentConfig(),
                                 sl.parse_config_text("\n".join(workload.sets)))
        sl.initial_state(sl.build_setup(cfg))
    return {"import_s": import_s, "setup_s": time.perf_counter() - t0}


def _run(workload, seed, trace):
    t0 = time.perf_counter()
    import shocklab.cli
    import_s = time.perf_counter() - t0
    tracer = None
    if trace:
        from layers import install_observers, layer_metrics
        from tracer import Tracer
        tracer = Tracer()
        install_observers(tracer)
        tracer.install()
    out = io.StringIO()
    t1 = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = shocklab.cli.main(workload.argv(seed))
    wall_s = time.perf_counter() - t1
    result = {
        "exit_code": code,
        "wall_s": wall_s,
        "import_s": import_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "stdout": out.getvalue(),
    }
    if tracer is not None:
        count = len(tracer)
        result["layers"] = layer_metrics(tracer, count, import_s)
        result["spans"] = tracer.span_table(count)
    return result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--phase", required=True, choices=("setup", "run"))
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)
    workload = WORKLOADS[args.workload]
    if args.phase == "setup":
        result = _setup(workload)
    else:
        result = _run(workload, args.seed, args.trace)
    import numpy
    import scipy
    result["versions"] = {"python": platform.python_version(),
                          "numpy": numpy.__version__, "scipy": scipy.__version__}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
