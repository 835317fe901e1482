"""The three benchmark workloads: CLI arguments, output checks, expected counts.

Why these three (see README.md for the layer map):

* ``audit-r2``: the identity audit at refinements 1 and 2 -- the march-bound,
  time-to-accuracy case.  The shift moves, so the frame cache hits on only
  part of the stages.
* ``steady-hold``: the phase-aligned steady wave held for t_end_sigma = 10.
  Same march layers, but the shift stays at roundoff (cache hits ~always),
  Newton phase alignment runs in set-up and records are a large share.
* ``certify-full``: the scalar inequality certifications at full resolution,
  dominated by the R_delta multistart optimizer; no march layer runs, so it
  is the bypass case for every march optimisation and the reverse.

The checks hold each run to the acceptance numbers at the test suite's
tolerances, read from what the CLI prints.
"""

import re
from dataclasses import dataclass, field

FLOAT = r"([-+0-9.eE]+|nan|inf)"

#: shocklab.cli's default --seed for verify-inequalities
DEFAULT_SEED = 20240817


def _find(pattern, text):
    m = re.search(pattern, text)
    return [float(g) for g in m.groups()] if m else None


def check_audit(stdout):
    coarse = _find(rf"coarse: max rel mismatch {FLOAT}", stdout)
    fine = _find(rf"fine:\s+max rel mismatch {FLOAT}", stdout)
    ratio = _find(rf"refinement ratio: max {FLOAT}", stdout)
    if not (coarse and fine and ratio):
        return False, {}
    seen = {"audit_err_coarse": coarse[0], "audit_err_fine": fine[0],
            "audit_ratio": ratio[0]}
    ok = seen["audit_err_coarse"] <= 0.01 and 2.5 < seen["audit_ratio"] < 6.0
    return ok, seen


def check_steady(stdout):
    entropy = _find(rf"entropy: initial {FLOAT} -> final {FLOAT}", stdout)
    shift = _find(rf"max \|X\|: {FLOAT}\s+shift-bound ratio: {FLOAT}", stdout)
    if not (entropy and shift):
        return False, {}
    seen = {"entropy_ratio": entropy[1] / entropy[0], "max_abs_X": shift[0],
            "shift_bound_ratio": shift[1]}
    ok = (entropy[1] <= entropy[0] and seen["max_abs_X"] <= 1e-8
          and seen["shift_bound_ratio"] <= 1.0 + 1e-12)
    return ok, seen


def check_certify(stdout):
    r_max = _find(rf"max found = {FLOAT}", stdout)
    passes = stdout.count("[PASS]")
    if not r_max:
        return False, {}
    seen = {"r_delta_max": r_max[0], "checks_passed": passes}
    ok = seen["r_delta_max"] <= 1e-8 and passes == 5 and "[FAIL]" not in stdout
    return ok, seen


@dataclass(frozen=True)
class Workload:
    name: str
    command: tuple
    check: object
    #: --set overrides of the run, or None when set-up is the import alone
    sets: tuple = None
    seeded: bool = False
    #: span counts of the traced run at the commit that defined the benchmark,
    #: for the default seed; a change that moves one shows here as a count
    expected: dict = field(default_factory=dict)

    def argv(self, seed):
        out = list(self.command)
        for item in self.sets or ():
            out += ["--set", item]
        if self.seeded:
            out += ["--seed", str(seed)]
        return out


WORKLOADS = {w.name: w for w in (
    Workload(
        name="audit-r2",
        command=("audit", "--refine", "2"),
        check=check_audit,
        sets=(),
        expected={"experiment.steps": 2000, "experiment.steps_rejected": 0,
                  "functionals.quick_yb_calls": 8000,
                  "functionals.breakdown_calls": 602,
                  "weight.frame_calls": 5004},
    ),
    Workload(
        name="steady-hold",
        command=("simulate",),
        check=check_steady,
        sets=("steady_relax=true", "perturb_kind=none", "span_over_eps=20",
              "t_end_sigma=10"),
        expected={"experiment.steps": 2000, "experiment.steps_rejected": 0,
                  "experiment.records": 1001},
    ),
    Workload(
        name="certify-full",
        command=("verify-inequalities",),
        check=check_certify,
        seeded=True,
        expected={"inequalities.r_delta_nfev": 187593,
                  "inequalities.minimize_calls": 201},
    ),
)}
