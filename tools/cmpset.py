"""Run the fixed set of shocklab commands whose outputs a change compares.

    python tools/cmpset.py OUTDIR [--src TREE/src] [--against DIR]

Each command of CASES runs in OUTDIR, in a fresh process with the package
from --src (default: this checkout's src/), and writes its files there under
relative names, so the paths it prints are the same on every tree.  OUTDIR
gets each case's stdout and stderr, every file it wrote, and exit_codes.txt.
Timings differ from run to run; once the set has run, MASKS rewrites them,
and nothing else, in every output.

With --against DIR (an OUTDIR of another tree, such as the parent commit's),
the script then reports each output as identical, or gives its first
differing line and field and the largest relative difference between the
numbers of the two files, and exits 1 if any output differs.
"""

import argparse
import os
import re
import subprocess
import sys
from pathlib import Path

STEADY_HOLD = ("--set", "steady_relax=true", "--set", "perturb_kind=none",
               "--set", "span_over_eps=20", "--set", "t_end_sigma=10")


def _simulate(name, *sets):
    return name, ("simulate", *sets, "--trace", f"{name}.trace.csv",
                  "--summary", f"{name}.summary.json")


#: (name, shocklab arguments) of every command in the set
CASES = [
    ("profile", ("profile", "--out", "profile.csv", "--with-weight")),
    _simulate("simulate-default"),
    _simulate("simulate-from-velocity", "--set", "h_mode=from-velocity"),
    _simulate("simulate-random-fourier", "--set", "perturb_kind=random-fourier"),
    _simulate("simulate-large-amplitude", "--set", "perturb_kind=large-amplitude",
              "--set", "amplitude=0.3"),
    _simulate("simulate-steady-hold", *STEADY_HOLD),
    ("audit-r2", ("audit", "--refine", "2")),
    ("audit-r3", ("audit", "--refine", "3")),
    ("verify-full", ("verify-inequalities",)),
    ("sweep", ("sweep", "amplitude", "0.005,0.01", "--out", "sweep.json")),
]

#: the only parts of an output that may differ between two runs of one tree:
#: the wall time in a summary (and in the summaries of a sweep), and the
#: runtime that verify-inequalities prints after each check
MASKS = [
    (re.compile(r'("wall_time_s": )[^,\n}]+'), r'\1"masked"'),
    (re.compile(r", \d+\.\d+ s\)$", re.M), ", masked s)"),
]

NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:e[-+]?\d+)?|\bnan\b|\binf(?:inity)?\b", re.I)


def _mask(text):
    for pattern, repl in MASKS:
        text = pattern.sub(repl, text)
    return text


def run_set(outdir, src):
    outdir.mkdir(parents=True, exist_ok=True)
    src = src.resolve()
    env = {**os.environ, "PYTHONPATH": str(src)}
    where = subprocess.run([sys.executable, "-c", "import shocklab; print(shocklab.__file__)"],
                           env=env, cwd=outdir, capture_output=True, text=True, check=True)
    if not Path(where.stdout.strip()).resolve().is_relative_to(src):
        sys.exit(f"shocklab imports from {where.stdout.strip()}, not from {src}")
    codes = []
    for name, args in CASES:
        proc = subprocess.run([sys.executable, "-m", "shocklab.cli", *args], env=env,
                              cwd=outdir, capture_output=True, text=True)
        (outdir / f"{name}.stdout").write_text(proc.stdout)
        (outdir / f"{name}.stderr").write_text(proc.stderr)
        codes.append(f"{name} {proc.returncode}\n")
        print(f"{name}: exit {proc.returncode}", flush=True)
    (outdir / "exit_codes.txt").write_text("".join(codes))
    for path in outdir.iterdir():
        path.write_text(_mask(path.read_text()))


def _difference(a, b):
    """A one-line account of how the text b differs from the text a, or None."""
    if a == b:
        return None
    la, lb = a.splitlines(), b.splitlines()
    line = next((i for i, (x, y) in enumerate(zip(la, lb)) if x != y), min(len(la), len(lb)))
    if line == min(len(la), len(lb)):
        where = f"line {line + 1}: one file ends ({len(la)} against {len(lb)} lines)"
    else:
        fa, fb = re.split(r"[,\s]+", la[line]), re.split(r"[,\s]+", lb[line])
        field = next((k for k, (x, y) in enumerate(zip(fa, fb)) if x != y),
                     min(len(fa), len(fb)))
        where = (f"line {line + 1}, field {field + 1}: "
                 f"{' '.join(fa[field:field + 1])!r} against {' '.join(fb[field:field + 1])!r}")
    worst = 0.0
    for x, y in zip(NUMBER.findall(a), NUMBER.findall(b)):
        x, y = float(x), float(y)
        if x != y and not (x != x and y != y):  # nan against nan is no difference
            scale = max(abs(x), abs(y))
            worst = max(worst, abs(x - y) / scale if scale > 0.0 else float("inf"))
    return f"{where}; largest relative difference {worst:.3g}"


def compare(outdir, against):
    """Print a report of OUTDIR against DIR; True if every output is identical."""
    names = sorted({p.name for p in outdir.iterdir()} | {p.name for p in against.iterdir()})
    same = True
    for name in names:
        a, b = against / name, outdir / name
        if not (a.is_file() and b.is_file()):
            print(f"{name}: only in {b.parent if b.is_file() else a.parent}")
            same = False
            continue
        diff = _difference(a.read_text(), b.read_text())
        print(f"{name}: {'identical' if diff is None else diff}")
        same &= diff is None
    print("cmp set:", "identical" if same else "DIFFERS")
    return same


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("outdir", type=Path)
    p.add_argument("--src", type=Path, default=Path(__file__).resolve().parents[1] / "src",
                   help="the src/ directory of the tree to run (default: this checkout's)")
    p.add_argument("--against", type=Path, help="an OUTDIR to compare the outputs with")
    args = p.parse_args(argv)
    run_set(args.outdir, args.src)
    if args.against is not None and not compare(args.outdir, args.against):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
