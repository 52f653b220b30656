"""Write BENCH_<number>.json: one untraced benchmark run per workload, in one file.

Usage: python3 scripts/bench_file.py NUMBER [--seed N] [--seconds S]
                                            [--workload NAME ...] [--out PATH]

For each workload of perfbench/run.py (all of them by default) it runs
`run.py --workload NAME --seed N --seconds S --trace 0` once, in a fresh
interpreter, and records:

  metrics            the end-to-end metrics of the run's last output line
                     (pass_s, setup_s, peak_rss_mb), with its correct,
                     attempted and failed counts;
  james.certified    the report entries and d2 maps the pass certified,
  uncertified        the E2 entries and d2 maps it left open, per fixture,
                     where the workload prints them (catalog-roundtrip), and
  stages             the median seconds per pass of each stage, keyed as
                     run.py prints them ("export_s", "parse_s", ...);

and, once, stexo.loc (the lines of src/stexo/*.py) and the interpreter,
numpy, platform and CPU count it ran on.  The file is written to
BENCH_<number>.json at the root of the checkout unless --out says otherwise;
the number names the change measured.

A claimed speed-up still rests on alternating parent/change pairs of
perfbench/run.py; this file records what one checkout measured, in one place.
"""

import argparse
import json
import os
import platform
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"
sys.path.insert(0, str(RUN.parent))

from run import WORKLOADS  # noqa: E402

CERTIFIED = re.compile(r"^\s+report_certified\s+(\d+)$")
UNCERTIFIED = re.compile(r"^\s+uncertified\[(\S+)\]\s+(\d+) E2, (\d+) d2$")
STAGE = re.compile(r"^\s+(\w+_s)\s+([0-9.]+) s per pass$")


def stexo_loc() -> int:
    return sum(
        len(path.read_text(encoding="utf-8").splitlines())
        for path in (ROOT / "src" / "stexo").glob("*.py")
    )


def run_workload(name: str, seed: int, seconds: float) -> dict:
    """One untraced run of a workload, as its output reports it."""
    argv = [sys.executable, str(RUN), "--workload", name, "--seed", str(seed)]
    argv += ["--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT)
    if proc.returncode:
        raise SystemExit(f"{name}: run.py exited {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    entry = json.loads(lines[-1])
    uncertified, entry["stages"] = {}, {}
    for line in lines:
        if m := CERTIFIED.match(line):
            entry["james.certified"] = int(m[1])
        elif m := UNCERTIFIED.match(line):
            uncertified[m[1]] = {"e2": int(m[2]), "d2": int(m[3])}
        elif m := STAGE.match(line):
            entry["stages"][m[1]] = float(m[2])
    if uncertified:
        entry["uncertified"] = uncertified
    return entry


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("number", type=int, help="the number in the file name")
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    ap.add_argument("--out", type=Path)
    args = ap.parse_args()
    bench = {
        "number": args.number,
        "seed": args.seed,
        "seconds": args.seconds,
        "machine": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": platform.platform(),
            "cpus": os.cpu_count(),
        },
        "stexo.loc": stexo_loc(),
        "workloads": {
            name: run_workload(name, args.seed, args.seconds)
            for name in args.workload or WORKLOADS
        },
    }
    out = args.out or ROOT / f"BENCH_{args.number}.json"
    out.write_text(json.dumps(bench, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
