"""Benchmark for the stexo package: one workload per run, on this checkout.

Usage:
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: catalog-roundtrip, small-types, group-homology (see README.md).
The package is imported from src/ of the checkout this file sits in; the run
stops with exit code 2 when that source tree is missing.

--trace 0 sets up, then runs whole passes until S seconds have passed (at
least one) and prints the end-to-end metrics: setup_s (median of three
to nine set-ups, all but one in fresh interpreters), pass_s (median seconds per
pass) and peak_rss_mb.  --trace 1 runs one untraced pass, then wraps the
package's public functions (see layertrace.py) and runs traced passes for S
seconds; it prints the per-layer metrics and writes the spans to
perfbench/traces/.  The last line of output is one JSON object.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import signal
import statistics
import subprocess
import sys
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = {
    "catalog-roundtrip": "catalog_roundtrip",
    "small-types": "small_types",
    "group-homology": "group_homology",
}
LAYERS = (
    "modelfile",
    "catalog",
    "builders",
    "simplicial",
    "gf2",
    "snf",
    "cohomology",
    "obstruction",
    "james",
)
# per-layer metric -> (span or counter name, statistic)
NAMED = {
    "simplicial.validate.self_s": ("simplicial.SimplicialModel.validate", "self"),
    "simplicial.map_validate.self_s": ("simplicial.SimplicialMap.validate", "self"),
    "simplicial.face.calls": ("simplicial.SimplicialModel.face", "count"),
    "simplicial.coboundary_matrix.self_s": ("simplicial.SimplicialModel.coboundary_matrix", "self"),
    "simplicial.cup_table.self_s": ("simplicial.SimplicialModel.cup_table", "self"),
    "simplicial.boundary_int.self_s": ("simplicial.SimplicialModel.boundary_int", "self"),
    "gf2.rank_and_echelon.self_s": ("gf2.rank_and_echelon", "self"),
    "gf2.rank_and_echelon.calls": ("gf2.rank_and_echelon", "calls"),
    "gf2.solve_affine.self_s": ("gf2.solve_affine", "self"),
    "gf2.set.calls": ("gf2.F2Matrix.set", "count"),
    "snf.smith_normal_form.self_s": ("snf.smith_normal_form", "self"),
    "snf.smith_normal_form.entries": ("snf.smith_normal_form.entries", "count"),
    "snf.mat_mul.self_s": ("snf.mat_mul", "self"),
    "cohomology.cohomology_basis.self_s": ("cohomology.cohomology_basis", "self"),
    "cohomology.cohomology_basis.hits": ("cohomology.cohomology_basis.hits", "count"),
    "cohomology.cohomology_basis.misses": ("cohomology.cohomology_basis.misses", "count"),
    "cohomology.twisted_homology.self_s": ("cohomology.twisted_homology", "self"),
    "obstruction.validate_normal_type.self_s": ("obstruction.validate_normal_type", "self"),
    "obstruction.cover_data_from_parts.self_s": ("obstruction.cover_data_from_parts", "self"),
    "obstruction.lift_data.built": ("obstruction.lift_data.built", "count"),
    "obstruction.decide.self_s": ("obstruction.decide", "self"),
    "obstruction.replay_evidence.self_s": ("obstruction.replay_evidence", "self"),
    "james.e2_page.self_s": ("james.e2_page", "self"),
    "james.d2_maps.self_s": ("james.d2_maps", "self"),
    "modelfile.canonical_bytes.self_s": ("modelfile.canonical_bytes", "self"),
    "modelfile.parse_bytes.self_s": ("modelfile.parse_bytes", "self"),
    "modelfile.bytes": ("modelfile.bytes", "count"),
    "builders.bar_b.self_s": ("builders.bar_b", "self"),
    "catalog.build.self_s": ("catalog.build", "self"),
}
LOC_MODULES = (
    "builders",
    "catalog",
    "cli",
    "cohomology",
    "gf2",
    "james",
    "modelfile",
    "obstruction",
    "simplicial",
    "snf",
)
# set-ups in fresh interpreters, besides the one in the run's process: at
# least MIN, then more while they have taken under PROBE_SECONDS, up to MAX
MIN_PROBES, MAX_PROBES, PROBE_SECONDS = 2, 8, 4.0


class Speedometer:
    """Samples the interpreter's speed while the benchmark works.

    A shared 2-core virtual machine ran the same pure-Python loop up to 1.7
    times slower for minutes at a time, whatever its guest did, so raw
    seconds of two runs minutes apart cannot be compared.  Every INTERVAL
    seconds a timer signal times a fixed loop, which calls no package code:
    small-integer arithmetic, then integer dot products over two short
    lists.  A duration measured over a window is reported scaled by the
    mean of REF / loop time over the samples in that window: seconds at
    the speed at which the loop takes REF, about the fastest that machine
    ran it.  The time spent in the loop itself is kept out of the stage
    timers.  Over 1-2 s windows the arithmetic part cut the spread of
    deep-validation and integer-homology times from about 22% to 9%, the
    dot products to 6%; over whole passes the first suited
    catalog-roundtrip better and the second the other two, so the loop
    does both.
    """

    INTERVAL = 0.05
    STEPS = 5_000
    REPS = 6
    REF = 0.00064

    def __init__(self):
        self.samples: list = []  # (start, loop seconds)
        self.spent = 0.0
        self._a = list(range(1000))
        self._b = list(range(1000, 2000))

    def _tick(self, signum, frame) -> None:
        t0 = perf_counter()
        s = 0
        for i in range(self.STEPS):
            s += i * i % 7
        for _ in range(self.REPS):
            sum(x * y for x, y in zip(self._a, self._b))
        dt = perf_counter() - t0
        self.samples.append((t0, dt))
        self.spent += dt

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL, self.INTERVAL)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self, seconds: float, t0: float, t1: float) -> float:
        """seconds, worked between t0 and t1, at reference speed."""
        inside = [dt for t, dt in self.samples if t0 <= t <= t1]
        if not inside:  # a window shorter than the interval: nearest sample
            if not self.samples:
                self._tick(None, None)
            inside = [min(self.samples, key=lambda s: abs(s[0] - t0))[1]]
        return seconds * statistics.fmean(self.REF / dt for dt in inside)


class Pass:
    """Stage timers, operation counts and checks of one pass."""

    def __init__(self, tracer=None, speed=None):
        self.tracer = tracer
        self.speed = speed
        self.stages: dict = defaultdict(float)
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.info: dict = {}

    @property
    def seconds(self) -> float:
        return sum(self.stages.values())

    @contextmanager
    def stage(self, name: str):
        """Timed user-facing work; a root span when traced."""
        with self.span(f"bench.{name}"):
            spent = self.speed.spent if self.speed else 0.0
            t0 = perf_counter()
            try:
                yield
            finally:
                self.stages[name] += perf_counter() - t0
                if self.speed:
                    self.stages[name] -= self.speed.spent - spent

    @contextmanager
    def span(self, name: str):
        tr = self.tracer
        if tr is None or tr.paused:
            yield
            return
        rec = tr.begin(tr.name_id(name))
        try:
            yield
        finally:
            tr.end(rec)

    @contextmanager
    def checking(self):
        """Untimed, untraced verification between stages."""
        tr = self.tracer
        was = tr.paused if tr else None
        if tr:
            tr.paused = True
        try:
            yield
        finally:
            if tr:
                tr.paused = was

    def op(self, ok: bool = True) -> None:
        self.attempted += 1
        self.failed += not ok

    def check(self, cond: bool, what: str) -> None:
        if not cond:
            self.errors.append(what)


def _load(workload: str, seed: int):
    sys.path.insert(0, str(SRC))
    mod = importlib.import_module(WORKLOADS[workload])
    return mod, mod.Workload(seed)


def _set_up(workload: str, seed: int, speed=None):
    """Import the package and set the workload up; (module, workload, seconds).

    numpy is imported before the clock starts: its import time is the same
    for every version of the package, and on a shared machine it swung by a
    third between runs minutes apart, more than the speed probe corrects.
    """
    import numpy  # noqa: F401

    spent = speed.spent if speed else 0.0
    t0 = perf_counter()
    mod, wl = _load(workload, seed)
    wl.setup()
    t1 = perf_counter()
    if speed is None:
        return mod, wl, t1 - t0
    return mod, wl, speed.scale(t1 - t0 - (speed.spent - spent), t0, t1)


def _probe(workload: str, seed: int) -> float:
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=150,
        check=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


def _run_passes(wl, seconds: float, tracer=None, speed=None) -> list:
    passes = []
    t0 = perf_counter()
    while not passes or perf_counter() - t0 < seconds:
        p = Pass(tracer, speed)
        if tracer is not None:
            tracer.paused = False
        start = perf_counter()
        wl.run_pass(p)
        p.window = (start, perf_counter())
        if tracer is not None:
            tracer.paused = True
        passes.append(p)
    return passes


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _loc() -> dict:
    out = {}
    total = 0
    for path in sorted((SRC / "stexo").glob("*.py")):
        n = len(path.read_text(encoding="utf-8").splitlines())
        total += n
        if path.stem in LOC_MODULES:
            out[f"{path.stem}.loc"] = _metric(n, "lines")
    for m in LOC_MODULES:
        out.setdefault(f"{m}.loc", _metric(0, "lines"))
    out["stexo.loc"] = _metric(total, "lines")
    return out


def _print_stages(mod, passes: list) -> None:
    for stage in mod.STAGES:
        vals = [p.stages.get(stage, 0.0) for p in passes]
        print(f"  {stage + '_s':<18} {statistics.median(vals):10.4f} s per pass")
    for key, value in passes[0].info.items():
        shown = f"{value:10.4f} s" if isinstance(value, float) else f"{value:>10}"
        print(f"  {key:<18} {shown}")


def run_untraced(args) -> tuple:
    speed = Speedometer()
    speed.start()
    try:
        mod, wl, first = _set_up(args.workload, args.seed, speed)
        speed.stop()
        probes = []
        t0 = perf_counter()
        while len(probes) < MIN_PROBES or (
            len(probes) < MAX_PROBES and perf_counter() - t0 < PROBE_SECONDS
        ):
            probes.append(_probe(args.workload, args.seed))
        speed.start()
        passes = _run_passes(wl, args.seconds, speed=speed)
    finally:
        speed.stop()
    setups = [first] + probes
    raw = statistics.median(p.seconds for p in passes)
    pass_s = statistics.median(speed.scale(p.seconds, *p.window) for p in passes)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"{args.workload}: {len(passes)} pass(es), {raw:.4f} s per pass on the clock,"
          f" {pass_s:.4f} s at reference speed")
    print(f"  set-ups at reference speed {[round(s, 4) for s in setups]}")
    print("  stage seconds on the clock:")
    _print_stages(mod, passes)
    if args.workload == "small-types":
        rate = passes[0].info["types"] / pass_s
        print(f"  {'types_per_s':<18} {rate:10.4f} 1/s at reference speed")
    metrics = {
        "setup_s": _metric(statistics.median(setups), "s"),
        "pass_s": _metric(pass_s, "s"),
        "peak_rss_mb": _metric(rss_mb, "MB"),
    }
    return passes, metrics


def run_traced(args) -> tuple:
    from layertrace import Tracer

    _, wl, _ = _set_up(args.workload, args.seed)
    reference = _run_passes(wl, 0)[0]
    untraced = reference.seconds
    tracer = Tracer()
    wrapped = tracer.install()
    passes = _run_passes(wl, args.seconds, tracer)
    n = len(passes)
    # the stage root spans cover each traced pass exactly
    traced = sum(e - s for _, s, e, parent in tracer.spans if parent < 0) / n
    self_s, calls = tracer.self_times()

    metrics = {}
    per_layer = defaultdict(float)
    for name, secs in self_s.items():
        per_layer[name.split(".")[0]] += secs / n
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = _metric(per_layer.pop(layer, 0.0), "s")
    metrics["bench.self_s"] = _metric(per_layer.pop("bench", 0.0), "s")
    other = sum(per_layer.values())  # cli or modules added later
    metrics["other.self_s"] = _metric(other, "s")
    for metric, (name, stat) in NAMED.items():
        if stat == "self":
            metrics[metric] = _metric(self_s.get(name, 0.0) / n, "s")
        elif stat == "calls":
            metrics[metric] = _metric(calls.get(name, 0) / n, "count")
        else:
            metrics[metric] = _metric(tracer.counts.get(name, 0) / n, "count")
    metrics["james.certified"] = _metric(passes[0].info.get("report_certified", 0), "count")
    metrics["trace.pass_s"] = _metric(traced, "s")
    metrics["trace.untraced_pass_s"] = _metric(untraced, "s")
    metrics["trace.overhead_s"] = _metric(traced - untraced, "s")
    metrics.update(_loc())

    layer_sum = sum(
        metrics[f"{k}.self_s"]["value"] for k in (*LAYERS, "bench", "other")
    )
    print(f"{args.workload}: {n} traced pass(es), {wrapped} functions wrapped,"
          f" {len(tracer.spans)} spans")
    print(f"  traced pass {traced:.4f} s, untraced {untraced:.4f} s,"
          f" overhead {traced - untraced:.4f} s")
    print(f"  layer self times + benchmark self time = {layer_sum:.6f} s")
    for layer in (*LAYERS, "bench", "other"):
        print(f"  {layer + '.self_s':<22} {metrics[layer + '.self_s']['value']:10.4f} s")
    ranked = sorted(self_s.items(), key=lambda kv: -kv[1])[:15]
    for name, secs in ranked:
        print(f"    {name:<48} {secs / n:9.4f} s self {calls[name] / n:9.0f} spans")
    for name, count in sorted(tracer.counts.items()):
        print(f"    {name:<48} {count / n:12.0f}")
    if abs(layer_sum - traced) > 1e-6 * max(traced, 1.0):
        passes[0].errors.append(f"self times sum to {layer_sum}, traced pass {traced}")
    out = HERE / "traces" / f"{args.workload}-seed{args.seed}.json"
    tracer.write(out)
    print(f"  spans written to {out.relative_to(ROOT)}")
    return [reference, *passes], metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="stexo benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "stexo" / "__init__.py").is_file():
        print(f"error: no stexo source tree at {SRC}", file=sys.stderr)
        return 2
    if args.probe_setup:
        speed = Speedometer()
        speed.start()
        try:
            seconds = _set_up(args.workload, args.seed, speed)[2]
        finally:
            speed.stop()
        print(seconds)
        return 0

    passes, metrics = (run_traced if args.trace else run_untraced)(args)
    errors = [e for p in passes for e in p.errors]
    for e in errors[:20]:
        print(f"check failed: {e}")
    result = {
        "correct": not errors,
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
