"""Drive every catalog fixture end to end and print verdicts plus reports.

Usage: python3 scripts/run_fixtures.py [--json] [name ...]

With no names, runs every fixture that carries a normal 1-type.  Builds each
fixture, runs the decision procedure with whatever cover, section, and lift
data the fixture ships, then prints the second-page diagnostic.  With --json
the verdicts are emitted as one JSON object per fixture instead.
"""

import argparse
import json
import sys
import time

from stexo.catalog import REGISTRY, get_fixture
from stexo.james import d2_maps, e2_page, killers_report
from stexo.obstruction import decide


def run_one(name: str, as_json: bool) -> dict:
    t0 = time.perf_counter()
    fx = get_fixture(name)
    if fx.nt is None:
        print(f"== {name}: stress model only, no decision to run")
        return {}
    verdict = decide(
        fx.nt, cover=fx.cover, section=fx.section, extra_lift_data=fx.lift_data
    )
    page = e2_page(fx.nt, fx.cover)
    diffs = d2_maps(fx.nt, page)
    killers = killers_report(fx.nt, page, diffs, verdict)
    elapsed = time.perf_counter() - t0
    if as_json:
        print(json.dumps({"fixture": name, "verdict": verdict.to_json_dict()},
                         sort_keys=True))
        return verdict.to_json_dict()
    print(f"== {name} ({elapsed:.2f}s)")
    print(f"   {verdict.outcome} (clause {verdict.clause}): {verdict.explanation}")
    for caveat in verdict.caveats:
        print(f"   caveat: {caveat}")
    for line in killers.lines:
        print(f"   | {line}")
    print()
    return verdict.to_json_dict()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("names", nargs="*", help="fixture names (default: all)")
    ap.add_argument("--json", action="store_true")
    args = ap.parse_args()
    names = args.names or [n for n in REGISTRY if get_fixture(n).nt is not None]
    for name in names:
        run_one(name, args.json)
    return 0


if __name__ == "__main__":
    sys.exit(main())
