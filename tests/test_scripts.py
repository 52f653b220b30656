"""The scripts under scripts/ run end to end against the package in src/."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run(script: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=ROOT,
        timeout=300,
    )


def test_run_fixtures_script():
    out = _run("run_fixtures.py", "rp-kreck", "z2-secondary")
    assert out.returncode == 0, out.stderr
    assert "== rp-kreck" in out.stdout and "== z2-secondary" in out.stdout


def test_output_digest_script():
    out = _run("output_digest.py", "rp-kreck")
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert lines
    for line in lines:
        assert re.fullmatch(r"rp-kreck \S+ [0-9a-f]{64}", line), line
    items = {line.split()[1] for line in lines}
    assert {item.split(".")[0] for item in items} == {"user", "canon", "path"}
    membership = {f"canon.{part}.membership.{k}" for part in ("base", "cover") for k in range(1, 5)}
    spans = {"path.transform", "canon.relations", "canon.combination", "canon.induced"}
    assert membership | spans <= items
    # whitespace between tokens does not change what a file parses to
    hashes = dict(line.split()[1:] for line in lines)
    for part in ("base", "cover"):
        assert hashes[f"user.{part}.parsed.spaced"] == hashes[f"user.{part}.parsed"]


def test_output_digest_homology_lines():
    out = _run("output_digest.py", "bar-models")
    assert out.returncode == 0, out.stderr
    hashes = dict(line.split()[1:] for line in out.stdout.splitlines())
    want = [f"z4.{n}" for n in range(1, 6)] + [f"z2xz2.{n}" for n in range(1, 6)]
    want += [f"z4-twisted.{n}" for n in range(6)]
    assert list(hashes) == [f"user.homology.{item}" for item in want]
    # H_n(Z/4; Z) is Z/4 in every odd degree and H_n(Z/4; Z-) Z/2 in every
    # even one, as twisted H_0 equals H_2(Z/2xZ/2; Z) = Z/2
    assert hashes["user.homology.z4.1"] == hashes["user.homology.z4.5"]
    assert hashes["user.homology.z4-twisted.0"] == hashes["user.homology.z2xz2.2"]
    assert hashes["user.homology.z4-twisted.1"] == hashes["user.homology.z4.2"]


def test_bench_file_script(tmp_path):
    out = tmp_path / "BENCH_0.json"
    args = ["0", "--workload", "group-homology", "--seconds", "0.05", "--out", str(out)]
    proc = _run("bench_file.py", *args)
    assert proc.returncode == 0, proc.stderr
    bench = json.loads(out.read_text())
    assert bench["number"] == 0 and bench["stexo.loc"] > 0
    modules = bench["stexo.loc.modules"]
    assert {"simplicial", "builders"} <= set(modules)
    assert sum(modules.values()) == bench["stexo.loc"]
    assert list(bench["workloads"]) == ["group-homology"]
    entry = bench["workloads"]["group-homology"]
    assert entry["correct"] and entry["failed"] == 0 and entry["attempted"] > 0
    assert set(entry["metrics"]) == {"pass_s", "setup_s", "peak_rss_mb"}
    # the median stage seconds run.py prints; group-homology has one stage
    assert list(entry["stages"]) == ["homology_s"]
    assert entry["stages"]["homology_s"] > 0
