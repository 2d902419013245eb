"""Smoke test of the benchmark: every workload, untraced and traced, on
small inputs with every check on; the metric names and units it prints are
exactly those declared in BENCHMARK.json."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "bench" / "run.py"


def _declared():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return bench, {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }


def test_smoke_run_prints_declared_metrics():
    bench, declared = _declared()
    proc = subprocess.run([sys.executable, str(RUN), "--smoke"], cwd=ROOT,
                          capture_output=True, text=True, timeout=900)
    assert proc.returncode == 0, proc.stderr[-3000:]
    runs = json.loads(proc.stdout.strip().splitlines()[-1])["runs"]
    assert {(r["workload"], r["trace"]) for r in runs} == {
        (w["name"], t) for w in bench["workloads"] for t in (0, 1)}
    for r in runs:
        result = r["result"]
        assert result["correct"] and result["failed"] == 0, r
        assert result["attempted"] >= 1
        printed = {k: v["unit"] for k, v in result["metrics"].items()}
        assert printed == declared[r["trace"]], (r["workload"], r["trace"])
        if r["trace"] == 0:
            assert all(v["value"] > 0 for v in result["metrics"].values()), r


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "traces"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "point_queries",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
