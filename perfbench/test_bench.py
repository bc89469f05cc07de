"""Smoke test of the benchmark's output contract, using its quick mode.

    python3 -m pytest perfbench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=120, check=False,
    )


@pytest.mark.parametrize(
    "workload,trace,declared",
    [("sym-n256", "0", "end_to_end"), ("pke-n256", "1", "per_layer")],
)
def test_last_line_matches_contract(workload, trace, declared):
    proc = run("--workload", workload, "--seed", "3", "--trace", trace, "--quick")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC[declared]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, metric in result["metrics"].items():
        assert set(metric) == {"value", "unit"}
        assert isinstance(metric["value"], (int, float)), name


def test_end_to_end_metrics_are_never_zero():
    proc = run("--workload", "attack-n256", "--seed", "4", "--quick")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("--workload", "sym-n256", "--seed", "1", "--quick", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_traced_run_shows_the_layer_contrasts():
    proc = run("--workload", "all", "--seed", "5", "--trace", "1", "--quick")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1])["correct"] is True
    # One coverage check per workload, then the four cross-workload contrasts.
    checks = [line for line in proc.stdout.splitlines() if "check " in line]
    assert len(checks) == 8 and all(line.endswith("PASS") for line in checks), checks
