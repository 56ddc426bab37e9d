"""Smoke tests of the benchmark itself (not collected by tier-1).

    python -m pytest perfbench -q

Every workload runs at 1/20 size with the output check on and timing
bounds off, and must emit exactly the metrics ``BENCHMARK.json`` lists,
finite and validly named.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [
            sys.executable, "perfbench/run.py",
            "--workload", workload, "--seed", "3", "--seconds", "1",
            "--trace", str(trace), "--scale", "0.05", "--setup-reps", "1",
        ],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_benchmark_json_meets_the_contract():
    assert set(BENCHMARK) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert BENCHMARK["paths"] == ["perfbench"]
    assert isinstance(BENCHMARK["run_seconds"], int) and 1 <= BENCHMARK["run_seconds"] <= 60
    assert 2 <= len(BENCHMARK["workloads"]) <= 8
    assert 1 <= len(BENCHMARK["end_to_end"]) <= 16
    assert 1 <= len(BENCHMARK["per_layer"]) <= 128
    names = WORKLOADS + [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for workload in BENCHMARK["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in BENCHMARK["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in BENCHMARK["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]) and metric["better"] in ("lower", "higher")
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])
    # 4 + 22 runs per workload, each at most ~15 s at the seed state.
    assert (4 + 22 * len(WORKLOADS)) * (BENCHMARK["run_seconds"] + 10) < 3420


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_emits_every_listed_metric(workload, trace):
    done = run(workload, trace)
    assert done.returncode == 0, done.stderr[-2000:]
    record = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(record) == {"correct", "attempted", "failed", "metrics"}
    assert record["correct"] is True
    assert record["attempted"] >= 1 and record["failed"] == 0
    section = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert set(record["metrics"]) == set(expected)
    for name, metric in record["metrics"].items():
        assert metric["unit"] == expected[name]
        assert math.isfinite(metric["value"]), name
    if not trace:
        # End-to-end metrics are never zero, on any workload.
        assert all(m["value"] > 0 for m in record["metrics"].values())
    else:
        spans = ROOT / "perfbench" / "out" / f"trace_{workload}.jsonl"
        first = json.loads(spans.read_text().splitlines()[0])
        assert set(first) == {"name", "start", "end", "parent", "chunk_id", "n"}


def test_no_result_without_the_program(tmp_path):
    """Only BENCHMARK.json and perfbench/: non-zero exit, no record."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    done = run(WORKLOADS[0], 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
