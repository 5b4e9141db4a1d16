"""Smoke test of the benchmark itself.

Runs every workload at the tiny "smoke" size, untraced and traced, and
asserts that each run passes its own checks and prints every metric
BENCHMARK.json names, with its unit.  From the root of the checkout:

    python3 -m pytest -q perfbench/test_smoke.py

It takes about a minute on two cores.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
METRIC_MAP = json.loads((ROOT / "perfbench" / "metric_map.json").read_text())


def _run(cwd: Path, *args) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_prints_every_metric(workload, trace):
    proc = _run(
        ROOT, "--workload", workload, "--seed", "1", "--seconds", "1",
        "--trace", str(trace), "--size", "smoke",
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["attempted"] >= 1
    assert result["failed"] == 0
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
        if not trace:
            assert metric["value"] > 0, name


def test_metric_map_names_every_metric():
    for key in ("end_to_end", "per_layer"):
        assert set(METRIC_MAP[key]) == {m["name"] for m in SPEC[key]}
    assert set(METRIC_MAP["workloads"]) == {w["name"] for w in SPEC["workloads"]}


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    proc = _run(tmp_path, "--workload", "mc_cells", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
