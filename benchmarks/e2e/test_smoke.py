"""Every workload at toy size, traced run included, through the CLI.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -o addopts="" -q``
(30-50 s on two cores).
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def smoke():
    completed = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr
    lines = completed.stdout.strip().splitlines()
    printed = {}
    for line in lines[:-1]:
        if not line.startswith("#"):
            name, value, unit = line.split()
            printed[name] = (float(value), unit)
    return printed, json.loads(lines[-1])


def test_printed_metrics_match_benchmark_json_exactly(smoke):
    printed, _ = smoke
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    expected = {
        f"{w['name']}.{name}": unit
        for w in SPEC["workloads"] for name, unit in declared.items()
    }
    assert {name: unit for name, (_, unit) in printed.items()} == expected


def test_result_line_is_correct_and_per_layer(smoke):
    _, result = smoke
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == {
        f"{w['name']}.{m['name']}"
        for w in SPEC["workloads"] for m in SPEC["per_layer"]
    }


def test_end_to_end_metrics_are_never_zero(smoke):
    printed, _ = smoke
    for workload in SPEC["workloads"]:
        for metric in SPEC["end_to_end"]:
            assert printed[f"{workload['name']}.{metric['name']}"][0] > 0


def test_predicted_bypasses_read_zero(smoke):
    printed, _ = smoke
    assert printed["soccer-detect-blocked.tuning.tune_s"][0] == 0
    assert printed["soccer-detect-blocked.repair.busy_s"][0] == 0
    assert printed["beers-serial-cold.parallel.pool_starts"][0] == 0


def test_pooled_warm_run_reads_the_cache(smoke):
    printed, _ = smoke
    assert printed["adult-pooled-warm.cache.hit_ratio"][0] > 0.9
