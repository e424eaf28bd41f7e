"""Shared fixtures for the figure/table benchmarks.

Every benchmark regenerates one table or figure of the paper at reduced
scale (the substrate is a from-scratch simulator, not the authors' 32-core
testbed).  Rendered outputs go to ``benchmarks/results/<name>.txt`` and to
stdout, so ``pytest benchmarks/ --benchmark-only`` leaves a full textual
report behind.
"""

from __future__ import annotations

import os
import sys
from typing import Dict, Tuple

import pytest

from repro.datagen import generate
from repro.datagen.benchmark_dataset import BenchmarkDataset

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

# The kernel benchmarks time the frozen scalar oracles, which are test
# code: ``tests/oracles`` imports as ``oracles``.
sys.path.append(os.path.join(os.path.dirname(__file__), os.pardir, "tests"))

#: Reduced row counts per dataset: large enough for the paper's shape
#: findings, small enough for a laptop-scale run.
BENCH_ROWS: Dict[str, int] = {
    "Beers": 400,
    "Citation": 400,
    "Adult": 500,
    "BreastCancer": 350,
    "SmartFactory": 500,
    "Nasa": 400,
    "Bikes": 400,
    "SoilMoisture": 200,
    "Printer3D": 50,
    "Mercedes": 300,
    "Water": 300,
    "HAR": 500,
    "Power": 400,
    "Soccer": 600,
}

_CACHE: Dict[Tuple[str, int, int], BenchmarkDataset] = {}


def bench_dataset(name: str, n_rows: int = None, seed: int = 0) -> BenchmarkDataset:
    """Session-cached dataset generation at benchmark scale."""
    rows = n_rows if n_rows is not None else BENCH_ROWS[name]
    key = (name, rows, seed)
    if key not in _CACHE:
        _CACHE[key] = generate(name, n_rows=rows, seed=seed)
    return _CACHE[key]


def emit(name: str, text: str) -> None:
    """Print a rendered report and persist it under benchmarks/results/."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{name}.txt")
    with open(path, "w") as fh:
        fh.write(text + "\n")
    print(f"\n=== {name} ===")
    print(text)


@pytest.fixture
def datasets():
    return bench_dataset


@pytest.fixture
def report():
    return emit
