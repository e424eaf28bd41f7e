"""Cleaning-kernel speedups: vectorized hot paths vs frozen references.

Every cleaning-stage kernel rewritten in the vectorization pass is
timed here against the scalar implementation frozen in
``tests/oracles/``, on honest workloads (generated benchmark
tables with injected errors, at 10k rows for the stages the paper
scales).  The property suite in ``tests/test_cleaning_kernels.py``
proves each pair produces *bit-identical* outputs, so these are pure
like-for-like comparisons.

Bars:

- duplicate detection (blocking + pair enumeration + pair features)
  and denial-constraint checking: >= 3x each at 10k rows;
- geometric mean across all seven kernels: >= 3x.

The numbers land in ``BENCH_cleaning.json`` at the repo root so they
stay diffable PR over PR (methodology in ``EXPERIMENTS.md``).
"""

import math
import os
import time

import numpy as np
from conftest import bench_dataset, emit

from repro.context import CleaningContext
from repro.datagen import generate
from repro.detectors.dboost import _histogram_outliers
from repro.detectors.duplicates import (
    _enumerate_block_pairs,
    build_blocks,
    column_standard_deviations,
    pair_feature_matrix,
)
from repro.detectors.katara import KnowledgeBase, katara_violations
from repro.observability import write_bench_snapshot
from repro.repair import BaranRepair, HoloCleanRepair
from repro.reporting import render_table

from oracles import reference_kernels
from oracles.constraints import (
    reference_fd_majority_repairs,
    reference_fd_violations,
)
from oracles.detectors import (
    reference_build_blocks,
    reference_enumerate_block_pairs,
    reference_histogram_outliers,
    reference_katara_violations,
    reference_pair_feature_matrix,
)

#: Machine-readable perf snapshot, committed at the repo root.
BENCH_SNAPSHOT = os.path.join(
    os.path.dirname(__file__), os.pardir, "BENCH_cleaning.json"
)

SCALE_ROWS = 10_000
REPAIR_ROWS = 8_000
MAX_PAIRS = 20_000
DC_MAX_PAIRS = 200_000

_RESULTS = {}


def _best_of(fn, reps=3):
    best = float("inf")
    for _ in range(reps):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def _record(kernel, ref_seconds, vec_seconds, workload):
    speedup = ref_seconds / vec_seconds
    _RESULTS[f"{kernel}_reference_seconds"] = round(ref_seconds, 4)
    _RESULTS[f"{kernel}_vectorized_seconds"] = round(vec_seconds, 4)
    _RESULTS[f"{kernel}_speedup"] = round(speedup, 2)
    emit(
        f"cleaning_{kernel}_speed",
        render_table(
            ["kernel", "seconds", "speedup"],
            [
                ["scalar reference", round(ref_seconds, 4), 1.0],
                ["vectorized", round(vec_seconds, 4), round(speedup, 2)],
            ],
            title=f"{kernel}: {workload}",
        ),
    )
    return speedup


def _scale_table():
    return bench_dataset("SmartFactory", n_rows=SCALE_ROWS).dirty


def test_dboost_histogram_speed(benchmark):
    table = _scale_table()
    numeric = [
        c for c in table.column_names if table.schema.kind_of(c) == "numerical"
    ]
    columns = [table.as_float(c) for c in numeric]

    def vectorized():
        for values in columns:
            _histogram_outliers(values, 0.1, 8)

    def reference():
        for values in columns:
            reference_histogram_outliers(values, 0.1, 8)

    benchmark.pedantic(vectorized, rounds=3, warmup_rounds=1)
    vec_seconds = benchmark.stats.stats.min
    ref_seconds = _best_of(reference)
    _record(
        "dboost_histogram",
        ref_seconds,
        vec_seconds,
        f"SmartFactory n={SCALE_ROWS}, {len(columns)} numeric columns",
    )


def test_duplicate_detection_speed_at_least_three_times(benchmark):
    table = _scale_table()
    stds = column_standard_deviations(table)

    def vectorized():
        pairs = _enumerate_block_pairs(build_blocks(table), MAX_PAIRS)
        return pair_feature_matrix(table, pairs, stds)

    def reference():
        pairs = reference_enumerate_block_pairs(
            reference_build_blocks(table), MAX_PAIRS
        )
        return reference_pair_feature_matrix(table, pairs, stds)

    benchmark.pedantic(vectorized, rounds=3, warmup_rounds=1)
    vec_seconds = benchmark.stats.stats.min
    ref_seconds = _best_of(reference, reps=2)
    speedup = _record(
        "duplicates",
        ref_seconds,
        vec_seconds,
        f"SmartFactory n={SCALE_ROWS}, blocking + {MAX_PAIRS} pair features",
    )
    assert speedup >= 3.0, (
        f"duplicate detection regressed to {speedup:.2f}x "
        f"(reference {ref_seconds:.3f}s, vectorized {vec_seconds:.3f}s)"
    )


def test_dc_checking_speed_at_least_three_times(benchmark):
    dataset = bench_dataset("Soccer", n_rows=SCALE_ROWS)
    table = dataset.dirty
    dc = dataset.fds[0].to_denial_constraint()

    def vectorized():
        return dc.violations(table, max_pairs=DC_MAX_PAIRS)

    def reference():
        with reference_kernels():
            return dc.violations(table, max_pairs=DC_MAX_PAIRS)

    benchmark.pedantic(vectorized, rounds=3, warmup_rounds=1)
    vec_seconds = benchmark.stats.stats.min
    ref_seconds = _best_of(reference, reps=2)
    speedup = _record(
        "dc_checking",
        ref_seconds,
        vec_seconds,
        f"Soccer n={SCALE_ROWS}, binary DC ({dc.name}), "
        f"max_pairs={DC_MAX_PAIRS}",
    )
    assert speedup >= 3.0, (
        f"DC checking regressed to {speedup:.2f}x "
        f"(reference {ref_seconds:.3f}s, vectorized {vec_seconds:.3f}s)"
    )


def test_fd_checking_speed(benchmark):
    dataset = bench_dataset("Soccer", n_rows=SCALE_ROWS)
    table = dataset.dirty
    fd = dataset.fds[0]

    def vectorized():
        fd.violations(table)
        fd.majority_repairs(table)

    def reference():
        reference_fd_violations(fd, table)
        reference_fd_majority_repairs(fd, table)

    benchmark.pedantic(vectorized, rounds=3, warmup_rounds=1)
    vec_seconds = benchmark.stats.stats.min
    ref_seconds = _best_of(reference)
    _record(
        "fd_checking",
        ref_seconds,
        vec_seconds,
        f"Soccer n={SCALE_ROWS}, violations + majority repairs",
    )


def _katara_setup():
    dataset = bench_dataset("Soccer", n_rows=SCALE_ROWS)
    categorical = [
        c
        for c in dataset.clean.column_names
        if dataset.clean.schema.kind_of(c) == "categorical"
    ][:2]
    kb = KnowledgeBase()
    alignment = {}
    for idx, column in enumerate(categorical):
        domain = {
            v
            for v in (
                KnowledgeBase.normalize(x)
                for x in dataset.clean.column(column)
            )
            if v is not None
        }
        kb.add_domain(f"concept{idx}", domain)
        alignment[column] = f"concept{idx}"
    if len(categorical) == 2:
        pairs = {
            (
                KnowledgeBase.normalize(dataset.clean.get_cell(i, categorical[0])),
                KnowledgeBase.normalize(dataset.clean.get_cell(i, categorical[1])),
            )
            for i in range(dataset.clean.n_rows)
        }
        kb.add_relation(
            "concept0",
            "concept1",
            {(a, b) for a, b in pairs if a is not None and b is not None},
        )
    return kb, dataset.dirty, alignment


def test_katara_speed(benchmark):
    kb, table, alignment = _katara_setup()

    benchmark.pedantic(
        lambda: katara_violations(kb, table, alignment),
        rounds=3,
        warmup_rounds=1,
    )
    vec_seconds = benchmark.stats.stats.min
    ref_seconds = _best_of(
        lambda: reference_katara_violations(kb, table, alignment)
    )
    _record(
        "katara",
        ref_seconds,
        vec_seconds,
        f"Soccer n={SCALE_ROWS}, domain + relation checks",
    )


def _repair_case():
    dataset = generate("Beers", n_rows=REPAIR_ROWS, seed=1)
    rng = np.random.default_rng(0)
    columns = list(dataset.dirty.column_names)
    detections = {
        (int(rng.integers(REPAIR_ROWS)), columns[int(rng.integers(len(columns)))])
        for _ in range(1_500)
    }
    return dataset, detections


def test_baran_scoring_speed(benchmark):
    dataset, detections = _repair_case()

    def vectorized():
        return BaranRepair(label_budget=10)._repair(
            dataset.context(seed=0), set(detections)
        )

    def reference():
        with reference_kernels():
            return BaranRepair(label_budget=10)._repair(
                dataset.context(seed=0), set(detections)
            )

    benchmark.pedantic(vectorized, rounds=3, warmup_rounds=1)
    vec_seconds = benchmark.stats.stats.min
    ref_seconds = _best_of(reference, reps=2)
    _record(
        "baran",
        ref_seconds,
        vec_seconds,
        f"Beers n={REPAIR_ROWS}, {len(detections)} detected cells",
    )


def test_holoclean_scoring_speed(benchmark):
    dataset, detections = _repair_case()

    def vectorized():
        return HoloCleanRepair()._repair(
            dataset.context(seed=0), set(detections)
        )

    def reference():
        with reference_kernels():
            return HoloCleanRepair()._repair(
                dataset.context(seed=0), set(detections)
            )

    benchmark.pedantic(vectorized, rounds=3, warmup_rounds=1)
    vec_seconds = benchmark.stats.stats.min
    ref_seconds = _best_of(reference, reps=2)
    _record(
        "holoclean",
        ref_seconds,
        vec_seconds,
        f"Beers n={REPAIR_ROWS}, {len(detections)} detected cells",
    )


KERNELS = (
    "dboost_histogram",
    "duplicates",
    "dc_checking",
    "fd_checking",
    "katara",
    "baran",
    "holoclean",
)


def test_write_cleaning_snapshot():
    """Runs last (file order): geometric-mean bar + persisted snapshot."""
    missing = [k for k in KERNELS if f"{k}_speedup" not in _RESULTS]
    assert not missing, f"benchmarks did not record {missing}"
    speedups = [_RESULTS[f"{k}_speedup"] for k in KERNELS]
    geomean = math.exp(sum(math.log(s) for s in speedups) / len(speedups))
    _RESULTS["geometric_mean_speedup"] = round(geomean, 2)
    emit(
        "cleaning_speed_summary",
        render_table(
            ["kernel", "speedup"],
            [[k, _RESULTS[f"{k}_speedup"]] for k in KERNELS]
            + [["geometric mean", round(geomean, 2)]],
            title="cleaning-kernel speedups, vectorized vs frozen reference",
        ),
    )
    write_bench_snapshot(
        BENCH_SNAPSHOT,
        "cleaning_speed",
        numbers=dict(_RESULTS),
        context={
            "datasets": {
                "dboost_histogram": "SmartFactory",
                "duplicates": "SmartFactory",
                "dc_checking": "Soccer",
                "fd_checking": "Soccer",
                "katara": "Soccer",
                "baran": "Beers",
                "holoclean": "Beers",
            },
            "scale_rows": SCALE_ROWS,
            "repair_rows": REPAIR_ROWS,
            "duplicate_max_pairs": MAX_PAIRS,
            "dc_max_pairs": DC_MAX_PAIRS,
            "repair_detections": 1_500,
            "rounds": 3,
            "timing": "best-of (min) wall clock",
        },
    )
    assert geomean >= 3.0, (
        f"expected >= 3x geometric-mean cleaning speedup, got {geomean:.2f}x"
    )
