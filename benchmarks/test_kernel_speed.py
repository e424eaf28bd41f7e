"""Kernel speedups: vectorized CART/KNN, random forests, table
fingerprints and cell diffs vs the frozen per-cell references, plus the
warm artifact cache against a cold end-to-end run.

Eleven measurements, all against honest workloads:

- **tree fit+predict**: both builders train on the one-hot-heavy matrix
  produced by actually encoding a generated benchmark dataset (the
  matrices REIN's model zoo really sees), at the repo-default tree
  configuration.  The property suite proves the two builders produce
  *identical* trees, so this is a pure like-for-like kernel comparison.
  Bar: >= 3x.
- **forest fit**: the MISS-Mix regressor (15 trees, depth 10) fitted on
  every feature matrix the imputer builds while repairing Nasa at 56
  rows -- the forests the service jobs fit -- against the same forests
  grown tree by tree with the frozen reference builder (same bootstraps
  and seeds, so identical trees).  Such trees are tiny (tens of nodes,
  half of them holding one or two rows), so this times the per-node
  overhead, not the scan arithmetic.  Bar: >= 1.8x.
- **KNN distances**: the blocked Gram-matrix kernel against the naive
  (n, m, d) broadcast.  Reported, no bar -- the margin is enormous and
  asserting a huge multiple would just make the suite flaky on slow
  hosts.  A conservative floor guards against regressions.
- **table fingerprint**: the typed per-column pass against the per-cell
  JSON reference in :mod:`oracles.cache`, on a generated 600-row Adult
  table (the mixed str/float cells every cache lookup keys).  Bar:
  >= 2x, a conservative floor under the measured margin.
- **cell diff**: the typed ``Table.diff_cells`` (column views, then
  ``values_equal`` only on cells that are not the same entry) against
  the per-cell reference in :mod:`oracles.table`, clean vs dirty Soccer
  at 5,300 rows (the diff every ``generate`` runs).  The clean table's
  views stay memoized and the dirty table's are rebuilt each round, as
  in ``generate`` (error injection built the clean views) and in repair
  scoring (the dirty views serve every repaired version).  Bar: >= 2x,
  a conservative floor under the measured margin (about 3x: Soccer's
  error rate leaves some 49,000 cells for ``values_equal``); the pass
  that rebuilds both tables' views is reported beside it.
- **dBoost**: the whole detector on Soccer at 5,300 rows, against the
  same detector with its frozen configuration search (one mixture EM
  per mixture configuration) and frozen mixture EM of
  :mod:`oracles.detectors` (``np.logaddexp.reduce`` rows, the final
  log-likelihood computed twice).  dBoost runs four times per Soccer
  detection suite: alone and inside Min-K, MaxEntropy and Meta.  Bar:
  >= 1.4x, cells identical.
- **dBoost EM reuse**: the same, with only the frozen configuration
  search patched in: one EM fit per column and component count against
  one per mixture configuration.  Bar: >= 1.4x, cells identical.
- **isolation detect**: the IF detector on the same table, against the
  two-pass original (``fit`` scores the training matrix for its
  threshold, ``predict`` scores it again; ``oracles.ml``).  Bar: >=
  1.5x, cells identical.
- **isolation 1-D scoring**: ``score_samples`` of the IF detector's
  one-feature forests on the same table (one per numerical column, 40
  trees), search against node-by-node routing.  Bar: >= 1.5x, scores
  identical.
- **cell features**: ``combined_features`` on the same table, one pass
  per distinct entry against the two separately fitted feature families
  per column (``oracles.detectors.reference_column_features``).  Bar:
  >= 1.5x, matrices identical.
- **warm cache end-to-end**: an ML detector suite (featurization-bound
  ED2) run cold then warm on the same artifact cache; the warm run reads
  one detection-unit entry.  Bar: >= 2x, and the warm run's payloads
  must be byte-identical to an uncached run's.

The combined numbers land in ``BENCH_kernels.json`` at the repo root so
they stay diffable PR over PR.
"""

import json
import math
import os
import time
from contextlib import ExitStack
from unittest import mock

import numpy as np
from conftest import bench_dataset, emit

from repro.benchmark import run_detection_suite
from repro.cache import ArtifactCache, cache_scope, table_fingerprint
from repro.dataset.encoding import TableEncoder
from repro.detectors import dboost, features
from repro.detectors.dboost import DBoostDetector
from repro.detectors.ml_detectors import ED2Detector
from repro.detectors.simple import IFDetector
from repro.ml.forest import IsolationForest, RandomForestRegressor
from repro.ml.neighbors import _pairwise_sq_distances
from repro.ml.tree import DecisionTreeClassifier
from repro.observability import write_bench_snapshot
from repro.repair.imputers import MissForestMixRepair
from repro.reporting import render_table

from oracles.cache import reference_table_fingerprint
from oracles.detectors import (
    reference_column_features,
    reference_dboost_detect_columns,
    reference_mixture_outliers,
)
from oracles.table import reference_diff_cells
from oracles.ml import (
    ReferenceDecisionTreeClassifier,
    reference_forest,
    reference_isolation_fit_predict,
    reference_isolation_score_rows,
    reference_pairwise_sq_distances,
)

#: Machine-readable perf snapshot, committed at the repo root.
BENCH_SNAPSHOT = os.path.join(
    os.path.dirname(__file__), os.pardir, "BENCH_kernels.json"
)

TREE_ROWS = 4000
FOREST_ROWS = 56
CACHE_ROWS = 2000
FINGERPRINT_ROWS = 600
DIFF_ROWS = 5300

#: Numbers accumulated across the tests in this module; the final test
#: writes them as one snapshot.
_RESULTS = {}


def _best_of(fn, reps=5):
    best = float("inf")
    for _ in range(reps):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def _encoded_features():
    dataset = bench_dataset("Beers", n_rows=TREE_ROWS)
    features = TableEncoder(max_categories=12).fit_transform(dataset.dirty)
    labels = np.random.default_rng(0).integers(0, 2, size=len(features))
    return features, labels


def test_tree_fit_predict_at_least_three_times_faster(benchmark):
    features, labels = _encoded_features()

    def vectorized():
        return DecisionTreeClassifier(seed=0).fit(features, labels).predict(
            features
        )

    def reference():
        model = ReferenceDecisionTreeClassifier(seed=0).fit(features, labels)
        return model.predict(features)

    benchmark.pedantic(vectorized, rounds=3, warmup_rounds=1)
    vec_seconds = benchmark.stats.stats.min
    ref_seconds = _best_of(reference, reps=3)
    speedup = ref_seconds / vec_seconds
    _RESULTS["tree_fit_predict_reference_seconds"] = round(ref_seconds, 4)
    _RESULTS["tree_fit_predict_vectorized_seconds"] = round(vec_seconds, 4)
    _RESULTS["tree_fit_predict_speedup"] = round(speedup, 2)
    emit(
        "kernel_tree_speed",
        render_table(
            ["builder", "fit+predict seconds", "speedup"],
            [
                ["scalar reference", round(ref_seconds, 3), 1.0],
                ["vectorized", round(vec_seconds, 3), round(speedup, 2)],
            ],
            title=(
                f"CART fit+predict, encoded Beers "
                f"({features.shape[0]} x {features.shape[1]})"
            ),
        ),
    )
    assert speedup >= 3.0, (
        f"expected >= 3x tree fit+predict speedup, got {speedup:.2f}x "
        f"(reference {ref_seconds:.3f}s, vectorized {vec_seconds:.3f}s)"
    )


def _imputer_regression_fits():
    """MISS-Mix's regressor parameters and every (features, targets)
    pair it fits while repairing Nasa's detected errors."""
    dataset = bench_dataset("Nasa", n_rows=FOREST_ROWS)
    repair = MissForestMixRepair()
    params = repair.numeric_factory().get_params()
    fits = []

    class Recording(RandomForestRegressor):
        def fit(self, features, targets):
            fits.append((features, targets))
            return super().fit(features, targets)

    repair.numeric_factory = lambda: Recording(**params)
    repair.repair(dataset.context(), dataset.error_cells)
    return params, fits


def test_forest_fit_at_least_1_8_times_faster(benchmark):
    params, fits = _imputer_regression_fits()
    assert fits, "MISS-Mix fitted no regressor"

    def vectorized():
        return [RandomForestRegressor(**params).fit(x, y) for x, y in fits]

    def reference():
        return [
            reference_forest(RandomForestRegressor(**params), x, y)
            for x, y in fits
        ]

    for ours, theirs, (x, _) in zip(vectorized(), reference(), fits):
        assert ours.predict(x).tobytes() == theirs.predict(x).tobytes()
    benchmark.pedantic(vectorized, rounds=5, warmup_rounds=1)
    vec_seconds = benchmark.stats.stats.min
    ref_seconds = _best_of(reference, reps=5)
    speedup = ref_seconds / vec_seconds
    _RESULTS["forest_fit_reference_seconds"] = round(ref_seconds, 4)
    _RESULTS["forest_fit_vectorized_seconds"] = round(vec_seconds, 4)
    _RESULTS["forest_fit_speedup"] = round(speedup, 2)
    shapes = sorted({x.shape for x, _ in fits})
    emit(
        "kernel_forest_speed",
        render_table(
            ["trees grown by", "fit seconds", "speedup"],
            [
                ["scalar reference", round(ref_seconds, 3), 1.0],
                ["flat pre-order builder", round(vec_seconds, 3),
                 round(speedup, 2)],
            ],
            title=(
                f"MISS-Mix regressor forests, Nasa n={FOREST_ROWS}: "
                f"{len(fits)} fits of {params['n_estimators']} trees "
                f"on {shapes[0]}..{shapes[-1]}"
            ),
        ),
    )
    assert speedup >= 1.8, (
        f"expected >= 1.8x forest fit speedup, got {speedup:.2f}x "
        f"(reference {ref_seconds:.3f}s, vectorized {vec_seconds:.3f}s)"
    )


def test_knn_distance_kernel_speedup(benchmark):
    rng = np.random.default_rng(1)
    queries = rng.normal(size=(600, 60))
    reference_points = rng.normal(size=(2500, 60))

    benchmark.pedantic(
        lambda: _pairwise_sq_distances(queries, reference_points),
        rounds=5,
        warmup_rounds=1,
    )
    vec_seconds = benchmark.stats.stats.min
    ref_seconds = _best_of(
        lambda: reference_pairwise_sq_distances(queries, reference_points),
        reps=3,
    )
    speedup = ref_seconds / vec_seconds
    _RESULTS["knn_distances_reference_seconds"] = round(ref_seconds, 4)
    _RESULTS["knn_distances_vectorized_seconds"] = round(vec_seconds, 4)
    _RESULTS["knn_distances_speedup"] = round(speedup, 2)
    emit(
        "kernel_knn_speed",
        render_table(
            ["kernel", "seconds", "speedup"],
            [
                ["naive broadcast", round(ref_seconds, 4), 1.0],
                ["blocked Gram", round(vec_seconds, 4), round(speedup, 2)],
            ],
            title="pairwise sq distances, 600 queries x 2500 refs x 60 dims",
        ),
    )
    # Conservative floor: the real margin is one to two orders larger.
    assert speedup >= 5.0, f"distance kernel regressed to {speedup:.2f}x"


def test_table_fingerprint_at_least_twice_as_fast(benchmark):
    table = bench_dataset("Adult", n_rows=FINGERPRINT_ROWS).dirty

    def unmemoized(fingerprint):
        # The memos would turn every repeat into a dict lookup, or into
        # hashing column views already built: time the whole pass.
        table.__dict__.pop("_fingerprint_memo", None)
        table.__dict__.pop("_column_views", None)
        return fingerprint(table)

    benchmark.pedantic(
        unmemoized, args=(table_fingerprint,), rounds=20, warmup_rounds=2
    )
    vec_seconds = benchmark.stats.stats.min
    ref_seconds = _best_of(
        lambda: unmemoized(reference_table_fingerprint), reps=20
    )
    speedup = ref_seconds / vec_seconds
    _RESULTS["table_fingerprint_reference_seconds"] = round(ref_seconds, 5)
    _RESULTS["table_fingerprint_vectorized_seconds"] = round(vec_seconds, 5)
    _RESULTS["table_fingerprint_speedup"] = round(speedup, 2)
    emit(
        "kernel_fingerprint_speed",
        render_table(
            ["fingerprint", "milliseconds", "speedup"],
            [
                ["per-cell JSON", round(ref_seconds * 1e3, 2), 1.0],
                [
                    "typed column pass",
                    round(vec_seconds * 1e3, 2),
                    round(speedup, 2),
                ],
            ],
            title=(
                f"table_fingerprint, Adult ({table.n_rows} x "
                f"{len(table.column_names)})"
            ),
        ),
    )
    assert speedup >= 2.0, (
        f"expected >= 2x table fingerprint speedup, got {speedup:.2f}x "
        f"(reference {ref_seconds * 1e3:.2f} ms, "
        f"vectorized {vec_seconds * 1e3:.2f} ms)"
    )


def test_diff_cells_at_least_twice_as_fast():
    dataset = bench_dataset("Soccer", n_rows=DIFF_ROWS)
    clean, dirty = dataset.clean, dataset.dirty
    typed = type(clean).diff_cells

    def fresh(diff, *tables):
        # Drop the column views of ``tables`` so the pass rebuilds them.
        for table in tables:
            table.__dict__.pop("_column_views", None)
        return diff(clean, dirty)

    assert fresh(typed, clean, dirty) == fresh(reference_diff_cells)
    # Alternate the variants so that all of them see the same load.
    best = {"reference": math.inf, "typed": math.inf, "cold": math.inf}
    for _ in range(5):
        for name, run in (
            ("reference", lambda: fresh(reference_diff_cells)),
            # As ``generate`` and repair scoring diff: the reference
            # table's views are memoized, the new table's are built.
            ("typed", lambda: fresh(typed, dirty)),
            ("cold", lambda: fresh(typed, clean, dirty)),
        ):
            best[name] = min(best[name], _best_of(run, reps=1))
    ref_seconds, vec_seconds = best["reference"], best["typed"]
    speedup = ref_seconds / vec_seconds
    cold_speedup = ref_seconds / best["cold"]
    _RESULTS["diff_cells_reference_seconds"] = round(ref_seconds, 4)
    _RESULTS["diff_cells_typed_seconds"] = round(vec_seconds, 4)
    _RESULTS["diff_cells_speedup"] = round(speedup, 2)
    _RESULTS["diff_cells_cold_views_seconds"] = round(best["cold"], 4)
    _RESULTS["diff_cells_cold_views_speedup"] = round(cold_speedup, 2)
    emit(
        "kernel_diff_cells_speed",
        render_table(
            ["diff", "milliseconds", "speedup"],
            [
                ["per-cell values_equal", round(ref_seconds * 1e3, 1), 1.0],
                ["typed, new table's views built", round(vec_seconds * 1e3, 1),
                 round(speedup, 2)],
                ["typed, both tables' views built",
                 round(best["cold"] * 1e3, 1), round(cold_speedup, 2)],
            ],
            title=(
                f"Table.diff_cells, Soccer clean vs dirty ({clean.n_rows} x "
                f"{len(clean.column_names)})"
            ),
        ),
    )
    assert speedup >= 2.0, (
        f"expected >= 2x diff_cells speedup, got {speedup:.2f}x "
        f"(reference {ref_seconds * 1e3:.1f} ms, "
        f"typed {vec_seconds * 1e3:.1f} ms)"
    )


def _timed_pair(name, live, reference, bar, title, reps=3):
    """Best-of-``reps`` seconds of a live kernel and its frozen oracle
    (alternating), recorded as ``<name>_*``; asserts the bar."""
    best = {"reference": math.inf, "live": math.inf}
    for _ in range(reps):
        for variant, run in (("reference", reference), ("live", live)):
            best[variant] = min(best[variant], _best_of(run, reps=1))
    speedup = best["reference"] / best["live"]
    _RESULTS[f"{name}_reference_seconds"] = round(best["reference"], 4)
    _RESULTS[f"{name}_seconds"] = round(best["live"], 4)
    _RESULTS[f"{name}_speedup"] = round(speedup, 2)
    emit(
        f"kernel_{name}_speed",
        render_table(
            ["kernel", "seconds", "speedup"],
            [
                ["frozen oracle", round(best["reference"], 3), 1.0],
                ["live", round(best["live"], 3), round(speedup, 2)],
            ],
            title=title,
        ),
    )
    assert speedup >= bar, (
        f"expected >= {bar}x {name}, got {speedup:.2f}x "
        f"(reference {best['reference']:.3f}s, live {best['live']:.3f}s)"
    )


def _detector_speedup(name, detector, reference_patches, bar):
    """Best-of-3 seconds of one detector on Soccer, live and with its
    frozen kernels patched in (alternating); asserts identical cells."""
    dataset = bench_dataset("Soccer", n_rows=DIFF_ROWS)
    context = dataset.context(seed=0)

    def live():
        return detector.detect(context).cells

    def reference():
        with ExitStack() as stack:
            for patch in reference_patches:
                stack.enter_context(mock.patch.object(*patch))
            return detector.detect(context).cells

    assert live() == reference()
    _timed_pair(
        name, live, reference, bar,
        title=f"{detector.name} detect, Soccer n={dataset.dirty.n_rows}",
    )


#: dBoost's frozen configuration search, one mixture EM per config.
_DBOOST_LOOP = (
    DBoostDetector, "_detect_columns", reference_dboost_detect_columns
)


def test_dboost_at_least_1_4_times_faster():
    _detector_speedup(
        "dboost",
        DBoostDetector(),
        [_DBOOST_LOOP, (dboost, "_mixture_outliers", reference_mixture_outliers)],
        bar=1.4,
    )


def test_dboost_em_reuse_at_least_1_4_times_faster():
    _detector_speedup(
        "dboost_em_reuse", DBoostDetector(), [_DBOOST_LOOP], bar=1.4
    )


def test_isolation_detect_at_least_1_5_times_faster():
    _detector_speedup(
        "isolation_detect",
        IFDetector(),
        [(IsolationForest, "fit_predict", reference_isolation_fit_predict)],
        bar=1.5,
    )


def test_cell_features_at_least_1_5_times_faster():
    table = bench_dataset("Soccer", n_rows=DIFF_ROWS).dirty

    def reference():
        with mock.patch.object(
            features, "_column_features", reference_column_features
        ):
            return features.combined_features(table)

    live, frozen = features.combined_features(table), reference()
    assert list(live) == list(frozen)
    assert all(
        live[name].tobytes() == frozen[name].tobytes() for name in live
    )
    _timed_pair(
        "cell_features",
        lambda: features.combined_features(table),
        reference,
        bar=1.5,
        title=f"combined_features, Soccer n={table.n_rows}",
    )


def test_isolation_1d_score_at_least_1_5_times_faster():
    dataset = bench_dataset("Soccer", n_rows=DIFF_ROWS)
    forests = []
    for column in dataset.dirty.schema.numerical_names:
        values = dataset.dirty.as_float(column)
        missing = np.isnan(values)
        if missing.all():
            continue
        values[missing] = float(np.nanmean(values))
        forest = IsolationForest(n_estimators=40, seed=0)
        forest.fit(values[:, None])
        forests.append((forest, values[:, None]))

    def live():
        return [forest.score_samples(x) for forest, x in forests]

    def reference():
        with mock.patch.object(
            IsolationForest, "_score_rows", reference_isolation_score_rows
        ):
            return live()

    assert all(
        a.tobytes() == b.tobytes() for a, b in zip(live(), reference())
    )
    _timed_pair(
        "isolation_1d_score",
        live,
        reference,
        bar=1.5,
        title=(
            f"IF scoring, {len(forests)} one-feature forests of 40 trees, "
            f"Soccer n={dataset.dirty.n_rows}"
        ),
    )


def _detection_payloads(runs) -> str:
    stripped = []
    for run in runs:
        payload = run.to_payload()
        payload["runtime_seconds"] = None  # wall clock differs by design
        stripped.append(payload)
    return json.dumps(stripped, sort_keys=True)


def test_warm_cache_end_to_end_at_least_twice_as_fast(tmp_path):
    dataset = bench_dataset("Beers", n_rows=CACHE_ROWS)
    cache = ArtifactCache(str(tmp_path / "artifacts"))

    def suite():
        detectors = [ED2Detector(labels_per_column=12, batch_size=4)]
        return run_detection_suite(dataset, detectors)

    uncached_runs = suite()

    def cached_suite():
        with cache_scope(cache):
            return suite()

    started = time.perf_counter()
    cold_runs = cached_suite()
    cold_seconds = time.perf_counter() - started
    warm_seconds = _best_of(cached_suite, reps=3)
    warm_runs = cached_suite()

    assert _detection_payloads(cold_runs) == _detection_payloads(
        uncached_runs
    )
    assert _detection_payloads(warm_runs) == _detection_payloads(
        uncached_runs
    )
    stats = cache.stats()
    assert stats["hits"] > 0 and stats["puts"] > 0

    speedup = cold_seconds / warm_seconds
    _RESULTS["cache_cold_seconds"] = round(cold_seconds, 4)
    _RESULTS["cache_warm_seconds"] = round(warm_seconds, 4)
    _RESULTS["cache_warm_speedup"] = round(speedup, 2)
    emit(
        "kernel_cache_speed",
        render_table(
            ["configuration", "wall_seconds", "speedup"],
            [
                ["cold cache", round(cold_seconds, 3), 1.0],
                ["warm cache", round(warm_seconds, 3), round(speedup, 2)],
            ],
            title=(
                f"ED2 detection suite, Beers n={CACHE_ROWS}: "
                "cold vs warm artifact cache"
            ),
        ),
    )
    assert speedup >= 2.0, (
        f"expected >= 2x warm-cache speedup, got {speedup:.2f}x "
        f"(cold {cold_seconds:.3f}s, warm {warm_seconds:.3f}s)"
    )


def test_write_kernel_snapshot():
    """Runs last (file order): persists every number measured above."""
    required = {
        "tree_fit_predict_speedup",
        "forest_fit_speedup",
        "knn_distances_speedup",
        "table_fingerprint_speedup",
        "diff_cells_speedup",
        "dboost_speedup",
        "isolation_detect_speedup",
        "cell_features_speedup",
        "dboost_em_reuse_speedup",
        "isolation_1d_score_speedup",
        "cache_warm_speedup",
    }
    missing = required - _RESULTS.keys()
    assert not missing, f"benchmarks did not record {sorted(missing)}"
    write_bench_snapshot(
        BENCH_SNAPSHOT,
        "kernel_speed",
        numbers=dict(_RESULTS),
        context={
            "tree_dataset": "Beers",
            "tree_rows": TREE_ROWS,
            "tree_config": "repo defaults (unbounded depth)",
            "forest_dataset": "Nasa",
            "forest_rows": FOREST_ROWS,
            "forest_config": "MISS-Mix regressor (15 trees, max_depth 10)",
            "knn_shape": "600x2500x60",
            "fingerprint_dataset": "Adult",
            "fingerprint_rows": FINGERPRINT_ROWS,
            "diff_dataset": "Soccer",
            "diff_rows": DIFF_ROWS,
            "detector_dataset": "Soccer",
            "detector_rows": DIFF_ROWS,
            "cache_workload": "ED2 detection suite",
            "cache_rows": CACHE_ROWS,
            "rounds": 3,
        },
    )
