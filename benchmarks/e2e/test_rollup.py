"""Rollup rules on hand-built span trees.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -o addopts="" -q``.
"""

import math

import pytest

from rollup import (
    layer_metrics,
    self_times,
    summarize,
    tail_percentile,
    unattributed_frac,
    worker_busy_frac,
)


def span(span_id, parent, name, category, start, end, worker="", **attrs):
    return {"span_id": span_id, "parent_id": parent, "name": name,
            "category": category, "start": start, "end": end,
            "worker": worker, "attrs": attrs}


def test_forest_fit_does_not_count_its_tree_fits_twice():
    spans = [
        span(1, None, "ml:fit", "ml", 0.0, 10.0, cls="RandomForest"),
        span(2, 1, "ml:fit", "ml", 1.0, 4.0, cls="Tree"),
        span(3, 1, "ml:fit", "ml", 5.0, 8.0, cls="Tree"),
        span(4, 2, "ml:predict", "ml", 2.0, 3.0),
    ]
    own = self_times(spans)
    assert own == pytest.approx({1: 4.0, 2: 2.0, 3: 3.0, 4: 1.0})
    metrics, _ = layer_metrics(spans, {}, (0.0, 10.0), [""])
    assert metrics["ml.fit_s"] == pytest.approx(9.0)
    assert metrics["ml.predict_s"] == pytest.approx(1.0)
    assert metrics["ml.fit_calls"] == 3


def test_worker_adopted_roots_do_not_shrink_the_driver_stage():
    spans = [
        span(1, None, "detection", "stage", 0.0, 10.0),
        span(2, 1, "dataplane:ship", "dataplane", 0.0, 1.0, workers=2),
        # Units adopted from two pool workers, re-parented under the stage.
        span(3, 1, "detection:MVD", "unit", 1.0, 9.0, "worker-7", stage="detection"),
        span(4, 3, "attempt-1", "attempt", 1.0, 9.0, "worker-7"),
        span(5, 4, "kernel:dboost", "kernel", 2.0, 5.0, "worker-7"),
        span(6, 1, "detection:SD", "unit", 2.0, 8.0, "worker-8", stage="detection"),
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(9.0)  # only the same-process ship span
    assert own[4] == pytest.approx(5.0)  # attempt minus its kernel
    assert worker_busy_frac(spans) == pytest.approx((8.0 + 6.0) / (2 * 10.0))
    metrics, units = layer_metrics(spans, {}, (0.0, 10.0), [""])
    assert metrics["detectors.busy_s"] == pytest.approx(0.0 + 5.0 + 6.0)
    assert metrics["detectors.kernel_s"] == pytest.approx(3.0)
    assert metrics["dataplane.ship_s"] == pytest.approx(1.0)
    assert metrics["benchmark.units"] == 2 and units["n"] == 2
    assert metrics["trace.unattributed_frac"] == pytest.approx(0.0)


def test_open_spans_are_ignored():
    spans = [
        span(1, None, "repair", "stage", 0.0, 10.0),
        span(2, 1, "repair:GT", "unit", 1.0, None, stage="repair"),
        span(3, 2, "ml:fit", "ml", 2.0, 4.0),
    ]
    own = self_times(spans)
    assert 2 not in own
    assert own[1] == pytest.approx(10.0)  # the open child subtracts nothing
    metrics, _ = layer_metrics(spans, {}, (0.0, 10.0), [""])
    assert metrics["benchmark.units"] == 0
    assert metrics["ml.fit_s"] == pytest.approx(2.0)
    assert metrics["repair.busy_s"] == 0.0


def test_kernel_and_attempt_spans_take_the_layer_of_their_unit():
    spans = [
        span(1, None, "repair:BARAN", "unit", 0.0, 6.0, stage="repair"),
        span(2, 1, "attempt-1", "attempt", 0.0, 6.0),
        span(3, 2, "kernel:baran", "kernel", 1.0, 3.0),
        span(4, None, "model:dirty:DT", "unit", 6.0, 8.0, stage="model"),
    ]
    metrics, _ = layer_metrics(spans, {}, (0.0, 10.0), [""])
    assert metrics["repair.busy_s"] == pytest.approx(6.0)
    assert metrics["detectors.kernel_s"] == 0.0
    assert metrics["trace.unattributed_frac"] == pytest.approx(0.2)


def test_children_outside_the_parent_interval_are_clipped():
    spans = [
        span(1, None, "cache:get", "cache", 0.0, 2.0),
        span(2, 1, "ml:fit", "ml", 1.0, 5.0),
    ]
    assert self_times(spans)[1] == pytest.approx(1.0)


def test_tail_percentile_keeps_ten_samples_beyond_it():
    assert tail_percentile(40) == 75
    assert tail_percentile(476) == 97
    assert tail_percentile(1000) == 99
    assert tail_percentile(20) == 50
    assert tail_percentile(19) is None
    summary = summarize([float(v) for v in range(1, 41)])
    assert summary["n"] == 40 and summary["tail_p"] == 75
    assert summary["p50"] == pytest.approx(20.5)
    assert summary["tail"] == pytest.approx(30.25)
    assert math.isnan(summarize([1.0])["tail"])


def test_unattributed_covers_every_driving_timeline():
    spans = [
        span(1, None, "job:a", "job", 0.0, 4.0, "w0"),
        span(2, None, "job:b", "job", 6.0, 9.0, "w0"),
        span(3, None, "job:c", "job", 0.0, 10.0, "w1"),
        span(4, None, "ignored", "stage", 0.0, 10.0, "elsewhere"),
    ]
    assert unattributed_frac(spans, (0.0, 10.0), ["w0", "w1"]) == pytest.approx(
        3.0 / 20.0
    )


def test_cache_ratio_comes_from_the_merged_counters():
    counters = {"cache.hits": 9, "cache.misses": 1, "cache.bytes_read": 4096}
    metrics, _ = layer_metrics([], counters, (0.0, 1.0), [""])
    assert metrics["cache.hit_ratio"] == pytest.approx(0.9)
    assert metrics["cache.bytes_read"] == 4096
    assert metrics["trace.unattributed_frac"] == pytest.approx(1.0)
