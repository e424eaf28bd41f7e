"""Per-layer rollup of a traced run's spans.

Input is a flat list of span payloads (``Span.to_payload`` form): the
child's own spans, worker spans the parallel engine adopted under the
driver's stage spans, and spans read back from service worker ledger
shards.  ``worker`` names the process a span was recorded in; only spans
of the same process subtract from each other, because a worker span
adopted under a driver stage ran concurrently on another CPU.

Layers are named after the program's modules:

- program spans: ``unit``/``attempt``/``kernel`` spans belong to the stage
  of their enclosing unit (``detection`` -> detectors, ``repair`` -> repair,
  ``model`` -> benchmark, the scenario glue of ``run_scenario``);
  ``stage`` spans (the parallel engine's plan driver) -> parallel;
  ``dataplane`` -> dataplane; ``job`` -> service;
- benchmark-side spans (:mod:`spans`) carry their layer as category.

Busy times are *self* time: a span's duration minus the part of it its
same-process children cover, so a forest fit does not also count the
tree fits inside it.  Open spans (``end`` is null) are ignored entirely.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

Span = Mapping[str, Any]

#: Unit stage -> layer that owns the unit's time.
STAGE_LAYERS = {"detection": "detectors", "repair": "repair", "model": "benchmark"}

#: Span categories whose layer is fixed.
CATEGORY_LAYERS = {
    "stage": "parallel",
    "dataplane": "dataplane",
    "job": "service",
    "datagen": "datagen",
    "errors": "errors",
    "dataset": "dataset",
    "ml": "ml",
    "tuning": "tuning",
    "cache": "cache",
    "resilience": "resilience",
    "parallel": "parallel",
}

#: Minimum number of samples that must lie beyond a reported tail.
TAIL_SAMPLES = 10


def closed_spans(spans: Iterable[Span]) -> List[Span]:
    return [s for s in spans if s.get("end") is not None]


def _duration(span: Span) -> float:
    return float(span["end"]) - float(span["start"])


def _union_length(intervals: List[Tuple[float, float]]) -> float:
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans: Iterable[Span]) -> Dict[Any, float]:
    """Span id -> duration minus the union of its same-process children."""
    closed = closed_spans(spans)
    children: Dict[Any, List[Span]] = {}
    for span in closed:
        children.setdefault(span["parent_id"], []).append(span)
    result: Dict[Any, float] = {}
    for span in closed:
        start, end = float(span["start"]), float(span["end"])
        covered = [
            (max(start, float(c["start"])), min(end, float(c["end"])))
            for c in children.get(span["span_id"], [])
            if c.get("worker", "") == span.get("worker", "")
        ]
        covered = [(a, b) for a, b in covered if b > a]
        result[span["span_id"]] = max(0.0, (end - start) - _union_length(covered))
    return result


def _enclosing_unit(span: Span, by_id: Mapping[Any, Span]) -> Optional[Span]:
    current: Optional[Span] = span
    while current is not None:
        if current["category"] == "unit":
            return current
        current = by_id.get(current["parent_id"])
    return None


def layer_of(span: Span, by_id: Mapping[Any, Span]) -> Optional[str]:
    """The layer a span's self time is attributed to (None: unknown)."""
    category = span["category"]
    if category in ("unit", "attempt", "kernel"):
        unit = _enclosing_unit(span, by_id)
        if unit is None:
            return None
        return STAGE_LAYERS.get(unit.get("attrs", {}).get("stage"))
    return CATEGORY_LAYERS.get(category)


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile (``q`` in [0, 100]); NaN if empty."""
    if not values:
        return math.nan
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    weight = position - low
    return ordered[low] * (1.0 - weight) + ordered[high] * weight


def tail_percentile(n: int) -> Optional[int]:
    """Highest whole percentile, at least the median, with >= 10 samples
    beyond it; None when ``n`` is too small for any such tail."""
    for p in range(99, 49, -1):
        if n * (100 - p) / 100.0 >= TAIL_SAMPLES:
            return p
    return None


def summarize(values: Sequence[float]) -> Dict[str, Any]:
    """Median plus the tail percentile rule, with the sample count."""
    p = tail_percentile(len(values))
    return {
        "n": len(values),
        "p50": percentile(values, 50.0),
        "tail_p": p,
        "tail": percentile(values, float(p)) if p is not None else math.nan,
    }


def unattributed_frac(
    spans: Iterable[Span], window: Tuple[float, float], timelines: Sequence[str]
) -> float:
    """Share of ``window`` x ``timelines`` during which no span is open.

    ``timelines`` are the process labels that drive the run (``""`` for
    the child itself; each service worker for the service workload).
    """
    start, end = window
    length = (end - start) * len(timelines)
    if length <= 0:
        return math.nan
    closed = closed_spans(spans)
    covered = 0.0
    for label in timelines:
        intervals = [
            (max(start, float(s["start"])), min(end, float(s["end"])))
            for s in closed
            if s.get("worker", "") == label
        ]
        covered += _union_length([(a, b) for a, b in intervals if b > a])
    return 1.0 - covered / length


def worker_busy_frac(spans: Iterable[Span]) -> float:
    """Worker unit time / (workers x wall) over the pooled stages; 0 if none."""
    closed = closed_spans(spans)
    children: Dict[Any, List[Span]] = {}
    for span in closed:
        children.setdefault(span["parent_id"], []).append(span)
    busy = capacity = 0.0
    for stage in closed:
        if stage["category"] != "stage":
            continue
        kids = children.get(stage["span_id"], [])
        adopted = [
            k for k in kids
            if k["category"] == "unit" and k.get("worker", "") != stage.get("worker", "")
        ]
        ships = [k for k in kids if k["name"] == "dataplane:ship"]
        if not adopted or not ships:
            continue
        workers = max(int(s.get("attrs", {}).get("workers", 1)) for s in ships)
        busy += sum(_duration(k) for k in adopted)
        capacity += workers * _duration(stage)
    return busy / capacity if capacity > 0 else 0.0


def layer_metrics(
    spans: Sequence[Span],
    counters: Mapping[str, float],
    window: Tuple[float, float],
    timelines: Sequence[str],
) -> Tuple[Dict[str, float], Dict[str, Any]]:
    """Per-layer metrics from one traced run.

    Returns ``(metrics, unit_summary)``; the summary carries the unit
    latency sample count and the tail percentile used.
    """
    closed = closed_spans(spans)
    by_id = {s["span_id"]: s for s in closed}
    own = self_times(closed)

    def busy(predicate) -> float:
        return float(sum(own[s["span_id"]] for s in closed if predicate(s)))

    def named(name: str):
        return lambda s: s["name"] == name

    def count(name: str) -> int:
        return sum(1 for s in closed if s["name"] == name)

    layers = {s["span_id"]: layer_of(s, by_id) for s in closed}

    def in_layer(layer: str, categories=None):
        return lambda s: layers[s["span_id"]] == layer and (
            categories is None or s["category"] in categories
        )

    units = [_duration(s) for s in closed if s["category"] == "unit"]
    unit_summary = summarize(units)
    hits = float(counters.get("cache.hits", 0))
    misses = float(counters.get("cache.misses", 0))
    metrics = {
        "benchmark.units": float(len(units)),
        "benchmark.unit_p50_s": unit_summary["p50"] if units else 0.0,
        "benchmark.unit_tail_s": (
            unit_summary["tail"] if unit_summary["tail_p"] is not None
            else (max(units) if units else 0.0)
        ),
        "datagen.generate_s": busy(in_layer("datagen")),
        "errors.inject_s": busy(in_layer("errors")),
        "detectors.busy_s": busy(in_layer("detectors", ("unit", "attempt"))),
        "detectors.kernel_s": busy(in_layer("detectors", ("kernel",))),
        "repair.busy_s": busy(in_layer("repair")),
        "dataset.encode_s": busy(in_layer("dataset")),
        "dataset.encode_calls": float(count("dataset:encode")),
        "ml.fit_s": busy(named("ml:fit")),
        "ml.predict_s": busy(named("ml:predict")),
        "ml.fit_calls": float(count("ml:fit")),
        "tuning.tune_s": busy(in_layer("tuning")),
        "tuning.trials": float(sum(
            int(s.get("attrs", {}).get("n_trials", 0))
            for s in closed if s["name"] == "tuning:tune"
        )),
        "cache.get_s": busy(named("cache:get")),
        "cache.put_s": busy(named("cache:put")),
        "cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "cache.bytes_read": float(counters.get("cache.bytes_read", 0)),
        "cache.bytes_written": float(counters.get("cache.bytes_written", 0)),
        "resilience.checkpoint_s": busy(in_layer("resilience")),
        "parallel.pool_starts": float(count("parallel:pool_start")),
        "parallel.pool_start_s": busy(
            lambda s: s["name"] in ("parallel:pool_start", "parallel:pool_stop")
        ),
        "parallel.worker_busy_frac": worker_busy_frac(closed),
        "dataplane.ship_s": busy(named("dataplane:ship")),
        "dataplane.attach_s": busy(named("dataplane:attach")),
        "dataplane.bytes_shipped": float(counters.get("dataplane_bytes_shipped", 0)),
        "dataplane.bytes_shared": float(counters.get("dataplane_bytes_shared", 0)),
        "trace.unattributed_frac": unattributed_frac(closed, window, timelines),
    }
    return metrics, unit_summary
