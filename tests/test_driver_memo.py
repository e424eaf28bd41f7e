"""Tier-1 tests for memo hits resolved in the plan driver.

``execute_plan`` reads every unit's memo entry through the adapter's
``lookup`` hook before it dispatches anything, so a fully warm pipeline
on a process pool packs nothing, ships nothing and starts no pool, and
a hit is finalized exactly like a unit a worker executed: the same
store bytes, the same breaker replay and the same per-kind cache reads.
"""

import collections
import json
import sqlite3
import sys

import pytest

from repro.benchmark import runner
from repro.cache import ArtifactCache, cache_scope
from repro.cache import keys as cache_keys
from repro.datagen import generate
from repro.detectors import MVDetector, SDDetector
from repro.detectors.base import BlockwiseDetector, Detector
from repro.observability import Telemetry, telemetry_scope
from repro.parallel import ProcessPoolExecutor, null_sleep
from repro.repair import GroundTruthRepair, MeanModeImputeRepair
from repro.resilience import CircuitBreaker, SuiteCheckpoint
from repro.service.jobs import strip_timing

from chaos_doubles import FlakyDetector


class StepClock:
    """Deterministic clock: runtimes depend only on the call count."""

    def __init__(self, tick: float = 2.0 ** -10):
        self.ticks = 0
        self.tick = tick

    def __call__(self) -> float:
        self.ticks += 1
        return self.ticks * self.tick


def _dataset():
    return generate("Beers", n_rows=40, seed=1)


def _pipeline(dataset, executor=None, checkpoint=None):
    """Detect -> repair -> model, every stage on ``executor``."""
    guards = dict(
        executor=executor, checkpoint=checkpoint, sleep=null_sleep,
        clock=StepClock(),
    )
    detection = runner.run_detection_suite(
        dataset, [MVDetector(), SDDetector(3.0)], **guards
    )
    detections = {
        run.detector: set(run.result.cells)
        for run in detection if not run.failed
    }
    repaired = runner.run_repair_suite(
        dataset, detections, [GroundTruthRepair(), MeanModeImputeRepair()],
        **guards,
    )
    variants = [(dataset.dirty, "dirty")] + [
        (run.result.repaired, run.strategy)
        for run in repaired if not run.failed
    ]
    for table, name in variants:
        runner.evaluate_scenarios(
            dataset, table, name, "DT", scenario_names=("S1", "S4"),
            n_seeds=2, **guards,
        )


def _store_rows(path):
    connection = sqlite3.connect(str(path))
    try:
        return connection.execute(
            "SELECT run_id, unit, payload_json FROM checkpoints "
            "ORDER BY run_id, unit"
        ).fetchall()
    finally:
        connection.close()


def _pipeline_store(path, dataset, executor=None):
    with SuiteCheckpoint.open(str(path), "run", resume=False) as checkpoint:
        _pipeline(dataset, executor, checkpoint)
    return _store_rows(path)


@pytest.mark.parametrize("start_method", ["fork", "spawn"])
def test_warm_pooled_pipeline_starts_no_pool_and_ships_nothing(
    tmp_path, start_method
):
    dataset = _dataset()
    reference = _pipeline_store(tmp_path / "serial.sqlite", dataset)
    cache = ArtifactCache(str(tmp_path / "art"))
    with cache_scope(cache):
        cold = _pipeline_store(tmp_path / "cold.sqlite", dataset)
        telemetry = Telemetry()
        with ProcessPoolExecutor(2, start_method=start_method) as executor:
            with telemetry_scope(telemetry):
                warm = _pipeline_store(
                    tmp_path / "warm.sqlite", dataset, executor
                )
            assert executor._pool is None, "a warm plan started a pool"
    assert cold == reference
    assert warm == reference
    metrics = telemetry.metrics
    assert metrics.counter("dataplane_bytes_shipped").value == 0
    spans = telemetry.tracer.spans
    assert not [s for s in spans if s.category == "dataplane"]
    # Every unit still books its unit span, marked as a memo hit.
    units = [s for s in spans if s.category == "unit"]
    assert units and all(s.attrs["memo"] == "hit" for s in units)
    assert len(units) == len(reference)
    assert all(s.attrs["outcome"] == "ok" for s in units)
    assert {s.attrs["stage"] for s in units} == {
        "detection", "repair", "model"
    }


def test_hit_of_a_quarantined_method_is_a_quarantine_skip(tmp_path):
    """Unit 0 fails and opens the breaker of ``SD``; unit 1 (another
    ``SD``) is a memo hit, yet it yields the serial quarantine skip."""
    dataset = _dataset()

    def detectors():
        crashing = FlakyDetector(SDDetector(2.0), fail_first=None,
                                 exc=RuntimeError)
        return [crashing, SDDetector(3.0)]

    def detect(executor=None):
        return runner.run_detection_suite(
            dataset, detectors(), breaker=CircuitBreaker(1),
            sleep=null_sleep, executor=executor,
        )

    reference = detect()
    assert reference[0].failed
    assert reference[1].failure_record.quarantined
    cache = ArtifactCache(str(tmp_path / "art"))
    with cache_scope(cache):
        (stored,) = runner.run_detection_suite(
            dataset, [SDDetector(3.0)], sleep=null_sleep
        )
        assert not stored.failed
        hits = cache.hits
        serial = detect()
        assert cache.hits - hits == 1, "unit 1 was read as a hit"
        with ProcessPoolExecutor(2, start_method="fork") as executor:
            pooled = detect(executor)

    def timeless(runs):
        return [strip_timing(run.to_payload()) for run in runs]

    assert timeless(serial) == timeless(reference)
    assert timeless(pooled) == timeless(reference)


#: Per-kind ``cache.get`` calls of :func:`_counted_pipeline` (a serial
#: run), cold and then warm.  A memo key is read once per unit, by the
#: driver; a miss is never read again by the unit that computes it.
EXPECTED_GETS = {
    "cold": {
        "benchmark/detection_unit@v1": 2,
        "benchmark/repair_unit@v1": 4,
        "benchmark/scenario_unit@v2": 21,
        "encoder/supervised@v1": 13,
        "model/fit_predict@v1": 15,
    },
    "warm": {
        "benchmark/detection_unit@v1": 2,
        "benchmark/repair_unit@v1": 4,
        "benchmark/scenario_unit@v2": 21,
    },
}


def _counted_pipeline(dataset):
    _pipeline(dataset)
    runner.run_scenario(
        "S1", dataset.dirty, dataset, "KNN", seed=0, tune_trials=2
    )


def test_cache_reads_per_kind_are_unchanged_cold_and_warm(
    tmp_path, monkeypatch
):
    kinds = {}
    original_key = cache_keys.artifact_key

    def recording_key(kind, tables, config):
        key = original_key(kind, tables, config)
        kinds[key] = kind
        return key

    for name, module in list(sys.modules.items()):
        if name.startswith("repro") and module is not None:
            for attribute, value in list(vars(module).items()):
                if value is original_key:
                    monkeypatch.setattr(module, attribute, recording_key)
    gets = collections.Counter()
    original_get = ArtifactCache.get

    def counting_get(self, key):
        gets[kinds.get(key, "unknown")] += 1
        return original_get(self, key)

    monkeypatch.setattr(ArtifactCache, "get", counting_get)
    dataset = _dataset()
    observed = {}
    with cache_scope(ArtifactCache(str(tmp_path / "art"))):
        for phase in ("cold", "warm"):
            gets.clear()
            _counted_pipeline(dataset)
            observed[phase] = dict(gets)
    assert observed == EXPECTED_GETS


class TestBlockedUnitMemo:
    """A blocked unit is looked up under its original key, before it
    expands into row blocks, and its merged run is stored there."""

    @pytest.fixture
    def detect_calls(self, monkeypatch):
        calls = []
        for owner, name in [(Detector, "detect"),
                            (BlockwiseDetector, "detect_block")]:
            original = getattr(owner, name)

            def counting(*args, _name=name, _original=original, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(owner, name, counting)
        return calls

    def _detect(self, dataset, block_rows):
        runs = runner.run_detection_suite(
            dataset, [MVDetector(), SDDetector(3.0)], sleep=null_sleep,
            block_rows=block_rows,
        )
        assert not any(run.failed for run in runs)
        return json.dumps(
            [strip_timing(run.to_payload()) for run in runs], sort_keys=True
        )

    @pytest.mark.parametrize("first,second", [(37, None), (None, 37)])
    def test_entries_serve_blocked_and_unblocked_runs(
        self, tmp_path, detect_calls, first, second
    ):
        dataset = generate("SmartFactory", n_rows=120, seed=3)
        reference = self._detect(dataset, None)
        cache = ArtifactCache(str(tmp_path / "art"))
        with cache_scope(cache):
            assert self._detect(dataset, first) == reference
            assert len(cache.entries()) == 2
            detect_calls.clear()
            hits = cache.hits
            assert self._detect(dataset, second) == reference
        assert detect_calls == [], "a hit expands into no block"
        assert cache.hits - hits == 2
