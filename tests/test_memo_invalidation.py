"""Tier-1 test of the cache's one invalidation rule.

Every artifact key names the digest of the ``repro`` sources
(``repro.cache.keys.source_digest``), so an edit to any source retires
every entry of every kind.  Patching that one function stands in for a
code edit: a pipeline that runs every memoized kind, re-run under the
patched digest, must miss everywhere and write the same stores.
"""

import collections
import sqlite3
import sys

from repro.benchmark import runner
from repro.cache import ArtifactCache, cache_scope
from repro.cache import keys as cache_keys
from repro.datagen import generate
from repro.detectors import (
    ED2Detector,
    MinKDetector,
    MVDetector,
    NadeefDetector,
    SDDetector,
)
from repro.parallel import null_sleep
from repro.repair import GroundTruthRepair, MissForestMixRepair
from repro.resilience import SuiteCheckpoint

#: Every kind the pipeline below reads and writes.
KINDS = {
    "benchmark/detection_unit@v1",
    "benchmark/repair_unit@v1",
    "benchmark/scenario_unit@v2",
    "detector/nested_cells@v1",
    "detector/combined_features@v1",
    "fd_violations@v1",
    "encoder/fit_transform@v1",
    "encoder/supervised@v1",
    "model/fit_predict@v1",
}


class StepClock:
    """Deterministic clock: runtimes depend only on the call count."""

    def __init__(self, tick: float = 2.0 ** -10):
        self.ticks = 0
        self.tick = tick

    def __call__(self) -> float:
        self.ticks += 1
        return self.ticks * self.tick


def _pipeline(store, dataset):
    """Detect (Min-K over nested MVD/SD, ED2, NADEEF) -> repair (GT,
    MISS-Mix) -> a DT model stage, plus one tuned ``run_scenario``;
    returns the checkpoint store's rows."""
    with SuiteCheckpoint.open(str(store), "run", resume=False) as checkpoint:
        guards = dict(
            checkpoint=checkpoint, sleep=null_sleep, clock=StepClock()
        )
        nested = [MVDetector(), SDDetector(3.0)]
        detection = runner.run_detection_suite(
            dataset,
            [MinKDetector(base_detectors=nested), ED2Detector(),
             NadeefDetector()],
            **guards,
        )
        assert not any(run.failed for run in detection)
        repaired = runner.run_repair_suite(
            dataset, {"GT": dataset.error_cells},
            [GroundTruthRepair(), MissForestMixRepair()], **guards,
        )
        (variant,) = [r for r in repaired if r.repair == "MISS-Mix"]
        runner.evaluate_scenarios(
            dataset, variant.result.repaired, variant.strategy, "DT",
            scenario_names=("S1", "S4"), n_seeds=1, **guards,
        )
        tuned = runner.run_scenario(
            "S1", dataset.dirty, dataset, "KNN", seed=0, tune_trials=2
        )
        checkpoint.put("tuned/KNN/S1/0", {"value": tuned})
    connection = sqlite3.connect(str(store))
    try:
        return connection.execute(
            "SELECT run_id, unit, payload_json FROM checkpoints "
            "ORDER BY run_id, unit"
        ).fetchall()
    finally:
        connection.close()


def test_a_source_edit_misses_every_kind(tmp_path, monkeypatch):
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
    hits, misses = collections.Counter(), collections.Counter()
    original_get = ArtifactCache.get

    def counting_get(self, key):
        entry = original_get(self, key)
        (misses if entry is None else hits)[kinds[key]] += 1
        return entry

    monkeypatch.setattr(ArtifactCache, "get", counting_get)
    dataset = generate("Beers", n_rows=40, seed=1)
    cache = ArtifactCache(str(tmp_path / "art"))
    with cache_scope(cache):
        cold = _pipeline(tmp_path / "cold.sqlite", dataset)
        assert set(misses) == KINDS
        entries = len(cache.entries())
        hits.clear()
        misses.clear()
        monkeypatch.setattr(cache_keys, "source_digest", lambda: "edited")
        edited = _pipeline(tmp_path / "edited.sqlite", dataset)
    assert hits == {}, "an entry outlived the code that computed it"
    assert set(misses) == KINDS
    assert len(cache.entries()) == 2 * entries
    assert edited == cold
