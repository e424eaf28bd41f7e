"""Tier-2 chaos suite for the artifact cache (``pytest -m chaos``).

The cache's acceptance properties under fault injection:

- a process killed *mid cache-write* (between the temporary-file write
  and the atomic publish) leaves the cache consistent -- no torn entry
  is ever visible, only ignorable ``*.tmp`` debris -- and the resumed
  run converges to byte-identical results;
- a cached run's checkpoint store is byte-identical to an uncached
  serial run's, for any worker count, cold or warm cache -- including a
  detect -> repair -> model pipeline whose detection, repair and
  scenario units and model fits are memoized (two detectors, MISS-Mix
  repairs, S1-S5 and a tuned scenario run), also after its unit entries
  are torn;
- a torn scenario-unit entry (or every entry) falls back to a recompute
  with a bit-identical score and rewrites the entry;
- the ensembles' nested base-detector entries: stores (timing stripped)
  are identical uncached, cold, warm and with torn nested entries, and a
  run killed while publishing one resumes to the same store.

Kills are injected at the cache's ``_finalize`` boundary (the exact
window a real worker death would hit between write and publish),
mirroring the established chaos idiom of simulating kills at precise
single-writer boundaries rather than inside pool workers.
"""

import json
import zlib

import numpy as np
import pytest

from repro.benchmark import (
    evaluate_scenarios,
    run_detection_suite,
    run_repair_suite,
    run_scenario,
)
from repro.cache import ArtifactCache, cache_scope
from repro.datagen import generate
from repro.detectors import (
    MaxEntropyDetector,
    MetadataDrivenDetector,
    MinKDetector,
    MVDetector,
    SDDetector,
)
from repro.ml.tree import DecisionTreeClassifier
from repro.parallel import ProcessPoolExecutor, null_sleep
from repro.repair import MissForestMixRepair
from repro.resilience import SuiteCheckpoint
from repro.service.jobs import strip_timing

pytestmark = pytest.mark.chaos


class StepClock:
    """Deterministic clock (see test_chaos.StepClock)."""

    def __init__(self, tick: float = 2.0 ** -10):
        self.ticks = 0
        self.tick = tick

    def __call__(self) -> float:
        self.ticks += 1
        return self.ticks * self.tick



class KillingCache(ArtifactCache):
    """Dies mid cache-write: the ``kill_on``-th publish attempt raises
    KeyboardInterrupt *before* the atomic rename, leaving the temporary
    file as debris -- exactly what a worker killed between write and
    publish leaves behind."""

    def __init__(self, root, kill_on=1):
        super().__init__(root)
        self.kill_on = kill_on
        self.finalizes = 0

    def _finalize(self, tmp, final):
        self.finalizes += 1
        if self.finalizes >= self.kill_on:
            raise KeyboardInterrupt
        super()._finalize(tmp, final)


def _dataset():
    return generate("SmartFactory", n_rows=120, seed=3)


def _evaluate(store_path, cache, executor=None, resume=False):
    dataset = _dataset()
    with SuiteCheckpoint.open(store_path, "run", resume=resume) as ckpt:
        with cache_scope(cache):
            evaluation = evaluate_scenarios(
                dataset, dataset.dirty, "dirty", "DT",
                scenario_names=("S1", "S4"), n_seeds=2, sample_rows=60,
                checkpoint=ckpt, clock=StepClock(), sleep=null_sleep,
                executor=executor,
            )
    return evaluation


def _pipeline(store_path, cache, executor=None):
    """Detect -> repair -> model: two detectors, MISS-Mix on their
    detections and on the ground truth's, S1-S5 on the ground-truth
    repair and one tuned scenario run -- every memoized unit kind and
    every site whose model fit -> predict the cache memoizes."""
    dataset = generate("Beers", n_rows=60, seed=4)
    with SuiteCheckpoint.open(store_path, "run", resume=False) as ckpt:
        with cache_scope(cache):
            detections = run_detection_suite(
                dataset, [MVDetector(), SDDetector()],
                checkpoint=ckpt, clock=StepClock(), sleep=null_sleep,
                executor=executor,
            )
            detected = {run.detector: run.result.cells for run in detections}
            repairs = run_repair_suite(
                dataset, {"GT": dataset.error_cells, **detected},
                [MissForestMixRepair()],
                checkpoint=ckpt, clock=StepClock(), sleep=null_sleep,
                executor=executor,
            )
            (repair,) = [run for run in repairs if run.detector == "GT"]
            variant = repair.result.repaired
            evaluate_scenarios(
                dataset, variant, repair.strategy, "DT",
                scenario_names=("S1", "S2", "S3", "S4", "S5"), n_seeds=2,
                checkpoint=ckpt, clock=StepClock(), sleep=null_sleep,
                executor=executor,
            )
            tuned = run_scenario(
                "S1", variant, dataset, "DT", seed=0, tune_trials=3
            )
            ckpt.put("tuned/DT/S1/0", {"value": tuned})


def _payloads(cache):
    """Each unit entry's key and decoded checkpoint payload, read
    through a second handle so ``cache``'s counters stay put."""
    reader = ArtifactCache(cache.root)
    for key in cache.entries():
        arrays = reader.get(key).arrays
        if set(arrays) == {"payload"}:
            text = zlib.decompress(arrays["payload"].tobytes()).decode()
            yield key, json.loads(text)


def _unit_entries(cache):
    """Keys of the scenario-unit entries (a ``ScenarioRun`` payload)."""
    return [key for key, payload in _payloads(cache) if "value" in payload]


def _memo_entries(cache):
    """Keys of the detection and repair unit entries."""
    return [key for key, payload in _payloads(cache) if "value" not in payload]


def _tear(cache, key):
    """Truncate one finalized entry, as a torn disk write would."""
    path = cache._path(key)
    path.write_bytes(path.read_bytes()[:64])


def _evaluation_canonical(evaluation) -> bytes:
    payload = {
        "scores": evaluation.scores,
        "failures": {
            name: {
                str(seed): record.to_payload()
                for seed, record in seeds.items()
            }
            for name, seeds in evaluation.failures.items()
        },
    }
    return json.dumps(payload, sort_keys=True).encode()


def _store_canonical(store_path) -> bytes:
    """Every completed unit's payload, in canonical key order."""
    with SuiteCheckpoint.open(store_path, "run", resume=True) as ckpt:
        units = sorted(ckpt.completed_units())
        payload = {unit: ckpt.get(unit) for unit in units}
    return json.dumps(payload, sort_keys=True).encode()


class TestKillMidCacheWrite:
    def test_kill_leaves_cache_consistent_and_resume_matches(self, tmp_path):
        # Reference: uncached serial run.
        ref_store = str(tmp_path / "ref.sqlite")
        reference = _evaluate(ref_store, cache=None)

        # Killed run: the first cache publish dies mid-write.
        root = str(tmp_path / "art")
        killed_store = str(tmp_path / "killed.sqlite")
        dying = KillingCache(root, kill_on=1)
        with pytest.raises(KeyboardInterrupt):
            _evaluate(killed_store, cache=dying)

        # Consistency: no finalized entry was published, the torn write
        # is visible only as *.tmp debris, and reads stay clean misses.
        wreck = ArtifactCache(root)
        assert wreck.entries() == []
        assert len(wreck.debris()) == 1
        assert wreck.get("00" + "0" * 62) is None
        assert wreck.stats()["corrupt"] == 0

        # Resume with a healthy cache on the same root and store.
        resumed = _evaluate(
            killed_store, cache=ArtifactCache(root), resume=True
        )
        assert _evaluation_canonical(resumed) == _evaluation_canonical(
            reference
        )
        assert _store_canonical(killed_store) == _store_canonical(ref_store)

        # The debris never became an entry; every finalized entry loads.
        healthy = ArtifactCache(root)
        assert healthy.sweep() == 1
        for key in healthy.entries():
            assert healthy.get(key) is not None

    def test_kill_later_in_run_still_converges(self, tmp_path):
        ref_store = str(tmp_path / "ref.sqlite")
        reference = _evaluate(ref_store, cache=None)
        root = str(tmp_path / "art")
        killed_store = str(tmp_path / "killed.sqlite")
        with pytest.raises(KeyboardInterrupt):
            _evaluate(killed_store, cache=KillingCache(root, kill_on=3))
        published = ArtifactCache(root)
        assert len(published.entries()) == 2  # the first two survived
        for key in published.entries():
            assert published.get(key) is not None
        resumed = _evaluate(
            killed_store, cache=ArtifactCache(root), resume=True
        )
        assert _evaluation_canonical(resumed) == _evaluation_canonical(
            reference
        )
        assert _store_canonical(killed_store) == _store_canonical(ref_store)


class TestCorruptScenarioUnit:
    @pytest.mark.parametrize("torn", ["unit", "all"])
    def test_corrupt_entry_recomputes_identical_score(
        self, tmp_path, monkeypatch, torn
    ):
        dataset = _dataset()
        reference = run_scenario("S1", dataset.dirty, dataset, "DT", seed=1)
        cache = ArtifactCache(str(tmp_path / "art"))
        with cache_scope(cache):
            assert run_scenario(
                "S1", dataset.dirty, dataset, "DT", seed=1
            ) == reference
        units = _unit_entries(cache)
        assert len(units) == 1
        keys = units if torn == "unit" else cache.entries()
        for key in keys:
            _tear(cache, key)
        fits = []
        fit = DecisionTreeClassifier.fit
        monkeypatch.setattr(
            DecisionTreeClassifier, "fit",
            lambda self, *a: fits.append(1) or fit(self, *a),
        )
        healed = ArtifactCache(cache.root)
        with cache_scope(healed):
            score = run_scenario("S1", dataset.dirty, dataset, "DT", seed=1)
        assert np.float64(score).tobytes() == np.float64(reference).tobytes()
        assert healed.stats()["corrupt"] == len(keys)
        # Only a torn fit entry refits; the rewritten unit entry loads.
        assert len(fits) == (0 if torn == "unit" else 1)
        assert _unit_entries(healed) == units
        with cache_scope(healed):
            assert run_scenario(
                "S1", dataset.dirty, dataset, "DT", seed=1
            ) == reference
        assert len(fits) == (0 if torn == "unit" else 1)


class TestCachedUncachedStoreEquivalence:
    @pytest.mark.parametrize("workers", [None, 2, 3])
    def test_checkpoint_store_identical_cached_vs_uncached(
        self, tmp_path, workers
    ):
        executor = ProcessPoolExecutor(workers) if workers else None
        ref_store = str(tmp_path / "ref.sqlite")
        reference = _evaluate(ref_store, cache=None)

        cache = ArtifactCache(str(tmp_path / "art"))
        cold_store = str(tmp_path / "cold.sqlite")
        cold = _evaluate(cold_store, cache=cache, executor=executor)
        warm_store = str(tmp_path / "warm.sqlite")
        warm = _evaluate(warm_store, cache=cache, executor=executor)

        assert _evaluation_canonical(cold) == _evaluation_canonical(reference)
        assert _evaluation_canonical(warm) == _evaluation_canonical(reference)
        assert _store_canonical(cold_store) == _store_canonical(ref_store)
        assert _store_canonical(warm_store) == _store_canonical(ref_store)
        if workers is None:
            # The warm serial pass hit every supervised-encode artifact.
            assert cache.stats()["hits"] > 0

    @pytest.mark.parametrize("workers", [None, 2])
    def test_memoized_fit_pipeline_store_identical(self, tmp_path, workers):
        executor = (
            ProcessPoolExecutor(workers, start_method="fork") if workers else None
        )
        ref_store = str(tmp_path / "ref.sqlite")
        _pipeline(ref_store, cache=None)
        cache = ArtifactCache(str(tmp_path / "art"))
        for run in ("cold", "warm", "torn"):
            if run == "torn":
                units = _unit_entries(cache)
                assert len(units) == 11  # S1-S5 x 2 seeds + the tuned run
                memos = _memo_entries(cache)
                assert len(memos) == 5  # 2 detection + 3 repair units
                for key in units + memos:
                    _tear(cache, key)
            entries = cache.entries()
            store = str(tmp_path / f"{run}.sqlite")
            _pipeline(store, cache=cache, executor=executor)
            assert _store_canonical(store) == _store_canonical(ref_store), run
            if run == "warm":
                assert cache.entries() == entries, "a warm run writes nothing"
        assert cache.stats()["hits"] > 0
        assert len(_unit_entries(ArtifactCache(cache.root))) == 11
        assert _memo_entries(cache) == memos, "torn unit entries rewritten"

    def test_scores_are_real_numbers_not_placeholders(self, tmp_path):
        evaluation = _evaluate(
            str(tmp_path / "s.sqlite"),
            cache=ArtifactCache(str(tmp_path / "art")),
        )
        scores = np.asarray(evaluation.scores["S4"], dtype=float)
        assert np.isfinite(scores).all()


def _ensemble_store(store_path, cache, executor=None, resume=False):
    """Min-K, MaxEntropy and Meta over the default pool, timing stripped:
    a nested hit skips the base detectors' clock reads, so stored
    runtimes legitimately differ."""
    with SuiteCheckpoint.open(store_path, "run", resume=resume) as ckpt:
        with cache_scope(cache):
            run_detection_suite(
                generate("Beers", n_rows=60, seed=4),
                [MinKDetector(), MaxEntropyDetector(), MetadataDrivenDetector()],
                checkpoint=ckpt, clock=StepClock(), sleep=null_sleep,
                executor=executor,
            )
    with SuiteCheckpoint.open(store_path, "run", resume=True) as ckpt:
        units = sorted(ckpt.completed_units())
        payload = {unit: strip_timing(ckpt.get(unit)) for unit in units}
    assert len(payload) == 3
    return json.dumps(payload, sort_keys=True).encode()


def _nested_entries(cache):
    reader = ArtifactCache(cache.root)
    return [
        key for key in cache.entries()
        if set(reader.get(key).arrays) == {"rows", "cols"}
    ]


class TestNestedDetections:
    @pytest.mark.parametrize("workers", [None, 2])
    def test_store_identical_uncached_cold_warm_torn(self, tmp_path, workers):
        executor = (
            ProcessPoolExecutor(workers, start_method="fork") if workers else None
        )
        reference = _ensemble_store(str(tmp_path / "ref.sqlite"), None)
        cache = ArtifactCache(str(tmp_path / "art"))
        for run in ("cold", "warm", "torn"):
            if run == "torn":
                nested = _nested_entries(cache)
                assert len(nested) == 8  # one per pool member
                for key in nested + _memo_entries(cache):
                    _tear(cache, key)
            store = str(tmp_path / f"{run}.sqlite")
            assert _ensemble_store(store, cache, executor) == reference, run
        assert sorted(_nested_entries(cache)) == sorted(nested)
        # The driver reads the 3 torn unit entries; the units' nested
        # reads happen in the workers when there are workers.
        assert cache.stats()["corrupt"] == (3 + 8 if workers is None else 3)
        if executor is not None:
            executor.close()

    @pytest.mark.parametrize("kill_on", [1, 5])
    def test_kill_mid_nested_write_resumes_identical(self, tmp_path, kill_on):
        reference = _ensemble_store(str(tmp_path / "ref.sqlite"), None)
        root = str(tmp_path / "art")
        store = str(tmp_path / "killed.sqlite")
        with pytest.raises(KeyboardInterrupt):
            _ensemble_store(store, KillingCache(root, kill_on=kill_on))
        wreck = ArtifactCache(root)
        assert len(wreck.debris()) == 1
        assert len(wreck.entries()) == kill_on - 1
        resumed = _ensemble_store(store, ArtifactCache(root), resume=True)
        assert resumed == reference
