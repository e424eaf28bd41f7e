"""Tier-1 tests for nested detector calls read through the artifact cache.

Min-K, MaxEntropy and Meta run the same base-detector pool inside their
own units, and BoostClean runs a small detector library inside its fit.
:func:`repro.detectors.base.nested_cells` memoizes each such call's
cells (kind ``detector/nested_cells@v1``), so a suite runs the pool once
per table.  The contract checked here:

- the key names every input of the call: a flipped dirty or clean cell,
  signal, detector parameter, seed or source digest misses;
- without a cache, or with a key part that has no exact form, the call
  is the plain ``detect``, and nothing is stored;
- a raising base detector fails its ensemble and stores nothing;
- dBoost(``n_search=8``) runs once per cached suite;
- stores are byte-identical (timing stripped) uncached, cold, warm and
  with torn entries, serial and pooled (fork and spawn), blocked and
  unblocked.
"""

import json
import multiprocessing

import numpy as np
import pytest

from repro.benchmark import run_detection_suite
from repro.cache import ArtifactCache, cache_scope
from repro.cache import keys as cache_keys
from repro.constraints import FunctionalDependency
from repro.datagen import generate
from repro.detectors import (
    DBoostDetector,
    MaxEntropyDetector,
    MetadataDrivenDetector,
    MinKDetector,
    MVDetector,
    SDDetector,
    default_base_detectors,
)
from repro.detectors import base as detector_base
from repro.detectors.base import _nested_key, nested_cells
from repro.parallel import ProcessPoolExecutor, null_sleep
from repro.repair import BoostCleanRepair
from repro.resilience import SuiteCheckpoint
from repro.service.jobs import strip_timing


class StepClock:
    """Deterministic clock: runtimes depend only on the call count."""

    def __init__(self, tick: float = 2.0 ** -10):
        self.ticks = 0
        self.tick = tick

    def __call__(self) -> float:
        self.ticks += 1
        return self.ticks * self.tick


def _dataset():
    return generate("Beers", n_rows=60, seed=4)


@pytest.fixture
def runs(monkeypatch):
    """Count real runs of each detector class's ``_detect``."""
    calls = []
    for owner in (MVDetector, SDDetector, DBoostDetector):
        original = owner._detect

        def counting(self, context, _original=original):
            calls.append((type(self).__name__, getattr(self, "n_search", None)))
            return _original(self, context)

        monkeypatch.setattr(owner, "_detect", counting)
    return calls


def _nested_entries(cache):
    reader = ArtifactCache(cache.root)
    return sorted(
        key for key in cache.entries()
        if set(reader.get(key).arrays) == {"rows", "cols"}
    )


class TestNestedCells:
    def test_without_a_cache_it_is_the_plain_detect(self, runs):
        context = _dataset().context(seed=1)
        detector = SDDetector(3.0)
        assert nested_cells(detector, context) == detector.detect(context).cells
        assert len(runs) == 2

    def test_hit_returns_the_cells_without_running(self, tmp_path, runs):
        context = _dataset().context(seed=1)
        detector = SDDetector(2.0)
        cache = ArtifactCache(str(tmp_path / "art"))
        with cache_scope(cache):
            cold = nested_cells(detector, context)
            warm = nested_cells(detector, context)
        assert cold == warm == detector.detect(context).cells
        assert cold, "an empty cell set shows nothing"
        assert all(type(row) is int and type(col) is str for row, col in warm)
        assert len(runs) == 2  # the cold call and the reference
        (key,) = _nested_entries(cache)
        entry = ArtifactCache(cache.root).get(key)
        assert entry.arrays["rows"].dtype == np.int64
        assert sorted(entry.meta["columns"]) == entry.meta["columns"]
        assert (cache.hits, cache.puts) == (1, 1)

    def test_each_key_input_flipped_misses(self, tmp_path, runs, monkeypatch):
        dataset = _dataset()
        base = dataset.context(seed=1)
        dirty = dataset.dirty.copy()
        dirty.set_cell(0, "abv", None)
        clean = dataset.clean.copy()
        clean.set_cell(0, "city", "Elsewhere")
        fd = FunctionalDependency(["city"], ["state"])
        variations = [
            (dict(dirty=dirty), SDDetector(3.0)),
            (dict(clean=clean), SDDetector(3.0)),
            (dict(fds=base.fds + [fd]), SDDetector(3.0)),
            (dict(key_columns=["ounces"]), SDDetector(3.0)),
            (dict(task="regression"), SDDetector(3.0)),
            (dict(seed=2), SDDetector(3.0)),
            ({}, SDDetector(2.5)),
        ]
        with cache_scope(ArtifactCache(str(tmp_path / "art"))):
            nested_cells(SDDetector(3.0), base)
            nested_cells(SDDetector(3.0), base)
            assert len(runs) == 1
            for change, detector in variations:
                context = dataset.context(seed=1)
                for name, value in change.items():
                    setattr(context, name, value)
                before = len(runs)
                nested_cells(detector, context)
                assert len(runs) == before + 1, change or detector.n_sigmas
                nested_cells(detector, context)
                assert len(runs) == before + 1, "a repeated call hits"
            monkeypatch.setattr(cache_keys, "source_digest", lambda: "x")
            nested_cells(SDDetector(3.0), base)
            assert len(runs) == len(variations) + 2, "a source edit misses"

    def test_key_parts_without_an_exact_form_are_not_memoized(
        self, tmp_path, runs
    ):
        dataset = _dataset()
        no_truth = dataset.context(seed=1, with_ground_truth=False)
        odd = SDDetector(3.0)
        odd.hook = lambda value: value  # no canonical form
        objects = dataset.dirty.copy()
        objects.set_cell(0, "abv", np.float32(0.5))  # no exact identity
        with_objects = dataset.context(seed=1)
        with_objects.dirty = objects
        cache = ArtifactCache(str(tmp_path / "art"))
        with cache_scope(cache):
            for detector, context in [
                (SDDetector(3.0), no_truth),
                (odd, dataset.context(seed=1)),
                (SDDetector(3.0), with_objects),
            ]:
                assert _nested_key(detector, context) is None
                for _ in range(2):
                    assert nested_cells(detector, context) == (
                        detector.detect(context).cells
                    )
        assert len(runs) == 12
        assert cache.entries() == []

    def test_a_raising_base_detector_fails_its_ensemble(
        self, tmp_path, monkeypatch
    ):
        context = _dataset().context(seed=1)
        ensemble = MinKDetector(base_detectors=[MVDetector(), SDDetector(3.0)])
        original = SDDetector._detect

        def raising(self, context):
            raise RuntimeError("base detector crashed")

        cache = ArtifactCache(str(tmp_path / "art"))
        with cache_scope(cache):
            monkeypatch.setattr(SDDetector, "_detect", raising)
            for _ in range(2):
                with pytest.raises(RuntimeError, match="crashed"):
                    ensemble.detect(context)
            assert cache.puts == 1, "only the MVD call succeeded"
            monkeypatch.setattr(SDDetector, "_detect", original)
            healed = ensemble.detect(context).cells
        assert healed == ensemble.detect(context).cells

    def test_a_torn_entry_recomputes_and_rewrites(self, tmp_path, runs):
        context = _dataset().context(seed=1)
        detector = SDDetector(2.0)
        cache = ArtifactCache(str(tmp_path / "art"))
        with cache_scope(cache):
            reference = nested_cells(detector, context)
        (key,) = _nested_entries(cache)
        path = cache._path(key)
        path.write_bytes(path.read_bytes()[:64])
        healed = ArtifactCache(cache.root)
        with cache_scope(healed):
            assert nested_cells(detector, context) == reference
            assert nested_cells(detector, context) == reference
        assert healed.stats()["corrupt"] == 1
        assert (healed.puts, healed.hits) == (1, 1)
        assert len(runs) == 2

    def test_keys_equal_in_fresh_interpreters(self, monkeypatch):
        keys = _pool_keys()
        assert len(set(keys)) == len(keys) == 8
        monkeypatch.setenv("PYTHONHASHSEED", "4321")
        for method in ("fork", "spawn"):
            with multiprocessing.get_context(method).Pool(1) as pool:
                assert pool.apply(_pool_keys) == keys, method

    def test_boostclean_reads_its_library_through_the_cache(
        self, tmp_path, runs
    ):
        dataset = generate("Adult", n_rows=120, seed=1)
        context = dataset.context(seed=0)
        features = dataset.clean.select_rows(list(range(20)))

        def predictions():
            fitted = BoostCleanRepair().fit(context, dataset.error_cells)
            return fitted.model.predict(features)

        reference = predictions()
        uncached = len(runs)
        cache = ArtifactCache(str(tmp_path / "art"))
        with cache_scope(cache):
            cold = predictions()
            assert len(runs) == 2 * uncached
            warm = predictions()
        assert len(runs) == 2 * uncached, "a warm fit runs no detector"
        assert len(_nested_entries(cache)) == 3
        assert np.array_equal(cold, reference)
        assert np.array_equal(warm, reference)


def _pool_keys():
    """Nested keys of the default pool on one table (module level: fresh
    interpreters run it)."""
    context = generate("Beers", n_rows=40, seed=0).context(seed=0)
    return [_nested_key(d, context) for d in default_base_detectors()]


# ----------------------------------------------------------------------
# Suites: the pool runs once; stores do not move
# ----------------------------------------------------------------------
def _ensembles():
    return [MinKDetector(), MaxEntropyDetector(), MetadataDrivenDetector()]


def test_default_pool_runs_once_per_cached_suite(tmp_path, runs, monkeypatch):
    dataset = _dataset()
    with monkeypatch.context() as patch:
        # Nested calls not memoized: the cache holds everything else.
        patch.setattr(detector_base, "_nested_key", lambda *a: None)
        unmemoized = ArtifactCache(str(tmp_path / "plain"))
        with cache_scope(unmemoized):
            run_detection_suite(dataset, _ensembles(), sleep=null_sleep)
    assert runs.count(("DBoostDetector", 8)) == 3, "once per ensemble"
    runs.clear()
    cache = ArtifactCache(str(tmp_path / "art"))
    with cache_scope(cache):
        run_detection_suite(dataset, _ensembles(), sleep=null_sleep)
        assert runs.count(("DBoostDetector", 8)) == 1
        # Puts grow by one nested entry per pool member, nothing else.
        assert len(_nested_entries(cache)) == 8
        assert cache.puts == unmemoized.puts + 8
        runs.clear()
        run_detection_suite(dataset, _ensembles(), sleep=null_sleep)
    assert runs == [], "a warm suite replays its units"


def _suite_store(path, detectors, **guards):
    with SuiteCheckpoint.open(str(path), "run", resume=False) as checkpoint:
        runs = run_detection_suite(
            _dataset(), detectors, checkpoint=checkpoint, clock=StepClock(),
            sleep=null_sleep, **guards,
        )
    assert not any(run.failed for run in runs)
    # A blocked run also stores its per-block sub-units (``@rows``).
    with SuiteCheckpoint.open(str(path), "run", resume=True) as checkpoint:
        units = sorted(
            unit for unit in checkpoint.completed_units() if "@rows" not in unit
        )
        payload = {unit: strip_timing(checkpoint.get(unit)) for unit in units}
    assert len(payload) == len(detectors)
    return json.dumps(payload, sort_keys=True)


def _mixed_detectors():
    """The ensembles beside blockwise members of their pool."""
    return _ensembles() + [MVDetector(), SDDetector(3.0)]


@pytest.mark.parametrize("workers, start_method, block_rows", [
    (None, None, None),
    (None, None, 17),
    (2, "fork", None),
    (2, "spawn", 17),
])
def test_stores_identical_uncached_cold_warm_and_torn(
    tmp_path, workers, start_method, block_rows
):
    reference = _suite_store(tmp_path / "ref.sqlite", _mixed_detectors())
    executor = (
        ProcessPoolExecutor(workers, start_method=start_method)
        if workers else None
    )
    cache = ArtifactCache(str(tmp_path / "art"))
    try:
        with cache_scope(cache):
            for run in ("cold", "warm", "units-torn", "all-torn"):
                if run.endswith("torn"):
                    # Units recompute: first over nested hits, then
                    # over nothing the cache can serve.
                    reader = ArtifactCache(cache.root)
                    for key in cache.entries():
                        entry = reader.get(key)
                        unit = entry is not None and "payload" in entry.arrays
                        if run == "all-torn" or unit:
                            path = cache._path(key)
                            path.write_bytes(path.read_bytes()[:64])
                store = _suite_store(
                    tmp_path / f"{run}.sqlite", _mixed_detectors(),
                    executor=executor, block_rows=block_rows,
                )
                assert store == reference, run
    finally:
        if executor is not None:
            executor.close()
    assert len(_nested_entries(cache)) == 8
    assert cache.stats()["corrupt"] > 0
