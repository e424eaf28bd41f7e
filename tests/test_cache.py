"""Tier-1 tests for the content-addressed artifact cache (repro.cache).

Covers the key scheme (content addressing, mutation invalidation,
missing-marker collapse), the store's atomic write/read discipline and
counters, the cached encoding/featurization paths (cache hits must be
byte-identical to fresh computation), the memoized model fit->predict
(a repeated call fits nothing and returns the same bytes), and the end-to-end acceptance
property: a cached run's outputs equal an uncached run's, serial or
pooled.
"""

import dataclasses
import json
import math
import multiprocessing
import zlib

import numpy as np
import pytest

from repro.benchmark import (
    evaluate_scenarios,
    run_detection_suite,
    run_repair_suite,
    run_scenario,
)
from repro.benchmark import runner
from repro.benchmark.controller import BenchmarkController
from repro.benchmark.scenarios import scenario as get_scenario
from repro.cache import (
    ArtifactCache,
    artifact_key,
    cache_scope,
    canonical_cell,
    canonical_config,
    config_fingerprint,
    current_cache,
    install_cache,
    table_fingerprint,
    table_identity,
)
from repro.cache import keys as cache_keys
from repro.cache.store import _ACTIVE
from repro.datagen import generate
from repro.dataset import CATEGORICAL, NUMERICAL, Schema, Table
from repro.dataset.encoding import TableEncoder, encode_supervised
from repro.detectors import Detector, MinKDetector, MVDetector, SDDetector
from repro.detectors.features import combined_features
from repro.ml import base as ml_base
from repro.ml.base import BaseEstimator, ClassifierMixin, fit_predict
from repro.ml.tree import DecisionTreeClassifier, DecisionTreeRegressor
from repro.observability import Telemetry, telemetry_scope
from repro.parallel import ProcessPoolExecutor, null_sleep
from repro.parallel.plan import UnitSpec
from repro.repair import (
    GroundTruthRepair,
    MeanModeImputeRepair,
    MissForestMixRepair,
    RepairMethod,
)
from repro.resilience import SuiteCheckpoint
from repro.service.jobs import strip_timing


def _table(cells=None):
    schema = Schema.from_pairs([("num", NUMERICAL), ("cat", CATEGORICAL)])
    columns = cells or {
        "num": [1.0, 2.5, None, "bad", 4.0],
        "cat": ["a", "b", "a", None, "c"],
    }
    return Table(schema, columns)


@pytest.fixture(autouse=True)
def _no_leaked_cache():
    depth = len(_ACTIVE)
    yield
    assert len(_ACTIVE) == depth, "a test leaked an installed cache"
    del _ACTIVE[depth:]


# ----------------------------------------------------------------------
# Keys
# ----------------------------------------------------------------------
class TestKeys:
    def test_fingerprint_is_content_addressed(self):
        assert table_fingerprint(_table()) == table_fingerprint(_table())
        assert table_fingerprint(_table()) == table_fingerprint(
            _table().copy()
        )

    def test_fingerprint_changes_with_content(self):
        table = _table()
        before = table_fingerprint(table)
        table.set_cell(0, "num", 999.0)
        assert table_fingerprint(table) != before

    def test_fingerprint_memo_invalidated_by_set_cell(self):
        table = _table()
        first = table_fingerprint(table)
        assert table_fingerprint(table) == first  # memo path
        table.set_cell(1, "cat", "zzz")
        changed = table_fingerprint(table)
        assert changed != first
        table.set_cell(1, "cat", "b")
        assert table_fingerprint(table) == first

    def test_missing_markers_collapse(self):
        """Tables differing only in which missing marker they carry
        encode identically, so they may share cache entries."""
        a = _table({"num": [1.0, None], "cat": ["x", None]})
        b = _table({"num": [1.0, float("nan")], "cat": ["x", "NA"]})
        assert table_fingerprint(a) == table_fingerprint(b)

    def test_fingerprint_sensitive_to_schema(self):
        schema_a = Schema.from_pairs([("v", NUMERICAL)])
        schema_b = Schema.from_pairs([("v", CATEGORICAL)])
        values = {"v": [1.0, 2.0]}
        assert table_fingerprint(Table(schema_a, values)) != table_fingerprint(
            Table(schema_b, values)
        )

    def test_canonical_cell_forms(self):
        assert canonical_cell(None) is None
        assert canonical_cell(float("nan")) is None
        assert canonical_cell("NA") is None
        assert canonical_cell(np.int64(3)) == 3
        assert canonical_cell(np.float64(2.5)) == 2.5
        assert canonical_cell("text") == "text"
        assert json.dumps(canonical_cell(object())).startswith('"<object')

    def test_encoding_is_pinned(self):
        """The canonical encoding changes only on purpose, together with
        this digest (old cache directories miss anyway: every key names
        the package's source digest)."""
        schema = Schema.from_pairs([("num", NUMERICAL), ("cat", CATEGORICAL)])
        num = [1, 1.0, True, -0.0, math.nan, np.float32(2.5), 2**70, math.inf]
        cat = ["1", " na ", None, "é\ud800", np.int64(7), np.bool_(True),
               np.str_("s"), "x"]
        table = Table(schema, {"num": num, "cat": cat})
        assert table_fingerprint(table) == (
            "b794747808454baae2fd17075625bd237475721b36521e92a5cab5ac76cd997b"
        )

    def test_artifact_key_separates_kind_tables_config(self):
        fp = table_fingerprint(_table())
        base = artifact_key("k@v1", [fp], {"a": 1})
        assert artifact_key("k@v2", [fp], {"a": 1}) != base
        assert artifact_key("k@v1", [fp, fp], {"a": 1}) != base
        assert artifact_key("k@v1", [fp], {"a": 2}) != base
        assert artifact_key("k@v1", [fp], {"a": 1}) == base

    def test_config_fingerprint_order_independent(self):
        assert config_fingerprint({"a": 1, "b": 2}) == config_fingerprint(
            {"b": 2, "a": 1}
        )


# ----------------------------------------------------------------------
# Store
# ----------------------------------------------------------------------
class TestStore:
    def test_round_trip_preserves_bytes_and_meta(self, tmp_path):
        cache = ArtifactCache(str(tmp_path / "art"))
        arrays = {
            "x": np.arange(12, dtype=np.float64).reshape(3, 4),
            "y": np.array([1, 0, 2], dtype=np.int64),
        }
        meta = {"encoder": {"mean": [0.25, -1.5]}, "n": 3}
        key = "ab" + "0" * 62
        cache.put(key, arrays, meta)
        entry = cache.get(key)
        assert entry is not None
        for name, array in arrays.items():
            assert entry.arrays[name].dtype == array.dtype
            assert entry.arrays[name].tobytes() == array.tobytes()
        assert entry.meta == meta

    def test_miss_and_hit_counters(self, tmp_path):
        cache = ArtifactCache(str(tmp_path / "art"))
        assert cache.get("cd" + "0" * 62) is None
        cache.put("cd" + "0" * 62, {"v": np.zeros(2)}, {})
        assert cache.get("cd" + "0" * 62) is not None
        stats = cache.stats()
        assert stats["misses"] == 1
        assert stats["hits"] == 1
        assert stats["puts"] == 1
        assert stats["bytes_written"] > 0
        assert stats["bytes_read"] == stats["bytes_written"]

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ArtifactCache(str(tmp_path / "art"))
        key = "ef" + "0" * 62
        cache.put(key, {"v": np.ones(3)}, {})
        path = cache._path(key)
        path.write_bytes(path.read_bytes()[: len(path.read_bytes()) // 2])
        assert cache.get(key) is None
        assert cache.stats()["corrupt"] == 1

    def test_object_dtype_rejected(self, tmp_path):
        cache = ArtifactCache(str(tmp_path / "art"))
        with pytest.raises(ValueError, match="object dtype"):
            cache.put("aa" + "0" * 62, {"v": np.array(["s", None])}, {})

    def test_counters_mirror_into_telemetry(self, tmp_path):
        cache = ArtifactCache(str(tmp_path / "art"))
        telemetry = Telemetry()
        with telemetry_scope(telemetry):
            cache.get("1b" + "0" * 62)
            cache.put("1b" + "0" * 62, {"v": np.zeros(1)}, {})
            cache.get("1b" + "0" * 62)
        counter = telemetry.metrics.counter
        assert counter("cache.misses").value == 1
        assert counter("cache.puts").value == 1
        assert counter("cache.hits").value == 1
        assert counter("cache.bytes_read").value > 0

    def test_entries_debris_and_sweep(self, tmp_path):
        cache = ArtifactCache(str(tmp_path / "art"))
        key = "2c" + "0" * 62
        cache.put(key, {"v": np.zeros(1)}, {})
        # Simulate a writer that died between tmp write and publish.
        stray = cache._tmp_path(key)
        stray.parent.mkdir(parents=True, exist_ok=True)
        stray.write_bytes(b"partial")
        assert cache.entries() == [key]
        assert cache.debris() == [str(stray)]
        assert cache.sweep() == 1
        assert cache.debris() == []
        assert cache.entries() == [key]  # finalized entries untouched

    def test_interrupted_write_never_visible_to_readers(self, tmp_path):
        """A crash before _finalize leaves only .tmp debris: get() of the
        key is a clean miss and a retry publishes normally."""

        class DyingCache(ArtifactCache):
            def _finalize(self, tmp, final):
                raise KeyboardInterrupt

        root = str(tmp_path / "art")
        key = "3d" + "0" * 62
        dying = DyingCache(root)
        with pytest.raises(KeyboardInterrupt):
            dying.put(key, {"v": np.arange(4.0)}, {"m": 1})
        fresh = ArtifactCache(root)
        assert fresh.entries() == []
        assert len(fresh.debris()) == 1
        assert fresh.get(key) is None
        fresh.put(key, {"v": np.arange(4.0)}, {"m": 1})
        entry = fresh.get(key)
        assert entry is not None
        assert entry.arrays["v"].tobytes() == np.arange(4.0).tobytes()

    def test_concurrent_same_key_writes_agree(self, tmp_path):
        """Last-write-wins is safe because same key => same content."""
        root = str(tmp_path / "art")
        a, b = ArtifactCache(root), ArtifactCache(root)
        key = "4e" + "0" * 62
        payload = {"v": np.linspace(0, 1, 7)}
        a.put(key, payload, {"who": "same"})
        b.put(key, payload, {"who": "same"})
        entry = ArtifactCache(root).get(key)
        assert entry.arrays["v"].tobytes() == payload["v"].tobytes()

    def test_spec_round_trip(self, tmp_path):
        cache = ArtifactCache(str(tmp_path / "art"))
        clone = ArtifactCache.from_spec(cache.spec())
        assert clone.root == cache.root

    def test_scope_install_and_current(self, tmp_path):
        assert current_cache() is None
        cache = ArtifactCache(str(tmp_path / "art"))
        with cache_scope(cache):
            assert current_cache() is cache
            inner = ArtifactCache(str(tmp_path / "inner"))
            with cache_scope(inner):
                assert current_cache() is inner
            assert current_cache() is cache
        assert current_cache() is None
        with cache_scope(None) as nothing:
            assert nothing is None
            assert current_cache() is None
        install_cache(cache)
        assert current_cache() is cache
        _ACTIVE.pop()


# ----------------------------------------------------------------------
# Cached encoding / featurization paths
# ----------------------------------------------------------------------
class TestCachedEncoding:
    def test_fit_transform_hit_is_byte_identical(self, tmp_path):
        table = _table()
        fresh_encoder = TableEncoder(max_categories=4)
        fresh = fresh_encoder.fit_transform(table)
        cache = ArtifactCache(str(tmp_path / "art"))
        with cache_scope(cache):
            cold = TableEncoder(max_categories=4).fit_transform(table)
            warm_encoder = TableEncoder(max_categories=4)
            warm = warm_encoder.fit_transform(table)
        assert cache.stats()["hits"] == 1
        assert cold.tobytes() == fresh.tobytes()
        assert warm.tobytes() == fresh.tobytes()
        # The restored encoder transforms exactly like a fresh fit.
        probe = _table({"num": [3.0, None], "cat": ["c", "zz"]})
        assert warm_encoder.transform(probe).tobytes() == (
            fresh_encoder.transform(probe).tobytes()
        )
        assert warm_encoder.feature_names == fresh_encoder.feature_names

    def test_fit_transform_key_varies_with_settings(self, tmp_path):
        table = _table()
        cache = ArtifactCache(str(tmp_path / "art"))
        with cache_scope(cache):
            TableEncoder(max_categories=4).fit_transform(table)
            TableEncoder(max_categories=2).fit_transform(table)
            TableEncoder(max_categories=4, scale=False).fit_transform(table)
            TableEncoder(max_categories=4).fit_transform(
                table, exclude=["num"]
            )
        assert cache.stats()["hits"] == 0
        assert cache.stats()["puts"] == 4

    @pytest.mark.parametrize("task,target", [
        ("classification", "cat"), ("regression", "num"),
    ])
    def test_encode_supervised_hit_is_byte_identical(
        self, tmp_path, task, target
    ):
        train = _table()
        test = _table({"num": [7.0, None], "cat": ["b", "q"]})
        fresh = encode_supervised(train, test, target, task)
        cache = ArtifactCache(str(tmp_path / "art"))
        with cache_scope(cache):
            encode_supervised(train, test, target, task)
            warm = encode_supervised(train, test, target, task)
        assert cache.stats()["hits"] == 1
        for got, expected in zip(warm[:4], fresh[:4]):
            assert got.dtype == expected.dtype
            assert got.tobytes() == expected.tobytes()
        assert warm[4].feature_names == fresh[4].feature_names

    def test_encoder_state_round_trip_is_exact(self):
        table = _table()
        encoder = TableEncoder(max_categories=3)
        encoder.fit(table, exclude=["cat"])
        restored = TableEncoder.from_state(
            json.loads(json.dumps(encoder.state()))
        )
        probe = _table()
        assert restored.transform(probe).tobytes() == (
            encoder.transform(probe).tobytes()
        )
        assert restored.n_features == encoder.n_features

    def test_combined_features_hit_is_byte_identical(self, tmp_path):
        table = _table()
        fresh = combined_features(table)
        cache = ArtifactCache(str(tmp_path / "art"))
        with cache_scope(cache):
            combined_features(table)
            warm = combined_features(table)
        assert cache.stats()["hits"] == 1
        assert list(warm) == list(fresh)
        for name in fresh:
            assert warm[name].tobytes() == fresh[name].tobytes()

    def test_no_cache_paths_untouched(self):
        """Without an installed cache nothing is fingerprinted/stored."""
        table = _table()
        assert current_cache() is None
        encoder = TableEncoder()
        matrix = encoder.fit_transform(table)
        assert matrix.shape[0] == table.n_rows
        assert "_fingerprint_memo" not in table.__dict__


# ----------------------------------------------------------------------
# Memoized model fit -> predict
# ----------------------------------------------------------------------
def _estimator_classes():
    stack, found = [BaseEstimator], []
    while stack:
        for sub in stack.pop().__subclasses__():
            if sub not in found:
                found.append(sub)
                stack.append(sub)
    return found


@pytest.fixture
def fit_calls(monkeypatch):
    """Count every estimator ``fit`` call (a forest counts its trees too)."""
    calls = []
    for cls in _estimator_classes():
        if "fit" not in vars(cls):
            continue

        def counting(self, *args, _fit=vars(cls)["fit"], **kwargs):
            calls.append(type(self).__name__)
            return _fit(self, *args, **kwargs)

        monkeypatch.setattr(cls, "fit", counting)
    return calls


def _supervised_arrays(seed=0, n=40):
    rng = np.random.default_rng(seed)
    features = rng.normal(size=(n, 3))
    labels = (features[:, 0] + features[:, 1] > 0).astype(np.int64)
    return features, labels


class _Raising(BaseEstimator, ClassifierMixin):
    def __init__(self, depth=1):
        self.depth = depth

    def fit(self, features, targets):
        raise ValueError("cannot fit")

    def predict(self, features):
        raise AssertionError("predict after a failed fit")


class _ObjectPredictions(BaseEstimator, ClassifierMixin):
    def __init__(self, depth=1):
        self.depth = depth

    def fit(self, features, targets):
        return self

    def predict(self, features):
        return np.array(["a"] * len(features), dtype=object)


class _CallableParam(DecisionTreeClassifier):
    def __init__(self, hook=len, max_depth=None):
        super().__init__(max_depth=max_depth)
        self.hook = hook


class TestFitPredictMemo:
    def _repair(self, dataset):
        return MissForestMixRepair().repair(
            dataset.context(seed=0), dataset.error_cells
        ).repaired

    @staticmethod
    def _cells(table):
        return [
            [repr(v) for v in table.column(name)]
            for name in table.column_names
        ]

    def test_repeated_repair_fits_nothing_and_matches(self, tmp_path, fit_calls):
        dataset = generate("Beers", n_rows=40, seed=1)
        reference = self._cells(self._repair(dataset))
        uncached_fits = len(fit_calls)
        assert uncached_fits > 0
        assert self._cells(self._repair(dataset)) == reference
        assert len(fit_calls) == 2 * uncached_fits  # no cache: every call fits

        cache = ArtifactCache(str(tmp_path / "art"))
        with cache_scope(cache):
            cold = self._cells(self._repair(dataset))
            before = len(fit_calls)
            warm = self._cells(self._repair(dataset))
        assert len(fit_calls) == before
        assert cold == reference and warm == reference
        assert cache.stats()["hits"] > 0

    def test_repeated_run_scenario_fits_nothing_and_matches(
        self, tmp_path, fit_calls
    ):
        dataset = generate("SmartFactory", n_rows=80, seed=2)

        def scores():
            return [
                run_scenario(name, dataset.dirty, dataset, "DT", seed=seed)
                for name in ("S1", "S4")
                for seed in (0, 1)
            ] + [
                run_scenario(
                    "S1", dataset.dirty, dataset, "KNN", seed=0, tune_trials=3
                )
            ]

        reference = scores()
        uncached_fits = len(fit_calls)
        assert scores() == reference
        assert len(fit_calls) == 2 * uncached_fits
        cache = ArtifactCache(str(tmp_path / "art"))
        with cache_scope(cache):
            cold = scores()
            before = len(fit_calls)
            warm = scores()
        # Every unit is a scenario-unit hit: no fit, not even the tuned
        # run's winner refit.
        assert len(fit_calls) == before
        assert np.array(cold).tobytes() == np.array(reference).tobytes()
        assert np.array(warm).tobytes() == np.array(reference).tobytes()

    def test_hit_returns_identical_predictions(self, tmp_path, fit_calls):
        features, labels = _supervised_arrays()
        fresh = fit_predict(
            DecisionTreeRegressor(max_depth=3), features, labels * 1.5, features
        )
        cache = ArtifactCache(str(tmp_path / "art"))
        with cache_scope(cache):
            cold = fit_predict(
                DecisionTreeRegressor(max_depth=3), features, labels * 1.5, features
            )
            calls = len(fit_calls)
            warm = fit_predict(
                DecisionTreeRegressor(max_depth=3), features, labels * 1.5, features
            )
        assert len(fit_calls) == calls
        for result in (cold, warm):
            assert result.dtype == fresh.dtype
            assert result.tobytes() == fresh.tobytes()
        stats = cache.stats()
        assert (stats["hits"], stats["puts"]) == (1, 1)

    def test_key_separates_params_class_and_arrays(self, tmp_path, fit_calls):
        features, labels = _supervised_arrays()
        cache = ArtifactCache(str(tmp_path / "art"))
        with cache_scope(cache):
            fit_predict(DecisionTreeClassifier(max_depth=1), features, labels, features)
            fit_predict(DecisionTreeClassifier(max_depth=2), features, labels, features)
            fit_predict(DecisionTreeRegressor(max_depth=1), features, labels, features)
            fit_predict(
                DecisionTreeClassifier(max_depth=1), features, labels, features[:5]
            )
            fit_predict(
                DecisionTreeClassifier(max_depth=1),
                features, labels.astype(np.int32), features,
            )
            for zero in (0.0, -0.0):
                signed = features.copy()
                signed[0, 0] = zero
                fit_predict(
                    DecisionTreeClassifier(max_depth=1), signed, labels, features
                )
        assert len(fit_calls) == 7
        assert cache.stats()["hits"] == 0
        assert len(cache.entries()) == 7

    def test_failed_fit_is_not_stored(self, tmp_path):
        features, labels = _supervised_arrays()
        cache = ArtifactCache(str(tmp_path / "art"))
        with cache_scope(cache):
            for _ in range(2):
                with pytest.raises(ValueError, match="cannot fit"):
                    fit_predict(_Raising(), features, labels, features)
        assert cache.entries() == []
        assert cache.stats()["puts"] == 0

    def test_object_predictions_bypass_the_cache(self, tmp_path):
        features, labels = _supervised_arrays()
        cache = ArtifactCache(str(tmp_path / "art"))
        with cache_scope(cache):
            first = fit_predict(_ObjectPredictions(), features, labels, features)
            second = fit_predict(_ObjectPredictions(), features, labels, features)
        assert first.dtype == object and second.dtype == object
        assert cache.entries() == []

    def test_non_json_params_bypass_the_cache(self, tmp_path, fit_calls):
        features, labels = _supervised_arrays()
        cache = ArtifactCache(str(tmp_path / "art"))
        with cache_scope(cache):
            first = fit_predict(_CallableParam(), features, labels, features)
            second = fit_predict(_CallableParam(), features, labels, features)
        assert first.tobytes() == second.tobytes()
        assert len([c for c in fit_calls if c == "_CallableParam"]) == 2
        stats = cache.stats()
        assert (stats["hits"], stats["misses"], stats["puts"]) == (0, 0, 0)


class TestScenarioUnitMemo:
    """Supervised ``run_scenario`` units are memoized by provenance."""

    @pytest.fixture
    def splits(self, monkeypatch):
        """Count ``train_test_split`` calls: one per unit that misses."""
        calls = []
        original = runner.train_test_split

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(runner, "train_test_split", counting)
        return calls

    def test_key_separates_provenance(self, tmp_path, splits):
        dataset = generate("SmartFactory", n_rows=80, seed=2)
        name = dataset.dirty.column_names[0]
        dirty = dataset.dirty.copy()
        dirty.set_cell(2, name, None)
        base = {"scenario": "S1", "variant_table": dirty,
                "dataset": dataset, "model_name": "DT", "seed": 0}
        variant = dirty.copy()
        variant.set_cell(0, name, "changed")
        # The fingerprint merges missing markers; the exact key does not.
        marker = dirty.copy()
        marker.set_cell(2, name, "NA")
        assert table_fingerprint(marker) == table_fingerprint(dirty)
        clean = dataset.clean.copy()
        clean.set_cell(1, name, "changed")
        variations = [
            {"variant_table": variant},
            {"variant_table": marker},
            {"dataset": dataclasses.replace(dataset, clean=clean)},
            {"scenario": "S4"},
            {"seed": 1},
            {"test_fraction": 0.3},
            {"kept_rows": list(range(dataset.dirty.n_rows))},
            {"sample_rows": 20},
            {"tune_trials": 2},
            {"model_params": {"max_depth": 2}},
        ]
        cache = ArtifactCache(str(tmp_path / "art"))
        with cache_scope(cache):
            reference = run_scenario(**base)
            assert len(splits) == 1
            assert run_scenario(**base) == reference
            assert len(splits) == 1, "a repeated unit must hit"
            for change in variations:
                before = len(splits)
                run_scenario(**{**base, **change})
                assert len(splits) > before, change
                before = len(splits)
                run_scenario(**{**base, **change})
                assert len(splits) == before, change

    def test_key_separates_tuned_zoo_names(self, tmp_path, splits):
        # Ridge and Lasso-like build the same default RidgeRegressor but
        # tune over different alpha ranges.
        dataset = generate("Nasa", n_rows=80, seed=2)

        def tuned(model_name):
            return run_scenario("S1", dataset.dirty, dataset, model_name,
                                seed=0, tune_trials=3)

        reference = [tuned("Ridge"), tuned("Lasso-like")]
        cache = ArtifactCache(str(tmp_path / "art"))
        with cache_scope(cache):
            splits.clear()
            # A tuned miss splits twice: the unit and the tuning holdout.
            assert [tuned("Ridge"), tuned("Lasso-like")] == reference
            assert len(splits) == 4, "each zoo name must miss once"
            assert [tuned("Ridge"), tuned("Lasso-like")] == reference
            assert len(splits) == 4

    @pytest.mark.parametrize("name", ["SmartFactory", "Nasa"])
    def test_full_hit_splits_encodes_hashes_and_fits_nothing(
        self, tmp_path, monkeypatch, fit_calls, splits, name
    ):
        dataset = generate(name, n_rows=80, seed=2)

        def scores():
            return [
                run_scenario(s, dataset.dirty, dataset, "DT", seed=seed)
                for s in ("S1", "S2", "S3", "S4", "S5")
                for seed in (0, 1)
            ] + [run_scenario("S1", dataset.dirty, dataset, "DT",
                              seed=0, tune_trials=3)]

        reference = scores()
        cache = ArtifactCache(str(tmp_path / "art"))
        with cache_scope(cache):
            cold = scores()
            touched = []
            for module, attribute in [
                (runner, "encode_supervised"),
                (runner, "_tuned_model"),
                (ml_base, "array_fingerprint"),
            ]:
                monkeypatch.setattr(
                    module, attribute,
                    lambda *a, _name=attribute, **k: touched.append(_name),
                )
            fit_calls.clear()
            splits.clear()
            hits = cache.hits
            warm = scores()
        assert (touched, fit_calls, splits) == ([], [], [])
        assert cache.hits - hits == len(reference)
        assert np.array(cold).tobytes() == np.array(reference).tobytes()
        assert np.array(warm).tobytes() == np.array(reference).tobytes()

    def test_direct_call_and_model_stage_unit_share_one_entry(
        self, tmp_path, splits
    ):
        dataset = generate("SmartFactory", n_rows=80, seed=2)

        def stage():
            return evaluate_scenarios(
                dataset, dataset.dirty, "dirty", "DT", scenario_names=("S1",),
                n_seeds=1, sample_rows=30,
            ).scores["S1"][0]

        def direct():
            return run_scenario(
                "S1", dataset.dirty, dataset, "DT", seed=0, sample_rows=30
            )

        for first, second in [(stage, direct), (direct, stage)]:
            cache = ArtifactCache(str(tmp_path / first.__name__))
            with cache_scope(cache):
                splits.clear()
                value = first()
                (entry,) = _unit_entries(cache)
                hits = cache.hits
                assert second() == value
                assert cache.hits - hits == 1 and len(splits) == 1
                assert _unit_entries(cache) == {entry}

    def test_nan_metric_unknown_scenario_and_deadline(self, tmp_path, splits):
        """A NaN metric (too few rows) is stored and read back as NaN,
        also under a deadline (a scenario run has no runtime); an unknown
        scenario fails in its unit's guarded attempt, cold and warm."""
        dataset = generate("SmartFactory", n_rows=80, seed=2)

        def evaluate():
            return evaluate_scenarios(
                dataset, dataset.dirty, "dirty", "DT",
                scenario_names=("S1", "S9"), n_seeds=1, sample_rows=3,
                deadline_seconds=60.0,
            )

        cache = ArtifactCache(str(tmp_path / "art"))
        with cache_scope(cache):
            cold = evaluate()
            hits = cache.hits
            warm = evaluate()
        assert cache.hits - hits == 1 and len(splits) == 1
        for evaluation in (cold, warm):
            assert math.isnan(evaluation.scores["S1"][0])
            assert "S1" not in evaluation.failures
            assert "unknown scenario 'S9'" in evaluation.failure_reason("S9", 0)

    @pytest.mark.parametrize("name", ["Adult", "Nasa"])
    def test_model_stage_keys_build_their_constants_once(
        self, tmp_path, monkeypatch, name
    ):
        """Every unit of one evaluation shares one key part: the table
        identities and the canonical evaluation settings are built and
        hashed once, and each unit is stored under the per-unit
        formula's key."""
        dataset = generate(name, n_rows=60, seed=2)
        kept = list(range(dataset.dirty.n_rows))
        evaluation = config_fingerprint({
            "tables": [table_identity(dataset.clean),
                       table_identity(dataset.dirty)],
            "evaluation": canonical_config([
                dataset.target, dataset.task, 0.25, tuple(kept), 20, "DT",
                {}, None,
            ]),
        })
        built = []
        for attribute in ("table_identity", "canonical_config",
                          "config_fingerprint"):
            original = getattr(runner, attribute)
            monkeypatch.setattr(
                runner, attribute,
                lambda *a, _f=original, _n=attribute, **k:
                    built.append(_n) or _f(*a, **k),
            )
        cache = ArtifactCache(str(tmp_path / "art"))
        with cache_scope(cache):
            evaluate_scenarios(
                dataset, dataset.dirty, "dirty", "DT",
                scenario_names=("S1", "S3", "S4"), n_seeds=3,
                kept_rows=kept, sample_rows=20,
            )
        assert sorted(built) == [
            "canonical_config", "config_fingerprint",
            "table_identity", "table_identity",
        ]
        reader = ArtifactCache(cache.root)
        for scenario in ("S1", "S3", "S4"):
            s = get_scenario(scenario)
            for seed in range(3):
                key = artifact_key(runner.SCENARIO_UNIT_KIND, [evaluation], {
                    "scenario": [s.name, s.train, s.test], "seed": seed,
                })
                assert reader.get(key) is not None, (scenario, seed)

    @pytest.mark.parametrize(
        "damage", ["not_zlib", "truncated", "not_a_run", "no_payload"]
    )
    def test_corrupt_or_truncated_entry_recomputes_and_rewrites(
        self, tmp_path, splits, damage
    ):
        dataset = generate("SmartFactory", n_rows=80, seed=2)
        cache = ArtifactCache(str(tmp_path / "art"))
        with cache_scope(cache):
            reference = run_scenario("S1", dataset.dirty, dataset, "DT")
            (key,) = _unit_entries(cache)
            payload = cache.get(key).arrays["payload"]
            arrays = {
                "not_zlib": {"payload": np.frombuffer(b"junk", np.uint8)},
                "truncated": {"payload": payload[: payload.size // 2]},
                "not_a_run": {"payload": np.frombuffer(
                    zlib.compress(b'{"value": 0.5}'), np.uint8)},
                "no_payload": {"other": payload},
            }[damage]
            cache.put(key, arrays)
            assert run_scenario("S1", dataset.dirty, dataset, "DT") == reference
            assert len(splits) == 2
            rewritten = cache.get(key).arrays["payload"]
            assert rewritten.tobytes() == payload.tobytes()
            assert run_scenario("S1", dataset.dirty, dataset, "DT") == reference
            assert len(splits) == 2


# ----------------------------------------------------------------------
# Memoized detection and repair units
# ----------------------------------------------------------------------
def _memo_dataset():
    """Beers with a ``None`` dirty cell (a variation flips it to "NA")."""
    dataset = generate("Beers", n_rows=40, seed=1)
    dataset.dirty.set_cell(1, "style", None)
    return dataset


def _memo_detectors(sigmas=3.0, nested_sigmas=3.0):
    nested = [MVDetector(), SDDetector(nested_sigmas)]
    return [MVDetector(), SDDetector(sigmas), MinKDetector(base_detectors=nested)]


def _memo_detect(dataset, detectors=None, **guards):
    detectors = _memo_detectors() if detectors is None else detectors
    return run_detection_suite(dataset, detectors, sleep=null_sleep, **guards)


def _memo_repair(dataset, detections, repairs=None, **guards):
    repairs = repairs or [GroundTruthRepair(), MeanModeImputeRepair()]
    return run_repair_suite(
        dataset, detections, repairs, sleep=null_sleep, **guards
    )


def _unit_entries(cache):
    """Keys of the unit entries (one payload array) in ``cache``."""
    reader = ArtifactCache(cache.root)
    return {
        key for key in cache.entries()
        if set(reader.get(key).arrays) == {"payload"}
    }


def _timeless(runs):
    return json.dumps(
        [strip_timing(run.to_payload()) for run in runs], sort_keys=True
    )


class _ManualClock:
    """A clock that moves only when a test moves it."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def unit_memo_keys():
    """The memo key of every detector and repair method the controller
    offers for Beers and Adult (module level: fresh interpreters run it)."""
    keys = {}
    controller = BenchmarkController()
    guards = dict(deadline_seconds=None, retry=None, clock=None,
                  sleep=null_sleep)
    for name in ("Beers", "Adult"):
        dataset = generate(name, n_rows=40, seed=0)
        suite = runner._suite_memo_key(dataset)
        detectors = tuple(controller.applicable_detectors(dataset))
        detection = runner._DetectionShared(
            dataset=dataset, detectors=detectors, seed=0, memo_suite=suite,
            **guards,
        )
        for position, detector in enumerate(detectors):
            spec = UnitSpec(position, "unit", detector.name,
                            {"position": position})
            keys[f"{name}/{detector.name}"] = runner._unit_memo_key(
                detection, spec
            )
        repairs = tuple(controller.applicable_repairs(dataset))
        cells = tuple(sorted(dataset.error_cells))
        repair = runner._RepairShared(
            dataset=dataset, repairs=repairs, detections={"GT": cells},
            seed=0, memo_suite=suite, **guards,
        )
        for position, method in enumerate(repairs):
            spec = UnitSpec(position, "unit", method.name,
                            {"detector": "GT", "position": position})
            keys[f"{name}/GT+{method.name}"] = runner._unit_memo_key(
                repair, spec
            )
    return keys


class TestUnitMemo:
    """Detection and repair units are memoized by their exact inputs."""

    @pytest.fixture
    def calls(self, monkeypatch):
        """Count tool runs, repair validations and scoring calls."""
        calls = []

        def count(owner, name):
            original = getattr(owner, name)

            def counting(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, counting)

        count(Detector, "detect")
        count(RepairMethod, "repair")
        for name in ("detection_scores", "validate_repair_result",
                     "repair_scores_categorical", "repair_rmse"):
            count(runner, name)
        return calls

    def test_repeated_suite_hits_and_runs_nothing(self, tmp_path, calls):
        dataset = _memo_dataset()
        detections = {"GT": dataset.error_cells}

        def suite():
            return _memo_detect(dataset) + _memo_repair(dataset, detections)

        reference = _timeless(suite())
        cache = ArtifactCache(str(tmp_path / "art"))
        with cache_scope(cache):
            cold = suite()
            assert len(_unit_entries(cache)) == 5
            calls.clear()
            hits, misses = cache.hits, cache.misses
            warm = suite()
        assert calls == [], "a hit runs no tool and scores nothing"
        assert (cache.hits - hits, cache.misses - misses) == (5, 0)
        assert _timeless(cold) == reference and _timeless(warm) == reference
        # A hit replays the stored runtimes, as a resume does.
        assert [r.runtime_seconds for r in warm] == [
            r.runtime_seconds for r in cold
        ]

    def test_each_key_input_misses(self, tmp_path, monkeypatch):
        dataset = _memo_dataset()
        adult = generate("Adult", n_rows=40, seed=1)
        detections = {"GT": dataset.error_cells}
        replace = dataclasses.replace

        def edit(table, row, column, value):
            table = table.copy()
            table.set_cell(row, column, value)
            return table

        error = next(
            (row, "name") for row in range(dataset.dirty.n_rows)
            if (row, "name") not in dataset.error_cells
        )
        # name -> (suite keywords, stages it reaches, expected new entries)
        variations = {
            "dirty None -> NA": dict(dataset=replace(
                dataset, dirty=edit(dataset.dirty, 1, "style", "NA"))),
            "clean cell": dict(dataset=replace(
                dataset, clean=edit(dataset.clean, 2, "name", "x"))),
            "error cell": dict(dataset=replace(dataset, cells_by_type={
                **dataset.cells_by_type, "extra": {error}})),
            "constraints": dict(dataset=replace(
                dataset, constraints=adult.constraints[:1])),
            "fds": dict(dataset=replace(dataset, fds=dataset.fds[:1])),
            "patterns": dict(dataset=replace(
                dataset, patterns=dataset.patterns[:1])),
            "knowledge base": dict(dataset=replace(
                dataset, knowledge_base=None)),
            "key columns": dict(dataset=replace(dataset, key_columns=[])),
            "target": dict(dataset=replace(dataset, target="brewery")),
            "task": dict(dataset=replace(dataset, task="clustering")),
            "seed": dict(seed=1),
            "method params": dict(detectors=_memo_detectors(sigmas=2.5)),
            "nested base detector": dict(
                detectors=_memo_detectors(nested_sigmas=2.5)),
            "detections": dict(detections={
                "GT": set(sorted(dataset.error_cells)[1:])}),
            "source digest": dict(source="patched"),
        }
        expected = {"method params": 1, "nested base detector": 1,
                    "detections": 2}

        def run(dataset=dataset, seed=0, detectors=None,
                detections=detections, source=None):
            if source is not None:
                monkeypatch.setattr(cache_keys, "source_digest", lambda: source)
            _memo_detect(dataset, detectors, seed=seed)
            _memo_repair(dataset, detections, seed=seed)
            monkeypatch.undo()

        cache = ArtifactCache(str(tmp_path / "art"))
        with cache_scope(cache):
            run()
            assert len(_unit_entries(cache)) == 5
            run()
            assert len(_unit_entries(cache)) == 5, "a repeated suite hits"
            for name, change in variations.items():
                before = len(_unit_entries(cache))
                run(**change)
                after = len(_unit_entries(cache))
                assert after - before == expected.get(name, 5), name
                run(**change)
                assert len(_unit_entries(cache)) == after, name

    def test_failed_and_over_deadline_runs_are_never_stored(
        self, tmp_path, monkeypatch
    ):
        dataset = _memo_dataset()
        cache = ArtifactCache(str(tmp_path / "art"))
        original = SDDetector._detect
        clock, runs = _ManualClock(), []

        def crash(self, context):
            raise RuntimeError("tool crashed")

        def slow(self, context):
            runs.append(1)
            cells = original(self, context)
            clock.now += 10.0
            return cells

        with cache_scope(cache):
            monkeypatch.setattr(SDDetector, "_detect", crash)
            (run,) = _memo_detect(dataset, [SDDetector()])
            assert run.failed and _unit_entries(cache) == set()

            monkeypatch.setattr(SDDetector, "_detect", slow)
            budget = dict(clock=clock, deadline_seconds=5.0)
            (run,) = _memo_detect(dataset, [SDDetector()], **budget)
            assert not run.failed and run.runtime_seconds == 10.0
            assert _unit_entries(cache) == set(), "over its deadline"

            # Stored without a deadline, the run is a miss under one.
            (run,) = _memo_detect(dataset, [SDDetector()], clock=clock)
            assert len(_unit_entries(cache)) == 1 and len(runs) == 2
            (run,) = _memo_detect(dataset, [SDDetector()], **budget)
            assert len(runs) == 3, "a stored run over budget is a miss"
            (run,) = _memo_detect(dataset, [SDDetector()], clock=clock)
            assert len(runs) == 3 and run.runtime_seconds == 10.0

    def test_non_canonical_methods_are_never_stored(self, tmp_path):
        class LocalSD(SDDetector):
            pass

        hooked = SDDetector()
        hooked.hook = lambda values: values
        imputer = MissForestMixRepair()
        imputer.numeric_factory = lambda: DecisionTreeRegressor()
        cyclic = SDDetector()
        cyclic.parent = cyclic
        dataset = _memo_dataset()
        cache = ArtifactCache(str(tmp_path / "art"))
        with cache_scope(cache):
            runs = _memo_detect(dataset, [LocalSD(), hooked, cyclic])
            assert not any(run.failed for run in runs)
            gt = GroundTruthRepair()
            gt.hook = hooked.hook
            (run,) = _memo_repair(dataset, {"GT": dataset.error_cells}, [gt])
            assert not run.failed
        assert _unit_entries(cache) == set()
        for method in (LocalSD(), hooked, cyclic, imputer, gt):
            assert canonical_config(method) is None

    def test_repair_keys_digest_each_detection_set_once(self, monkeypatch):
        """A repair unit's key names a digest of its detection set; the
        suite digests each set once, and the keys stay those of the
        per-unit formula."""
        dataset = _memo_dataset()
        suite = runner._suite_memo_key(dataset)
        cells = tuple(sorted(dataset.error_cells))
        detections = {"GT": cells, "half": cells[::2]}
        repairs = (GroundTruthRepair(), MeanModeImputeRepair())
        digests = []
        original = runner._cells_digest
        monkeypatch.setattr(
            runner, "_cells_digest",
            lambda cells: digests.append(1) or original(cells),
        )
        shared = runner._RepairShared(
            dataset=dataset, repairs=repairs, detections=detections, seed=0,
            memo_suite=suite, deadline_seconds=None, retry=None, clock=None,
            sleep=null_sleep,
        )
        for detector, flagged in detections.items():
            for position, method in enumerate(repairs):
                spec = UnitSpec(position, "unit", method.name,
                                {"detector": detector, "position": position})
                expected = artifact_key(runner.REPAIR_UNIT_KIND, [suite], {
                    "detector": detector,
                    "repair": method.name,
                    "method": canonical_config(method),
                    "seed": 0,
                    "detections": config_fingerprint({
                        "cells": [[int(r), str(c)] for r, c in flagged]
                    }),
                })
                assert runner._unit_memo_key(shared, spec) == expected
        assert len(digests) == len(detections)

    def test_unit_keys_equal_in_fresh_interpreters(self, monkeypatch):
        keys = unit_memo_keys()
        assert len(keys) > 40
        assert all(isinstance(key, str) for key in keys.values()), keys
        # A spawned interpreter gets its own string-hash seed.
        monkeypatch.setenv("PYTHONHASHSEED", "4321")
        for method in ("fork", "spawn"):
            with multiprocessing.get_context(method).Pool(1) as pool:
                assert pool.apply(unit_memo_keys) == keys, method


# ----------------------------------------------------------------------
# End-to-end: cached vs uncached runs are byte-identical
# ----------------------------------------------------------------------
class _StepClock:
    def __init__(self, tick: float = 2.0 ** -10):
        self.ticks = 0
        self.tick = tick

    def __call__(self) -> float:
        self.ticks += 1
        return self.ticks * self.tick


class TestEndToEndEquivalence:
    def _suite(self, store, cache, executor=None):
        dataset = generate("SmartFactory", n_rows=120, seed=3)
        with SuiteCheckpoint.open(store, "run", resume=False) as ckpt:
            with cache_scope(cache):
                runs = run_detection_suite(
                    dataset, [MVDetector(), SDDetector(3.0)],
                    checkpoint=ckpt, clock=_StepClock(),
                    sleep=null_sleep, executor=executor,
                )
        return json.dumps(
            [r.to_payload() for r in runs], sort_keys=True
        ).encode()

    @pytest.mark.parametrize("cell", [math.inf, -math.inf, np.float32("nan")])
    def test_cells_without_json_form_score_like_uncached(self, tmp_path, cell):
        """An infinite float or a NaN of a non-``float`` type must key
        like any other cell: no failed unit, and the cold-cache,
        warm-cache and uncached scores agree."""
        dataset = generate("Nasa", n_rows=80, seed=0)
        dataset.dirty.set_cell(3, dataset.dirty.column_names[0], cell)

        def evaluate():
            return evaluate_scenarios(
                dataset, dataset.dirty, "dirty", "DT",
                scenario_names=("S1",), n_seeds=2,
            )

        reference = evaluate()
        cache = ArtifactCache(str(tmp_path / "art"))
        with cache_scope(cache):
            cold = evaluate()
            warm = evaluate()
        assert cache.stats()["hits"] > 0
        for evaluation in (reference, cold, warm):
            assert not any(evaluation.failures.values())
            assert not any(math.isnan(v) for v in evaluation.scores["S1"])
        assert cold.scores == reference.scores
        assert warm.scores == reference.scores

    @pytest.mark.parametrize("workers", [None, 2])
    def test_cached_run_matches_uncached(self, tmp_path, workers):
        executor = ProcessPoolExecutor(workers) if workers else None
        reference = self._suite(str(tmp_path / "ref.sqlite"), None, executor)
        cache = ArtifactCache(str(tmp_path / "art"))
        cold = self._suite(str(tmp_path / "cold.sqlite"), cache, executor)
        warm = self._suite(str(tmp_path / "warm.sqlite"), cache, executor)
        assert cold == reference
        assert warm == reference
