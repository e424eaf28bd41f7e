"""Tests for the dataset generators and the SQLite repository."""

import math

import numpy as np
import pytest

from repro.benchmark import evaluate_scenarios
from repro.datagen import DATASET_NAMES, dataset_spec, generate, table4_rows
from repro.dataset import CATEGORICAL, NUMERICAL, Schema, Table
from repro.repository import CheckpointStore
from repro.repository.store import encode_cell_value
from repro.resilience import (
    SuiteCheckpoint,
    table_from_payload,
    table_to_payload,
    unit_key,
)


class TestGenerators:
    def test_fourteen_datasets(self):
        assert len(DATASET_NAMES) == 14

    @pytest.mark.parametrize("name", DATASET_NAMES)
    def test_generate_small(self, name):
        dataset = generate(name, n_rows=80, seed=0)
        assert dataset.clean.n_rows == 80
        assert dataset.dirty.n_rows == 80
        assert dataset.clean.schema == dataset.dirty.schema
        # Mask consistency: recorded error cells equal the actual diff.
        assert dataset.error_cells == dataset.clean.diff_cells(dataset.dirty)
        assert dataset.error_cells, f"{name} generated no errors"

    @pytest.mark.parametrize("name", DATASET_NAMES)
    def test_schema_shape_matches_table4_mix(self, name):
        dataset = generate(name, n_rows=60, seed=1)
        schema = dataset.clean.schema
        spec = dataset_spec(name)
        assert dataset.task == spec.task
        assert len(schema.numerical_names) >= 1
        if dataset.task == "classification":
            assert dataset.target in schema

    def test_error_rate_tracks_table4(self):
        # Error rates should be within a factor-2 band of Table 4's.
        for name in ("Beers", "SmartFactory", "Water", "Citation"):
            dataset = generate(name, n_rows=200, seed=2)
            expected = dataset_spec(name).error_rate
            assert 0.3 * expected <= dataset.error_rate() <= 2.0 * expected, (
                name, dataset.error_rate(), expected
            )

    def test_reproducible(self):
        a = generate("Beers", n_rows=100, seed=5)
        b = generate("Beers", n_rows=100, seed=5)
        assert a.dirty == b.dirty
        assert a.error_cells == b.error_cells

    def test_different_seeds_differ(self):
        a = generate("Nasa", n_rows=100, seed=1)
        b = generate("Nasa", n_rows=100, seed=2)
        assert a.dirty != b.dirty

    def test_beers_signals(self):
        dataset = generate("Beers", n_rows=150, seed=3)
        assert dataset.fds
        assert dataset.patterns
        assert dataset.knowledge_base is not None
        # The FDs hold on the clean version.
        for fd in dataset.fds:
            assert fd.holds_on(dataset.clean), str(fd)

    def test_citation_has_duplicates_and_mislabels(self):
        dataset = generate("Citation", n_rows=150, seed=4)
        assert "duplicate" in dataset.error_types
        assert "mislabel" in dataset.error_types

    def test_context_wiring(self):
        dataset = generate("Beers", n_rows=100, seed=6)
        ctx = dataset.context(seed=9)
        assert ctx.dirty is dataset.dirty
        assert ctx.clean is dataset.clean
        assert ctx.fds == dataset.fds
        assert ctx.seed == 9
        blind = dataset.context(with_ground_truth=False)
        assert blind.clean is None

    def test_summary_row(self):
        dataset = generate("Water", n_rows=100, seed=7)
        row = dataset.summary_row()
        assert row["dataset"] == "Water"
        assert row["rows"] == 100
        assert row["task"] == "clustering"

    def test_table4_rows(self):
        assert table4_rows("Adult") == 45223
        assert table4_rows("Printer3D") == 50

    def test_validation(self):
        with pytest.raises(KeyError):
            generate("Nope")
        with pytest.raises(ValueError):
            generate("Beers", n_rows=5)


RUN = "run"


def _put_table(store, unit, table):
    store.put(RUN, unit, table_to_payload(table))


def _get_table(store, unit):
    return table_from_payload(store.get(RUN, unit))


def _repair_unit(repair, detector="X"):
    return unit_key("repair", "Nasa", detector=detector, repair=repair)


class TestDataRepository:
    """Figure 1's data repository: repaired versions travel as table
    payloads through the checkpoint store, and ``generate`` rebuilds the
    ground truth and the dirty data instead of storing them."""

    def test_round_trip(self):
        dataset = generate("Nasa", n_rows=60, seed=0)
        with CheckpointStore() as store:
            _put_table(store, "clean", dataset.clean)
            _put_table(store, "dirty", dataset.dirty)
            loaded_clean = _get_table(store, "clean")
            loaded_dirty = _get_table(store, "dirty")
        assert loaded_clean.diff_cells(dataset.clean) == set()
        assert loaded_dirty.diff_cells(dataset.dirty) == set()
        rebuilt = generate("Nasa", n_rows=60, seed=0)
        assert rebuilt.clean.diff_cells(dataset.clean) == set()
        assert rebuilt.dirty.diff_cells(dataset.dirty) == set()

    def test_variants(self):
        dataset = generate("Nasa", n_rows=40, seed=1)
        with CheckpointStore() as store:
            _put_table(store, _repair_unit("GT"), dataset.clean)
            _put_table(store, _repair_unit("none"), dataset.dirty)
            store.put(
                "other", _repair_unit("GT"), table_to_payload(dataset.dirty)
            )
            assert store.units(RUN) == sorted(
                [_repair_unit("GT"), _repair_unit("none")]
            )
            loaded = _get_table(store, _repair_unit("GT"))
            assert loaded.diff_cells(dataset.clean) == set()
            store.clear_run("other")
            assert store.count() == 2

    def test_missing_version_raises(self):
        with CheckpointStore() as store:
            assert store.get(RUN, _repair_unit("ghost")) is None
            with pytest.raises(TypeError):
                _get_table(store, _repair_unit("ghost"))

    def test_overwrite(self, tmp_path):
        dataset = generate("Nasa", n_rows=40, seed=3)
        with CheckpointStore(str(tmp_path / "store.sqlite")) as store:
            _put_table(store, "v", dataset.dirty)
            _put_table(store, "v", dataset.clean)  # replace, pending
            assert _get_table(store, "v").diff_cells(dataset.clean) == set()
            store.commit()
            _put_table(store, "v", dataset.dirty)
            _put_table(store, "v", dataset.clean)  # replace, committed
            store.commit()
            assert store.count(RUN) == 1
        with CheckpointStore(str(tmp_path / "store.sqlite")) as store:
            assert _get_table(store, "v").diff_cells(dataset.clean) == set()

    def test_numpy_scalar_cells_round_trip_as_numbers(self, tmp_path):
        # np.int64 used to fall through to str(), so integer cells came
        # back as strings after a save/load cycle.
        assert encode_cell_value(np.int64(7)) == 7
        assert isinstance(encode_cell_value(np.int64(7)), int)
        assert encode_cell_value(np.float32(1.5)) == 1.5
        assert isinstance(encode_cell_value(np.float64(1.5)), float)
        assert encode_cell_value("label") == "label"
        assert encode_cell_value(np.float64("nan")) is None

        schema = Schema.from_pairs([("n", NUMERICAL), ("c", CATEGORICAL)])
        table = Table(
            schema,
            {
                "n": [np.int64(1), np.float32(2.5), np.int32(3)],
                "c": ["a", "b", "c"],
            },
        )
        path = str(tmp_path / "store.sqlite")
        with CheckpointStore(path) as store:
            _put_table(store, "np", table)
        with CheckpointStore(path) as store:
            loaded = _get_table(store, "np")
        values = list(loaded.column("n"))
        assert values == [1, 2.5, 3]
        assert not any(isinstance(v, str) for v in values)


class TestResultsStore:
    """The results half of Figure 1's repository: each (scenario, seed)
    score a suite computes is logged as one checkpoint-store unit."""

    @staticmethod
    def _evaluate(store, **kwargs):
        dataset = generate("SmartFactory", n_rows=60, seed=0)
        return evaluate_scenarios(
            dataset, dataset.dirty, "dirty", "DT",
            scenario_names=("S1", "S4"), n_seeds=2,
            checkpoint=SuiteCheckpoint(store, RUN), **kwargs,
        )

    @staticmethod
    def _logged(store, scenario=None):
        """Stored score payloads of the model units, in unit-key order."""
        return [
            store.get(RUN, unit)["value"]
            for unit in store.units(RUN)
            if unit.startswith("model/")
            and scenario in (None, unit.split("/")[5])
        ]

    def test_add_and_query(self):
        with CheckpointStore() as store:
            evaluation = self._evaluate(store)
            assert store.count(RUN) == 4
            logged = self._logged(store)
            assert sorted(logged) == sorted(
                evaluation.scores["S1"] + evaluation.scores["S4"]
            )
            assert np.mean(self._logged(store, "S1")) == pytest.approx(
                evaluation.mean("S1")
            )

    def test_nan_stored_as_null(self):
        with CheckpointStore() as store:
            evaluation = self._evaluate(store, deadline_seconds=1e-9)
            assert all(math.isnan(v) for v in evaluation.scores["S1"])
            assert self._logged(store) == [None] * 4

    def test_scenario_filter(self):
        with CheckpointStore() as store:
            evaluation = self._evaluate(store)
            assert self._logged(store, "S1") == evaluation.scores["S1"]
            assert self._logged(store, "S4") == evaluation.scores["S4"]
