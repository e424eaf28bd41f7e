"""Dataset save/load round trips, repository metadata, and failure
injection into the benchmark runner."""

import json

import numpy as np
import pytest

from repro.benchmark import run_detection_suite, run_repair_suite
from repro.context import CleaningContext
from repro.datagen import generate
from repro.datagen.io import _kb_from_dict, _kb_to_dict, load_dataset, save_dataset
from repro.detectors import KnowledgeBase, MVDetector, NadeefDetector
from repro.detectors.base import Detector
from repro.benchmark.runner import RepairRun
from repro.repair import DeleteRepair, GroundTruthRepair, RepairMethod
from repro.repository import CheckpointStore
from repro.resilience import SuiteCheckpoint, unit_key


class TestDatasetRoundTrip:
    @pytest.mark.parametrize("name", ["Beers", "Citation", "Nasa"])
    def test_save_load_preserves_everything(self, tmp_path, name):
        dataset = generate(name, n_rows=80, seed=4)
        directory = str(tmp_path / name)
        save_dataset(dataset, directory)
        loaded = load_dataset(directory)
        assert loaded.name == dataset.name
        assert loaded.task == dataset.task
        assert loaded.target == dataset.target
        assert loaded.key_columns == dataset.key_columns
        assert loaded.clean.diff_cells(dataset.clean) == set()
        assert loaded.dirty.diff_cells(dataset.dirty) == set()
        assert loaded.error_cells == dataset.error_cells
        assert loaded.cells_by_type.keys() == dataset.cells_by_type.keys()
        assert [str(fd) for fd in loaded.fds] == [
            str(fd) for fd in dataset.fds
        ]
        assert len(loaded.constraints) == len(dataset.constraints)
        assert len(loaded.patterns) == len(dataset.patterns)

    def test_knowledge_base_round_trip(self, tmp_path):
        dataset = generate("Beers", n_rows=80, seed=5)
        directory = str(tmp_path / "beers")
        save_dataset(dataset, directory)
        loaded = load_dataset(directory)
        assert isinstance(loaded.knowledge_base, KnowledgeBase)
        assert loaded.knowledge_base.domains == dataset.knowledge_base.domains
        assert (
            loaded.knowledge_base.relations
            == dataset.knowledge_base.relations
        )
        # A loaded dataset drives the same rule-based detection.
        original = NadeefDetector().detect(dataset.context()).cells
        reloaded = NadeefDetector().detect(loaded.context()).cells
        assert original == reloaded

    def test_missing_directory(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_dataset(str(tmp_path / "ghost"))


class TestKnowledgeBaseSerialization:
    def test_pipe_in_concept_name_round_trips(self):
        # Regression: relations used to be serialized under "a|b" string
        # keys and re-split on the first "|", so a concept name that
        # itself contained a pipe came back attached to the wrong pair.
        kb = KnowledgeBase()
        kb.add_domain("city|district", {"alpha"})
        kb.add_relation("city|district", "zip", [("alpha", "10")])
        kb.add_relation("country", "capital", [("at", "vienna")])
        loaded = _kb_from_dict(_kb_to_dict(kb))
        assert loaded.domains == kb.domains
        assert loaded.relations == kb.relations
        assert ("city|district", "zip") in loaded.relations

    def test_round_trip_is_json_stable(self):
        kb = KnowledgeBase()
        kb.add_relation("country", "capital", [("at", "vienna")])
        payload = json.loads(json.dumps(_kb_to_dict(kb)))
        assert _kb_from_dict(payload).relations == kb.relations

    def test_legacy_pipe_keyed_relations_still_load(self):
        payload = {
            "domains": {"country": ["at", "de"]},
            "relations": {"country|capital": [["at", "vienna"]]},
        }
        loaded = _kb_from_dict(payload)
        assert loaded.relations == {("country", "capital"): {("at", "vienna")}}


class TestRepositoryMetadata:
    """Repair provenance (e.g. a Delete repair's ``kept_rows``) is stored
    with the repaired version in its checkpoint-store unit."""

    @staticmethod
    def _stored_run(repair, seed):
        dataset = generate("Nasa", n_rows=60, seed=seed)
        cells = MVDetector().detect(dataset.context(seed=0)).cells
        with CheckpointStore() as store:
            checkpoint = SuiteCheckpoint(store, "run")
            (run,) = run_repair_suite(
                dataset, {"MVD": cells}, [repair], checkpoint=checkpoint
            )
            payload = checkpoint.get(
                unit_key("repair", "Nasa", detector="MVD", repair=repair.name)
            )
        return run, payload

    def test_metadata_round_trip(self):
        run, payload = self._stored_run(DeleteRepair(), seed=6)
        kept_rows = run.result.metadata["kept_rows"]
        assert len(kept_rows) == run.result.repaired.n_rows < 60
        assert payload["result"]["metadata"]["kept_rows"] == kept_rows
        assert payload["detector"] == "MVD"
        loaded = RepairRun.from_payload(payload)
        assert loaded.result.metadata == run.result.metadata

    def test_default_metadata_empty(self):
        _, payload = self._stored_run(GroundTruthRepair(), seed=7)
        assert payload["result"]["metadata"] == {}

    def test_missing_metadata_raises(self):
        with CheckpointStore() as store:
            ghost = unit_key("repair", "ghost", repair="Delete")
            assert store.get("run", ghost) is None
            with pytest.raises(TypeError):
                RepairRun.from_payload(store.get("run", ghost))


class _ExplodingDetector(Detector):
    name = "Exploder"
    tackles = frozenset({"holistic"})

    def _detect(self, context):
        raise RuntimeError("synthetic detector crash")


class _ExplodingRepair(RepairMethod):
    name = "ExplodingRepair"

    def _repair(self, context, detections):
        raise ValueError("synthetic repair crash")


class TestFailureInjection:
    def test_detector_crash_contained(self):
        dataset = generate("Nasa", n_rows=80, seed=8)
        runs = run_detection_suite(
            dataset, [_ExplodingDetector(), MVDetector()], seed=0
        )
        by_name = {r.detector: r for r in runs}
        assert by_name["Exploder"].failed
        assert "synthetic detector crash" in by_name["Exploder"].failure
        assert not by_name["MVD"].failed
        # A failed detector scores zero, it does not poison the suite.
        assert by_name["Exploder"].scores.f1 == 0.0

    def test_repair_crash_contained(self):
        dataset = generate("Nasa", n_rows=80, seed=9)
        runs = run_repair_suite(
            dataset,
            {"oracle": dataset.error_cells},
            [_ExplodingRepair(), GroundTruthRepair()],
            seed=0,
        )
        by_name = {r.repair: r for r in runs}
        assert by_name["ExplodingRepair"].failed
        assert not by_name["GT"].failed

    def test_oracle_failure_mode(self):
        dataset = generate("Nasa", n_rows=60, seed=10)
        blind = dataset.context(with_ground_truth=False)
        with pytest.raises(RuntimeError):
            GroundTruthRepair().repair(blind, dataset.error_cells)
