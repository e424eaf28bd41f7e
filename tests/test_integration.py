"""Cross-module integration tests: the full REIN pipeline end to end.

Dataset generation -> controller pruning -> detection -> repair ->
scenario evaluation -> checkpoint-store persistence, on multiple task
types.
"""

import math

import numpy as np
import pytest

from repro.benchmark import (
    BenchmarkController,
    evaluate_scenarios,
    run_detection_suite,
    run_repair_suite,
    run_scenario,
)
from repro.datagen import generate
from repro.detectors import MaxEntropyDetector, MVDetector
from repro.metrics import repair_rmse
from repro.repair import (
    GroundTruthRepair,
    MeanModeImputeRepair,
    MissForestMixRepair,
    RepairMethod,
)
from repro.repository import CheckpointStore
from repro.resilience import SuiteCheckpoint, unit_key


class TestClassificationPipeline:
    def test_end_to_end_smart_factory(self):
        dataset = generate("SmartFactory", n_rows=250, seed=42)
        controller = BenchmarkController()
        detectors = controller.applicable_detectors(dataset)
        assert detectors

        # Detection stage (subset for speed).
        quick = [d for d in detectors if d.name in ("MVD", "SD", "MaxEntropy")]
        detection_runs = run_detection_suite(dataset, quick, seed=0)
        best = max(
            (r for r in detection_runs if not r.failed),
            key=lambda r: r.scores.f1,
        )
        assert best.scores.f1 > 0.3

        # Repair stage.
        repairs = [
            m for m in controller.applicable_repairs(dataset)
            if m.name in ("GT", "Impute-Mean", "MISS-Mix")
            and isinstance(m, RepairMethod)
        ]
        repair_runs = run_repair_suite(
            dataset, {best.detector: set(best.result.cells)}, repairs, seed=0
        )
        ok = [r for r in repair_runs if not r.failed]
        assert len(ok) == len(repairs)
        gt_run = next(r for r in ok if r.repair == "GT")
        assert gt_run.numerical_rmse < repair_rmse(dataset.dirty, dataset.clean)

        # Modeling stage: repaired version's S1 should approach S4.
        repaired = gt_run.result.repaired
        evaluation = evaluate_scenarios(
            dataset, repaired, gt_run.strategy, "DT",
            scenario_names=("S1", "S4"), n_seeds=3,
        )
        assert evaluation.mean("S1") > evaluation.mean("S4") - 0.25

    def test_versions_round_trip_through_repository(self, tmp_path):
        dataset = generate("Beers", n_rows=120, seed=1)
        context = dataset.context(seed=0)
        detected = MVDetector().detect(context)
        path = str(tmp_path / "store.sqlite")
        with SuiteCheckpoint.open(path, "run") as checkpoint:
            (run,) = run_repair_suite(
                dataset, {"MVD": set(detected.cells)},
                [MeanModeImputeRepair()], checkpoint=checkpoint,
            )
        repaired = run.result.repaired
        with SuiteCheckpoint.open(path, "run") as checkpoint:
            # A resumed run reloads the stored version instead of repairing.
            (resumed,) = run_repair_suite(
                dataset, {"MVD": set(detected.cells)},
                [_Unrunnable("Impute-Mean")], checkpoint=checkpoint,
            )
        loaded = resumed.result.repaired
        assert loaded.diff_cells(repaired) == set()
        # The loaded version trains a model identically to the original.
        direct = run_scenario("S1", repaired, dataset, "DT", seed=0)
        via_repo = run_scenario("S1", loaded, dataset, "DT", seed=0)
        assert direct == pytest.approx(via_repo, abs=0.05)


class _Unrunnable(RepairMethod):
    """Stands in for a repair whose every unit is already stored."""

    def __init__(self, name):
        self.name = name

    def _repair(self, context, detections):
        raise AssertionError("a stored unit was recomputed")


class TestRegressionPipeline:
    def test_cleaning_improves_regression(self):
        dataset = generate("Nasa", n_rows=300, seed=2)
        context = dataset.context(seed=0)
        detected = MaxEntropyDetector().detect(context)
        repaired = GroundTruthRepair().repair(context, detected.cells).repaired
        dirty_rmse = run_scenario("S1", dataset.dirty, dataset, "Ridge", seed=0)
        repaired_rmse = run_scenario("S1", repaired, dataset, "Ridge", seed=0)
        clean_rmse = run_scenario("S4", dataset.dirty, dataset, "Ridge", seed=0)
        assert repaired_rmse <= dirty_rmse + 0.05
        assert clean_rmse <= dirty_rmse


class TestClusteringPipeline:
    def test_cleaning_improves_clustering(self):
        dataset = generate("Water", n_rows=200, seed=3)
        context = dataset.context(seed=0)
        detected = MaxEntropyDetector().detect(context)
        repaired = GroundTruthRepair().repair(context, detected.cells).repaired
        s1_repaired = run_scenario("S1", repaired, dataset, "KMeans", seed=0)
        s4 = run_scenario("S4", dataset.dirty, dataset, "KMeans", seed=0)
        # Repaired clustering lands in the same band as the ground truth.
        assert s1_repaired > s4 - 0.35


class TestResultsLogging:
    def test_experiment_records_accumulate(self):
        dataset = generate("Nasa", n_rows=150, seed=4)
        with CheckpointStore() as store:
            checkpoint = SuiteCheckpoint(store, "run")
            (run,) = run_detection_suite(
                dataset, [MVDetector()], seed=0, checkpoint=checkpoint
            )
            assert store.count("run") == 1
            payload = checkpoint.get(unit_key("detection", "Nasa", "MVD"))
            assert payload["scores"]["f1"] == run.scores.f1
            assert payload["runtime_seconds"] == run.result.runtime_seconds
            evaluate_scenarios(
                dataset, dataset.dirty, "dirty", "Ridge",
                scenario_names=("S1",), n_seeds=2, checkpoint=checkpoint,
            )
            assert store.count("run") == 3


class TestRobustnessToSeeds:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_pipeline_deterministic_per_seed(self, seed):
        dataset_a = generate("SmartFactory", n_rows=120, seed=seed)
        dataset_b = generate("SmartFactory", n_rows=120, seed=seed)
        ctx_a, ctx_b = dataset_a.context(seed=9), dataset_b.context(seed=9)
        cells_a = MaxEntropyDetector().detect(ctx_a).cells
        cells_b = MaxEntropyDetector().detect(ctx_b).cells
        assert cells_a == cells_b
