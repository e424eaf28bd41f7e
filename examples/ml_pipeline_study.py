"""End-to-end cleaning-for-ML study with persistence and significance tests.

Reproduces REIN's full pipeline on one dataset:

1. generate the ground truth + dirty versions (deterministic in the seed,
   so they are rebuilt rather than stored);
2. run a detector x repair grid; the checkpoint store keeps every repaired
   version in its repair unit, and the study reads them back from there;
3. train a model on every version under scenarios S1 and S4, repeated over
   seeds; each score is logged to the same store as one unit;
4. report mean +- std per version with the Wilcoxon S1-vs-S4 decision.

Run:  python examples/ml_pipeline_study.py
"""

from repro.benchmark import (
    evaluate_scenarios,
    run_detection_suite,
    run_repair_suite,
)
from repro.benchmark.runner import RepairRun
from repro.datagen import generate
from repro.detectors import MaxEntropyDetector, MVDetector
from repro.repair import GroundTruthRepair, MeanModeImputeRepair, MissForestMixRepair
from repro.repository import CheckpointStore
from repro.reporting import render_table
from repro.resilience import SuiteCheckpoint, run_id_for


def main() -> None:
    dataset = generate("SmartFactory", n_rows=400, seed=11)
    # In-memory; pass a path to CheckpointStore to persist (and resume).
    checkpoint = SuiteCheckpoint(
        CheckpointStore(), run_id_for("ml_pipeline_study", dataset.name, 11)
    )

    # Detection.
    detection_runs = run_detection_suite(
        dataset, [MVDetector(), MaxEntropyDetector()], seed=0,
        checkpoint=checkpoint,
    )
    detections = {
        run.detector: set(run.result.cells)
        for run in detection_runs
        if not run.failed and run.result.n_detected
    }

    # Repair grid -> repaired versions, stored under their unit keys.
    run_repair_suite(
        dataset, detections,
        [GroundTruthRepair(), MeanModeImputeRepair(), MissForestMixRepair()],
        seed=0, checkpoint=checkpoint,
    )
    variants = [("dirty", dataset.dirty, None)]
    repair_units = [
        unit for unit in checkpoint.completed_units()
        if unit.startswith("repair/")
    ]
    for unit in repair_units:
        run = RepairRun.from_payload(checkpoint.get(unit))
        if run.failed:
            continue
        variants.append((
            run.strategy, run.result.repaired,
            run.result.metadata.get("kept_rows"),
        ))
    print(f"stored versions: {[name for name, _, _ in variants[1:]]}\n")

    # Scenario evaluation with repeats + A/B test.
    rows = []
    for variant_name, table, kept in variants:
        evaluation = evaluate_scenarios(
            dataset, table, variant_name, "RF",
            scenario_names=("S1", "S4"), n_seeds=5, kept_rows=kept,
            checkpoint=checkpoint,
        )
        ab = evaluation.ab_test("S1", "S4")
        rows.append([
            variant_name,
            evaluation.mean("S1"), evaluation.std("S1"),
            evaluation.mean("S4"), evaluation.std("S4"),
            ab.p_value,
            "different" if ab.reject_null() else "equivalent",
        ])
    print(render_table(
        ["version", "S1_mean", "S1_std", "S4_mean", "S4_std", "p_value",
         "S1-vs-S4"],
        rows,
        title="Random forest F1 across data versions (5 seeds)",
    ))
    logged = [
        unit for unit in checkpoint.completed_units()
        if unit.startswith("model/")
    ]
    print(f"\nscore units logged: {len(logged)}")
    checkpoint.close()


if __name__ == "__main__":
    main()
