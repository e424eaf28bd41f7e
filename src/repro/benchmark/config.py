"""Declarative experiment configurations.

The original REIN repository is driven by experiment declarations (which
dataset, which cleaners, which models, how many repetitions).  This module
provides the same interface: an :class:`ExperimentConfig` serializable to
JSON, and :func:`run_experiment` which executes the full detection ->
repair -> scenario pipeline it describes and returns a structured report.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.benchmark.controller import BenchmarkController
from repro.benchmark.runner import (
    DetectionRun,
    RepairRun,
    ScenarioEvaluation,
    evaluate_scenarios,
    run_detection_suite,
    run_repair_suite,
)
from repro.datagen import DATASET_NAMES, generate
from repro.detectors import detector_registry
from repro.ml.model_zoo import get_spec
from repro.repair import RepairMethod, repair_registry
from repro.reporting import render_table
from repro.resilience.failures import FailureRecord
from repro.resilience.policy import ResiliencePolicy


@dataclass
class ExperimentConfig:
    """One benchmark experiment declaration.

    Attributes:
        dataset: a Table 4 dataset name.
        n_rows: rows to generate (None = Table 4 size).
        seed: master seed for data generation and experiment RNG.
        detectors: detector names to run (None = controller decides).
        repairs: repair-method names (None = controller decides; only
            generic table-producing repairs are used here).
        models: model names from the zoo for the dataset's task.
        scenarios: Table 3 scenario names to evaluate.
        n_seeds: repetitions per scenario (the paper uses 10).
    """

    dataset: str
    n_rows: Optional[int] = None
    seed: int = 0
    detectors: Optional[List[str]] = None
    repairs: Optional[List[str]] = None
    models: List[str] = field(default_factory=lambda: ["DT"])
    scenarios: List[str] = field(default_factory=lambda: ["S1", "S4"])
    n_seeds: int = 3

    def __post_init__(self) -> None:
        if self.dataset not in DATASET_NAMES:
            raise ValueError(
                f"unknown dataset {self.dataset!r}; "
                f"choose from {sorted(DATASET_NAMES)}"
            )
        if self.n_seeds < 1:
            raise ValueError("n_seeds must be >= 1")
        known_detectors = set(detector_registry())
        for name in self.detectors or []:
            if name not in known_detectors:
                raise ValueError(f"unknown detector {name!r}")
        known_repairs = set(repair_registry())
        for name in self.repairs or []:
            if name not in known_repairs:
                raise ValueError(f"unknown repair method {name!r}")

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        payload = json.loads(text)
        return cls(**payload)


@dataclass
class ExperimentReport:
    """Everything one experiment produced."""

    config: ExperimentConfig
    detection_runs: List[DetectionRun]
    repair_runs: List[RepairRun]
    evaluations: List[ScenarioEvaluation]

    def detection_table(self) -> str:
        rows = [
            [r.detector, r.result.n_detected, r.scores.precision,
             r.scores.recall, r.scores.f1,
             "FAILED" if r.failed else ""]
            for r in self.detection_runs
        ]
        return render_table(
            ["detector", "detected", "precision", "recall", "f1", "note"],
            rows, title=f"{self.config.dataset}: detection",
        )

    def repair_table(self) -> str:
        rows = [
            [r.strategy, r.categorical_f1, r.numerical_rmse,
             "FAILED" if r.failed else ""]
            for r in self.repair_runs
        ]
        return render_table(
            ["strategy", "categorical_f1", "numerical_rmse", "note"],
            rows, title=f"{self.config.dataset}: repair grid",
        )

    def model_table(self) -> str:
        rows = []
        for evaluation in self.evaluations:
            row: List[object] = [evaluation.model, evaluation.variant]
            for scenario in self.config.scenarios:
                row.append(evaluation.mean(scenario))
                row.append(evaluation.std(scenario))
            rows.append(row)
        headers = ["model", "variant"]
        for scenario in self.config.scenarios:
            headers.extend([f"{scenario}_mean", f"{scenario}_std"])
        return render_table(
            headers, rows, title=f"{self.config.dataset}: modeling",
        )

    def failure_records(self) -> List[FailureRecord]:
        """Every categorized failure the experiment produced, in order."""
        records: List[FailureRecord] = []
        for run in self.detection_runs:
            if run.failure_record is not None:
                records.append(run.failure_record)
        for run in self.repair_runs:
            if run.failure_record is not None:
                records.append(run.failure_record)
        for evaluation in self.evaluations:
            for name in sorted(evaluation.failures):
                for seed in sorted(evaluation.failures[name]):
                    records.append(evaluation.failures[name][seed])
        return records

    def failures_table(self) -> str:
        """One row per failure: stage, method, category, reason."""
        rows = [
            [r.stage, r.method, r.category,
             "quarantined" if r.quarantined else f"retries={r.retries}",
             r.describe()]
            for r in self.failure_records()
        ]
        return render_table(
            ["stage", "method", "category", "note", "reason"], rows,
            title=f"{self.config.dataset}: failures",
        )

    def render(self) -> str:
        sections = [
            self.detection_table(), self.repair_table(), self.model_table()
        ]
        if self.failure_records():
            sections.append(self.failures_table())
        return "\n\n".join(sections)


def run_experiment(
    config: ExperimentConfig,
    policy: Optional[ResiliencePolicy] = None,
) -> ExperimentReport:
    """Execute one declared experiment end to end.

    ``policy`` activates the resilience layer: per-stage deadlines,
    transient retries, circuit-breaker quarantine shared across the whole
    experiment, and SQLite checkpoints keyed by a content-addressed run
    id (same config -> same run) so an interrupted experiment resumes by
    skipping completed units.
    """
    policy = policy or ResiliencePolicy()
    dataset = generate(config.dataset, n_rows=config.n_rows, seed=config.seed)
    breaker = policy.make_breaker()
    checkpoint = policy.open_checkpoint("experiment", config.to_json())
    controller = BenchmarkController(breaker=breaker)
    guard_kwargs = dict(
        deadline_seconds=policy.deadline_seconds,
        retry=policy.retry,
        breaker=breaker,
        checkpoint=checkpoint,
        clock=policy.clock,
        sleep=policy.sleep,
        executor=policy.make_executor(),
    )
    try:
        return _run_experiment_stages(
            config, dataset, controller, guard_kwargs, policy
        )
    finally:
        if checkpoint is not None:
            checkpoint.close()
        if guard_kwargs["executor"] is not None:
            guard_kwargs["executor"].close()


def _run_experiment_stages(
    config: ExperimentConfig,
    dataset,
    controller: BenchmarkController,
    guard_kwargs: Dict,
    policy: ResiliencePolicy,
) -> ExperimentReport:
    if config.detectors is None:
        detectors = controller.applicable_detectors(dataset)
    else:
        registry = detector_registry()
        detectors = [registry[name] for name in config.detectors]
    detection_runs = run_detection_suite(
        dataset, detectors, seed=config.seed, **guard_kwargs
    )

    if config.repairs is None:
        repairs = [
            m for m in controller.applicable_repairs(dataset)
            if isinstance(m, RepairMethod)
        ]
    else:
        registry = repair_registry()
        repairs = [registry[name] for name in config.repairs]
        non_generic = [m.name for m in repairs if not isinstance(m, RepairMethod)]
        if non_generic:
            raise ValueError(
                "ML-oriented repairs produce models, not tables; "
                f"remove {non_generic} or use the fig6 harness"
            )
    detections = {
        r.detector: set(r.result.cells)
        for r in detection_runs
        if not r.failed and r.result.n_detected > 0
    }
    repair_runs = run_repair_suite(
        dataset, detections, repairs, seed=config.seed, **guard_kwargs
    )

    evaluations: List[ScenarioEvaluation] = []
    if dataset.task is not None and config.models:
        variants = [("dirty", dataset.dirty, None)]
        for run in repair_runs:
            if run.failed:
                continue
            variants.append(
                (
                    run.strategy,
                    run.result.repaired,
                    run.result.metadata.get("kept_rows"),
                )
            )
        for model_name in config.models:
            get_spec(dataset.task, model_name)  # fail fast on bad names
            for variant_name, table, kept in variants:
                evaluations.append(
                    evaluate_scenarios(
                        dataset, table, variant_name, model_name,
                        scenario_names=tuple(config.scenarios),
                        n_seeds=config.n_seeds,
                        kept_rows=kept,
                        deadline_seconds=policy.deadline_seconds,
                        retry=policy.retry,
                        checkpoint=guard_kwargs.get("checkpoint"),
                        clock=policy.clock,
                        sleep=policy.sleep,
                        executor=guard_kwargs.get("executor"),
                    )
                )
    return ExperimentReport(config, detection_runs, repair_runs, evaluations)
