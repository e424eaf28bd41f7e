"""The stage table: one declaration drives every front end.

REIN's benchmark controller (Section 2, Figure 1) takes one declared
experiment and wires detection -> repair -> modeling from it.  This
module is that wiring, written once:

- :data:`STAGE_TABLE` maps each kind of run to the stages it sequences
  and the options it accepts, with their defaults;
- :func:`validate_options` is the one validator for those options
  (:class:`~repro.service.jobs.JobSpec`, :class:`ExperimentConfig` and
  the CLI stage commands all call it);
- :func:`run_stages` is the one driver: it resolves names through the
  registries or the controller, turns detection runs into repair input,
  builds the model variants and hands each suite the guards it accepts.

The front ends only build ``(kind, options)``, own their guards and
render or serialize what :func:`run_stages` returns.  The original REIN
repository is driven by experiment declarations; :class:`ExperimentConfig`
is that interface (JSON-serializable), and :func:`run_experiment`
executes it and returns a structured :class:`ExperimentReport`.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import (
    Any, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple,
)

from repro.benchmark.controller import BenchmarkController
from repro.benchmark.runner import (
    DetectionRun,
    RepairRun,
    ScenarioEvaluation,
    evaluate_scenarios,
    run_detection_suite,
    run_repair_suite,
)
from repro.benchmark.scenarios import ALL_SCENARIOS
from repro.datagen import DATASET_NAMES, dataset_spec, generate
from repro.detectors import detector_registry
from repro.ml.model_zoo import get_spec
from repro.repair import RepairMethod, repair_registry
from repro.reporting import render_table
from repro.resilience.failures import FailureRecord


class StageKind(NamedTuple):
    """The stages one kind of run sequences and the options it accepts.

    ``defaults`` maps every accepted option to its default.  ``None``
    means the controller decides (``detectors``, ``repairs``) or the
    feature is off (``block_rows``, ``sample_rows``).
    """

    stages: Tuple[str, ...]
    defaults: Mapping[str, Any]


#: Kind -> stages and options.  ``model`` evaluates the dirty table;
#: ``experiment`` also evaluates every repaired variant.
STAGE_TABLE: Dict[str, StageKind] = {
    "detect": StageKind(
        ("detect",), {"detectors": None, "block_rows": None}
    ),
    "repair": StageKind(
        ("detect", "repair"),
        {"detectors": None, "repairs": ("GT", "Impute-Mean", "MISS-Mix")},
    ),
    "model": StageKind(
        ("model",),
        {"model": "DT", "scenarios": ("S1", "S4"), "n_seeds": 3,
         "sample_rows": None},
    ),
    "experiment": StageKind(
        ("detect", "repair", "model"),
        {"detectors": None, "repairs": None, "models": ("DT",),
         "scenarios": ("S1", "S4"), "n_seeds": 3},
    ),
}


def require(condition: bool, message: str) -> None:
    """Raise ``ValueError(message)`` unless ``condition`` holds."""
    if not condition:
        raise ValueError(message)


def is_int(value: Any) -> bool:
    """An integer that is not a JSON boolean (``True`` is not ``1``)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _positive_int(value: Any, what: str) -> None:
    require(is_int(value) and value >= 1, f"{what} must be a positive integer")


def _name_list(value: Any, what: str, known: Sequence[str]) -> None:
    require(
        isinstance(value, (list, tuple)) and len(value) > 0,
        f"{what} must be a non-empty list of names",
    )
    unknown = [n for n in value if n not in known]
    require(not unknown, f"unknown {what} {unknown!r}")


def _check_repairs(value: Any) -> None:
    registry = repair_registry()
    _name_list(value, "repairs", registry)
    non_generic = [
        n for n in value if not isinstance(registry[n], RepairMethod)
    ]
    require(
        not non_generic,
        f"ML-oriented repairs produce models, not tables: {non_generic!r}",
    )


def _check_models(value: Any) -> None:
    require(
        isinstance(value, (list, tuple))
        and all(isinstance(n, str) for n in value),
        "models must be a list of names",
    )


#: Option -> check of an explicitly given value.
_OPTION_CHECKS = {
    "detectors": lambda v: _name_list(v, "detectors", detector_registry()),
    "repairs": _check_repairs,
    "block_rows": lambda v: _positive_int(v, "block_rows"),
    "model": lambda v: require(isinstance(v, str), "model must be a string"),
    "models": _check_models,
    "scenarios": lambda v: _name_list(
        v, "scenarios", [s.name for s in ALL_SCENARIOS]
    ),
    "n_seeds": lambda v: _positive_int(v, "n_seeds"),
    "sample_rows": lambda v: v is None or _positive_int(v, "sample_rows"),
}


def validate_options(
    kind: str, dataset: str, options: Mapping[str, Any]
) -> None:
    """Raise ``ValueError`` unless ``options`` is a valid ``kind`` config.

    Names are checked against the registries, integers must be positive
    and not booleans, and every model a run would train must exist for
    the dataset's task, so a bad config fails before any stage runs.
    """
    require(kind in STAGE_TABLE, f"kind must be one of {tuple(STAGE_TABLE)}")
    require(dataset in DATASET_NAMES, f"unknown dataset {dataset!r}")
    require(isinstance(options, Mapping), "options must be a mapping")
    stages, defaults = STAGE_TABLE[kind]
    extra = sorted(set(options) - set(defaults))
    require(
        not extra,
        f"unknown option(s) {extra!r} for kind {kind!r} "
        f"(allowed: {sorted(defaults)})",
    )
    for key in sorted(options):
        _OPTION_CHECKS[key](options[key])
    if "model" not in stages:
        return
    task = dataset_spec(dataset).task
    if task is None:
        # An experiment on a task-less dataset skips its model stage.
        require(kind == "experiment", f"{dataset!r} has no associated ML task")
        return
    for model in _models({**defaults, **options}):
        try:
            get_spec(task, model)
        except KeyError as exc:
            raise ValueError(f"unknown {task} model {model!r}") from exc


def _models(options: Mapping[str, Any]) -> Sequence[str]:
    return options["models"] if "models" in options else [options["model"]]


StageResults = Tuple[
    List[DetectionRun], List[RepairRun], List[ScenarioEvaluation]
]


def run_stages(
    dataset,
    kind: str,
    options: Mapping[str, Any],
    seed: int = 0,
    **guards: Any,
) -> StageResults:
    """Run the stages of ``kind`` on ``dataset``; the one stage driver.

    ``options`` must pass :func:`validate_options`; missing options take
    the table's defaults.  ``guards`` are the suite keywords
    (``deadline_seconds``, ``retry``, ``breaker``, ``checkpoint``,
    ``clock``, ``sleep``, ``executor``, ``telemetry``); the caller opens
    and closes them.  The scenario stage takes every guard but the
    breaker.  Returns ``(detection_runs, repair_runs, evaluations)``,
    empty for the stages ``kind`` does not run.
    """
    stages, defaults = STAGE_TABLE[kind]
    options = {**defaults, **options}
    controller = BenchmarkController(breaker=guards.get("breaker"))
    detection_runs: List[DetectionRun] = []
    repair_runs: List[RepairRun] = []
    evaluations: List[ScenarioEvaluation] = []
    if "detect" in stages:
        if options["detectors"] is None:
            detectors = controller.applicable_detectors(dataset)
        else:
            registry = detector_registry()
            detectors = [registry[name] for name in options["detectors"]]
        detection_runs = run_detection_suite(
            dataset, detectors, seed=seed,
            block_rows=options.get("block_rows"), **guards,
        )
    if "repair" in stages:
        if options["repairs"] is None:
            repairs = [
                m for m in controller.applicable_repairs(dataset)
                if isinstance(m, RepairMethod)
            ]
        else:
            registry = repair_registry()
            repairs = [registry[name] for name in options["repairs"]]
        detections = {
            r.detector: set(r.result.cells)
            for r in detection_runs
            if not r.failed and r.result.n_detected
        }
        repair_runs = run_repair_suite(
            dataset, detections, repairs, seed=seed, **guards
        )
    if "model" in stages and dataset.task is not None:
        variants = [("dirty", dataset.dirty, None)] + [
            (run.strategy, run.result.repaired,
             run.result.metadata.get("kept_rows"))
            for run in repair_runs
            if not run.failed
        ]
        scenario_guards = {k: v for k, v in guards.items() if k != "breaker"}
        for model in _models(options):
            for variant, table, kept_rows in variants:
                evaluations.append(evaluate_scenarios(
                    dataset, table, variant, model,
                    scenario_names=tuple(options["scenarios"]),
                    n_seeds=options["n_seeds"],
                    kept_rows=kept_rows,
                    sample_rows=options.get("sample_rows"),
                    **scenario_guards,
                ))
    return detection_runs, repair_runs, evaluations


_EXPERIMENT_DEFAULTS = STAGE_TABLE["experiment"].defaults


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

    The last five are the ``experiment`` options of :data:`STAGE_TABLE`,
    validated by :func:`validate_options` at construction.
    """

    dataset: str
    n_rows: Optional[int] = None
    seed: int = 0
    detectors: Optional[List[str]] = None
    repairs: Optional[List[str]] = None
    models: List[str] = field(
        default_factory=lambda: list(_EXPERIMENT_DEFAULTS["models"])
    )
    scenarios: List[str] = field(
        default_factory=lambda: list(_EXPERIMENT_DEFAULTS["scenarios"])
    )
    n_seeds: int = _EXPERIMENT_DEFAULTS["n_seeds"]

    def __post_init__(self) -> None:
        require(
            self.n_rows is None or (is_int(self.n_rows) and self.n_rows >= 1),
            "n_rows must be a positive integer or None",
        )
        require(is_int(self.seed), "seed must be an integer")
        validate_options("experiment", self.dataset, self.options())

    def options(self) -> Dict[str, Any]:
        """The stage-table options this declaration sets."""
        names = ("detectors", "repairs", "models", "scenarios", "n_seeds")
        return {
            name: getattr(self, name)
            for name in names
            if getattr(self, name) is not None
        }

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
    config: ExperimentConfig, **guards: Any
) -> ExperimentReport:
    """Execute one declared experiment end to end.

    ``guards`` are the suite keywords :func:`run_stages` forwards
    (``deadline_seconds``, ``retry``, ``breaker``, ``checkpoint``,
    ``clock``, ``sleep``, ``executor``, ``telemetry``).  The caller opens
    and closes them; one ``breaker`` is shared by the whole experiment.
    A checkpoint opened under ``run_id_for("experiment",
    config.to_json())`` gives the same run id to the same config, so an
    interrupted experiment resumes by skipping completed units.
    """
    dataset = generate(config.dataset, n_rows=config.n_rows, seed=config.seed)
    return ExperimentReport(
        config,
        *run_stages(
            dataset, "experiment", config.options(), seed=config.seed,
            **guards,
        ),
    )
