"""Benchmark jobs: the canonical, content-addressed unit of service work.

A job is one declarative benchmark configuration -- the same vocabulary
the CLI stage commands speak (``detect`` / ``repair`` / ``model`` on one
dataset) -- reduced to a :class:`JobSpec` whose identity is the
content-addressed hash of its canonical structure
(:func:`~repro.resilience.checkpoint.run_id_for`).  Two submissions of
the same configuration are therefore *the same job*: the queue
deduplicates on ``job_id`` and the second submitter simply observes the
first submission's lifecycle.

Deduplication only works if a job's result is a pure function of its
spec, so :func:`execute_job` produces a *deterministic* canonical
payload: wall-clock readings (per-run ``runtime_seconds``, failure
``elapsed_seconds``) are stripped out of the result.  Timing belongs to
the observability ledger, where every job execution is tagged with its
job id; the result is the reproducible science.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Mapping, Optional, Sequence

from repro.benchmark.controller import BenchmarkController
from repro.benchmark.runner import (
    evaluate_scenarios,
    run_detection_suite,
    run_repair_suite,
)
from repro.benchmark.scenarios import ALL_SCENARIOS
from repro.datagen import DATASET_NAMES, dataset_spec, generate
from repro.repair.base import RepairMethod
from repro.repository.store import sanitize_payload
from repro.resilience.checkpoint import SuiteCheckpoint, run_id_for

JOB_KINDS = ("detect", "repair", "model")

#: Option keys each kind accepts; anything else is a malformed config.
_OPTION_KEYS = {
    "detect": {"detectors", "block_rows"},
    "repair": {"detectors", "repairs"},
    "model": {"model", "scenarios", "n_seeds", "sample_rows"},
}

#: Schema version folded into every job id: bump when the result payload
#: shape changes so stale cached results are never served for new specs.
JOB_SCHEMA_VERSION = 1


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(message)


def _validate_name_list(value: Any, what: str, known: Sequence[str]) -> None:
    _require(
        isinstance(value, (list, tuple)) and len(value) > 0,
        f"{what} must be a non-empty list of names",
    )
    unknown = [n for n in value if n not in known]
    _require(not unknown, f"unknown {what} {unknown!r}")


@dataclass(frozen=True)
class JobSpec:
    """One declarative benchmark job (picklable, JSON-round-trippable).

    ``options`` refines the stage: detector/repair/model names from the
    registries, scenario names, seeds-per-scenario.  Validation happens
    at construction so a malformed config is rejected at the submission
    boundary (HTTP 400 / CLI exit 3) instead of crashing a worker.
    """

    kind: str
    dataset: str
    rows: int = 400
    seed: int = 0
    options: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        _require(self.kind in JOB_KINDS, f"kind must be one of {JOB_KINDS}")
        _require(
            self.dataset in DATASET_NAMES,
            f"unknown dataset {self.dataset!r}",
        )
        _require(
            isinstance(self.rows, int) and self.rows >= 1,
            "rows must be a positive integer",
        )
        _require(isinstance(self.seed, int), "seed must be an integer")
        _require(
            isinstance(self.options, Mapping),
            "options must be a mapping",
        )
        allowed = _OPTION_KEYS[self.kind]
        extra = sorted(set(self.options) - allowed)
        _require(
            not extra,
            f"unknown option(s) {extra!r} for kind {self.kind!r} "
            f"(allowed: {sorted(allowed)})",
        )
        self._validate_options()

    def _validate_options(self) -> None:
        options = self.options
        if "detectors" in options:
            from repro.detectors import detector_registry

            _validate_name_list(
                options["detectors"], "detectors", detector_registry()
            )
        if "repairs" in options:
            from repro.repair import repair_registry

            registry = repair_registry()
            _validate_name_list(options["repairs"], "repairs", registry)
            non_generic = [
                n for n in options["repairs"]
                if not isinstance(registry[n], RepairMethod)
            ]
            _require(
                not non_generic,
                f"ML-oriented repairs produce models, not tables: "
                f"{non_generic!r}",
            )
        if "block_rows" in options:
            value = options["block_rows"]
            _require(
                isinstance(value, int) and value >= 1,
                "block_rows must be a positive integer",
            )
        if self.kind == "model":
            _require(
                dataset_spec(self.dataset).task is not None,
                f"{self.dataset!r} has no associated ML task",
            )
            from repro.ml.model_zoo import get_spec

            model = options.get("model", "DT")
            _require(isinstance(model, str), "model must be a string")
            get_spec(dataset_spec(self.dataset).task, model)
            scenarios = options.get("scenarios", ["S1", "S4"])
            _validate_name_list(
                scenarios, "scenarios", [s.name for s in ALL_SCENARIOS]
            )
            n_seeds = options.get("n_seeds", 3)
            _require(
                isinstance(n_seeds, int) and n_seeds >= 1,
                "n_seeds must be a positive integer",
            )
            sample_rows = options.get("sample_rows")
            _require(
                sample_rows is None
                or (isinstance(sample_rows, int) and sample_rows >= 1),
                "sample_rows must be a positive integer",
            )

    @property
    def job_id(self) -> str:
        """Content-addressed identity: same config, same job."""
        return run_id_for(
            "service-job",
            JOB_SCHEMA_VERSION,
            self.kind,
            self.dataset,
            self.rows,
            self.seed,
            dict(self.options),
        )

    def to_payload(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "dataset": self.dataset,
            "rows": self.rows,
            "seed": self.seed,
            "options": dict(self.options),
        }

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "JobSpec":
        _require(isinstance(payload, Mapping), "job spec must be an object")
        extra = sorted(
            set(payload) - {"kind", "dataset", "rows", "seed", "options"}
        )
        _require(not extra, f"unknown job spec field(s) {extra!r}")
        _require("kind" in payload, "job spec needs a 'kind'")
        _require("dataset" in payload, "job spec needs a 'dataset'")
        return cls(
            kind=payload["kind"],
            dataset=payload["dataset"],
            rows=payload.get("rows", 400),
            seed=payload.get("seed", 0),
            options=dict(payload.get("options") or {}),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_payload(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "JobSpec":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"job spec is not valid JSON: {exc}") from exc
        return cls.from_payload(payload)


# ----------------------------------------------------------------------
# Deterministic result payloads
# ----------------------------------------------------------------------
def strip_timing(payload: Any) -> Any:
    """Zero out wall-clock fields so results are config-deterministic.

    ``runtime_seconds`` and ``elapsed_seconds`` are honest measurements
    in one-shot reports, but a deduplicated, content-addressed result
    must not depend on which run of the same config produced it.  The
    measured timings still reach the observability ledger untouched.
    """
    if isinstance(payload, dict):
        cleaned = {}
        for key, value in payload.items():
            if key == "runtime_seconds":
                cleaned[key] = None
            elif key == "elapsed_seconds":
                cleaned[key] = 0.0
            else:
                cleaned[key] = strip_timing(value)
        return cleaned
    if isinstance(payload, (list, tuple)):
        return [strip_timing(item) for item in payload]
    return payload


def canonical_result_text(payload: Mapping[str, Any]) -> str:
    """The one canonical JSON encoding of a job result.

    Both the service (stored ``result_json``, served verbatim by the
    result endpoint) and the one-shot CLI (``repro submit --inline``)
    emit exactly this text, which is what makes the byte-identity
    acceptance check meaningful.
    """
    return json.dumps(
        sanitize_payload(payload), sort_keys=True, allow_nan=False,
        separators=(",", ":"),
    )


def _default_repair_names() -> Sequence[str]:
    return ("GT", "Impute-Mean", "MISS-Mix")


def execute_job(
    spec: JobSpec,
    store_path: Optional[str] = None,
    telemetry: Any = None,
    executor: Any = None,
    clock: Optional[Callable[[], float]] = None,
    sleep: Optional[Callable[[float], None]] = None,
) -> Dict[str, Any]:
    """Execute one job through the existing engines; returns the result.

    This is *the* one-shot execution path: service workers and the
    ``repro submit --inline`` CLI both call it, so a job's service
    result is byte-identical to its local run by construction.

    ``store_path`` opens a per-job :class:`SuiteCheckpoint` (run id =
    job id, always resuming), so a job interrupted by a worker kill
    re-executes only its unfinished units.  ``clock``/``sleep`` are
    chaos-test injection points forwarded to the suite guards.
    """
    dataset = generate(spec.dataset, n_rows=spec.rows, seed=spec.seed)
    checkpoint = (
        SuiteCheckpoint.open(store_path, spec.job_id, resume=True)
        if store_path is not None
        else None
    )
    guard_kwargs: Dict[str, Any] = {
        "seed": spec.seed,
        "checkpoint": checkpoint,
        "executor": executor,
        "telemetry": telemetry,
    }
    if clock is not None:
        guard_kwargs["clock"] = clock
    if sleep is not None:
        guard_kwargs["sleep"] = sleep
    try:
        if spec.kind == "detect":
            body = _execute_detect(spec, dataset, guard_kwargs)
        elif spec.kind == "repair":
            body = _execute_repair(spec, dataset, guard_kwargs)
        else:
            body = _execute_model(spec, dataset, guard_kwargs)
    finally:
        if checkpoint is not None:
            checkpoint.close()
    result: Dict[str, Any] = {
        "schema": JOB_SCHEMA_VERSION,
        "job_id": spec.job_id,
        "spec": spec.to_payload(),
    }
    result.update(body)
    return strip_timing(sanitize_payload(result))


def _resolve_detectors(spec: JobSpec, dataset) -> Sequence[Any]:
    names = spec.options.get("detectors")
    if names is None:
        return BenchmarkController().applicable_detectors(dataset)
    from repro.detectors import detector_registry

    registry = detector_registry()
    return [registry[name] for name in names]


def _execute_detect(spec, dataset, guard_kwargs) -> Dict[str, Any]:
    runs = run_detection_suite(
        dataset,
        _resolve_detectors(spec, dataset),
        block_rows=spec.options.get("block_rows"),
        **guard_kwargs,
    )
    return {"kind": "detect", "runs": [r.to_payload() for r in runs]}


def _execute_repair(spec, dataset, guard_kwargs) -> Dict[str, Any]:
    from repro.repair import repair_registry

    detection_runs = run_detection_suite(
        dataset, _resolve_detectors(spec, dataset), **guard_kwargs
    )
    detections = {
        r.detector: set(r.result.cells)
        for r in detection_runs
        if not r.failed and r.result.n_detected
    }
    registry = repair_registry()
    repair_names = spec.options.get("repairs", _default_repair_names())
    repair_runs = run_repair_suite(
        dataset,
        detections,
        [registry[name] for name in repair_names],
        **guard_kwargs,
    )
    return {
        "kind": "repair",
        "detection_runs": [r.to_payload() for r in detection_runs],
        "repair_runs": [r.to_payload() for r in repair_runs],
    }


def _execute_model(spec, dataset, guard_kwargs) -> Dict[str, Any]:
    options = spec.options
    evaluation = evaluate_scenarios(
        dataset,
        dataset.dirty,
        "dirty",
        options.get("model", "DT"),
        scenario_names=tuple(options.get("scenarios", ["S1", "S4"])),
        n_seeds=options.get("n_seeds", 3),
        sample_rows=options.get("sample_rows"),
        checkpoint=guard_kwargs["checkpoint"],
        executor=guard_kwargs["executor"],
        telemetry=guard_kwargs["telemetry"],
        **{
            key: guard_kwargs[key]
            for key in ("clock", "sleep")
            if key in guard_kwargs
        },
    )
    return {
        "kind": "model",
        "variant": evaluation.variant,
        "model": evaluation.model,
        "scores": evaluation.scores,
        "failures": {
            scenario: {
                str(seed): record.to_payload()
                for seed, record in sorted(by_seed.items())
            }
            for scenario, by_seed in sorted(evaluation.failures.items())
        },
    }


def execute_job_payload(
    spec_payload: Mapping[str, Any], **context: Any
) -> Dict[str, Any]:
    """Worker-facing entry: spec payload in, result payload out.

    This is the default ``execute_ref`` a worker process resolves; the
    test and benchmark doubles in ``tests/service_doubles.py`` accept
    the same arguments.
    """
    return execute_job(JobSpec.from_payload(spec_payload), **context)
