"""Benchmark jobs: the canonical, content-addressed unit of service work.

A job is one declarative benchmark configuration -- the same vocabulary
the CLI stage commands speak (the ``detect`` / ``repair`` / ``model``
kinds of :data:`~repro.benchmark.config.STAGE_TABLE` on one dataset) --
reduced to a :class:`JobSpec` whose identity is the
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
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Mapping, Optional

from repro.benchmark.config import (
    is_int,
    require,
    run_stages,
    validate_options,
)
from repro.datagen import generate
from repro.repository.store import sanitize_payload
from repro.resilience.checkpoint import SuiteCheckpoint, run_id_for

JOB_KINDS = ("detect", "repair", "model")

#: Schema version folded into every job id: bump when the result payload
#: shape changes so stale cached results are never served for new specs.
JOB_SCHEMA_VERSION = 1


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
        require(self.kind in JOB_KINDS, f"kind must be one of {JOB_KINDS}")
        require(
            is_int(self.rows) and self.rows >= 1,
            "rows must be a positive integer",
        )
        require(is_int(self.seed), "seed must be an integer")
        validate_options(self.kind, self.dataset, self.options)

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
        require(isinstance(payload, Mapping), "job spec must be an object")
        extra = sorted(
            set(payload) - {"kind", "dataset", "rows", "seed", "options"}
        )
        require(not extra, f"unknown job spec field(s) {extra!r}")
        require("kind" in payload, "job spec needs a 'kind'")
        require("dataset" in payload, "job spec needs a 'dataset'")
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


def execute_job(
    spec: JobSpec,
    store_path: Optional[str] = None,
    telemetry: Any = None,
    executor: Any = None,
    clock: Optional[Callable[[], float]] = None,
    sleep: Optional[Callable[[float], None]] = None,
) -> Dict[str, Any]:
    """Execute one job through the stage driver; returns the result.

    This is *the* one-shot execution path: service workers and the
    ``repro submit --inline`` CLI both call it, so a job's service
    result is byte-identical to its local run by construction.

    ``store_path`` opens a per-job :class:`SuiteCheckpoint` (run id =
    job id, always resuming), so a job interrupted by a worker kill
    re-executes only its unfinished units.  ``clock``/``sleep`` are
    chaos-test injection points forwarded to the suite guards.
    """
    dataset = generate(spec.dataset, n_rows=spec.rows, seed=spec.seed)
    guards: Dict[str, Any] = {"executor": executor, "telemetry": telemetry}
    if clock is not None:
        guards["clock"] = clock
    if sleep is not None:
        guards["sleep"] = sleep
    store = (
        SuiteCheckpoint.open(store_path, spec.job_id, resume=True)
        if store_path is not None
        else nullcontext()
    )
    with store as checkpoint:
        detection_runs, repair_runs, evaluations = run_stages(
            dataset, spec.kind, spec.options, seed=spec.seed,
            checkpoint=checkpoint, **guards,
        )
    result: Dict[str, Any] = {
        "schema": JOB_SCHEMA_VERSION,
        "job_id": spec.job_id,
        "spec": spec.to_payload(),
        "kind": spec.kind,
    }
    if spec.kind == "detect":
        result["runs"] = [r.to_payload() for r in detection_runs]
    elif spec.kind == "repair":
        result["detection_runs"] = [r.to_payload() for r in detection_runs]
        result["repair_runs"] = [r.to_payload() for r in repair_runs]
    else:
        evaluation = evaluations[0]
        result.update(
            variant=evaluation.variant,
            model=evaluation.model,
            scores=evaluation.scores,
            failures={
                scenario: {
                    str(seed): record.to_payload()
                    for seed, record in sorted(by_seed.items())
                }
                for scenario, by_seed in sorted(evaluation.failures.items())
            },
        )
    return strip_timing(sanitize_payload(result))


def execute_job_payload(
    spec_payload: Mapping[str, Any], **context: Any
) -> Dict[str, Any]:
    """Worker-facing entry: spec payload in, result payload out.

    This is the default ``execute_ref`` a worker process resolves; the
    test and benchmark doubles in ``tests/service_doubles.py`` accept
    the same arguments.
    """
    return execute_job(JobSpec.from_payload(spec_payload), **context)
