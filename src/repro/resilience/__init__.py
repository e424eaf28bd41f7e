"""Resilience layer: bounded, observable, recoverable benchmark execution.

REIN's field observation (Section 6.5) is that cleaning tools crash,
hang, and corrupt -- so the benchmark treats failure as a first-class
outcome.  This package supplies the three pillars:

- **execution guards** (:mod:`repro.resilience.guards`,
  :mod:`repro.resilience.deadline`): :func:`guarded_call` with per-stage
  wall-clock deadlines, retry with exponential backoff + deterministic
  jitter, and a per-method circuit breaker that quarantines a tool after
  K consecutive failures;
- a **structured failure taxonomy** (:mod:`repro.resilience.failures`):
  every failure becomes a :class:`FailureRecord` categorized as
  ``transient | capability | data | bug`` with honest elapsed time and
  retry counts -- plus output validation
  (:mod:`repro.resilience.validation`) that books corrupt repair outputs
  as ``data`` failures instead of scoring garbage;
- **checkpointed, resumable runs**
  (:mod:`repro.resilience.checkpoint`): per-unit results persisted to
  the SQLite repository so an interrupted suite resumes by skipping
  completed combinations.

There is no policy object bundling these: each front end (CLI, service
job, :func:`repro.benchmark.run_experiment`) builds the guards it wants,
passes them by keyword to the one stage driver
(:func:`repro.benchmark.config.run_stages`) and closes what it opened.
"""

from repro.resilience.checkpoint import (
    SuiteCheckpoint,
    run_id_for,
    table_from_payload,
    table_to_payload,
    unit_key,
)
from repro.resilience.deadline import Deadline, DeadlineExceeded
from repro.resilience.failures import (
    BUG,
    CAPABILITY,
    CATEGORIES,
    DATA,
    TRANSIENT,
    CorruptOutputError,
    FailureRecord,
    TransientError,
    classify_exception,
)
from repro.resilience.guards import (
    CircuitBreaker,
    GuardedResult,
    RetryPolicy,
    guarded_call,
)
from repro.resilience.validation import validate_repair_result

__all__ = [
    "BUG",
    "CAPABILITY",
    "CATEGORIES",
    "DATA",
    "TRANSIENT",
    "CircuitBreaker",
    "CorruptOutputError",
    "Deadline",
    "DeadlineExceeded",
    "FailureRecord",
    "GuardedResult",
    "RetryPolicy",
    "SuiteCheckpoint",
    "TransientError",
    "classify_exception",
    "guarded_call",
    "run_id_for",
    "table_from_payload",
    "table_to_payload",
    "unit_key",
    "validate_repair_result",
]
