"""Execution doubles for service tests and benchmarks.

Worker processes resolve their execution function from a
``module:attribute`` reference (``"service_doubles:sleepy_execute"``),
so doubles must live in an importable module -- this one.  Forked and
spawned workers both inherit ``sys.path``, which puts ``tests/`` within
reach.  Configuration crosses the process boundary through environment
variables (set them before ``WorkerPool.start``; children inherit them):

- ``REPRO_SERVICE_TEST_DIR``: directory for attempt markers and
  kill-coordination files;
- ``REPRO_SERVICE_SLEEP_SECONDS``: how long :func:`sleepy_execute`
  pretends to work (default 0.05).

Every double accepts what a service worker passes
:func:`repro.service.jobs.execute_job_payload`: ``(spec_payload, *,
store_path=None, telemetry=None, executor=None) -> result payload``.
"""

from __future__ import annotations

import os
import time
from pathlib import Path
from typing import Any, Dict, Mapping, Optional

from repro.resilience.failures import TransientError
from repro.service.jobs import JOB_SCHEMA_VERSION, JobSpec, execute_job

TEST_DIR_ENV = "REPRO_SERVICE_TEST_DIR"
SLEEP_ENV = "REPRO_SERVICE_SLEEP_SECONDS"


class StepClock:
    """Deterministic clock (see ``tests/test_chaos.StepClock``): integer
    tick counts times a power-of-two tick, so per-unit elapsed times are
    exact call-count multiples -- independent of which process runs the
    unit or what ran before it."""

    def __init__(self, tick: float = 2.0 ** -10):
        self.ticks = 0
        self.tick = tick

    def __call__(self) -> float:
        self.ticks += 1
        return self.ticks * self.tick


def _no_sleep(seconds: float) -> None:
    return None


def _test_dir() -> Optional[Path]:
    value = os.environ.get(TEST_DIR_ENV)
    return Path(value) if value else None


def _record_attempt(directory: Path, job_id: str) -> int:
    """Append one attempt marker; returns this execution's ordinal.

    Attempts of one job are serialized by the lease, so the
    append-then-count is race-free for the chaos scenarios that use it.
    """
    marker = directory / f"{job_id}.attempts"
    with open(marker, "a", encoding="utf-8") as handle:
        handle.write("x")
    return marker.read_text(encoding="utf-8").count("x")


def attempt_count(directory: Path, job_id: str) -> int:
    marker = Path(directory) / f"{job_id}.attempts"
    if not marker.exists():
        return 0
    return marker.read_text(encoding="utf-8").count("x")


# ----------------------------------------------------------------------
# Doubles
# ----------------------------------------------------------------------
def deterministic_execute(
    spec_payload: Mapping[str, Any],
    store_path: Optional[str] = None,
    telemetry: Any = None,
    executor: Any = None,
) -> Dict[str, Any]:
    """The real execution path on a :class:`StepClock`.

    With deterministic per-unit timings, the *checkpoint store* contents
    (not just the stripped result) are byte-comparable between an
    interrupted-and-resumed run and an uninterrupted one.
    """
    return execute_job(
        JobSpec.from_payload(spec_payload),
        store_path=store_path,
        telemetry=telemetry,
        executor=executor,
        clock=StepClock(),
        sleep=_no_sleep,
    )


def chaos_execute(
    spec_payload: Mapping[str, Any],
    store_path: Optional[str] = None,
    telemetry: Any = None,
    executor: Any = None,
) -> Dict[str, Any]:
    """Deterministic execution that parks after its *first* attempt.

    The first execution of each job runs to completion (checkpoints
    committed), drops a ``<job_id>.ready`` file to tell the test this
    worker is now killable, and hangs without ever reporting back -- the
    SIGKILL window.  The lease expires, the queue requeues the job, and
    the retry resumes from the checkpoint store.
    """
    spec = JobSpec.from_payload(spec_payload)
    directory = _test_dir()
    attempt = (
        _record_attempt(directory, spec.job_id)
        if directory is not None
        else 2
    )
    result = deterministic_execute(
        spec_payload,
        store_path=store_path,
        telemetry=telemetry,
        executor=executor,
    )
    if attempt == 1:
        (directory / f"{spec.job_id}.ready").touch()
        time.sleep(3600.0)
    return result


def sleepy_execute(
    spec_payload: Mapping[str, Any],
    store_path: Optional[str] = None,
    telemetry: Any = None,
    executor: Any = None,
) -> Dict[str, Any]:
    """Fixed-cost fake work; the throughput benchmark's payload."""
    spec = JobSpec.from_payload(spec_payload)
    time.sleep(float(os.environ.get(SLEEP_ENV, "0.05")))
    return {
        "schema": JOB_SCHEMA_VERSION,
        "job_id": spec.job_id,
        "spec": spec.to_payload(),
        "kind": "sleepy",
    }


def hanging_execute(
    spec_payload: Mapping[str, Any],
    store_path: Optional[str] = None,
    telemetry: Any = None,
    executor: Any = None,
) -> Dict[str, Any]:
    """Never returns; pure SIGKILL fodder for lease-expiry tests."""
    spec = JobSpec.from_payload(spec_payload)
    directory = _test_dir()
    if directory is not None:
        _record_attempt(directory, spec.job_id)
        (directory / f"{spec.job_id}.ready").touch()
    time.sleep(3600.0)
    raise AssertionError("unreachable")


def failing_execute(
    spec_payload: Mapping[str, Any],
    store_path: Optional[str] = None,
    telemetry: Any = None,
    executor: Any = None,
) -> Dict[str, Any]:
    """Deterministic non-retryable (data-category) failure."""
    raise ValueError("this job always fails (testing double)")


def flaky_execute(
    spec_payload: Mapping[str, Any],
    store_path: Optional[str] = None,
    telemetry: Any = None,
    executor: Any = None,
) -> Dict[str, Any]:
    """Transient failure on each job's first attempt, success after --
    exercises the queue's retry-on-transient path end to end."""
    spec = JobSpec.from_payload(spec_payload)
    directory = _test_dir()
    if directory is None:
        raise RuntimeError(f"flaky_execute needs {TEST_DIR_ENV} set")
    if _record_attempt(directory, spec.job_id) == 1:
        raise TransientError("first attempt always flakes (testing double)")
    return sleepy_execute(
        spec_payload, store_path=store_path, telemetry=telemetry
    )
