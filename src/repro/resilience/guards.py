"""Execution guards: retry, circuit breaking, and the guarded-call boundary.

:func:`guarded_call` is the *single* sanctioned broad-except site of the
benchmark pipeline (``tools/check_exceptions.py`` enforces this).  It runs
one unit of untrusted detector / repair / model work and always returns a
:class:`GuardedResult`: either the value, or a categorized
:class:`~repro.resilience.failures.FailureRecord` with the elapsed time up
to the failure and the number of retries spent.  ``KeyboardInterrupt`` and
``SystemExit`` are never swallowed -- interrupting a suite must work, and
the checkpoint layer resumes it afterwards.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, Optional

from repro.observability.telemetry import current_telemetry
from repro.observability.trace import ATTEMPT, UNIT
from repro.resilience.deadline import Deadline
from repro.resilience.failures import (
    TRANSIENT,
    FailureRecord,
    classify_exception,
)


class RetryPolicy:
    """Exponential backoff with deterministic jitter.

    Only ``transient`` failures are retried -- re-running a tool that hit
    a memory boundary or produced corrupt output wastes the suite budget.
    Jitter is derived by hashing ``(key, attempt, seed)`` so a given suite
    configuration always produces the same backoff schedule (checkpointed
    resumes stay reproducible).
    """

    def __init__(
        self,
        max_attempts: int = 3,
        base_delay: float = 0.05,
        max_delay: float = 2.0,
        jitter_fraction: float = 0.5,
        seed: int = 0,
    ) -> None:
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if base_delay < 0 or max_delay < 0:
            raise ValueError("delays must be non-negative")
        if not 0.0 <= jitter_fraction <= 1.0:
            raise ValueError("jitter_fraction must be in [0, 1]")
        self.max_attempts = max_attempts
        self.base_delay = base_delay
        self.max_delay = max_delay
        self.jitter_fraction = jitter_fraction
        self.seed = seed

    @classmethod
    def none(cls) -> "RetryPolicy":
        """A single-attempt policy (no retries)."""
        return cls(max_attempts=1)

    def should_retry(self, exc: BaseException, attempt: int) -> bool:
        """Retry only transient failures with attempts remaining."""
        if attempt >= self.max_attempts:
            return False
        return classify_exception(exc) == TRANSIENT

    def delay(self, key: str, attempt: int) -> float:
        """Backoff before retry number ``attempt`` (1-based)."""
        raw = min(self.base_delay * (2 ** (attempt - 1)), self.max_delay)
        if self.jitter_fraction == 0.0:
            return raw
        digest = hashlib.sha256(
            f"{key}|{attempt}|{self.seed}".encode()
        ).digest()
        unit = int.from_bytes(digest[:8], "big") / float(2 ** 64)
        # Jitter shrinks the delay by up to jitter_fraction -- never grows
        # it, so the worst-case backoff stays bounded by max_delay.
        return raw * (1.0 - self.jitter_fraction * unit)

    def delays(self, key: str) -> Iterator[float]:
        for attempt in range(1, self.max_attempts):
            yield self.delay(key, attempt)


class CircuitBreaker:
    """Per-method quarantine after K *consecutive* failures.

    The suite keeps one breaker per run; a detector or repair that fails
    ``threshold`` times in a row (across datasets) is quarantined and
    skipped for the remainder of the run, with the reason recorded --
    mirroring how REIN reports tools that "stopped working" instead of
    letting one broken tool stall every remaining experiment.
    """

    def __init__(self, threshold: int = 3) -> None:
        if threshold < 1:
            raise ValueError("threshold must be >= 1")
        self.threshold = threshold
        self._consecutive: Dict[str, int] = {}
        self._reasons: Dict[str, str] = {}

    def record_success(self, method: str) -> None:
        self._consecutive[method] = 0

    def record_failure(self, method: str, reason: str = "") -> None:
        count = self._consecutive.get(method, 0) + 1
        self._consecutive[method] = count
        if count >= self.threshold and method not in self._reasons:
            detail = f"; last failure: {reason}" if reason else ""
            self._reasons[method] = (
                f"quarantined after {count} consecutive failures{detail}"
            )

    def is_quarantined(self, method: str) -> bool:
        return method in self._reasons

    def reason(self, method: str) -> str:
        return self._reasons.get(method, "")

    def failures(self, method: str) -> int:
        return self._consecutive.get(method, 0)

    @property
    def quarantined(self) -> Dict[str, str]:
        """Mapping of quarantined method name -> recorded reason."""
        return dict(self._reasons)

    # ------------------------------------------------------------------
    # Snapshot / merge (parallel execution sync points)
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """Picklable view of the breaker's state."""
        return {
            "threshold": self.threshold,
            "consecutive": dict(self._consecutive),
            "reasons": dict(self._reasons),
        }

    @classmethod
    def from_snapshot(cls, state: Dict[str, Any]) -> "CircuitBreaker":
        breaker = cls(threshold=state["threshold"])
        breaker._consecutive = dict(state["consecutive"])
        breaker._reasons = dict(state["reasons"])
        return breaker

    def merge(self, other: "CircuitBreaker") -> None:
        """Fold another breaker's state into this one (sync points).

        Quarantines are sticky (the first recorded reason wins) and the
        pessimistic consecutive-failure count is kept, so merging worker
        views can only tighten, never loosen, the quarantine set.
        """
        for method, count in other._consecutive.items():
            self._consecutive[method] = max(
                self._consecutive.get(method, 0), count
            )
        for method, reason in other._reasons.items():
            self._reasons.setdefault(method, reason)


@dataclass
class GuardedResult:
    """Outcome of one guarded call: a value or a failure, never both."""

    value: Any = None
    failure: Optional[FailureRecord] = None
    elapsed_seconds: float = 0.0
    retries: int = 0
    metadata: Dict[str, Any] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.failure is None


def unit_span_attrs(
    stage: str, method: str, failure_context: Dict[str, Any]
) -> Dict[str, Any]:
    """Attributes of a unit's ``unit`` span: its stage, its method and
    the scalar entries of its failure context."""
    return {
        "stage": stage,
        "method": method,
        **{
            key: value
            for key, value in failure_context.items()
            if isinstance(value, (str, int, float, bool))
        },
    }


def guarded_call(
    fn: Callable[[], Any],
    method: str,
    stage: str,
    deadline: Optional[Deadline] = None,
    retry: Optional[RetryPolicy] = None,
    breaker: Optional[CircuitBreaker] = None,
    clock: Optional[Callable[[], float]] = None,
    sleep: Callable[[float], None] = time.sleep,
    **failure_context: Any,
) -> GuardedResult:
    """Run ``fn`` under quarantine / deadline / retry guards.

    The elapsed time covers every attempt including backoff-free failure
    time, so crashed tools still report honest runtimes.  ``clock`` is
    injectable (defaults to ``time.perf_counter``) so chaos tests can make
    timing deterministic.

    When a telemetry session is installed
    (:func:`repro.observability.current_telemetry`), each call records a
    ``unit`` span with one ``attempt`` child per try, plus unit/retry
    counters and a compute-time histogram -- on the *process-local*
    telemetry, so worker processes buffer their own spans for the
    driver's deterministic merge.  Without telemetry the overhead is one
    global read; the returned result is identical either way.
    """
    clock = clock or time.perf_counter
    retry = retry or RetryPolicy.none()
    telemetry = current_telemetry()
    if breaker is not None and breaker.is_quarantined(method):
        if telemetry is not None:
            telemetry.count("units.quarantine_skips")
        return GuardedResult(
            failure=FailureRecord.quarantine_skip(
                method, stage, breaker.reason(method), **failure_context
            )
        )
    unit_span = None
    if telemetry is not None:
        unit_span = telemetry.tracer.begin(
            f"{stage}:{method}", UNIT,
            **unit_span_attrs(stage, method, failure_context),
        )

    def book(outcome: str, elapsed: float, retries: int) -> None:
        """Close the unit span and record the unit's metrics."""
        if telemetry is None:
            return
        unit_span.attrs["outcome"] = outcome
        telemetry.tracer.finish(unit_span)
        telemetry.count(f"units.{outcome}")
        if retries:
            telemetry.count("retries", retries)
        telemetry.observe("unit.compute_seconds", elapsed)

    started = clock()
    attempt = 0
    while True:
        attempt += 1
        if deadline is not None and deadline.expired():
            elapsed = clock() - started
            record = FailureRecord(
                method=method,
                stage=stage,
                category="capability",
                error_type="DeadlineExceeded",
                message=(
                    f"budget of {deadline.budget_seconds}s exhausted "
                    "before attempt could start"
                ),
                elapsed_seconds=elapsed,
                retries=attempt - 1,
                context=dict(failure_context),
            )
            if breaker is not None:
                breaker.record_failure(method, record.describe())
            book("failed", elapsed, attempt - 1)
            return GuardedResult(
                failure=record, elapsed_seconds=elapsed, retries=attempt - 1
            )
        try:
            if telemetry is not None:
                with telemetry.tracer.span(f"attempt-{attempt}", ATTEMPT):
                    value = fn()
            else:
                value = fn()
        except Exception as exc:  # noqa: BLE001 - sanctioned failure boundary
            if retry.should_retry(exc, attempt):
                sleep(retry.delay(f"{stage}:{method}", attempt))
                continue
            elapsed = clock() - started
            record = FailureRecord.from_exception(
                exc,
                method,
                stage,
                elapsed_seconds=elapsed,
                retries=attempt - 1,
                **failure_context,
            )
            if breaker is not None:
                breaker.record_failure(method, record.describe())
            book("failed", elapsed, attempt - 1)
            return GuardedResult(
                failure=record, elapsed_seconds=elapsed, retries=attempt - 1
            )
        elapsed = clock() - started
        if breaker is not None:
            breaker.record_success(method)
        book("ok", elapsed, attempt - 1)
        return GuardedResult(
            value=value, elapsed_seconds=elapsed, retries=attempt - 1
        )
