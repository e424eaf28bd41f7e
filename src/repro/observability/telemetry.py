"""The telemetry facade and the zero-cost-when-off current-telemetry hook.

One :class:`Telemetry` bundles the three observability surfaces -- a
span :class:`~repro.observability.trace.Tracer`, a
:class:`~repro.observability.metrics.MetricsRegistry`, and (driver-side
only) a :class:`~repro.observability.ledger.RunLedger` -- so the rest of
the codebase threads a single optional object.

Instrumented code never imports a concrete telemetry instance; it asks
:func:`current_telemetry` and does nothing when the answer is ``None``.
That is the whole zero-cost contract: with no telemetry installed, the
per-unit overhead is one module-global read and one ``is None`` branch,
and -- more importantly -- *nothing* telemetry-shaped can reach the unit
payloads or the checkpoint store, so suite outputs are byte-identical
with telemetry enabled or disabled (tier-1 proves this).

Worker processes install their own ledger-less telemetry
(:func:`install_telemetry` when a traced plan reaches them); after each
unit the engine ships :meth:`Telemetry.drain_transport` back with the
result and the driver absorbs it at finalization, in canonical unit
order.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional

from repro.observability.ledger import (
    BREAKER_OPEN,
    FAILURE,
    METRICS,
    SPAN,
    STAGE_FINISHED,
    STAGE_STARTED,
    RunLedger,
)
from repro.observability.memory import peak_rss_bytes
from repro.observability.metrics import DURATION_BUCKETS, MetricsRegistry
from repro.observability.trace import STAGE, Tracer


class Telemetry:
    """Tracer + metrics + (optional) ledger behind one handle."""

    def __init__(
        self,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
        ledger: Optional[RunLedger] = None,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        self.tracer = tracer or Tracer(clock=clock)
        self.metrics = metrics or MetricsRegistry()
        self.ledger = ledger

    # ------------------------------------------------------------------
    # Recording shorthands
    # ------------------------------------------------------------------
    def span(self, name: str, category: str, **attrs: Any):
        """Context manager: one timed span on the tracer."""
        return self.tracer.span(name, category, **attrs)

    def count(self, name: str, amount: int = 1) -> None:
        self.metrics.counter(name).inc(amount)

    def observe(self, name: str, value: float, boundaries=DURATION_BUCKETS) -> None:
        self.metrics.histogram(name, boundaries).observe(value)

    def gauge_max(self, name: str, value: float) -> None:
        """High-water-mark reading (peak memory); maximum wins on merge."""
        self.metrics.max_gauge(name).record(value)

    def event(self, event: str, **fields: Any) -> None:
        """Ledger event; silently dropped when no ledger is attached
        (worker processes and ledger-less runs)."""
        if self.ledger is not None:
            self.ledger.emit(event, **fields)

    # ------------------------------------------------------------------
    # Worker transport
    # ------------------------------------------------------------------
    def drain_transport(self) -> Optional[Dict[str, Any]]:
        """Finished spans + metrics since the last drain (worker side)."""
        spans = self.tracer.drain()
        metrics = None if self.metrics.empty else self.metrics.snapshot()
        self.metrics.reset()
        if not spans and metrics is None:
            return None
        return {"spans": spans, "metrics": metrics}

    def absorb_transport(self, transport: Optional[Dict[str, Any]]) -> None:
        """Fold one worker transport in (driver side, canonical order).

        Shipped spans are re-parented under the driver's innermost open
        span (the stage span during a suite) and re-numbered in shipping
        order, so the merged tree is deterministic for any worker count.
        """
        if not transport:
            return
        self.tracer.adopt(
            transport.get("spans") or [], parent_id=self.tracer.current_id()
        )
        if transport.get("metrics"):
            self.metrics.merge(transport["metrics"])

    # ------------------------------------------------------------------
    # Structured suite events
    # ------------------------------------------------------------------
    def record_failure(self, record: Any) -> None:
        """Ledger entry for one taxonomy FailureRecord."""
        self.event(FAILURE, record=record.to_payload())

    def record_breaker_open(self, method: str, reason: str) -> None:
        self.count("breaker.opens")
        self.event(BREAKER_OPEN, method=method, reason=reason)

    @contextmanager
    def stage(self, stage_name: str, **attrs: Any) -> Iterator[None]:
        """Span + ledger bracket around one suite stage.

        Also books the process peak-RSS high-water mark at stage exit
        (``memory.peak_rss_bytes`` max-gauge + the stage-finished event)
        so scalability runs get a memory reading for free.
        """
        self.event(STAGE_STARTED, stage=stage_name, **attrs)
        with self.span(stage_name, STAGE, **attrs) as span:
            yield
        peak = peak_rss_bytes()
        self.gauge_max("memory.peak_rss_bytes", peak)
        self.event(
            STAGE_FINISHED,
            stage=stage_name,
            duration_seconds=span.duration_seconds,
            peak_rss_bytes=peak,
            **attrs,
        )

    def flush_to_ledger(self) -> None:
        """Write the finished span tree and metrics snapshot as events.

        Called once when a run ends; ``repro trace`` rebuilds the Chrome
        trace from exactly these ``span`` events.
        """
        if self.ledger is None:
            return
        for payload in self.tracer.to_payloads():
            self.ledger.emit(SPAN, span=payload)
        self.ledger.emit(METRICS, metrics=self.metrics.snapshot())


# ----------------------------------------------------------------------
# The process-wide current-telemetry hook
# ----------------------------------------------------------------------
_ACTIVE: List[Telemetry] = []


def current_telemetry() -> Optional[Telemetry]:
    """The innermost installed telemetry, or None (the fast path)."""
    return _ACTIVE[-1] if _ACTIVE else None


def install_telemetry(telemetry: Optional[Telemetry]) -> None:
    """Make ``telemetry`` (None: nothing) the whole process stack.

    For pool workers, which own their stack and reconcile it with every
    plan they serve; a forked worker's inherited stack is replaced.
    """
    _ACTIVE[:] = [] if telemetry is None else [telemetry]


@contextmanager
def telemetry_scope(telemetry: Optional[Telemetry]) -> Iterator[Optional[Telemetry]]:
    """Install ``telemetry`` for the duration of a block; None is a no-op.

    Re-entrant: installing the already-current telemetry again is
    harmless, so suite functions can scope the telemetry they were
    handed without caring whether the CLI already did.
    """
    if telemetry is None:
        yield None
        return
    _ACTIVE.append(telemetry)
    try:
        yield telemetry
    finally:
        _ACTIVE.pop()
