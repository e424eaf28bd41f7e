"""Hierarchical execution spans on monotonic clocks.

A :class:`Span` is one timed region of suite work.  Spans nest --
``suite -> stage -> unit -> attempt`` -- and every span records its
parent, so a completed buffer reconstructs the full execution tree.
Durations always come from a monotonic clock (``time.perf_counter`` by
default, or any injected callable such as the chaos suite's step
clocks); wall-clock epochs never enter a duration
(``tools/check_clocks.py`` enforces this repo-wide).

The :class:`Tracer` is deliberately process-local.  Worker processes
record spans into their own tracer, :meth:`Tracer.drain` ships the
finished spans back through the parallel engine's result queue as plain
payload dicts, and the driver -- the single writer --
:meth:`Tracer.adopt`\\ s them in canonical unit order, remapping span ids
deterministically and re-parenting worker roots under the driver's
currently open span.  The merged tree is therefore complete and
structurally identical for any worker count; only the raw timestamps
(which live on each process's own clock) vary run to run.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional

#: Span categories, outermost to innermost.
SUITE = "suite"
STAGE = "stage"
UNIT = "unit"
ATTEMPT = "attempt"
#: One cleaning-kernel invocation (detector/constraint/repair hot path);
#: nests under whatever suite/stage/unit span is currently open.
KERNEL = "kernel"
#: Data-plane plumbing: packing a stage context into shared-memory
#: segments (driver side) and attaching it (worker side).
DATAPLANE = "dataplane"

CATEGORIES = (SUITE, STAGE, UNIT, ATTEMPT, KERNEL, DATAPLANE)


@dataclass
class Span:
    """One timed region of suite work.

    ``start`` / ``end`` are readings of the owning tracer's monotonic
    clock; ``end`` is NaN while the span is open.  ``worker`` is ``""``
    for spans recorded by the driver process and a worker label (e.g.
    ``"worker-12345"``) for spans adopted from a pool worker -- exporters
    use it to assign trace lanes, and it reminds readers that the
    timestamps live on that process's own clock.
    """

    span_id: int
    parent_id: Optional[int]
    name: str
    category: str
    start: float
    end: float = math.nan
    worker: str = ""
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def open(self) -> bool:
        return math.isnan(self.end)

    @property
    def duration_seconds(self) -> float:
        return self.end - self.start

    def to_payload(self) -> Dict[str, Any]:
        """Canonical JSON payload (transport + ledger form)."""
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "category": self.category,
            "start": self.start,
            "end": self.end if not math.isnan(self.end) else None,
            "worker": self.worker,
            "attrs": dict(self.attrs),
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "Span":
        return cls(
            span_id=payload["span_id"],
            parent_id=payload["parent_id"],
            name=payload["name"],
            category=payload["category"],
            start=payload["start"],
            end=payload["end"] if payload["end"] is not None else math.nan,
            worker=payload.get("worker", ""),
            attrs=dict(payload.get("attrs", {})),
        )


class Tracer:
    """Process-local span recorder with deterministic merge support.

    ``begin``/``finish`` maintain an explicit open-span stack, so spans
    recorded between a parent's begin and finish nest under it without
    any caller bookkeeping; :meth:`span` is the context-manager form.
    """

    def __init__(
        self,
        clock: Optional[Callable[[], float]] = None,
        worker: str = "",
    ) -> None:
        self.clock = clock or time.perf_counter
        self.worker = worker
        self.spans: List[Span] = []
        self._stack: List[Span] = []
        self._next_id = 1

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def begin(self, name: str, category: str, **attrs: Any) -> Span:
        """Open a span nested under the currently open span (if any)."""
        span = Span(
            span_id=self._next_id,
            parent_id=self._stack[-1].span_id if self._stack else None,
            name=name,
            category=category,
            start=self.clock(),
            worker=self.worker,
            attrs=attrs,
        )
        self._next_id += 1
        self.spans.append(span)
        self._stack.append(span)
        return span

    def finish(self, span: Span) -> Span:
        """Close a span (and any deeper spans left open by a crash)."""
        end = self.clock()
        while self._stack:
            current = self._stack.pop()
            current.end = end
            if current is span:
                break
        else:
            span.end = end  # foreign/double finish: close it regardless
        return span

    def record(
        self, name: str, category: str, start: float, **attrs: Any
    ) -> Span:
        """A span that began at ``start`` (a reading of :attr:`clock`)
        and ends now, nested under the currently open span."""
        span = self.begin(name, category, **attrs)
        span.start = start
        return self.finish(span)

    @contextmanager
    def span(self, name: str, category: str, **attrs: Any) -> Iterator[Span]:
        opened = self.begin(name, category, **attrs)
        try:
            yield opened
        finally:
            self.finish(opened)

    def current_id(self) -> Optional[int]:
        """Id of the innermost open span (adoption parent), or None."""
        return self._stack[-1].span_id if self._stack else None

    # ------------------------------------------------------------------
    # Transport (worker -> driver)
    # ------------------------------------------------------------------
    def drain(self) -> List[Dict[str, Any]]:
        """Ship every *finished* span as payloads and drop them locally.

        Worker processes call this after each unit so the payloads ride
        the pool's result queue alongside the unit payload.  Open spans
        stay buffered (they belong to a unit still in flight).
        """
        finished = [s for s in self.spans if not s.open]
        self.spans = [s for s in self.spans if s.open]
        return [s.to_payload() for s in finished]

    def adopt(
        self,
        payloads: List[Dict[str, Any]],
        parent_id: Optional[int] = None,
    ) -> List[Span]:
        """Merge shipped spans into this tracer, deterministically.

        Ids are remapped to this tracer's sequence in payload order, so
        adopting the same payloads in the same (canonical) order always
        yields the same ids; roots are re-parented under ``parent_id``
        (typically :meth:`current_id` -- the open stage span).
        """
        id_map: Dict[int, int] = {}
        adopted: List[Span] = []
        for payload in payloads:
            span = Span.from_payload(payload)
            id_map[span.span_id] = self._next_id
            span.span_id = self._next_id
            self._next_id += 1
            if span.parent_id in id_map:
                span.parent_id = id_map[span.parent_id]
            else:
                span.parent_id = parent_id
            self.spans.append(span)
            adopted.append(span)
        return adopted

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def children_of(self, span_id: Optional[int]) -> List[Span]:
        return [s for s in self.spans if s.parent_id == span_id]

    def by_category(self, category: str) -> List[Span]:
        return [s for s in self.spans if s.category == category]

    def to_payloads(self) -> List[Dict[str, Any]]:
        """Every recorded span, finished or open, as payloads."""
        return [s.to_payload() for s in self.spans]
