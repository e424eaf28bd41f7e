"""Chaos harness: fault-injecting wrappers for detectors and repairs.

These wrappers *prove* the resilience layer works instead of assuming it:
tier-2 chaos tests wrap real tools in seeded failure modes (raise
mid-detect, spin past the deadline, return misaligned or NaN-flooded
tables) and assert that the suite still completes with correct
bookkeeping -- every injected fault surfaces as a categorized
:class:`~repro.resilience.failures.FailureRecord`, never as a crash or an
unexplained NaN.

Test code, importable as ``chaos_doubles`` once ``tests/`` is on
``sys.path`` (pytest puts it there).  Forked and spawned pool workers
inherit ``sys.path``, so they unpickle these wrappers by the same name.
"""

from __future__ import annotations

import time
from typing import Callable, Iterable, Optional, Set, Type

import numpy as np

from repro.context import CleaningContext
from repro.dataset.table import Cell, Table
from repro.detectors.base import Detector
from repro.repair.base import RepairMethod
from repro.resilience.failures import TransientError


class FlakyDetector(Detector):
    """Wraps a detector; raises on the first ``fail_first`` calls.

    With the default :class:`TransientError` the retry policy recovers it;
    with e.g. ``exc=MemoryError`` it models a capability crash.
    ``fail_first=None`` fails on every call.
    """

    def __init__(
        self,
        inner: Detector,
        fail_first: Optional[int] = 1,
        exc: Type[BaseException] = TransientError,
    ) -> None:
        self.inner = inner
        self.name = inner.name
        self.category = inner.category
        self.tackles = inner.tackles
        self.fail_first = fail_first
        self.exc = exc
        self.calls = 0

    def _detect(self, context: CleaningContext) -> Set[Cell]:
        self.calls += 1
        if self.fail_first is None or self.calls <= self.fail_first:
            raise self.exc(
                f"injected {self.exc.__name__} on call {self.calls} "
                f"of {self.name}"
            )
        return self.inner._detect(context)


class CrashingDetector(Detector):
    """Always raises ``exc`` after optionally burning ``spend_seconds``
    of (injectable) clock -- models a tool that works for a while and
    then hits a hard boundary, so runtime accounting can be asserted."""

    name = "Crashing"

    def __init__(
        self,
        exc: Type[BaseException] = MemoryError,
        message: str = "injected crash",
        spend_seconds: float = 0.0,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.exc = exc
        self.message = message
        self.spend_seconds = spend_seconds
        self._sleep = sleep

    def _detect(self, context: CleaningContext) -> Set[Cell]:
        if self.spend_seconds > 0:
            self._sleep(self.spend_seconds)
        raise self.exc(self.message)


class HangingDetector(Detector):
    """Spins until the context deadline expires (cooperatively).

    The spin loop calls ``deadline.check()`` every tick, exactly like a
    well-behaved long-running tool would, so exceeding the budget raises
    :class:`~repro.resilience.deadline.DeadlineExceeded` from inside the
    tool.  ``sleep`` is injectable so chaos tests can drive a fake clock
    instead of real waiting.  Without a deadline it gives up after
    ``max_spin_seconds`` and delegates (or returns nothing).
    """

    name = "Hanging"

    def __init__(
        self,
        inner: Optional[Detector] = None,
        tick: float = 0.01,
        max_spin_seconds: float = 1.0,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.inner = inner
        if inner is not None:
            self.name = inner.name
        self.tick = tick
        self.max_spin_seconds = max_spin_seconds
        self._sleep = sleep

    def _detect(self, context: CleaningContext) -> Set[Cell]:
        spun = 0.0
        while True:
            context.check_deadline(f"{self.name}._detect")
            if context.deadline is None and spun >= self.max_spin_seconds:
                break
            self._sleep(self.tick)
            spun += self.tick
        if self.inner is not None:
            return self.inner._detect(context)
        return set()


class FlakyRepair(RepairMethod):
    """Wraps a repair method; raises on the first ``fail_first`` calls."""

    def __init__(
        self,
        inner: RepairMethod,
        fail_first: Optional[int] = 1,
        exc: Type[BaseException] = TransientError,
    ) -> None:
        self.inner = inner
        self.name = inner.name
        self.category = inner.category
        self.fail_first = fail_first
        self.exc = exc
        self.calls = 0

    def _repair(self, context: CleaningContext, detections: Set[Cell]):
        self.calls += 1
        if self.fail_first is None or self.calls <= self.fail_first:
            raise self.exc(
                f"injected {self.exc.__name__} on call {self.calls} "
                f"of {self.name}"
            )
        return self.inner._repair(context, detections)


class CorruptingRepair(RepairMethod):
    """Wraps a repair method and corrupts its output.

    Modes:

    - ``misalign``: drop the last row without declaring ``kept_rows``;
    - ``nan_flood``: set every numerical cell to NaN;
    - ``schema_drift``: drop the last column.

    The wrapped table *returns successfully* -- only output validation in
    the runner can catch it, which is exactly what the chaos suite
    asserts.
    """

    MODES = ("misalign", "nan_flood", "schema_drift")

    def __init__(self, inner: RepairMethod, mode: str = "misalign") -> None:
        if mode not in self.MODES:
            raise ValueError(f"mode must be one of {self.MODES}")
        self.inner = inner
        self.name = inner.name
        self.category = inner.category
        self.mode = mode

    def _repair(self, context: CleaningContext, detections: Set[Cell]):
        output = self.inner._repair(context, detections)
        table = output[0] if isinstance(output, tuple) else output
        return self._corrupt(table)

    def _corrupt(self, table: Table) -> Table:
        if self.mode == "misalign":
            if table.n_rows <= 1:
                return Table.empty(table.schema)
            return table.select_rows(range(table.n_rows - 1))
        if self.mode == "schema_drift":
            names = table.schema.names
            return table.drop_columns(names[-1:])
        flooded = table.copy()
        for name in flooded.schema.numerical_names:
            for row in range(flooded.n_rows):
                flooded.set_cell(row, name, np.nan)
        return flooded


def chaos_wrap_detectors(
    detectors: Iterable[Detector],
    fail_first: Optional[int] = 1,
    exc: Type[BaseException] = TransientError,
) -> list:
    """Convenience: wrap every detector in a :class:`FlakyDetector`."""
    return [FlakyDetector(d, fail_first=fail_first, exc=exc) for d in detectors]
