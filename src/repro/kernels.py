"""Per-kernel telemetry for the cleaning kernels.

The cleaning-stage vectorization pass (detectors, constraints, repair)
follows the ``repro.ml`` recipe: every live module carries one numpy
implementation per kernel, proven bit-identical by
``tests/test_cleaning_kernels.py`` to the frozen scalar oracles in
``tests/oracles/``.  Production code has no way to select the oracles;
tests and benchmarks swap them in by patching the kernel entry points
(``tests/oracles/__init__.py``).

:func:`kernel_stage` brackets one kernel invocation in a
``kernel``-category span plus a ``kernel.<name>.seconds`` duration
histogram when telemetry is installed, so ``repro trace`` shows time per
cleaning kernel and the run ledger records per-kernel durations (spans
and metrics are flushed to the ledger at run end).  Kernel spans
deliberately do *not* use ``Telemetry.stage`` -- suite-stage accounting
(one ``stage`` span and one started/finished event pair per suite stage)
must stay untouched by however many kernels run inside a stage.  With no
telemetry installed the cost is one global read and an ``is None``
branch, preserving the zero-cost contract of
:mod:`repro.observability.telemetry`.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

from repro.observability.telemetry import current_telemetry
from repro.observability.trace import KERNEL


@contextmanager
def kernel_stage(name: str) -> Iterator[None]:
    """Kernel span + duration histogram around one kernel invocation.

    No-op (one global read) when no telemetry is installed.
    """
    telemetry = current_telemetry()
    if telemetry is None:
        yield
        return
    with telemetry.span(f"kernel:{name}", KERNEL) as span:
        yield
    telemetry.observe(f"kernel.{name}.seconds", span.duration_seconds)
