"""Executor doubles for the parallel-engine tests.

:class:`ShuffledExecutor` honours the executor contract of
:mod:`repro.parallel.engine` (``run(plan, pending, should_execute)``
yields ``(index, run)`` pairs in any completion order) entirely in
process, so order-independence of the merge layer is testable without
paying for real worker processes.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Iterator, List, Tuple

from repro.parallel import ExecutionPlan, UnitSpec


class ShuffledExecutor:
    """In-process execution in a seeded scrambled completion order.

    Mimics parallel dispatch semantics (the execute/skip decision for
    every unit is snapshotted up front, results complete out of order)
    without the cost of real processes -- property tests drive it with
    many seeds to prove the merge layer is order-independent.
    """

    name = "shuffled"

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed

    def run(
        self,
        plan: ExecutionPlan,
        pending: List[UnitSpec],
        should_execute: Callable[[UnitSpec], bool],
    ) -> Iterator[Tuple[int, Any]]:
        order = list(pending)
        random.Random(self.seed).shuffle(order)
        # Dispatch-time snapshot, like a pool handing out every unit
        # before any result has been merged.
        dispatched = [spec for spec in order if should_execute(spec)]
        for spec in dispatched:
            yield spec.index, plan.adapter.execute(plan.shared, spec)
