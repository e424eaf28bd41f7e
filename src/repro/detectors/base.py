"""Detector protocol and result type.

A detector consumes a :class:`~repro.context.CleaningContext` and returns
the set of cells it believes erroneous, plus its runtime -- the two
quantities Section 6.2 evaluates.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, Set

from repro.context import CleaningContext
from repro.dataset.table import Cell, Table

#: Methodology categories from Table 1.
NON_LEARNING = "non-learning"
ML_SUPPORTED = "ml-supported"


@dataclass(frozen=True)
class DetectionResult:
    """Cells flagged by one detector run."""

    detector: str
    cells: FrozenSet[Cell]
    runtime_seconds: float
    metadata: Dict[str, object] = field(default_factory=dict, compare=False)

    @property
    def n_detected(self) -> int:
        return len(self.cells)

    def restricted_to_columns(self, columns) -> "DetectionResult":
        allowed = set(columns)
        return DetectionResult(
            self.detector,
            frozenset(c for c in self.cells if c[1] in allowed),
            self.runtime_seconds,
            dict(self.metadata),
        )


class Detector:
    """Base class for all error detectors.

    Subclasses implement :meth:`_detect`; :meth:`detect` adds timing and
    result packaging.  Class attributes mirror Table 1:

    - ``name``: the paper's method name;
    - ``category``: non-learning or ML-supported;
    - ``tackles``: error types the method targets (controller pruning key).
    """

    name: str = "detector"
    category: str = NON_LEARNING
    tackles: FrozenSet[str] = frozenset()

    def detect(self, context: CleaningContext) -> DetectionResult:
        """Run detection, timing the full pass over the dataset.

        Checks the context deadline before starting; long-running
        subclasses should additionally call ``context.check_deadline()``
        inside their hot loops so the suite's wall-clock budget is
        enforced cooperatively.
        """
        context.check_deadline(f"{self.name}.detect")
        clock = context.clock or time.perf_counter
        started = clock()
        cells = self._detect(context)
        elapsed = clock() - started
        return DetectionResult(self.name, frozenset(cells), elapsed)

    def _detect(self, context: CleaningContext) -> Set[Cell]:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


class BlockwiseDetector:
    """Capability mixin for detectors that can stream over row blocks.

    A detector qualifies when its per-cell decision is a pure function of
    (a) whole-table *profile* statistics and (b) that cell's own row --
    the profile-based detectors (missing values, SD, IQR).  The fit half
    (:meth:`fit_profile`) sees the whole table exactly once; the
    inference half (:meth:`detect_block`) is then evaluated per zero-copy
    block view with a global row offset, and the union of block results
    equals the whole-table :meth:`Detector.detect` cell set exactly.

    Profiles must be picklable: the parallel engine ships them to worker
    processes alongside the ``(unit x row-block)`` sub-units.
    """

    def fit_profile(self, context: CleaningContext) -> Any:
        """Whole-table fit pass; returns the picklable profile."""
        return None

    def _detect(self, context: CleaningContext) -> Set[Cell]:
        # The unblocked run is the whole table as one block.
        return self._detect_block(
            context, self.fit_profile(context), context.dirty, 0
        )

    def detect_block(
        self,
        context: CleaningContext,
        fitted: Any,
        block: Table,
        start: int,
    ) -> DetectionResult:
        """Run inference on one row block, timing just that block.

        ``start`` is the block's first row's global index; returned cells
        carry global row indices.
        """
        context.check_deadline(f"{self.name}.detect_block")
        clock = context.clock or time.perf_counter
        started = clock()
        cells = self._detect_block(context, fitted, block, start)
        elapsed = clock() - started
        return DetectionResult(self.name, frozenset(cells), elapsed)

    def _detect_block(
        self,
        context: CleaningContext,
        fitted: Any,
        block: Table,
        start: int,
    ) -> Set[Cell]:
        raise NotImplementedError
