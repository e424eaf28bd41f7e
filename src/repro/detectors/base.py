"""Detector protocol and result type.

A detector consumes a :class:`~repro.context.CleaningContext` and returns
the set of cells it believes erroneous, plus its runtime -- the two
quantities Section 6.2 evaluates.

Methods that run other detectors inside their own unit (the Min-K, Max
Entropy and Metadata-driven ensembles, BoostClean's detector library)
call them through :func:`nested_cells`, which memoizes each call's cells
in the artifact cache when one is installed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, Optional, Set, Tuple

import numpy as np

from repro.cache.keys import artifact_key, canonical_config, table_identity
from repro.cache.store import CacheEntry, current_cache
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


#: Cache kind of one nested detector call's cells (:func:`nested_cells`).
NESTED_CELLS_KIND = "detector/nested_cells@v1"


def nested_cells(
    detector: Detector, context: CleaningContext
) -> FrozenSet[Cell]:
    """The cells ``detector`` flags on ``context``, for a method that
    runs it inside its own unit.

    This is the one place such a nested ``detect`` call happens.  Under
    an installed artifact cache the cells are memoized
    (:data:`NESTED_CELLS_KIND`) under everything the call is computed
    from (:func:`_nested_key`), so the ensembles of one suite run their
    shared base-detector pool once per table.  A hit still checks the
    context's deadline, as ``detect`` would; it skips the detector and
    its runtime.  Without a cache, or when a key part has no exact form,
    it is the plain ``detect`` call.  Only successful calls are stored:
    a raising detector raises to its caller every time.
    """
    cache = current_cache()
    key = None if cache is None else _nested_key(detector, context)
    if key is None:
        return detector.detect(context).cells
    cells = _entry_cells(cache.get(key))
    if cells is not None:
        context.check_deadline(f"{detector.name}.detect")
        return cells
    cells = detector.detect(context).cells
    arrays, meta = _cells_entry(cells)
    cache.put(key, arrays, meta)
    return cells


def _nested_key(
    detector: Detector, context: CleaningContext
) -> Optional[str]:
    """The memo key of one nested call, or None (not memoized).

    It names the exact identity of the dirty and clean tables, the
    context's cleaning signals and task, its seed and the detector's
    canonical configuration.
    """
    if context.clean is None:
        return None
    tables = [table_identity(context.dirty), table_identity(context.clean)]
    signals = canonical_config([
        context.constraints, context.fds, context.patterns,
        context.knowledge_base, context.key_columns,
        context.label_column, context.task,
    ])
    method = canonical_config(detector)
    if None in tables or signals is None or method is None:
        return None
    return artifact_key(NESTED_CELLS_KIND, tables, {
        "signals": signals,
        "seed": context.seed,
        "method": method,
    })


def _cells_entry(
    cells: FrozenSet[Cell],
) -> Tuple[Dict[str, np.ndarray], Dict[str, Any]]:
    """A cell set as row and column-index arrays (sorted by column, then
    row, so every process writes the same bytes) with the column names
    in the meta."""
    columns = sorted({str(column) for _, column in cells})
    position = {column: j for j, column in enumerate(columns)}
    rows = np.fromiter((row for row, _ in cells), np.int64, len(cells))
    cols = np.fromiter(
        (position[str(column)] for _, column in cells), np.int64, len(cells)
    )
    order = np.lexsort((rows, cols))
    return {"rows": rows[order], "cols": cols[order]}, {"columns": columns}


def _entry_cells(entry: Optional[CacheEntry]) -> Optional[FrozenSet[Cell]]:
    """The cell set of a nested entry; None for a miss or a malformed
    entry (which recomputes and rewrites it)."""
    if entry is None:
        return None
    try:
        rows, cols = entry.arrays["rows"], entry.arrays["cols"]
        columns = entry.meta["columns"]
        return frozenset(zip(rows.tolist(), [columns[j] for j in cols.tolist()]))
    except (KeyError, IndexError, TypeError):
        return None
