"""Frozen per-cell repair scoring (equivalence oracle).

:func:`repro.metrics.repair.repair_scores_categorical` finds the
correctly repaired cells as ``changed - repaired.diff_cells(clean)``,
through the typed column views.  This is the definition it must agree
with: one ``values_equal(repaired, clean)`` call per changed cell.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from repro.dataset.table import Cell, Table, values_equal
from repro.metrics.repair import RepairScores


def reference_repair_scores_categorical(
    dirty: Table,
    repaired: Table,
    clean: Table,
    actual_errors: Iterable[Cell],
    columns: Optional[Sequence[str]] = None,
) -> RepairScores:
    """Categorical repair scores with a per-cell ``correctly`` loop."""
    if columns is None:
        columns = clean.schema.categorical_names
    allowed = set(columns)
    errors = {cell for cell in actual_errors if cell[1] in allowed}
    changed = dirty.diff_cells(
        repaired, [name for name in dirty.column_names if name in allowed]
    )
    correctly = {
        (row, col)
        for row, col in changed
        if values_equal(repaired.get_cell(row, col), clean.get_cell(row, col))
    }
    repaired_count = len(changed)
    correct_count = len(correctly)
    total_errors = len(errors)
    precision = correct_count / repaired_count if repaired_count else 0.0
    recall = correct_count / total_errors if total_errors else 0.0
    f1 = (
        2.0 * precision * recall / (precision + recall)
        if (precision + recall)
        else 0.0
    )
    return RepairScores(
        precision, recall, f1, correct_count, repaired_count, total_errors
    )
