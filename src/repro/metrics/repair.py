"""Repair-phase metrics (Section 6.1).

Categorical attributes are scored with precision / recall / F1 over
correctly repaired cells; numerical attributes with RMSE between the
repaired and ground-truth values.  Cells that an error turned from numeric
into text and that were never repaired are filtered out of the RMSE
computation, exactly as the paper describes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from repro.dataset.table import Cell, Table


@dataclass(frozen=True)
class RepairScores:
    precision: float
    recall: float
    f1: float
    correctly_repaired: int
    repaired: int
    total_errors: int


def repair_scores_categorical(
    dirty: Table,
    repaired: Table,
    clean: Table,
    actual_errors: Iterable[Cell],
    columns: Optional[Sequence[str]] = None,
) -> RepairScores:
    """Score categorical repairs.

    Precision = correctly repaired / repaired cells; recall = correctly
    repaired / actual error cells (restricted to the given columns, which
    default to the schema's categorical attributes).
    """
    if columns is None:
        columns = clean.schema.categorical_names
    allowed = set(columns)
    errors = {cell for cell in actual_errors if cell[1] in allowed}
    scored = [name for name in dirty.column_names if name in allowed]
    changed = dirty.diff_cells(repaired, scored)
    # A changed cell is correct when its repaired value equals the clean
    # one: ``values_equal(repaired, clean)``, the relation and argument
    # order ``repaired.diff_cells(clean)`` negates.
    correctly = changed - repaired.diff_cells(clean, scored)
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


def repair_rmse_per_column(
    repaired: Table,
    clean: Table,
    columns: Optional[Sequence[str]] = None,
    normalize: bool = True,
) -> "dict[str, float]":
    """Per-column RMSE between repaired and ground-truth values.

    Cells whose repaired payload is still non-numeric (e.g. an undetected
    typo that turned a number into text) are filtered out, following the
    paper.  With ``normalize`` (default) each column's errors are scaled
    by the clean column's standard deviation so wide-range columns stay
    comparable.  Columns with no valid (numeric-vs-numeric) cells are
    omitted from the result.
    """
    if columns is None:
        columns = clean.schema.numerical_names
    per_column: "dict[str, float]" = {}
    for name in columns:
        repaired_values = repaired.as_float(name)
        clean_values = clean.as_float(name)
        valid = ~np.isnan(repaired_values) & ~np.isnan(clean_values)
        if not valid.any():
            continue
        diff = repaired_values[valid] - clean_values[valid]
        if normalize:
            scale = float(np.nanstd(clean_values))
            if scale > 0:
                diff = diff / scale
        per_column[name] = float(np.sqrt((diff**2).mean()))
    return per_column


def repair_rmse(
    repaired: Table,
    clean: Table,
    columns: Optional[Sequence[str]] = None,
    normalize: bool = True,
    aggregate: str = "mean",
) -> float:
    """RMSE between repaired and ground-truth numerical values.

    ``aggregate="mean"`` (default) computes each column's RMSE
    separately (:func:`repair_rmse_per_column`) and averages them, so
    every column carries equal weight.  ``aggregate="pooled"`` is the
    old behavior -- all valid cells in one pool -- which weights each
    column by its *valid-cell count*: a column where repairs failed to
    produce numbers (fewer valid cells) quietly counts for less, hiding
    exactly the columns that repaired worst.  Pooled remains available
    for cell-population-weighted comparisons.

    Cell filtering and ``normalize`` follow
    :func:`repair_rmse_per_column`.  Returns 0.0 when there are no
    numerical columns and NaN when no column has a valid cell.
    """
    if aggregate not in ("mean", "pooled"):
        raise ValueError(
            f"aggregate must be 'mean' or 'pooled', got {aggregate!r}"
        )
    if columns is None:
        columns = clean.schema.numerical_names
    if not columns:
        return 0.0
    if aggregate == "mean":
        per_column = repair_rmse_per_column(
            repaired, clean, columns, normalize=normalize
        )
        if not per_column:
            return math.nan
        return float(np.mean(list(per_column.values())))
    squared_errors = []
    for name in columns:
        repaired_values = repaired.as_float(name)
        clean_values = clean.as_float(name)
        valid = ~np.isnan(repaired_values) & ~np.isnan(clean_values)
        if not valid.any():
            continue
        diff = repaired_values[valid] - clean_values[valid]
        if normalize:
            scale = float(np.nanstd(clean_values))
            if scale > 0:
                diff = diff / scale
        squared_errors.append(diff**2)
    if not squared_errors:
        return math.nan
    return float(np.sqrt(np.concatenate(squared_errors).mean()))
