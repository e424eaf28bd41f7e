"""Per-cell reference for :meth:`repro.dataset.table.Table.diff_cells`.

Production compares two columns through their typed column views and
sends only the cells that are not the same entry through
:func:`~repro.dataset.table.values_equal`.  This is the definition it
must agree with: ``values_equal`` on every cell, column by column, rows
ascending (the same insertion order into the result set).
"""

from __future__ import annotations

from typing import Optional, Sequence, Set

from repro.dataset.table import Cell, Table, values_equal


def reference_diff_cells(
    table: Table, other: Table, columns: Optional[Sequence[str]] = None
) -> Set[Cell]:
    """Cells whose values differ, one ``values_equal`` call per cell."""
    if table.column_names != other.column_names:
        raise ValueError("cannot diff tables with different columns")
    if table.n_rows != other.n_rows:
        raise ValueError(
            f"cannot diff tables with {table.n_rows} vs {other.n_rows} rows"
        )
    cells: Set[Cell] = set()
    for name in table.column_names if columns is None else columns:
        mine, theirs = table.column(name), other.column(name)
        for i in range(table.n_rows):
            if not values_equal(mine[i], theirs[i]):
                cells.add((i, name))
    return cells
