"""Frozen pre-vectorization constraint kernels (equivalence oracles).

This module preserves the *original* scalar implementations of the
constraint hot paths exactly as they were before the cleaning-stage
vectorization pass (mirroring :mod:`oracles.ml`):

- FD group construction by a per-row Python loop over determinant
  attributes, and minority/majority voting by per-group dict scans;
- unary denial-constraint evaluation by calling ``Predicate.holds`` on a
  per-row dict for every row;
- binary denial-constraint evaluation by nested per-pair Python loops
  inside each equality-join block (or over the full cross product when
  the constraint has no equality predicates).

They exist for two reasons and must not be "improved":

1. the property suite (``tests/test_cleaning_kernels.py``) proves the
   vectorized kernels in :mod:`repro.constraints.fd` and
   :mod:`repro.constraints.dc` produce *exactly* the same violation
   sets, repair mappings, and row pairs as these;
2. the cleaning-kernel benchmarks (``benchmarks/test_cleaning_speed.py``)
   measure speedups against them, so the committed
   ``BENCH_cleaning.json`` numbers stay comparable PR over PR.

``tools/check_hot_loops.py`` forbids these patterns under
``src/repro/constraints/``, which this module no longer ships in.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from repro.dataset.table import Cell, Table, is_missing

# ----------------------------------------------------------------------
# Functional dependencies
# ----------------------------------------------------------------------


def reference_fd_groups(fd, table: Table) -> Dict[Tuple, List[int]]:
    """Rows grouped by their (non-missing) lhs values (original loop)."""
    groups: Dict[Tuple, List[int]] = {}
    for i in range(table.n_rows):
        key_parts = []
        valid = True
        for attr in fd.lhs:
            value = table.get_cell(i, attr)
            if is_missing(value):
                valid = False
                break
            key_parts.append(str(value).strip())
        if valid:
            groups.setdefault(tuple(key_parts), []).append(i)
    return groups


def reference_fd_violations(fd, table: Table) -> Set[Cell]:
    """Original scalar FD violation scan (minority-vote flagging)."""
    cells: Set[Cell] = set()
    for rows in reference_fd_groups(fd, table).values():
        if len(rows) < 2:
            continue
        value_rows: Dict[str, List[int]] = {}
        for i in rows:
            value = table.get_cell(i, fd.rhs)
            key = "␀" if is_missing(value) else str(value).strip()
            value_rows.setdefault(key, []).append(i)
        if len(value_rows) < 2:
            continue
        counts = {v: len(r) for v, r in value_rows.items()}
        top = max(counts.values())
        majority = [v for v, c in counts.items() if c == top]
        if len(majority) == 1:
            for value, members in value_rows.items():
                if value != majority[0]:
                    cells.update((i, fd.rhs) for i in members)
        else:
            for members in value_rows.values():
                cells.update((i, fd.rhs) for i in members)
    return cells


def reference_fd_majority_repairs(fd, table: Table) -> Dict[Cell, object]:
    """Original scalar FD repair proposal scan (group-majority value)."""
    repairs: Dict[Cell, object] = {}
    for rows in reference_fd_groups(fd, table).values():
        if len(rows) < 2:
            continue
        value_rows: Dict[str, List[int]] = {}
        originals: Dict[str, object] = {}
        for i in rows:
            value = table.get_cell(i, fd.rhs)
            key = "␀" if is_missing(value) else str(value).strip()
            value_rows.setdefault(key, []).append(i)
            originals.setdefault(key, value)
        if len(value_rows) < 2:
            continue
        counts = {v: len(r) for v, r in value_rows.items()}
        top = max(counts.values())
        majority = [v for v, c in counts.items() if c == top]
        if len(majority) != 1 or majority[0] == "␀":
            continue
        majority_value = originals[majority[0]]
        for value, members in value_rows.items():
            if value != majority[0]:
                for i in members:
                    repairs[(i, fd.rhs)] = majority_value
    return repairs


# ----------------------------------------------------------------------
# Denial constraints
# ----------------------------------------------------------------------


def _row_dict(dc, table: Table, index: int) -> Dict[str, object]:
    return {attr: table.get_cell(index, attr) for attr in dc.attributes}


def reference_unary_violations(dc, table: Table) -> Set[Cell]:
    """Original per-row ``Predicate.holds`` evaluation loop."""
    cells: Set[Cell] = set()
    rows = [_row_dict(dc, table, i) for i in range(table.n_rows)]
    for i, row in enumerate(rows):
        if all(p.holds(row) for p in dc.predicates):
            for attr in dc.attributes:
                cells.add((i, attr))
    return cells


def reference_binary_violations(dc, table: Table, max_pairs: int) -> Set[Cell]:
    """Original nested per-pair loop inside each equality-join block."""
    equality_attrs = [
        p.left_attr
        for p in dc.predicates
        if p.op == "==" and p.right_attr == p.left_attr and p.constant is None
    ]
    rows = [_row_dict(dc, table, i) for i in range(table.n_rows)]
    if equality_attrs:
        blocks: Dict[Tuple, List[int]] = {}
        for i, row in enumerate(rows):
            key = tuple(
                str(row.get(a)).strip() if not is_missing(row.get(a)) else None
                for a in equality_attrs
            )
            if None in key:
                continue  # missing join keys cannot witness a violation
            blocks.setdefault(key, []).append(i)
        candidate_blocks = [b for b in blocks.values() if len(b) > 1]
    else:
        candidate_blocks = [list(range(table.n_rows))]
    cells: Set[Cell] = set()
    checked = 0
    for block in candidate_blocks:
        for ia in range(len(block)):
            for ib in range(len(block)):
                if ia == ib:
                    continue
                checked += 1
                if checked > max_pairs:
                    return cells
                row_a, row_b = rows[block[ia]], rows[block[ib]]
                if all(p.holds(row_a, row_b) for p in dc.predicates):
                    for attr in dc.attributes:
                        cells.add((block[ia], attr))
                        cells.add((block[ib], attr))
    return cells


def reference_violating_row_pairs(
    dc, table: Table, max_pairs: int = 200_000
) -> List[Tuple[int, int]]:
    """Original full-quadratic ordered scan over ``i < j`` row pairs."""
    rows = [_row_dict(dc, table, i) for i in range(table.n_rows)]
    pairs: List[Tuple[int, int]] = []
    checked = 0
    for i in range(table.n_rows):
        for j in range(i + 1, table.n_rows):
            checked += 1
            if checked > max_pairs:
                return pairs
            if all(p.holds(rows[i], rows[j]) for p in dc.predicates) or all(
                p.holds(rows[j], rows[i]) for p in dc.predicates
            ):
                pairs.append((i, j))
    return pairs
