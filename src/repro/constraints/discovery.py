"""Automatic FD discovery (the FDX-profiler analogue of Section 5).

FDX frames FD discovery as sparse structure learning over attribute
pair statistics.  We reproduce the behaviour with an information-theoretic
scorer: an FD candidate ``lhs -> rhs`` is accepted when the determinant
explains (almost) all of the dependent's entropy -- equivalently, when the
g3 error (minimum fraction of rows to remove for the FD to hold exactly)
falls below a noise tolerance.  Candidates are searched lattice-style with
minimality pruning, smallest determinant sets first.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Sequence, Tuple

from repro.constraints.fd import FunctionalDependency
from repro.dataset.table import Table


def g3_error(table: Table, lhs: Sequence[str], rhs: str) -> float:
    """Fraction of rows that must be removed for lhs -> rhs to hold.

    This is Kivinen & Mannila's g3 measure; 0 means the FD holds exactly.
    Rows with missing determinant values are skipped.
    """
    lhs_keys = [table.text_keys(a) for a in lhs]
    rhs_keys = table.text_keys(rhs)
    groups: Dict[Tuple[str, ...], Dict[Optional[str], int]] = {}
    considered = 0
    for i in range(table.n_rows):
        key_parts = tuple(keys[i] for keys in lhs_keys)
        if any(part is None for part in key_parts):
            continue
        considered += 1
        groups.setdefault(key_parts, {})
        value = rhs_keys[i]
        groups[key_parts][value] = groups[key_parts].get(value, 0) + 1
    if considered == 0:
        return 1.0
    keep = sum(max(counts.values()) for counts in groups.values())
    return 1.0 - keep / considered


def _distinct_count(table: Table, attr: str) -> int:
    return len({k for k in table.text_keys(attr) if k is not None})


def discover_fds(
    table: Table,
    max_lhs: int = 2,
    noise_tolerance: float = 0.01,
    max_distinct_fraction: float = 0.9,
    columns: Optional[Sequence[str]] = None,
) -> List[FunctionalDependency]:
    """Discover approximate FDs in a table.

    Args:
        max_lhs: maximum determinant size (lattice level).
        noise_tolerance: accept a candidate when its g3 error is at most
            this (FDX's noisy-data tolerance).
        max_distinct_fraction: skip determinant attributes that are almost
            keys (they trivially determine everything and yield useless
            constraints) -- the same key-filtering FDX applies.
        columns: restrict the search to these attributes.

    Returns:
        Minimal FDs (no discovered FD's determinant is a superset of
        another discovered FD with the same dependent), ordered by
        determinant size then name.
    """
    if max_lhs < 1:
        raise ValueError("max_lhs must be >= 1")
    if not 0.0 <= noise_tolerance < 1.0:
        raise ValueError("noise_tolerance must be in [0, 1)")
    names = list(columns) if columns is not None else table.column_names
    n_rows = max(table.n_rows, 1)
    usable = [
        name
        for name in names
        if 1 < _distinct_count(table, name) <= max_distinct_fraction * n_rows
    ]
    constant = [name for name in names if _distinct_count(table, name) <= 1]
    found: List[FunctionalDependency] = []
    for rhs in names:
        if rhs in constant:
            continue  # constant columns are determined by anything
        accepted_lhs: List[Tuple[str, ...]] = []
        for size in range(1, max_lhs + 1):
            for lhs in itertools.combinations(
                [a for a in usable if a != rhs], size
            ):
                # Minimality: skip supersets of an accepted determinant.
                if any(set(prev) <= set(lhs) for prev in accepted_lhs):
                    continue
                if g3_error(table, lhs, rhs) <= noise_tolerance:
                    accepted_lhs.append(lhs)
                    found.append(FunctionalDependency(lhs, rhs))
    found.sort(key=lambda fd: (len(fd.lhs), str(fd)))
    return found
