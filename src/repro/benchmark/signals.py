"""Automatic cleaning-signal generation (actionable suggestion #4).

Section 6.5 recommends pairing rule-based cleaners (NADEEF, HoloClean) with
automated profilers (FDX, Metanome) so they work with minimal user
involvement.  :func:`auto_signals` implements that recommendation: given any
table it discovers FD rules, derives per-column syntactic patterns from the
dominant character shapes, and identifies candidate key columns -- the full
signal set a rule-based tool needs.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import List, Optional

from repro.constraints.discovery import discover_fds
from repro.constraints.fd import FunctionalDependency
from repro.constraints.patterns import ColumnPattern
from repro.dataset.table import Table


@dataclass
class AutoSignals:
    """Signals inferred from a (preferably clean-ish) sample table."""

    fds: List[FunctionalDependency] = field(default_factory=list)
    patterns: List[ColumnPattern] = field(default_factory=list)
    key_columns: List[str] = field(default_factory=list)


def _shape_regex(text: str) -> str:
    """Translate a value into a character-class regex of its shape."""
    out = []
    previous = None
    for ch in text:
        if ch.isdigit():
            token = r"\d"
        elif ch.isalpha():
            token = "[A-Za-z]" if ch.isupper() else "[a-z]"
        elif ch in ".+-":
            token = "[.+-]"
        else:
            token = r"\s" if ch.isspace() else "\\" + ch
        if token == previous:
            if not out[-1].endswith("+"):
                out[-1] += "+"
        else:
            out.append(token)
            previous = token
    return "".join(out)


def infer_column_pattern(
    table: Table, column: str, min_coverage: float = 0.9
) -> Optional[ColumnPattern]:
    """A shape regex covering at least *min_coverage* of non-missing cells.

    Returns None for columns without a dominant shape family (free text).
    """
    values = [k for k in table.text_keys(column) if k is not None]
    if len(values) < 5:
        return None
    shapes = Counter(_shape_regex(v) for v in values)
    # Greedily add shapes until coverage is reached; a pattern union of
    # more than 4 shapes means the column is effectively free-form.
    chosen: List[str] = []
    covered = 0
    for shape, count in shapes.most_common():
        chosen.append(shape)
        covered += count
        if covered / len(values) >= min_coverage:
            break
        if len(chosen) >= 4:
            return None
    regex = "|".join(f"(?:{s})" for s in chosen)
    return ColumnPattern(column, regex, name=f"shape({column})")


def infer_key_columns(table: Table, max_keys: int = 2) -> List[str]:
    """Columns whose non-missing values are (almost) all distinct."""
    keys = []
    for column in table.column_names:
        values = [k for k in table.text_keys(column) if k is not None]
        if len(values) >= 5 and len(set(values)) >= 0.99 * len(values):
            keys.append(column)
        if len(keys) >= max_keys:
            break
    return keys


def auto_signals(
    table: Table,
    max_lhs: int = 1,
    noise_tolerance: float = 0.02,
    min_pattern_coverage: float = 0.9,
) -> AutoSignals:
    """Discover FDs, patterns, and key columns from a table sample.

    Run this on a trusted sample (or accept some noise tolerance on dirty
    data) and hand the result to a :class:`~repro.context.CleaningContext`
    to drive NADEEF / HoloClean without hand-written rules.
    """
    fds = discover_fds(
        table,
        max_lhs=max_lhs,
        noise_tolerance=noise_tolerance,
        columns=table.schema.categorical_names,
    )
    patterns = []
    for column in table.schema.categorical_names:
        pattern = infer_column_pattern(table, column, min_pattern_coverage)
        if pattern is not None:
            patterns.append(pattern)
    return AutoSignals(
        fds=fds,
        patterns=patterns,
        key_columns=infer_key_columns(table),
    )
