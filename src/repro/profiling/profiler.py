"""Single-column profiling and multi-column dependency discovery."""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.dataset.table import Table, coerce_float, is_missing


def _shape_of(text: str) -> str:
    out = []
    for ch in text:
        if ch.isdigit():
            out.append("9")
        elif ch.isalpha():
            out.append("a")
        else:
            out.append(ch)
    return "".join(out)


@dataclass
class ColumnProfile:
    """Statistics of one column.

    Attributes mirror what single-column profilers (Metanome's basic
    statistics) report, plus the dominant character shape used by the
    pattern detectors.
    """

    name: str
    declared_kind: str
    inferred_kind: str
    n_values: int
    n_missing: int
    n_distinct: int
    distinctness: float          # distinct / non-missing
    null_ratio: float
    min_value: Optional[float] = None
    max_value: Optional[float] = None
    mean: Optional[float] = None
    std: Optional[float] = None
    quantiles: Dict[str, float] = field(default_factory=dict)
    most_common: List[Tuple[str, int]] = field(default_factory=list)
    dominant_shape: Optional[str] = None
    shape_conformity: float = 1.0   # fraction matching the dominant shape
    mean_length: float = 0.0
    is_candidate_key: bool = False

    @property
    def entropy(self) -> float:
        """Shannon entropy (bits) of the value distribution."""
        total = sum(count for _, count in self.most_common)
        if total == 0:
            return 0.0
        # most_common holds the full histogram for profiled columns.
        entropy = 0.0
        for _, count in self.most_common:
            p = count / total
            entropy -= p * math.log2(p)
        return entropy


@dataclass
class TableProfile:
    """Profiles of all columns plus table-level findings."""

    n_rows: int
    columns: Dict[str, ColumnProfile]
    candidate_keys: List[str]

    def column(self, name: str) -> ColumnProfile:
        if name not in self.columns:
            raise KeyError(f"no profiled column {name!r}")
        return self.columns[name]


def profile_column(
    table: Table, name: str, key_threshold: float = 0.99
) -> ColumnProfile:
    """Profile one column of a table."""
    raw = list(table.column(name))
    n_values = len(raw)
    non_missing = [v for v in raw if not is_missing(v)]
    n_missing = n_values - len(non_missing)
    texts = [str(v).strip() for v in non_missing]
    counts = Counter(texts)
    n_distinct = len(counts)
    distinctness = n_distinct / len(non_missing) if non_missing else 0.0
    numeric = np.array([coerce_float(v) for v in non_missing])
    finite = numeric[~np.isnan(numeric)]
    all_numeric = len(finite) == len(non_missing) and len(non_missing) > 0
    profile = ColumnProfile(
        name=name,
        declared_kind=table.schema.kind_of(name),
        inferred_kind="numerical" if all_numeric else "categorical",
        n_values=n_values,
        n_missing=n_missing,
        n_distinct=n_distinct,
        distinctness=distinctness,
        null_ratio=n_missing / n_values if n_values else 0.0,
        most_common=counts.most_common(),
        mean_length=(
            float(np.mean([len(t) for t in texts])) if texts else 0.0
        ),
        is_candidate_key=(
            len(non_missing) >= 5 and distinctness >= key_threshold
        ),
    )
    if len(finite):
        profile.min_value = float(finite.min())
        profile.max_value = float(finite.max())
        profile.mean = float(finite.mean())
        profile.std = float(finite.std())
        q = np.quantile(finite, [0.25, 0.5, 0.75])
        profile.quantiles = {"q25": float(q[0]), "q50": float(q[1]),
                             "q75": float(q[2])}
    if texts:
        shapes = Counter(_shape_of(t) for t in texts)
        dominant, dominant_count = shapes.most_common(1)[0]
        profile.dominant_shape = dominant
        profile.shape_conformity = dominant_count / len(texts)
    return profile


def profile_table(table: Table, key_threshold: float = 0.99) -> TableProfile:
    """Profile every column; report candidate keys."""
    columns = {
        name: profile_column(table, name, key_threshold)
        for name in table.column_names
    }
    candidate_keys = [
        name for name, profile in columns.items() if profile.is_candidate_key
    ]
    return TableProfile(table.n_rows, columns, candidate_keys)


def discover_inclusion_dependencies(
    table: Table,
    min_coverage: float = 1.0,
    max_domain: int = 1000,
) -> List[Tuple[str, str]]:
    """Unary inclusion dependencies: pairs (a, b) with values(a) ⊆ values(b).

    Trivial cases are skipped: identical columns of one another's direction
    are both reported (A in B and B in A means the value sets are equal),
    but a column is never reported against itself, and columns with more
    than ``max_domain`` distinct values are skipped (keys are never
    interesting IND candidates).  ``min_coverage`` < 1 allows approximate
    INDs on dirty data.
    """
    if not 0.0 < min_coverage <= 1.0:
        raise ValueError("min_coverage must be in (0, 1]")
    value_sets: Dict[str, set] = {}
    for name in table.column_names:
        values = set(table.text_keys(name)) - {None}
        if 0 < len(values) <= max_domain:
            value_sets[name] = values
    findings: List[Tuple[str, str]] = []
    for a, set_a in value_sets.items():
        for b, set_b in value_sets.items():
            if a == b:
                continue
            coverage = len(set_a & set_b) / len(set_a)
            if coverage >= min_coverage:
                findings.append((a, b))
    return sorted(findings)
