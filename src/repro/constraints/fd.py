"""Functional dependencies and their conversion to denial constraints.

REIN auto-generates FDs with the FDX analogue and then "manually converts
them into denial constraints" (Section 5); :meth:`FunctionalDependency.
to_denial_constraint` performs that conversion programmatically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Set, Tuple

import numpy as np

from repro.cache.keys import artifact_key, table_fingerprint
from repro.cache.store import current_cache
from repro.constraints.dc import DenialConstraint, Predicate
from repro.dataset.columnar import (
    combine_codes,
    intern_values,
    normalized_column,
)
from repro.dataset.table import Cell, Table, is_missing
from repro.kernels import kernel_stage


def _rhs_key(value: object) -> str:
    return "␀" if is_missing(value) else str(value).strip()


class _GroupStats:
    """Hash-group join of lhs groups against rhs values, as arrays.

    ``rows`` are the (ascending) row indices with complete lhs keys;
    ``g``/``r`` their group and rhs-value ids; the ``pair_*`` arrays
    describe the distinct (group, rhs value) combinations.  Both FD
    kernels read group verdicts off these arrays instead of re-scanning
    rows per group.
    """

    def __init__(self, fd: "FunctionalDependency", table: Table) -> None:
        group_codes = combine_codes(
            [intern_values(table.text_keys(attr))[0] for attr in fd.lhs]
        )
        rhs_uids, self.rhs_values = intern_values(
            normalized_column(table.column_view(fd.rhs), _rhs_key)
        )
        valid = group_codes >= 0
        self.rows = np.flatnonzero(valid)
        self.g = group_codes[valid]
        self.r = rhs_uids[valid]
        self.n_groups = int(self.g.max()) + 1 if len(self.g) else 0
        width = max(len(self.rhs_values), 1)
        self.pairs, self.pair_inverse, self.pair_counts = np.unique(
            self.g * width + self.r, return_inverse=True, return_counts=True
        )
        self.pair_inverse = self.pair_inverse.ravel()
        self.pair_group = self.pairs // width
        self.pair_rhs = self.pairs % width
        self.group_sizes = np.bincount(self.g, minlength=self.n_groups)
        self.n_keys = np.bincount(self.pair_group, minlength=self.n_groups)
        self.top = np.zeros(self.n_groups, dtype=np.int64)
        np.maximum.at(self.top, self.pair_group, self.pair_counts)
        self.is_top = self.pair_counts == self.top[self.pair_group]
        self.n_top = np.bincount(
            self.pair_group[self.is_top], minlength=self.n_groups
        )
        # Groups of size >= 2 holding >= 2 distinct rhs keys violate.
        self.violating_group = (self.group_sizes >= 2) & (self.n_keys >= 2)

    def violating_rows(self) -> np.ndarray:
        """Rows the minority-vote scan flags (tie: whole group)."""
        if not self.n_groups:
            return np.zeros(0, dtype=np.int64)
        tie = self.n_top[self.g] > 1
        minority = self.pair_counts[self.pair_inverse] != self.top[self.g]
        return self.rows[self.violating_group[self.g] & (tie | minority)]


@dataclass(frozen=True)
class FunctionalDependency:
    """An FD ``lhs -> rhs``: rows agreeing on lhs must agree on rhs."""

    lhs: Tuple[str, ...]
    rhs: str

    def __init__(self, lhs, rhs: str) -> None:
        lhs_tuple = (lhs,) if isinstance(lhs, str) else tuple(lhs)
        if not lhs_tuple:
            raise ValueError("FD needs at least one determinant attribute")
        if rhs in lhs_tuple:
            raise ValueError("rhs must not appear in lhs")
        object.__setattr__(self, "lhs", lhs_tuple)
        object.__setattr__(self, "rhs", rhs)

    def __str__(self) -> str:
        return f"{','.join(self.lhs)} -> {self.rhs}"

    def violations(self, table: Table) -> Set[Cell]:
        """Cells involved in FD violations.

        Within each lhs group holding more than one distinct rhs value, the
        *minority* rhs cells are flagged (majority voting identifies the
        likely-correct value, standard practice in rule-based cleaning).
        When there is no majority, every rhs cell in the group is flagged.
        """
        cache = current_cache()
        key = None
        if cache is not None:
            key = artifact_key(
                "fd_violations@v1",
                [table_fingerprint(table)],
                {"lhs": list(self.lhs), "rhs": self.rhs},
            )
            entry = cache.get(key)
            if entry is not None:
                return {
                    (i, self.rhs) for i in entry.arrays["rows"].tolist()
                }
        with kernel_stage("fd.violations"):
            flagged = _GroupStats(self, table).violating_rows()
        if cache is not None and key is not None:
            cache.put(
                key,
                arrays={"rows": np.sort(flagged)},
                meta={"n_rows": int(len(flagged))},
            )
        return {(i, self.rhs) for i in flagged.tolist()}

    def majority_repairs(self, table: Table) -> Dict[Cell, object]:
        """Proposed repairs: violating rhs cells -> group-majority value."""
        with kernel_stage("fd.repairs"):
            stats = _GroupStats(self, table)
            if not stats.n_groups:
                return {}
            # Unique-majority groups whose majority value is not missing.
            majority_pair = np.full(stats.n_groups, -1, dtype=np.int64)
            top_indices = np.flatnonzero(stats.is_top)
            majority_pair[stats.pair_group[top_indices]] = top_indices
            eligible = stats.violating_group & (stats.n_top == 1)
            safe_pair = np.maximum(majority_pair, 0)
            majority_missing = np.fromiter(
                (
                    stats.rhs_values[uid] == "␀"
                    for uid in stats.pair_rhs[safe_pair].tolist()
                ),
                bool,
                count=stats.n_groups,
            )
            eligible &= (majority_pair >= 0) & ~majority_missing
            # The repair value is the raw cell at the group's first row
            # holding the majority key (``originals.setdefault`` order).
            first_row = np.full(len(stats.pairs), table.n_rows, dtype=np.int64)
            np.minimum.at(first_row, stats.pair_inverse, stats.rows)
            minority = (
                stats.pair_counts[stats.pair_inverse]
                != stats.top[stats.g]
            )
            flagged = eligible[stats.g] & minority
            column = table.column(self.rhs)
            sources = first_row[safe_pair[stats.g[flagged]]]
            return {
                (i, self.rhs): column[source]
                for i, source in zip(
                    stats.rows[flagged].tolist(), sources.tolist()
                )
            }

    def holds_on(self, table: Table) -> bool:
        """True when the table has no FD violations."""
        return not self.violations(table)

    def to_denial_constraint(self) -> DenialConstraint:
        """The standard DC encoding: not (t1.lhs==t2.lhs & t1.rhs!=t2.rhs)."""
        predicates = [
            Predicate(attr, "==", attr) for attr in self.lhs
        ] + [Predicate(self.rhs, "!=", self.rhs)]
        return DenialConstraint(predicates, binary=True, name=f"fd({self})")
