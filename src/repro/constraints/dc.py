"""Denial constraints over one or two tuples.

A denial constraint (DC) forbids any (pair of) tuple(s) for which *all*
predicates hold simultaneously: ``not (p1 and p2 and ...)``.  Unary DCs
constrain single rows (e.g. ``not (age < 0)``); binary DCs constrain row
pairs (e.g. the FD ``zip -> city`` becomes
``not (t1.zip == t2.zip and t1.city != t2.city)``).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

import numpy as np

from repro.cache.keys import artifact_key, table_fingerprint
from repro.cache.store import current_cache
from repro.dataset.columnar import (
    combine_codes,
    normalized_column,
)
from repro.dataset.table import Cell, Table, coerce_float, is_missing
from repro.kernels import kernel_stage

_OPERATORS: Dict[str, Callable[[Any, Any], bool]] = {
    "==": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}

_NUMERIC_OPS = {"<", "<=", ">", ">="}


def _comparable(op: str, left: Any, right: Any) -> Optional[Tuple[Any, Any]]:
    """Coerce operands for comparison; None when incomparable/missing."""
    if is_missing(left) or is_missing(right):
        return None
    left_f, right_f = coerce_float(left), coerce_float(right)
    left_numeric = left_f == left_f  # not NaN
    right_numeric = right_f == right_f
    if op in _NUMERIC_OPS:
        if not (left_numeric and right_numeric):
            return None
        return left_f, right_f
    if left_numeric and right_numeric:
        return left_f, right_f
    return str(left).strip(), str(right).strip()


@dataclass(frozen=True)
class Predicate:
    """One atomic comparison inside a denial constraint.

    Attributes:
        left_attr: attribute of the first tuple (``t1``).
        op: one of ``== != < <= > >=``.
        right_attr: attribute of the second tuple (``t2``) -- or of ``t1``
            when the constraint is unary.
        constant: literal to compare against instead of ``right_attr``.
        right_tuple: ``"t1"`` or ``"t2"``; which tuple ``right_attr``
            refers to (ignored when a constant is given).
    """

    left_attr: str
    op: str
    right_attr: Optional[str] = None
    constant: Any = None
    right_tuple: str = "t2"

    def __post_init__(self) -> None:
        if self.op not in _OPERATORS:
            raise ValueError(f"unsupported operator {self.op!r}")
        if (self.right_attr is None) == (self.constant is None):
            raise ValueError("exactly one of right_attr/constant is required")
        if self.right_tuple not in ("t1", "t2"):
            raise ValueError("right_tuple must be 't1' or 't2'")

    def holds(self, row_a: Dict[str, Any], row_b: Optional[Dict[str, Any]] = None) -> bool:
        """Evaluate the predicate on one or two rows (dicts by attribute)."""
        left = row_a.get(self.left_attr)
        if self.constant is not None:
            right = self.constant
        else:
            source = row_a if self.right_tuple == "t1" or row_b is None else row_b
            right = source.get(self.right_attr)
        pair = _comparable(self.op, left, right)
        if pair is None:
            return False
        return _OPERATORS[self.op](*pair)

    @property
    def attributes(self) -> Set[str]:
        attrs = {self.left_attr}
        if self.right_attr is not None:
            attrs.add(self.right_attr)
        return attrs

    def __str__(self) -> str:
        if self.constant is not None:
            return f"t1.{self.left_attr} {self.op} {self.constant!r}"
        other = self.right_tuple
        return f"t1.{self.left_attr} {self.op} {other}.{self.right_attr}"


def _strip_text(value: Any) -> str:
    return str(value).strip()


_PAIR_CHUNK = 1 << 18


class _ConstraintArrays:
    """Columnar predicate evaluation state for one constraint + table.

    Each referenced attribute is normalized once per distinct payload
    into a missing mask, a float view, and string ids drawn from one
    interner shared across attributes (so id equality is exactly
    stripped-string equality, the comparison ``_comparable`` performs).
    Predicates then evaluate as boolean masks over arbitrary row-index
    arrays, reproducing ``Predicate.holds`` elementwise.
    """

    def __init__(self, dc: "DenialConstraint", table: Table) -> None:
        self.dc = dc
        self.n_rows = table.n_rows
        shared: Dict[str, int] = {}
        self.miss: Dict[str, np.ndarray] = {}
        self.floats: Dict[str, np.ndarray] = {}
        self.numeric: Dict[str, np.ndarray] = {}
        self.suid: Dict[str, np.ndarray] = {}
        for attr in sorted(dc.attributes):
            self.miss[attr] = table.missing_mask(attr)
            floats = table.as_float(attr)
            self.floats[attr] = floats
            self.numeric[attr] = floats == floats  # not NaN
            strs = normalized_column(table.column_view(attr), _strip_text)
            self.suid[attr] = np.fromiter(
                (shared.setdefault(s, len(shared)) for s in strs),
                dtype=np.int64,
                count=len(strs),
            )
        self.shared = shared
        self._constant_masks = [
            self._constant_mask(p) if p.constant is not None else None
            for p in dc.predicates
        ]

    def _constant_mask(self, pred: Predicate) -> np.ndarray:
        """Per-row truth of an attr-vs-constant predicate."""
        left = pred.left_attr
        nothing = np.zeros(self.n_rows, dtype=bool)
        if is_missing(pred.constant):
            return nothing
        op = _OPERATORS[pred.op]
        constant_f = coerce_float(pred.constant)
        constant_numeric = constant_f == constant_f
        valid = ~self.miss[left]
        if pred.op in _NUMERIC_OPS:
            if not constant_numeric:
                return nothing
            return valid & self.numeric[left] & op(self.floats[left], constant_f)
        numeric_branch = (
            self.numeric[left] if constant_numeric else nothing
        )
        numeric_result = (
            op(self.floats[left], constant_f) if constant_numeric else nothing
        )
        constant_id = self.shared.get(str(pred.constant).strip(), -1)
        string_eq = self.suid[left] == constant_id
        string_result = string_eq if pred.op == "==" else ~string_eq
        return valid & np.where(numeric_branch, numeric_result, string_result)

    def _predicate_mask(
        self,
        position: int,
        pred: Predicate,
        ia: np.ndarray,
        ib: Optional[np.ndarray],
    ) -> np.ndarray:
        if pred.constant is not None:
            return self._constant_masks[position][ia]
        left, right = pred.left_attr, pred.right_attr
        rsel = ia if (pred.right_tuple == "t1" or ib is None) else ib
        valid = ~self.miss[left][ia] & ~self.miss[right][rsel]
        op = _OPERATORS[pred.op]
        both_numeric = self.numeric[left][ia] & self.numeric[right][rsel]
        if pred.op in _NUMERIC_OPS:
            return valid & both_numeric & op(
                self.floats[left][ia], self.floats[right][rsel]
            )
        numeric_result = op(self.floats[left][ia], self.floats[right][rsel])
        string_eq = self.suid[left][ia] == self.suid[right][rsel]
        string_result = string_eq if pred.op == "==" else ~string_eq
        return valid & np.where(both_numeric, numeric_result, string_result)

    def conjunction(
        self, ia: np.ndarray, ib: Optional[np.ndarray]
    ) -> np.ndarray:
        """``all(p.holds(...))`` for every (ia[k], ib[k]) row selection."""
        mask: Optional[np.ndarray] = None
        for position, pred in enumerate(self.dc.predicates):
            step = self._predicate_mask(position, pred, ia, ib)
            mask = step if mask is None else mask & step
            if not mask.any():
                break
        return mask

    def equality_blocks(self, equality_attrs: List[str]) -> List[np.ndarray]:
        """Join blocks in first-key-occurrence order, rows ascending."""
        codes = combine_codes(
            [
                np.where(self.miss[attr], -1, self.suid[attr])
                for attr in equality_attrs
            ]
        )
        valid = codes >= 0
        rows = np.flatnonzero(valid)
        if not len(rows):
            return []
        members = codes[valid]
        order = np.argsort(members, kind="stable")
        sorted_rows = rows[order]
        boundaries = np.cumsum(np.bincount(members))
        starts = np.append(0, boundaries[:-1])
        return [
            sorted_rows[s:e]
            for s, e in zip(starts.tolist(), boundaries.tolist())
            if e - s > 1
        ]


class DenialConstraint:
    """A conjunction of predicates that must never all hold.

    Args:
        predicates: the conjuncts.
        binary: True when the constraint quantifies over tuple *pairs*.
            Unary constraints are evaluated per row.
        name: optional label used in reports.
    """

    def __init__(
        self,
        predicates: List[Predicate],
        binary: bool = False,
        name: Optional[str] = None,
    ) -> None:
        if not predicates:
            raise ValueError("a denial constraint needs at least one predicate")
        self.predicates = list(predicates)
        self.binary = binary
        self.name = name or self._default_name()

    def _default_name(self) -> str:
        kind = "binary" if self.binary else "unary"
        return f"dc_{kind}(" + " & ".join(str(p) for p in self.predicates) + ")"

    @property
    def attributes(self) -> Set[str]:
        attrs: Set[str] = set()
        for predicate in self.predicates:
            attrs |= predicate.attributes
        return attrs

    def _row_dict(self, table: Table, index: int) -> Dict[str, Any]:
        return {attr: table.get_cell(index, attr) for attr in self.attributes}

    def violations(self, table: Table, max_pairs: int = 2_000_000) -> Set[Cell]:
        """Cells participating in at least one violation.

        Unary constraints flag the involved attributes of each violating
        row.  Binary constraints group rows by their equality-join keys
        (the ``t1.A == t2.A`` predicates) to avoid the full quadratic scan,
        then flag the attributes of both rows in each violating pair.
        ``max_pairs`` caps the pairwise work for pathological blocks.
        """
        cache = current_cache()
        key = None
        if cache is not None:
            key = artifact_key(
                "dc_violations@v1",
                [table_fingerprint(table)],
                {
                    "predicates": self._predicate_fingerprint(),
                    "binary": self.binary,
                    "max_pairs": max_pairs,
                },
            )
            entry = cache.get(key)
            if entry is not None:
                attrs = sorted(self.attributes)
                return {
                    (i, attr)
                    for i in entry.arrays["rows"].tolist()
                    for attr in attrs
                }
        if not self.binary:
            cells = self._unary_violations(table)
        else:
            cells = self._binary_violations(table, max_pairs)
        if cache is not None and key is not None:
            rows = np.asarray(
                sorted({i for i, _ in cells}), dtype=np.int64
            )
            cache.put(key, arrays={"rows": rows}, meta={"n_rows": len(rows)})
        return cells

    def _predicate_fingerprint(self) -> List[List[Any]]:
        """JSON-stable constraint identity for cache keys."""
        return [
            [p.left_attr, p.op, p.right_attr, repr(p.constant), p.right_tuple]
            for p in self.predicates
        ]

    def _unary_violations(self, table: Table) -> Set[Cell]:
        with kernel_stage("dc.unary"):
            arrays = _ConstraintArrays(self, table)
            flagged = arrays.conjunction(np.arange(table.n_rows), None)
            return {
                (i, attr)
                for i in np.flatnonzero(flagged).tolist()
                for attr in self.attributes
            }

    def _binary_violations(self, table: Table, max_pairs: int) -> Set[Cell]:
        with kernel_stage("dc.binary"):
            return self._binary_violations_vectorized(table, max_pairs)

    def _binary_violations_vectorized(
        self, table: Table, max_pairs: int
    ) -> Set[Cell]:
        equality_attrs = [
            p.left_attr
            for p in self.predicates
            if p.op == "==" and p.right_attr == p.left_attr and p.constant is None
        ]
        arrays = _ConstraintArrays(self, table)
        if equality_attrs:
            candidate_blocks = arrays.equality_blocks(equality_attrs)
        else:
            candidate_blocks = [np.arange(table.n_rows, dtype=np.int64)]
        flagged = np.zeros(table.n_rows, dtype=bool)
        # The scalar scan evaluated ordered pairs block by block (rows
        # ascending, ``ia`` outer / ``ib`` inner, diagonal skipped) and
        # stopped after exactly ``max_pairs`` evaluations; generating the
        # same enumeration prefix keeps capped results identical.
        remaining = max_pairs
        for block in candidate_blocks:
            span = len(block) - 1
            take = min(len(block) * span, remaining)
            for start in range(0, take, _PAIR_CHUNK):
                ticket = np.arange(start, min(start + _PAIR_CHUNK, take))
                ia_local = ticket // span
                offset = ticket % span
                ib_local = offset + (offset >= ia_local)
                left_rows = block[ia_local]
                right_rows = block[ib_local]
                hit = arrays.conjunction(left_rows, right_rows)
                flagged[left_rows[hit]] = True
                flagged[right_rows[hit]] = True
            remaining -= take
            if remaining <= 0:
                break
        return {
            (i, attr)
            for i in np.flatnonzero(flagged).tolist()
            for attr in self.attributes
        }

    def violating_row_pairs(
        self, table: Table, max_pairs: int = 200_000
    ) -> List[Tuple[int, int]]:
        """Row-index pairs (i < j) that jointly violate a binary constraint."""
        if not self.binary:
            raise ValueError("row pairs only defined for binary constraints")
        with kernel_stage("dc.pairs"):
            arrays = _ConstraintArrays(self, table)
            n = table.n_rows
            take = min(n * (n - 1) // 2, max_pairs)
            indices = np.arange(n, dtype=np.int64)
            starts = indices * (n - 1) - indices * (indices - 1) // 2
            pairs: List[Tuple[int, int]] = []
            for chunk in range(0, take, _PAIR_CHUNK):
                ticket = np.arange(chunk, min(chunk + _PAIR_CHUNK, take))
                i = np.searchsorted(starts, ticket, side="right") - 1
                j = ticket - starts[i] + i + 1
                hit = arrays.conjunction(i, j) | arrays.conjunction(j, i)
                pairs.extend(zip(i[hit].tolist(), j[hit].tolist()))
            return pairs

    def __str__(self) -> str:
        return self.name

    def __repr__(self) -> str:
        return f"DenialConstraint({self.name})"
