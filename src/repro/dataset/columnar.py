"""Typed column views, plus the columnar building blocks of the kernels.

:class:`~repro.dataset.table.Table` keeps each column as a numpy
``object`` array, so that dirty cells can hold anything.  Every module
that needs a cell's type or identity reads it from one
:class:`ColumnView`, built in one typed pass per column and memoized on
the table until its next write (:meth:`Table.column_view`).  It holds:

- a ``uint8`` **tag** per cell by exact type (``KIND_NONE`` ...
  ``KIND_OTHER``): subclasses such as numpy scalars or ``np.str_`` are
  "other", ints outside int64 are ``KIND_BIGINT``;
- the distinct **strings** of text cells and the decimal text of big
  ints, in first-occurrence order;
- one 8-byte **lane**, read as ``float64`` (``lane``) or int64
  (``bits``): float cells keep their raw IEEE-754 bits (NaN payloads,
  ``inf``, ``-0.0``), int and bool cells their int64 value, text and
  big-int cells the index of their string, every other cell 0;
- the cells themselves, so that "other" cells stay the objects they are.

Two cells are the same *entry* (:meth:`ColumnView.entries`) exactly
when their tags and lane bits match or, for other cells, when they are
the same cell: ``1`` and ``True`` differ, and so do ``-0.0`` and
``0.0``.  That is the finest identity any consumer uses; each
coarsens it by its own rules (the fingerprint folds missing markers
together, the codec packs the lanes as they are, the kernels normalize)
and runs Python once per distinct string or other cell, not per cell.
Across two views of equal length, :func:`same_entries` marks the rows
whose cells are the same entry (what ``Table.diff_cells`` skips).

The kernels' building blocks: :func:`normalized_column` applies a pure
normalizer once per distinct entry; :func:`intern_values` maps
normalized payloads to dense ids in first-occurrence order (``-1`` for
``None``); :func:`combine_codes`, :func:`first_occurrence_order` and
:func:`group_sequence_ranks` give group-bys whose order reproduces
dict-insertion order, which keeps tie-breaking bit-for-bit.
"""

from __future__ import annotations

from itertools import repeat
from typing import Any, Callable, Dict, List, Sequence, Tuple, Union

import numpy as np

#: Cell kind tags, by exact type; also the data-plane codec's wire tags.
(KIND_NONE, KIND_FLOAT, KIND_INT, KIND_BOOL, KIND_TEXT, KIND_BIGINT,
 KIND_OTHER) = range(7)

#: The one type -> tag table.  Exact types only: subclasses fall
#: through to ``KIND_OTHER`` so that their concrete type survives.
_KIND_BY_TYPE = {
    type(None): KIND_NONE, float: KIND_FLOAT, int: KIND_INT,
    bool: KIND_BOOL, str: KIND_TEXT,
}


class ColumnView:
    """One column's cells as typed lanes (see the module docstring)."""

    __slots__ = ("cells", "tags", "lane", "strings")

    def __init__(self, cells: Sequence[Any]) -> None:
        n = len(cells)
        if not (isinstance(cells, np.ndarray) and cells.dtype == object):
            cells = np.fromiter(cells, dtype=object, count=n)
        tags = np.fromiter(
            map(_KIND_BY_TYPE.get, map(type, cells), repeat(KIND_OTHER)),
            dtype=np.uint8,
            count=n,
        )
        lane = np.zeros(n, dtype=np.float64)
        bits = lane.view(np.int64)
        floats = tags == KIND_FLOAT
        lane[floats] = cells[floats].astype(np.float64)
        ints = np.flatnonzero(tags == KIND_INT)
        try:
            bits[ints] = cells[ints].astype(np.int64)
        except OverflowError:
            big = [i for i in ints if not -(2**63) <= cells[i] < 2**63]
            tags[big] = KIND_BIGINT
            ints = np.flatnonzero(tags == KIND_INT)
            bits[ints] = cells[ints].astype(np.int64)
        bools = tags == KIND_BOOL
        bits[bools] = cells[bools].astype(np.int64)
        texts = np.flatnonzero((tags == KIND_TEXT) | (tags == KIND_BIGINT))
        values = cells[texts]
        big = tags[texts] == KIND_BIGINT
        if big.any():
            values[big] = [str(v) for v in values[big]]
        values = values.tolist()
        strings = list(dict.fromkeys(values))
        index = dict(zip(strings, range(len(strings))))
        bits[texts] = np.fromiter(
            map(index.__getitem__, values), dtype=np.int64, count=len(values)
        )
        self.cells, self.tags, self.lane = cells, tags, lane
        self.strings: List[str] = strings

    @property
    def bits(self) -> np.ndarray:
        """The lane read as int64."""
        return self.lane.view(np.int64)

    def entries(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(first, inverse)``: the first row of each distinct entry, in
        first-occurrence order, and each cell's entry id."""
        key = self.bits.copy()
        other = np.flatnonzero(self.tags == KIND_OTHER)
        key[other] = other
        order = np.lexsort((key, self.tags))
        tags, key = self.tags[order], key[order]
        starts = np.ones(len(order), dtype=bool)
        starts[1:] = (tags[1:] != tags[:-1]) | (key[1:] != key[:-1])
        group = np.empty(len(order), dtype=np.int64)
        group[order] = np.cumsum(starts) - 1
        _, _, first, inverse = first_occurrence_order(group)
        return first, inverse

    def fill(self, out: np.ndarray, fn: Callable[[Any], Any]) -> np.ndarray:
        """Write ``fn(cell)`` into ``out`` for every text, big-int and
        other cell, and return ``out``.

        ``fn`` runs once per distinct string for text cells and once per
        cell for big ints and other cells.  The caller fills the none,
        float, int and bool cells from the lane.
        """
        text = np.flatnonzero(self.tags == KIND_TEXT)
        if text.size:
            per_string = np.empty(len(self.strings), dtype=out.dtype)
            per_string[:] = [fn(s) for s in self.strings]
            out[text] = per_string[self.bits[text]]
        rest = np.flatnonzero(self.tags >= KIND_BIGINT)
        if rest.size:
            out[rest] = [fn(v) for v in self.cells[rest]]
        return out


def same_entries(a: ColumnView, b: ColumnView) -> np.ndarray:
    """Rows whose cells are the same entry in two equal-length views:
    equal tags and lane bits, text and big-int cells compared by their
    strings.  Other cells never count as the same."""
    same = (a.tags == b.tags) & (a.tags != KIND_OTHER)
    stringy = (a.tags == KIND_TEXT) | (a.tags == KIND_BIGINT)
    same &= stringy | (a.bits == b.bits)
    rows = np.flatnonzero(same & stringy)
    if rows.size:
        index = dict(zip(b.strings, range(len(b.strings))))
        remap = np.fromiter(
            (index.get(s, -1) for s in a.strings), np.int64, len(a.strings)
        )
        same[rows] = remap[a.bits[rows]] == b.bits[rows]
    return same


def normalized_column(
    column: Union[ColumnView, Sequence[Any]], normalize: Callable[[Any], Any]
) -> List[Any]:
    """``[normalize(v) for v in column]`` computed once per distinct entry.

    ``column`` is a :class:`ColumnView` (a table's memoized
    :meth:`~repro.dataset.table.Table.column_view`) or any sequence of
    cells, which gets a transient view.  ``normalize`` sees each entry's
    first cell, in row order.
    """
    view = column if isinstance(column, ColumnView) else ColumnView(column)
    first, inverse = view.entries()
    distinct = [normalize(v) for v in view.cells[first]]
    return list(map(distinct.__getitem__, inverse.tolist()))


def intern_values(
    values: List[Any],
) -> Tuple[np.ndarray, List[Any]]:
    """Map values to dense ids in first-occurrence order.

    Returns ``(uids, distinct)`` where ``uids[i]`` is the id of
    ``values[i]`` (or ``-1`` when the value is ``None``) and
    ``distinct[uid]`` is the value itself.  Ids are assigned in order of
    first occurrence, so downstream consumers can rebuild
    insertion-ordered dicts and Counters exactly as the scalar kernels
    created them.
    """
    ids: Dict[Any, int] = {}
    distinct: List[Any] = []
    uids = np.empty(len(values), dtype=np.int64)
    for i, value in enumerate(values):
        if value is None:
            uids[i] = -1
            continue
        uid = ids.get(value)
        if uid is None:
            uid = ids[value] = len(distinct)
            distinct.append(value)
        uids[i] = uid
    return uids, distinct


def combine_codes(code_columns: List[np.ndarray]) -> np.ndarray:
    """Combine per-column id arrays into one id per row (row-wise tuple).

    Rows where any input id is negative (missing) get ``-1``.  Equal
    output ids correspond exactly to equal input tuples; output ids are
    assigned in first-occurrence row order.
    """
    if not code_columns:
        raise ValueError("need at least one code column")
    n = len(code_columns[0])
    valid = np.ones(n, dtype=bool)
    for codes in code_columns:
        valid &= codes >= 0
    stacked = np.stack(code_columns, axis=1)[valid]
    combined = np.full(n, -1, dtype=np.int64)
    if len(stacked) == 0:
        return combined
    _, first, inverse = np.unique(
        stacked, axis=0, return_index=True, return_inverse=True
    )
    # np.unique sorts groups lexicographically; renumber so ids follow
    # first occurrence in row order (dict-insertion semantics).
    order = np.argsort(np.argsort(first, kind="stable"), kind="stable")
    combined[valid] = order[inverse.ravel()]
    return combined


def group_sequence_ranks(group_ids: np.ndarray) -> np.ndarray:
    """Position of each element within its group, in array order.

    ``group_sequence_ranks([3, 5, 3, 3, 5]) == [0, 0, 1, 2, 1]``.  The
    batched repair scorers use this as the "stream position" that
    recreates dict-insertion first-touch order per scored cell.
    """
    n = len(group_ids)
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    order = np.argsort(group_ids, kind="stable")
    sorted_ids = group_ids[order]
    new_group = np.empty(n, dtype=bool)
    new_group[0] = True
    new_group[1:] = sorted_ids[1:] != sorted_ids[:-1]
    starts = np.flatnonzero(new_group)
    lengths = np.diff(np.append(starts, n))
    within = np.arange(n) - np.repeat(starts, lengths)
    ranks = np.empty(n, dtype=np.int64)
    ranks[order] = within
    return ranks


def first_occurrence_order(
    codes: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Distinct codes with their counts and first positions, in
    first-occurrence order.

    Returns ``(distinct, counts, first_index, inverse)`` such that
    ``distinct[inverse] == codes``, ``counts[k]`` is the multiplicity of
    ``distinct[k]``, and ``first_index[k]`` is the position of its first
    occurrence -- with ``k`` running in first-occurrence order, matching
    dict-insertion iteration of the scalar group-by loops.
    """
    if len(codes) == 0:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty, empty, empty
    distinct_sorted, first_sorted, inverse_sorted, counts_sorted = np.unique(
        codes, return_index=True, return_inverse=True, return_counts=True
    )
    rank_of_sorted = np.argsort(np.argsort(first_sorted, kind="stable"))
    occurrence = np.argsort(first_sorted, kind="stable")
    distinct = distinct_sorted[occurrence]
    counts = counts_sorted[occurrence]
    first_index = first_sorted[occurrence]
    inverse = rank_of_sorted[inverse_sorted.ravel()]
    return distinct, counts, first_index, inverse


def csr_gather(
    flat: np.ndarray,
    offsets: np.ndarray,
    lengths: np.ndarray,
    take: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Gather variable-length id lists for a batch of list indices.

    ``flat``/``offsets``/``lengths`` describe a CSR layout (list ``u``
    occupies ``flat[offsets[u] : offsets[u] + lengths[u]]``).  Returns
    ``(values, owners)`` where ``values`` concatenates the lists named
    by ``take`` in order and ``owners[i]`` is the position within
    ``take`` that produced ``values[i]``.
    """
    counts = lengths[take]
    total = int(counts.sum())
    if total == 0:
        return (
            np.zeros(0, dtype=flat.dtype),
            np.zeros(0, dtype=np.int64),
        )
    starts = np.repeat(offsets[take], counts)
    group_starts = np.cumsum(counts) - counts
    within = np.arange(total, dtype=np.int64) - np.repeat(group_starts, counts)
    owners = np.repeat(np.arange(len(take), dtype=np.int64), counts)
    return flat[starts + within], owners
