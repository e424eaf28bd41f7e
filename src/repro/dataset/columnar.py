"""Columnar normalization and interning shared by the cleaning kernels.

The vectorized detector/constraint/repair kernels all start the same
way: turn an ``object`` column into integer ids so the hot math runs on
numpy arrays instead of per-cell Python.  Three building blocks live
here:

- :func:`normalized_column` applies a normalization function once per
  *distinct* cell payload (typed-key memo), instead of once per row --
  the cheap O(distinct) pass that replaces the scalar kernels' O(rows)
  string work;
- :func:`intern_values` maps normalized payloads to dense integer ids
  (first-occurrence order, ``-1`` for ``None``), the substrate for
  hash-group joins and pairwise comparisons;
- :func:`group_sequence_ranks` numbers each element's position within
  its group in stream order, which the batched repair scorers use to
  replicate dict-insertion-order tie-breaking bit-for-bit.

Memoizing per distinct payload is safe because every normalizer used by
the kernels (``str(v).strip()``, KB normalization, ``coerce_float``) is
a pure function of the payload's type and value: the memo key is
:func:`payload_key`, so ``1`` and ``True`` (equal and hash-equal, but
with different ``str()``) never share an entry, and neither do ``-0.0``
and ``0.0``.
"""

from __future__ import annotations

import struct
from typing import Any, Callable, Dict, List, Tuple

import numpy as np

_MISS = object()
_PACK_DOUBLE = struct.Struct("<d").pack
_NUMPY_FLOATS = frozenset({np.float16, np.float32, np.float64, np.longdouble})


def payload_key(value: Any) -> Tuple[type, Any]:
    """Memo key under which equal keys mean identical cell payloads.

    ``(type(v), v)`` for most payloads; floats key on their bit pattern
    instead, because ``-0.0 == 0.0`` (and hash-equal) yet the two differ
    under ``str()``.  Raises ``TypeError`` on hashing an unhashable
    payload, like the plain tuple would.
    """
    kind = type(value)
    if kind is float:
        return kind, _PACK_DOUBLE(value)
    if kind in _NUMPY_FLOATS:
        return kind, value.tobytes()
    return kind, value


def normalized_column(
    column: np.ndarray, normalize: Callable[[Any], Any]
) -> List[Any]:
    """``[normalize(v) for v in column]`` computed once per distinct payload.

    Unhashable payloads (which cannot be memoized) fall back to a direct
    call, so the result always equals the plain per-row comprehension.
    """
    memo: Dict[Any, Any] = {}
    out: List[Any] = []
    for value in column:
        key = payload_key(value)
        try:
            cached = memo.get(key, _MISS)
        except TypeError:  # unhashable payload
            out.append(normalize(value))
            continue
        if cached is _MISS:
            cached = memo[key] = normalize(value)
        out.append(cached)
    return out


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
