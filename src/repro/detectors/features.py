"""Cell featurization shared by the ML-supported detectors.

RAHA, ED2, and the metadata-driven detector all learn a per-cell dirty/clean
classifier; what differs is how features are built and how labels are
acquired.  They draw on two feature families, computed together in one
pass per table (:func:`combined_features`):

- *strategy features* (columns ``[:N_STRATEGY_FEATURES]``): binary outputs
  of a battery of cheap detection strategies (outlier tests at several
  thresholds, missing-value checks, pattern-shape deviation, rare-value
  tests) -- RAHA's feature generation;
- *metadata features* (the remaining columns): per-cell profile
  statistics (value length, token count, frequency, z-score, row-level
  missingness) -- ED2 / metadata-driven profiling features.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.cache.keys import artifact_key, table_fingerprint
from repro.cache.store import current_cache
from repro.dataset.columnar import KIND_FLOAT
from repro.dataset.table import Table, text_key

_SENTINEL_STRINGS = {"unknown", "unk", "xxx", "missing", "tbd", "-", "x"}

#: Width of the strategy family: the first columns of every matrix.
N_STRATEGY_FEATURES = 11


class _CodePointTable(dict):
    """A ``str.translate`` table that classifies each code point once,
    on first sight, with ``classify(char)`` (a replacement string, or
    None to delete the character)."""

    def __init__(self, classify: Callable[[str], Optional[str]]) -> None:
        super().__init__()
        self._classify = classify

    def __missing__(self, code_point: int) -> Optional[str]:
        value = self[code_point] = self._classify(chr(code_point))
        return value


#: Digits become ``9``, letters ``a``; anything else stays itself.
_SHAPE_TABLE = _CodePointTable(
    lambda ch: "9" if ch.isdigit() else "a" if ch.isalpha() else ch
)
#: Keeps the digits and deletes everything else.
_DIGIT_TABLE = _CodePointTable(lambda ch: ch if ch.isdigit() else None)


def _shape_of(text: str) -> str:
    """The value's shape: each digit as ``9``, each letter as ``a``."""
    return text.translate(_SHAPE_TABLE)


def _digit_fraction(text: str) -> float:
    """The share of a non-empty value's characters that are digits."""
    return len(text.translate(_DIGIT_TABLE)) / len(text)


def _entry_texts(
    table: Table, column: str
) -> Tuple[List[Optional[str]], np.ndarray]:
    """Each distinct entry's :func:`text_key`, in first-occurrence
    order, and each cell's entry id.

    A float cell's text is its ``repr`` (``str`` of an exact float, which
    needs no stripping or lower-casing), taken in bulk; NaN is missing.
    """
    view = table.column_view(column)
    first, inverse = view.entries()
    floats = view.tags[first] == KIND_FLOAT
    texts = np.empty(len(first), dtype=object)
    lane = view.lane[first[floats]]
    texts[floats] = list(map(float.__repr__, lane.tolist()))
    texts[np.flatnonzero(floats)[np.isnan(lane)]] = None
    rest = np.flatnonzero(~floats)
    texts[rest] = list(map(text_key, view.cells[first[rest]]))
    return texts.tolist(), inverse


def _summed(
    keys: List[str], sizes: np.ndarray
) -> Tuple[List[str], np.ndarray, np.ndarray]:
    """``(distinct, totals, ids)``: the distinct keys in first-occurrence
    order, the summed ``sizes`` of each, and each key's id.

    The order is a per-cell ``Counter``'s insertion order when the keys
    are per-entry and entries are in first-occurrence order, so
    ``argmax`` breaks ties as ``most_common`` does.
    """
    index: Dict[str, int] = {}
    ids = np.fromiter(
        (index.setdefault(key, len(index)) for key in keys),
        dtype=np.int64,
        count=len(keys),
    )
    totals = np.bincount(ids, weights=sizes, minlength=len(index))
    return list(index), totals.astype(np.int64), ids


def _column_features(
    table: Table, column: str, row_missing: np.ndarray
) -> np.ndarray:
    """One column's ``(n_rows, 18)`` feature matrix.

    Every key-derived feature (missing, frequency, shape deviation,
    sentinel, length, tokens, digit share) is computed once per distinct
    entry and gathered through the entry ids; so are the key and shape
    counts (:func:`_summed`), whose most common shape (the first to
    occur among equally common ones) is the dominant shape.
    ``row_missing`` is the table's share of missing cells per row, the
    last column.
    """
    n_rows = table.n_rows
    texts, inverse = _entry_texts(table, column)
    sizes = np.bincount(inverse, minlength=len(texts))
    present = [i for i, text in enumerate(texts) if text is not None]
    words = [texts[i] for i in present]
    lowered = list(map(str.lower, words))
    shapes = list(map(_shape_of, lowered))
    _, key_counts, key_of = _summed(lowered, sizes[present])
    shape_names, shape_counts, _ = _summed(shapes, sizes[present])
    total = int(key_counts.sum()) or 1
    dominant = (
        shape_names[int(np.argmax(shape_counts))] if shape_names else None
    )

    numeric = table.as_float(column)
    finite = numeric[~np.isnan(numeric)]

    # Per-entry features; a missing entry keeps its zeros (missing: 1).
    per_entry = np.zeros((len(texts), 7))
    missing, frequency, deviates, sentinel, length, tokens, digits = (
        per_entry[:, j] for j in range(7)
    )
    missing[:] = 1.0
    missing[present] = 0.0
    frequency[present] = key_counts[key_of] / total
    if dominant is not None:
        deviates[present] = [shape != dominant for shape in shapes]
    sentinel[present] = [low in _SENTINEL_STRINGS for low in lowered]
    length[present] = list(map(len, words))
    tokens[present] = [len(word.split()) for word in words]
    digits[present] = [_digit_fraction(w) if w else 0.0 for w in words]
    cell = per_entry[inverse]

    out = np.zeros((n_rows, N_STRATEGY_FEATURES + 7))
    is_missing = cell[:, 0]
    out[:, 0] = is_missing
    if len(finite) >= 3 and float(finite.std()) > 0:
        z = np.abs(numeric - float(finite.mean())) / float(finite.std())
        z = np.where(np.isnan(z), 0.0, z)
        for j, threshold in enumerate((2.0, 3.0, 4.0), start=1):
            out[:, j] = z > threshold
        out[:, 15] = np.minimum(z, 10.0)
    if len(finite) >= 4:
        q1, q3 = (float(q) for q in np.quantile(finite, [0.25, 0.75]))
        iqr = q3 - q1
        if iqr > 0:
            for j, k in enumerate((1.5, 3.0), start=4):
                out[:, j] = (numeric < q1 - k * iqr) | (numeric > q3 + k * iqr)
    out[:, 6] = cell[:, 1] < 0.01
    out[:, 7] = cell[:, 1] < 0.001
    out[:, 8:10] = cell[:, 2:4]
    if table.schema.kind_of(column) == "numerical":
        out[:, 10] = (is_missing == 0.0) & np.isnan(numeric)
    out[:, 11:14] = cell[:, 4:7]
    out[:, 14] = cell[:, 1]
    out[:, 16] = is_missing
    out[:, 17] = row_missing
    return out


def _combined_features_fresh(table: Table) -> Dict[str, np.ndarray]:
    names = table.column_names
    row_missing = np.zeros(table.n_rows)
    for name in names:
        row_missing += table.missing_mask(name).astype(float)
    row_missing /= max(len(names), 1)
    return {
        name: _column_features(table, name, row_missing) for name in names
    }


def combined_features(table: Table) -> Dict[str, np.ndarray]:
    """Strategy + metadata features for every column, in one pass.

    Per column, an ``(n_rows, 18)`` matrix: the strategy features
    (missing check, |z| > {2, 3, 4}, IQR k in {1.5, 3}, frequency <
    {1%, 0.1%}, shape deviates from the dominant shape, sentinel-lexicon
    membership, non-numeric payload in a numeric column), then the
    metadata features (value length, token count, digit share,
    frequency, z-score capped at 10 and 0 for non-numeric, is-missing,
    and the row's share of missing cells, a tuple-level feature per
    ED2).

    RAHA, ED2 and Meta each call this once per ``detect`` and slice it.
    With a cache installed the mapping is one entry
    (``detector/combined_features@v1``) that all three share across
    processes; column names can be arbitrary strings, so the entry
    stores arrays under positional names with the real column order in
    its JSON metadata.
    """
    cache = current_cache()
    if cache is None:
        return _combined_features_fresh(table)
    key = artifact_key(
        "detector/combined_features@v1",
        [table_fingerprint(table)],
        {},
    )
    entry = cache.get(key)
    if entry is not None:
        columns = entry.meta["columns"]
        return {
            name: entry.arrays[f"c{i}"] for i, name in enumerate(columns)
        }
    features = _combined_features_fresh(table)
    columns = list(features)
    cache.put(
        key,
        {f"c{i}": features[name] for i, name in enumerate(columns)},
        {"columns": columns},
    )
    return features
