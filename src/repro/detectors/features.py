"""Cell featurization shared by the ML-supported detectors.

RAHA, ED2, and the metadata-driven detector all learn a per-cell dirty/clean
classifier; what differs is how features are built and how labels are
acquired.  This module provides the two feature families they draw on:

- *strategy features*: binary outputs of a battery of cheap detection
  strategies (outlier tests at several thresholds, missing-value checks,
  pattern-shape deviation, rare-value tests) -- RAHA's feature generation;
- *metadata features*: per-cell profile statistics (value length, token
  count, frequency, z-score, row-level missingness) -- ED2 / metadata-driven
  profiling features.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional

import numpy as np

from repro.cache.keys import (
    artifact_key,
    config_fingerprint,
    table_block_fingerprint,
    table_fingerprint,
)
from repro.cache.store import current_cache
from repro.dataset.columnar import normalized_column
from repro.dataset.table import Table, is_missing

_SENTINEL_STRINGS = {"unknown", "unk", "xxx", "missing", "tbd", "-", "x"}

#: Fixed widths of the two feature families (block assembly preallocates).
N_STRATEGY_FEATURES = 11
N_METADATA_FEATURES = 7


def _lower_key(value: Any) -> Optional[str]:
    return None if is_missing(value) else str(value).strip().lower()


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


@dataclass(frozen=True)
class ColumnProfile:
    """Whole-table statistics one column's cell features depend on.

    Fitting a profile is the only pass that must see every row at once;
    given the profile, every per-cell feature is a pure elementwise
    function of that cell's row, so inference can stream over row blocks
    and stay byte-identical to the whole-table evaluation.  Instances are
    plain picklable data so the parallel engine can ship them to workers.
    """

    column: str
    numerical: bool
    has_z: bool
    mean: float
    std: float
    has_iqr: bool
    q1: float
    q3: float
    iqr: float
    counts: Mapping[str, int]
    total: int
    dominant_shape: Optional[str]


def fit_column_profile(table: Table, column: str) -> ColumnProfile:
    """Fit the whole-table statistics for one column (the 'fit' half)."""
    numeric = table.as_float(column)
    finite = numeric[~np.isnan(numeric)]
    keys = normalized_column(table.column_view(column), _lower_key)
    counts = Counter(k for k in keys if k is not None)
    total = sum(counts.values()) or 1
    shape_counts = Counter(_shape_of(k) for k in keys if k is not None)
    dominant = (
        shape_counts.most_common(1)[0][0] if shape_counts else None
    )
    has_z = len(finite) >= 3 and float(finite.std()) > 0
    has_iqr = len(finite) >= 4
    if has_iqr:
        q1, q3 = np.quantile(finite, [0.25, 0.75])
        q1, q3 = float(q1), float(q3)
    else:
        q1 = q3 = 0.0
    return ColumnProfile(
        column=column,
        numerical=table.schema.kind_of(column) == "numerical",
        has_z=has_z,
        mean=float(finite.mean()) if has_z else 0.0,
        std=float(finite.std()) if has_z else 0.0,
        has_iqr=has_iqr,
        q1=q1,
        q3=q3,
        iqr=q3 - q1,
        counts=dict(counts),
        total=total,
        dominant_shape=dominant,
    )


def strategy_features_block(
    profile: ColumnProfile, block: Table
) -> np.ndarray:
    """Strategy-output matrix for one row block, given a fitted profile.

    Every strategy decision is elementwise against the profile's scalar
    statistics, so evaluating block-by-block yields exactly the bytes the
    whole-table evaluation would produce for the same rows.
    """
    n_rows = block.n_rows
    numeric = block.as_float(profile.column)
    missing = block.missing_mask(profile.column)

    columns: List[np.ndarray] = [missing.astype(float)]
    # Z-score strategies.
    if profile.has_z:
        z = np.abs(numeric - profile.mean) / profile.std
        z = np.where(np.isnan(z), 0.0, z)
        for threshold in (2.0, 3.0, 4.0):
            columns.append((z > threshold).astype(float))
    else:
        columns.extend([np.zeros(n_rows)] * 3)
    # IQR strategies.
    if profile.has_iqr:
        q1, q3, iqr = profile.q1, profile.q3, profile.iqr
        for k in (1.5, 3.0):
            if iqr > 0:
                out = (numeric < q1 - k * iqr) | (numeric > q3 + k * iqr)
                columns.append(np.where(np.isnan(numeric), 0.0, out).astype(float))
            else:
                columns.append(np.zeros(n_rows))
    else:
        columns.extend([np.zeros(n_rows)] * 2)
    # Frequency strategies.
    keys = normalized_column(block.column_view(profile.column), _lower_key)
    counts, total = profile.counts, profile.total
    frequency = np.array(
        [counts.get(k, 0) / total if k is not None else 0.0 for k in keys]
    )
    columns.append((frequency < 0.01).astype(float))
    columns.append((frequency < 0.001).astype(float))
    # Shape deviation.
    if profile.dominant_shape is not None:
        dominant = profile.dominant_shape
        deviates = np.array(
            [
                0.0 if k is None else float(_shape_of(k) != dominant)
                for k in keys
            ]
        )
    else:
        deviates = np.zeros(n_rows)
    columns.append(deviates)
    # Sentinel lexicon.
    columns.append(
        np.array(
            [float(k in _SENTINEL_STRINGS) if k is not None else 0.0 for k in keys]
        )
    )
    # Non-numeric payload in a numeric column.
    if profile.numerical:
        corrupted = (~missing & np.isnan(numeric)).astype(float)
    else:
        corrupted = np.zeros(n_rows)
    columns.append(corrupted)
    return np.column_stack(columns)


def strategy_features(table: Table, column: str) -> np.ndarray:
    """Binary strategy-output matrix for one column (n_rows x n_strategies).

    Strategies: missing check, |z| > {2, 3, 4}, IQR k in {1.5, 3},
    frequency < {1%, 0.1%}, shape deviates from dominant shape,
    sentinel-lexicon membership, non-numeric payload in numeric column.

    Equivalent to fitting a :class:`ColumnProfile` and evaluating the
    whole table as one block.
    """
    return strategy_features_block(fit_column_profile(table, column), table)


def metadata_features_block(
    profile: ColumnProfile, block: Table
) -> np.ndarray:
    """Metadata-feature matrix for one row block, given a fitted profile."""
    n_rows = block.n_rows
    numeric = block.as_float(profile.column)
    keys = block.text_keys(profile.column)
    counts, total = profile.counts, profile.total

    lengths = np.array([0.0 if k is None else float(len(k)) for k in keys])
    tokens = np.array(
        [0.0 if k is None else float(len(k.split())) for k in keys]
    )
    digit_fraction = np.array(
        [0.0 if not k else _digit_fraction(k) for k in keys]
    )
    frequency = np.array(
        [
            counts.get(k.lower(), 0) / total if k is not None else 0.0
            for k in keys
        ]
    )
    if profile.has_z:
        z = np.abs(numeric - profile.mean) / profile.std
        z = np.where(np.isnan(z), 0.0, np.minimum(z, 10.0))
    else:
        z = np.zeros(n_rows)
    missing = np.array([float(k is None) for k in keys])
    row_missing = np.zeros(n_rows)
    for other in block.column_names:
        row_missing += block.missing_mask(other).astype(float)
    row_missing /= max(len(block.column_names), 1)
    return np.column_stack(
        [lengths, tokens, digit_fraction, frequency, z, missing, row_missing]
    )


def metadata_features(table: Table, column: str) -> np.ndarray:
    """Profile-statistic matrix for one column (n_rows x n_features).

    Features: value length, token count, digit fraction, frequency,
    z-score (0 for non-numeric), is-missing, and the row's missing count
    (tuple-level feature, per ED2).
    """
    return metadata_features_block(fit_column_profile(table, column), table)


def _combined_features_fresh(table: Table) -> Dict[str, np.ndarray]:
    features = {}
    for column in table.column_names:
        profile = fit_column_profile(table, column)
        features[column] = np.hstack([
            strategy_features_block(profile, table),
            metadata_features_block(profile, table),
        ])
    return features


def _profile_digest(profile: ColumnProfile) -> str:
    """Content digest of a fitted profile (keys block-level cache entries)."""
    return config_fingerprint(
        {
            "column": profile.column,
            "numerical": profile.numerical,
            "has_z": profile.has_z,
            "mean": profile.mean,
            "std": profile.std,
            "has_iqr": profile.has_iqr,
            "q1": profile.q1,
            "q3": profile.q3,
            "iqr": profile.iqr,
            "counts": dict(profile.counts),
            "total": profile.total,
            "dominant_shape": profile.dominant_shape,
        }
    )


def _combined_features_blocked(
    table: Table, block_rows: int
) -> Dict[str, np.ndarray]:
    """Streamed evaluation of :func:`combined_features` over row blocks.

    Profiles are fitted once against the whole table; each block is then
    evaluated independently into a preallocated output, so peak transient
    memory is one block's feature rows instead of the whole matrix.  When
    a cache is installed, each block gets its own content-addressed entry
    keyed by its :func:`table_block_fingerprint` plus the profiles that
    shaped it, so unchanged blocks are reused even when sibling blocks of
    the table changed.
    """
    cache = current_cache()
    names = table.column_names
    profiles = {name: fit_column_profile(table, name) for name in names}
    block_config: Dict[str, Any] = {}
    if cache is not None:
        block_config = {
            "profiles": {
                name: _profile_digest(profiles[name]) for name in names
            }
        }
    width = N_STRATEGY_FEATURES + N_METADATA_FEATURES
    out = {
        name: np.empty((table.n_rows, width), dtype=np.float64)
        for name in names
    }
    for start, block in table.iter_blocks(block_rows):
        stop = start + block.n_rows
        arrays: Optional[Dict[str, np.ndarray]] = None
        key = None
        if cache is not None:
            key = artifact_key(
                "detector/combined_features@v1+block",
                [table_block_fingerprint(table, start, stop)],
                block_config,
            )
            entry = cache.get(key)
            if entry is not None:
                arrays = {
                    name: entry.arrays[f"c{i}"]
                    for i, name in enumerate(entry.meta["columns"])
                }
        if arrays is None:
            arrays = {
                name: np.hstack(
                    [
                        strategy_features_block(profiles[name], block),
                        metadata_features_block(profiles[name], block),
                    ]
                )
                for name in names
            }
            if cache is not None and key is not None:
                cache.put(
                    key,
                    {f"c{i}": arrays[name] for i, name in enumerate(names)},
                    {"columns": names},
                )
        for name in names:
            out[name][start:stop] = arrays[name]
    return out


def combined_features(
    table: Table, block_rows: Optional[int] = None
) -> Dict[str, np.ndarray]:
    """Strategy + metadata features for every column.

    This is the dominant featurization cost of the ML-supported detectors
    (RAHA and friends re-derive it for every table version), so the whole
    per-column mapping is memoized in the artifact cache when one is
    installed.  Column names can be arbitrary strings, so the entry stores
    arrays under positional names with the real column order in the JSON
    metadata.

    With ``block_rows`` set, evaluation streams over row blocks (fit
    stays whole-table) and the result is byte-identical to the unblocked
    call; both paths share the same whole-table cache entry.
    """
    cache = current_cache()
    if cache is None:
        if block_rows is not None:
            return _combined_features_blocked(table, block_rows)
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
    if block_rows is not None:
        features = _combined_features_blocked(table, block_rows)
    else:
        features = _combined_features_fresh(table)
    columns = list(features)
    cache.put(
        key,
        {f"c{i}": features[name] for i, name in enumerate(columns)},
        {"columns": columns},
    )
    return features
