"""Frozen pre-vectorization detector kernels (equivalence oracles).

This module preserves the *original* scalar implementations of the
detector hot paths exactly as they were before the cleaning-stage
vectorization pass (mirroring :mod:`oracles.ml`):

- dBoost histogram scoring by a per-value Python bin-assignment loop,
  and its Gaussian-mixture EM with ``np.logaddexp.reduce`` over the
  components and the final log-likelihood computed twice;
- ZeroER candidate-pair enumeration by nested Python loops inside each
  block, and pair featurization by one Python call per pair that
  re-derives character trigram sets from scratch;
- KATARA domain/relation checking by per-row membership loops;
- the whole-table MV, SD and IQR detector bodies, with one
  ``is_missing``/``coerce_float`` call per cell instead of the table's
  column views;
- the cell-feature value shape and digit fraction by one
  ``isdigit``/``isalpha`` call per character;
- the cell features as two families fitted per column: a whole
  ``ReferenceColumnProfile`` fit (lower-cased keys and ``Counter`` objects per
  cell), then the strategy and the metadata blocks, each deriving its
  keys again and the metadata block summing every column's missing mask
  for the row-missing share;
- dBoost's configuration search, which fits a fresh mixture EM for
  every mixture configuration;
- the Metadata-driven detector body, which enumerates every cell into a
  list and a position dict and stacks one metadata row view per cell.

One deliberate deviation is documented inline:
:func:`reference_enumerate_block_pairs` iterates blocks in sorted-key
order rather than dict-insertion order.  The original insertion-order
scan made the surviving pair prefix -- and therefore which duplicate
row becomes the canonical (unflagged) representative -- depend on row
arrival order whenever the ``max_pairs`` cap binds.  The determinism
fix (sorted block keys, canonical sorted-group representative) applies
to the reference and the vectorized kernel alike so the equivalence
contract stays exact.

These functions must not be "improved": the property suite
(``tests/test_cleaning_kernels.py``) proves the vectorized kernels
bit-identical to them, and ``benchmarks/test_cleaning_speed.py``
measures speedups against them for the committed
``BENCH_cleaning.json``.  ``tools/check_hot_loops.py`` forbids these
patterns under ``src/repro/detectors/``, which this module no longer
ships in.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from repro.dataset.columnar import normalized_column
from repro.dataset.table import Table, coerce_float, is_missing
from repro.detectors import dboost
from repro.detectors.ml_detectors import _train_and_classify

# ----------------------------------------------------------------------
# dBoost: histogram scoring and mixture EM
# ----------------------------------------------------------------------


def reference_histogram_outliers(
    values: np.ndarray, threshold: float, n_bins: int
) -> np.ndarray:
    """Original per-value bin-assignment loop."""
    finite = values[~np.isnan(values)]
    if len(finite) < n_bins:
        return np.zeros(len(values), dtype=bool)
    counts, edges = np.histogram(finite, bins=n_bins)
    frequencies = counts / counts.sum()
    rare_bins = frequencies < threshold
    flagged = np.zeros(len(values), dtype=bool)
    for i, value in enumerate(values):
        if np.isnan(value):
            continue
        bin_index = int(np.clip(np.searchsorted(edges, value) - 1, 0, n_bins - 1))
        flagged[i] = rare_bins[bin_index]
    return flagged


def reference_mixture_outliers(
    values: np.ndarray,
    threshold: float,
    n_components: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Original mixture EM: ``logaddexp.reduce`` rows, scored twice."""
    finite = values[~np.isnan(values)]
    if len(finite) < max(8, n_components * 3):
        return np.zeros(len(values), dtype=bool)
    # Tiny 1-D EM.
    means = np.quantile(finite, np.linspace(0.2, 0.8, n_components))
    variances = np.full(n_components, finite.var() / n_components + 1e-9)
    weights = np.full(n_components, 1.0 / n_components)
    for _ in range(25):
        log_probs = (
            np.log(weights[None, :] + 1e-12)
            - 0.5 * np.log(2 * np.pi * variances[None, :])
            - 0.5 * (finite[:, None] - means[None, :]) ** 2 / variances[None, :]
        )
        log_norm = np.logaddexp.reduce(log_probs, axis=1)
        resp = np.exp(log_probs - log_norm[:, None])
        total = resp.sum(axis=0) + 1e-10
        weights = total / len(finite)
        means = resp.T @ finite / total
        variances = (
            resp.T @ (finite[:, None] - means[None, :]) ** 2
        ).diagonal() / total + 1e-9
    def loglik(x: np.ndarray) -> np.ndarray:
        log_probs = (
            np.log(weights[None, :] + 1e-12)
            - 0.5 * np.log(2 * np.pi * variances[None, :])
            - 0.5 * (x[:, None] - means[None, :]) ** 2 / variances[None, :]
        )
        return np.logaddexp.reduce(log_probs, axis=1)
    cut = np.quantile(loglik(finite), threshold)
    flagged = np.zeros(len(values), dtype=bool)
    valid = ~np.isnan(values)
    flagged[valid] = loglik(values[valid]) < cut
    return flagged


def reference_dboost_detect_columns(detector, context) -> Set[Tuple[int, str]]:
    """Original ``DBoostDetector._detect_columns``: each mixture
    configuration fits its own EM (``dboost._mixture_outliers``)."""
    rng = context.rng(17)
    table = context.dirty
    cells: Set[Tuple[int, str]] = set()
    for column in table.schema.numerical_names:
        values = table.as_float(column)
        if (~np.isnan(values)).sum() < 8:
            continue
        best_flags: Optional[np.ndarray] = None
        best_score = -np.inf
        for _ in range(detector.n_search):
            config = detector._random_config(rng)
            if config.model == "gaussian":
                flagged = dboost._gaussian_outliers(values, config.threshold)
            elif config.model == "histogram":
                flagged = dboost._histogram_outliers(
                    values, config.threshold, config.n_bins
                )
            else:
                flagged = dboost._mixture_outliers(
                    values, config.threshold, config.n_components, rng
                )
            score = detector._separation_score(values, flagged)
            if score > best_score:
                best_score, best_flags = score, flagged
        if best_flags is None or best_score == -np.inf:
            continue
        for i in np.flatnonzero(best_flags):
            cells.add((int(i), column))
    return cells


# ----------------------------------------------------------------------
# MV / SD / IQR: whole-table detection
# ----------------------------------------------------------------------


def _reference_floats(table: Table, column: str) -> np.ndarray:
    return np.array([coerce_float(v) for v in table.column(column)])


def reference_mv_detect(detector, context) -> Set[Tuple[int, str]]:
    """Original whole-table ``MVDetector._detect``."""
    table = context.dirty
    return {
        (i, column)
        for column in table.column_names
        for i, value in enumerate(table.column(column))
        if is_missing(value)
    }


def reference_sd_detect(detector, context) -> Set[Tuple[int, str]]:
    """Original whole-table ``SDDetector._detect``."""
    cells: Set[Tuple[int, str]] = set()
    table = context.dirty
    for column in table.schema.numerical_names:
        values = _reference_floats(table, column)
        finite = values[~np.isnan(values)]
        if len(finite) < 3:
            continue
        mean, std = float(finite.mean()), float(finite.std())
        if std == 0:
            continue
        deviant = np.abs(values - mean) > detector.n_sigmas * std
        for i in np.flatnonzero(deviant & ~np.isnan(values)):
            cells.add((int(i), column))
    return cells


def reference_iqr_detect(detector, context) -> Set[Tuple[int, str]]:
    """Original whole-table ``IQRDetector._detect``."""
    cells: Set[Tuple[int, str]] = set()
    table = context.dirty
    for column in table.schema.numerical_names:
        values = _reference_floats(table, column)
        finite = values[~np.isnan(values)]
        if len(finite) < 4:
            continue
        q1, q3 = np.quantile(finite, [0.25, 0.75])
        iqr = q3 - q1
        if iqr == 0:
            continue
        low, high = q1 - detector.k * iqr, q3 + detector.k * iqr
        deviant = (values < low) | (values > high)
        for i in np.flatnonzero(deviant & ~np.isnan(values)):
            cells.add((int(i), column))
    return cells


# ----------------------------------------------------------------------
# ZeroER: blocking and pair features
# ----------------------------------------------------------------------


def reference_build_blocks(table: Table) -> Dict[str, List[int]]:
    """Original per-cell blocking-key construction loop.

    One Python iteration per cell, re-deriving ``coerce_float`` and the
    lowercased token split from scratch for every row even when a column
    holds a handful of distinct values.
    """
    from collections import defaultdict

    blocks: Dict[str, List[int]] = defaultdict(list)
    for i in range(table.n_rows):
        for column in table.column_names:
            value = table.get_cell(i, column)
            if is_missing(value):
                continue
            numeric = coerce_float(value)
            if not np.isnan(numeric):
                blocks[f"{column}:{round(numeric, 1)}"].append(i)
            else:
                for token in str(value).strip().lower().split():
                    blocks[f"{column}:{token}"].append(i)
    return blocks


def reference_enumerate_block_pairs(
    blocks: Mapping[str, List[int]],
    max_pairs: int,
    max_block_rows: int = 60,
) -> List[Tuple[int, int]]:
    """Original nested-loop within-block pair enumeration.

    Blocks are visited in sorted-key order (the determinism fix; see the
    module docstring) but each block's pairs are still enumerated by the
    original quadratic Python loops, stopping at the exact pair on which
    the running ``max_pairs`` cap is reached.
    """
    pairs: Set[Tuple[int, int]] = set()
    for key in sorted(blocks):
        rows = blocks[key]
        if len(rows) > max_block_rows:  # ubiquitous token: useless block
            continue
        unique_rows = sorted(set(rows))
        for a in range(len(unique_rows)):
            for b in range(a + 1, len(unique_rows)):
                pairs.add((unique_rows[a], unique_rows[b]))
                if len(pairs) >= max_pairs:
                    return sorted(pairs)
    return sorted(pairs)


def _reference_string_similarity(a: str, b: str) -> float:
    """Jaccard similarity over character trigrams (original)."""
    def grams(s: str) -> Set[str]:
        padded = f"  {s.lower()} "
        return {padded[i : i + 3] for i in range(len(padded) - 2)}

    ga, gb = grams(a), grams(b)
    union = ga | gb
    if not union:
        return 1.0
    return len(ga & gb) / len(union)


def reference_pair_features(
    table: Table, i: int, j: int, column_stds: Dict[str, float]
) -> np.ndarray:
    """Original per-pair scalar featurization."""
    features = []
    for column in table.column_names:
        a, b = table.get_cell(i, column), table.get_cell(j, column)
        if is_missing(a) or is_missing(b):
            features.append(0.5)
            continue
        fa, fb = coerce_float(a), coerce_float(b)
        if not np.isnan(fa) and not np.isnan(fb):
            scale = column_stds.get(column, 1.0) or 1.0
            features.append(max(0.0, 1.0 - abs(fa - fb) / scale))
        else:
            features.append(_reference_string_similarity(str(a), str(b)))
    return np.array(features)


def reference_pair_feature_matrix(
    table: Table,
    pairs: Sequence[Tuple[int, int]],
    column_stds: Dict[str, float],
) -> np.ndarray:
    """Original ``np.vstack`` of one Python featurization call per pair."""
    return np.vstack(
        [reference_pair_features(table, i, j, column_stds) for i, j in pairs]
    )


# ----------------------------------------------------------------------
# KATARA: domain and relation checking
# ----------------------------------------------------------------------


def reference_katara_align_column(
    kb, table: Table, column: str, min_overlap: float = 0.5
) -> object:
    """Original per-value domain-overlap scoring loop."""
    values = [
        kb.normalize(v)
        for v in table.column(column)
        if not is_missing(v)
    ]
    values = [v for v in values if v is not None]
    if not values:
        return None
    best_concept, best_score = None, min_overlap
    for concept, domain in kb.domains.items():
        if not domain:
            continue
        score = sum(1 for v in values if v in domain) / len(values)
        if score > best_score:
            best_concept, best_score = concept, score
    return best_concept


def reference_katara_violations(
    kb, table: Table, alignment: Dict[str, str]
) -> Set[Tuple[int, str]]:
    """Original per-row domain/relation membership loops."""
    cells: Set[Tuple[int, str]] = set()
    for column, concept in alignment.items():
        domain = kb.domains[concept]
        for i, value in enumerate(table.column(column)):
            normalized = kb.normalize(value)
            if normalized is not None and normalized not in domain:
                cells.add((i, column))
    columns = list(alignment)
    for col_a in columns:
        for col_b in columns:
            if col_a == col_b:
                continue
            key = (alignment[col_a], alignment[col_b])
            if key not in kb.relations:
                continue
            valid_pairs = kb.relations[key]
            for i in range(table.n_rows):
                a = kb.normalize(table.get_cell(i, col_a))
                b = kb.normalize(table.get_cell(i, col_b))
                if a is None or b is None:
                    continue
                if (a, b) not in valid_pairs:
                    cells.add((i, col_a))
                    cells.add((i, col_b))
    return cells


# ----------------------------------------------------------------------
# Cell features: per-character shape and digit share
# ----------------------------------------------------------------------


def reference_shape_of(text: str) -> str:
    """Original per-character shape loop."""
    out = []
    for ch in text:
        if ch.isdigit():
            out.append("9")
        elif ch.isalpha():
            out.append("a")
        else:
            out.append(ch)
    return "".join(out)


def reference_digit_fraction(text: str) -> float:
    """Original per-character digit count."""
    return sum(ch.isdigit() for ch in text) / len(text)


_REFERENCE_SENTINELS = {"unknown", "unk", "xxx", "missing", "tbd", "-", "x"}


def _reference_lower_key(value) -> Optional[str]:
    return None if is_missing(value) else str(value).strip().lower()


@dataclass(frozen=True)
class ReferenceColumnProfile:
    """Whole-table statistics one column's cell features depend on.

    ``counts`` maps each lower-cased cell text to its number of cells,
    in first-occurrence order, and ``dominant_shape`` is the most common
    value shape (the first to occur among equally common ones).
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


def reference_fit_column_profile(
    table: Table, column: str
) -> ReferenceColumnProfile:
    """Original profile fit: lower-cased keys and shapes counted per cell."""
    numeric = table.as_float(column)
    finite = numeric[~np.isnan(numeric)]
    keys = normalized_column(table.column_view(column), _reference_lower_key)
    counts = Counter(k for k in keys if k is not None)
    total = sum(counts.values()) or 1
    shape_counts = Counter(reference_shape_of(k) for k in keys if k is not None)
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
    return ReferenceColumnProfile(
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


def reference_strategy_features_block(
    profile: ReferenceColumnProfile, block: Table
) -> np.ndarray:
    """Original strategy-output matrix (keys derived per cell again)."""
    n_rows = block.n_rows
    numeric = block.as_float(profile.column)
    missing = block.missing_mask(profile.column)

    columns: List[np.ndarray] = [missing.astype(float)]
    if profile.has_z:
        z = np.abs(numeric - profile.mean) / profile.std
        z = np.where(np.isnan(z), 0.0, z)
        for threshold in (2.0, 3.0, 4.0):
            columns.append((z > threshold).astype(float))
    else:
        columns.extend([np.zeros(n_rows)] * 3)
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
    keys = normalized_column(
        block.column_view(profile.column), _reference_lower_key
    )
    counts, total = profile.counts, profile.total
    frequency = np.array(
        [counts.get(k, 0) / total if k is not None else 0.0 for k in keys]
    )
    columns.append((frequency < 0.01).astype(float))
    columns.append((frequency < 0.001).astype(float))
    if profile.dominant_shape is not None:
        dominant = profile.dominant_shape
        deviates = np.array(
            [
                0.0 if k is None else float(reference_shape_of(k) != dominant)
                for k in keys
            ]
        )
    else:
        deviates = np.zeros(n_rows)
    columns.append(deviates)
    columns.append(
        np.array(
            [float(k in _REFERENCE_SENTINELS) if k is not None else 0.0
             for k in keys]
        )
    )
    if profile.numerical:
        corrupted = (~missing & np.isnan(numeric)).astype(float)
    else:
        corrupted = np.zeros(n_rows)
    columns.append(corrupted)
    return np.column_stack(columns)


def reference_metadata_features_block(
    profile: ReferenceColumnProfile, block: Table
) -> np.ndarray:
    """Original metadata-feature matrix: text keys per cell, and every
    column's missing mask summed for the row-missing share."""
    n_rows = block.n_rows
    numeric = block.as_float(profile.column)
    keys = block.text_keys(profile.column)
    counts, total = profile.counts, profile.total

    lengths = np.array([0.0 if k is None else float(len(k)) for k in keys])
    tokens = np.array(
        [0.0 if k is None else float(len(k.split())) for k in keys]
    )
    digit_fraction = np.array(
        [0.0 if not k else reference_digit_fraction(k) for k in keys]
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


def reference_column_features(
    table: Table, column: str, row_missing: np.ndarray
) -> np.ndarray:
    """Original per-column features: a profile fit, then the strategy
    and the metadata blocks side by side (the metadata block derives
    ``row_missing`` itself)."""
    profile = reference_fit_column_profile(table, column)
    return np.hstack([
        reference_strategy_features_block(profile, table),
        reference_metadata_features_block(profile, table),
    ])


# ----------------------------------------------------------------------
# Metadata-driven detector: per-cell feature assembly
# ----------------------------------------------------------------------


def reference_meta_detect(detector, context) -> Set[Tuple[int, str]]:
    """Original body of ``MetadataDrivenDetector._detect``."""
    if not context.has_ground_truth:
        return set()
    table = context.dirty
    rng = context.rng(31)
    detector_cells = [
        base.detect(context).cells for base in detector.base_detectors
    ]
    all_cells = [
        (i, column)
        for column in table.column_names
        for i in range(table.n_rows)
    ]
    cell_index = {cell: pos for pos, cell in enumerate(all_cells)}
    tool_features = np.zeros((len(all_cells), len(detector_cells)))
    for j, cells in enumerate(detector_cells):
        for cell in cells:
            if cell in cell_index:
                tool_features[cell_index[cell], j] = 1.0
    meta = {
        column: reference_metadata_features_block(
            reference_fit_column_profile(table, column), table
        )
        for column in table.column_names
    }
    meta_matrix = np.vstack([meta[column][i] for i, column in all_cells])
    features = np.hstack([tool_features, meta_matrix])
    budget = min(detector.label_budget, len(all_cells))
    sample = rng.choice(len(all_cells), size=budget, replace=False)
    labels = {
        int(pos): context.oracle_is_dirty(all_cells[int(pos)])
        for pos in sample
    }
    flags = _train_and_classify(features, list(labels), labels, context.seed)
    return {all_cells[pos] for pos in np.flatnonzero(flags)}
