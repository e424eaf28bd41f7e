"""Duplicate detectors: key collision and ZeroER.

Key collision flags rows sharing the user-provided key attributes.  ZeroER
(Wu et al.) needs *zero* labeled examples: it derives one similarity
feature per column for candidate row pairs (found via cheap blocking) --
trigram Jaccard for text cells, closeness scaled by the column's standard
deviation for numeric cells -- and fits a two-component Gaussian mixture
whose components correspond to the match / unmatch populations; pairs
assigned to the high-similarity component are duplicates.  The paper's
ZeroER uses Magellan's full feature library; this narrower feature set is
a known deviation (EXPERIMENTS.md).

The candidate-pair pipeline runs on vectorized kernels proven
bit-identical to the frozen scalars in ``tests/oracles/detectors.py``:

- :func:`build_blocks` derives blocking keys once per *distinct* cell
  payload instead of once per cell;
- :func:`_enumerate_block_pairs` replaces the nested within-block loops
  with cached ``np.triu_indices`` lookups and integer pair codes, while
  reproducing the exact pair prefix at which the ``max_pairs`` cap fired
  in the scalar enumeration (blocks visited in sorted-key order -- the
  canonical-representative determinism fix shared with the reference);
- :func:`pair_feature_matrix` featurizes all pairs per column at once,
  with trigram sets interned per distinct string (CSR layout) and pair
  intersections computed by one sort over pair-tagged gram codes.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from typing import Any, Dict, List, Sequence, Set, Tuple

import numpy as np

from repro.cache.keys import artifact_key, table_fingerprint
from repro.cache.store import current_cache
from repro.context import CleaningContext
from repro.dataset.columnar import (
    KIND_INT,
    KIND_NONE,
    ColumnView,
    csr_gather,
    intern_values,
    normalized_column,
)
from repro.dataset.table import Cell, Table, coerce_float, is_missing
from repro.detectors.base import NON_LEARNING, Detector
from repro.errors import profile
from repro.kernels import kernel_stage
from repro.ml.cluster import GaussianMixture


def _duplicate_cells(table: Table, groups: List[List[int]]) -> Set[Cell]:
    """All cells of every non-first row in each duplicate group.

    The canonical (unflagged) representative is the *smallest* row index
    of the sorted group, so it does not depend on the order in which the
    grouping discovered the rows.
    """
    cells: Set[Cell] = set()
    for rows in groups:
        for row in sorted(rows)[1:]:
            for column in table.column_names:
                cells.add((row, column))
    return cells


class KeyCollisionDetector(Detector):
    """Duplicate detection via user-provided key attributes (row 'D')."""

    name = "KeyCollision"
    category = NON_LEARNING
    tackles = frozenset({profile.DUPLICATE})

    def _detect(self, context: CleaningContext) -> Set[Cell]:
        keys = [
            c for c in context.key_columns if c in context.dirty.schema
        ]
        if not keys:
            return set()
        table = context.dirty
        groups: Dict[Tuple[str, ...], List[int]] = defaultdict(list)
        for i in range(table.n_rows):
            parts = []
            valid = True
            for key in keys:
                value = table.get_cell(i, key)
                if is_missing(value):
                    valid = False
                    break
                parts.append(str(value).strip().lower())
            if valid:
                groups[tuple(parts)].append(i)
        duplicate_groups = [rows for rows in groups.values() if len(rows) > 1]
        return _duplicate_cells(table, duplicate_groups)


def column_standard_deviations(table: Table) -> Dict[str, float]:
    """Per-column std of the numeric view (0 columns excluded)."""
    stds: Dict[str, float] = {}
    for column in table.column_names:
        values = table.as_float(column)
        finite = values[~np.isnan(values)]
        if len(finite) > 1:
            stds[column] = float(finite.std()) or 1.0
    return stds


# ----------------------------------------------------------------------
# Vectorized blocking and pair featurization
# ----------------------------------------------------------------------


def _block_keys(column: str, value: Any) -> List[str]:
    """Blocking keys of one cell (same derivation as the scalar loop)."""
    if is_missing(value):
        return []
    numeric = coerce_float(value)
    if not np.isnan(numeric):
        return [f"{column}:{round(numeric, 1)}"]
    return [
        f"{column}:{token}" for token in str(value).strip().lower().split()
    ]


def _numeric_column_blocks(
    column: str, view: ColumnView, blocks: Dict[str, List[int]]
) -> bool:
    """Exact fast path for columns holding only ``float``/``int``/``None``.

    Continuous sensor columns have ~one distinct payload per cell, so the
    per-distinct key derivation of the general path degenerates into a
    per-cell Python loop.  Here the grouping happens on the raw float
    *bit patterns* (``np.unique`` over an int64 view), which keeps every
    distinction the scalar keys make -- ``-0.0`` vs ``0.0`` round to
    different key strings, every NaN payload is missing, ``inf`` falls
    through to its token key -- and Python-level work shrinks to one
    ``round`` + f-string per distinct value.  Returns False when any
    payload needs the general path.
    """
    if not (view.tags <= KIND_INT).all():  # none, float and int64 cells
        return False
    floats = view.lane.copy()
    ints = view.tags == KIND_INT
    floats[ints] = view.lane.view(np.int64)[ints]
    floats[view.tags == KIND_NONE] = np.nan
    present = np.flatnonzero(~np.isnan(floats))
    if not len(present):
        return True
    bits = floats[present].view(np.int64)
    distinct_bits, inverse = np.unique(bits, return_inverse=True)
    distinct = distinct_bits.view(np.float64)
    keys = np.array(
        [
            # coerce_float maps non-finite payloads to NaN, so the scalar
            # key for an inf cell is its lowercase token, not a round.
            f"{column}:{v}" if math.isinf(v) else f"{column}:{round(v, 1)}"
            for v in distinct.tolist()
        ]
    )
    key_names, key_codes = np.unique(keys, return_inverse=True)
    cell_codes = key_codes[inverse.ravel()]
    order = np.argsort(cell_codes, kind="stable")
    sorted_codes = cell_codes[order]
    members = present[order]
    starts = np.concatenate(([0], np.flatnonzero(np.diff(sorted_codes)) + 1))
    stops = np.append(starts[1:], len(sorted_codes))
    for start, stop in zip(starts.tolist(), stops.tolist()):
        blocks[str(key_names[sorted_codes[start]])].extend(
            members[start:stop].tolist()
        )
    return True


def build_blocks(table: Table) -> Dict[str, List[int]]:
    """Blocking-key index, keys derived once per distinct view entry.

    Produces the same key -> row multiset mapping as the frozen scalar
    ``reference_build_blocks`` oracle; only the within-block row order may
    differ, which no consumer observes (pair enumeration deduplicates
    and sorts, the oversize-block cut uses the multiset length).
    """
    blocks: Dict[str, List[int]] = defaultdict(list)
    for column in table.column_names:
        view = table.column_view(column)
        if _numeric_column_blocks(column, view, blocks):
            continue
        first, inverse = view.entries()
        rows = np.argsort(inverse, kind="stable")
        bounds = np.cumsum(np.bincount(inverse, minlength=len(first)))[:-1]
        for value, members in zip(view.cells[first], np.split(rows, bounds)):
            members = members.tolist()
            for key, multiplicity in Counter(
                _block_keys(column, value)
            ).items():
                blocks[key].extend(members * multiplicity)
    return blocks


_TRIU_CACHE: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}


def _pair_indices(n: int) -> Tuple[np.ndarray, np.ndarray]:
    """Cached ``np.triu_indices(n, 1)`` (row-major: a outer, b inner)."""
    cached = _TRIU_CACHE.get(n)
    if cached is None:
        cached = _TRIU_CACHE[n] = np.triu_indices(n, 1)
    return cached


def _enumerate_block_pairs(
    blocks: Dict[str, List[int]],
    max_pairs: int,
    max_block_rows: int = 60,
) -> List[Tuple[int, int]]:
    """Within-block candidate pairs as integer codes, exact cap semantics.

    Blocks are visited in sorted-key order and each block's pairs are
    generated in the scalar nested-loop order (``triu_indices`` is
    row-major), so when the running distinct-pair count reaches
    ``max_pairs`` the surviving prefix is identical to the frozen
    reference's.  Away from the cap everything stays in numpy.
    """
    block_rows: List[np.ndarray] = []
    base = 1
    total = 0
    for key in sorted(blocks):
        rows = blocks[key]
        if len(rows) > max_block_rows:  # ubiquitous token: useless block
            continue
        unique_rows = np.unique(np.asarray(rows, dtype=np.int64))
        if len(unique_rows) < 2:
            continue
        block_rows.append(unique_rows)
        base = max(base, int(unique_rows[-1]) + 1)
        total += len(unique_rows) * (len(unique_rows) - 1) // 2
    if not block_rows:
        return []
    chunks = []
    for unique_rows in block_rows:
        ia, ib = _pair_indices(len(unique_rows))
        chunks.append(unique_rows[ia] * base + unique_rows[ib])
    if total < max_pairs:  # cap cannot bind: one dedup over everything
        codes = np.unique(np.concatenate(chunks))
    else:  # replicate the scalar stop point pair by pair near the cap
        seen: Set[int] = set()
        capped = False
        for chunk in chunks:
            if len(seen) + len(chunk) < max_pairs:
                seen.update(chunk.tolist())
                continue
            for code in chunk.tolist():
                seen.add(code)
                if len(seen) >= max_pairs:
                    capped = True
                    break
            if capped:
                break
        codes = np.fromiter(seen, dtype=np.int64, count=len(seen))
        codes.sort()
    return list(zip((codes // base).tolist(), (codes % base).tolist()))


def _trigram_csr(
    strings: List[str], needed: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Distinct-trigram id lists for the referenced strings (CSR layout)."""
    gram_ids: Dict[str, int] = {}
    offsets = np.zeros(len(strings), dtype=np.int64)
    lengths = np.zeros(len(strings), dtype=np.int64)
    flat_parts: List[np.ndarray] = []
    cursor = 0
    for uid in needed.tolist():
        padded = f"  {strings[uid].lower()} "
        grams = {padded[i : i + 3] for i in range(len(padded) - 2)}
        ids = np.fromiter(
            (gram_ids.setdefault(g, len(gram_ids)) for g in grams),
            dtype=np.int64,
            count=len(grams),
        )
        flat_parts.append(ids)
        offsets[uid] = cursor
        lengths[uid] = len(ids)
        cursor += len(ids)
    flat = (
        np.concatenate(flat_parts)
        if flat_parts
        else np.zeros(0, dtype=np.int64)
    )
    return flat, offsets, lengths


def _string_similarity_batch(
    ua: np.ndarray, ub: np.ndarray, strings: List[str]
) -> np.ndarray:
    """Trigram Jaccard for many (string-id, string-id) pairs at once.

    Intersections come from one sort over pair-tagged gram codes: a gram
    id appears at most once per side, so a duplicated code means the
    gram sits in both sets.  ``inter / union`` divides the same Python
    ints the scalar ``len() / len()`` divides, so results are
    bit-identical.
    """
    n_strings = max(len(strings), 1)
    pair_codes = ua * n_strings + ub
    unique_codes, inverse = np.unique(pair_codes, return_inverse=True)
    ua_u = unique_codes // n_strings
    ub_u = unique_codes % n_strings
    needed = np.unique(np.concatenate([ua_u, ub_u]))
    flat, offsets, lengths = _trigram_csr(strings, needed)
    vocabulary = max(int(flat.max()) + 1 if len(flat) else 1, 1)
    grams_a, owners_a = csr_gather(flat, offsets, lengths, ua_u)
    grams_b, owners_b = csr_gather(flat, offsets, lengths, ub_u)
    tagged = np.concatenate(
        [owners_a * vocabulary + grams_a, owners_b * vocabulary + grams_b]
    )
    tagged.sort()
    duplicated = tagged[1:][tagged[1:] == tagged[:-1]]
    inter = np.bincount(duplicated // vocabulary, minlength=len(unique_codes))
    union = lengths[ua_u] + lengths[ub_u] - inter
    sims = np.where(union == 0, 1.0, inter / np.maximum(union, 1))
    return sims[inverse.ravel()]


def pair_feature_matrix(
    table: Table,
    pairs: Sequence[Tuple[int, int]],
    column_stds: Dict[str, float],
) -> np.ndarray:
    """Similarity features for all candidate pairs, one column at a time.

    Per column, a pair scores 0.5 when either cell is missing,
    ``max(0, 1 - |a - b| / std)`` when both cells are numeric, and the
    Jaccard similarity of the padded character trigram sets otherwise.
    Bit-identical to the frozen per-pair scalar loop in
    ``tests/oracles/detectors.py``: the numeric branch applies the same
    IEEE operations elementwise, and the string branch computes the same
    trigram Jaccard per distinct string pair (see
    :func:`_string_similarity_batch`).
    """
    n_pairs = len(pairs)
    left = np.fromiter((p[0] for p in pairs), dtype=np.int64, count=n_pairs)
    right = np.fromiter((p[1] for p in pairs), dtype=np.int64, count=n_pairs)
    features = np.empty((n_pairs, len(table.column_names)))
    for k, column in enumerate(table.column_names):
        miss = table.missing_mask(column)
        floats = table.as_float(column)
        missing_pair = miss[left] | miss[right]
        fa, fb = floats[left], floats[right]
        numeric_pair = ~missing_pair & ~np.isnan(fa) & ~np.isnan(fb)
        out = np.empty(n_pairs)
        out[missing_pair] = 0.5
        scale = column_stds.get(column, 1.0) or 1.0
        out[numeric_pair] = np.maximum(
            0.0, 1.0 - np.abs(fa[numeric_pair] - fb[numeric_pair]) / scale
        )
        stringy = ~missing_pair & ~numeric_pair
        if stringy.any():
            uids, distinct = intern_values(
                normalized_column(table.column_view(column), str)
            )
            out[stringy] = _string_similarity_batch(
                uids[left[stringy]], uids[right[stringy]], distinct
            )
        features[:, k] = out
    return features


class ZeroERDetector(Detector):
    """ZeroER: unsupervised entity resolution with a GMM (row 'Z').

    Blocking: candidate pairs share a token in any categorical attribute
    (or a rounded numeric value), keeping the pair set tractable.
    Features: :func:`pair_feature_matrix` -- per-column trigram Jaccard
    and std-scaled numeric closeness, not Magellan's full library.
    """

    name = "ZeroER"
    category = NON_LEARNING
    tackles = frozenset({profile.DUPLICATE})

    def __init__(self, max_pairs: int = 50_000, match_threshold: float = 0.5) -> None:
        self.max_pairs = max_pairs
        self.match_threshold = match_threshold

    def _blocking_pairs(self, table: Table) -> List[Tuple[int, int]]:
        cache = current_cache()
        key = None
        if cache is not None:
            key = artifact_key(
                "duplicate_block_pairs@v1",
                [table_fingerprint(table)],
                {"max_pairs": self.max_pairs, "max_block_rows": 60},
            )
            entry = cache.get(key)
            if entry is not None:
                return list(
                    zip(
                        entry.arrays["lo"].tolist(),
                        entry.arrays["hi"].tolist(),
                    )
                )
        pairs = _enumerate_block_pairs(build_blocks(table), self.max_pairs)
        if cache is not None and key is not None:
            cache.put(
                key,
                arrays={
                    "lo": np.fromiter(
                        (p[0] for p in pairs), np.int64, count=len(pairs)
                    ),
                    "hi": np.fromiter(
                        (p[1] for p in pairs), np.int64, count=len(pairs)
                    ),
                },
                meta={"n_pairs": len(pairs)},
            )
        return pairs

    def _detect(self, context: CleaningContext) -> Set[Cell]:
        table = context.dirty
        with kernel_stage("duplicates.blocking"):
            pairs = self._blocking_pairs(table)
        if len(pairs) < 4:
            return set()
        stds = column_standard_deviations(table)
        with kernel_stage("duplicates.features"):
            features = pair_feature_matrix(table, pairs, stds)
        mixture = GaussianMixture(n_components=2, seed=context.seed)
        try:
            mixture.fit(features)
        except (ValueError, np.linalg.LinAlgError):
            return set()
        # The match component is the one with the higher mean similarity.
        match_component = int(np.argmax(mixture.means_.mean(axis=1)))
        probabilities = mixture.predict_proba(features)[:, match_component]
        mean_similarity = features.mean(axis=1)
        groups: List[List[int]] = []
        parent: Dict[int, int] = {}

        def find(x: int) -> int:
            while parent.setdefault(x, x) != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        matched = False
        for (i, j), probability, similarity in zip(
            pairs, probabilities, mean_similarity
        ):
            # Require both the GMM assignment and near-exact similarity;
            # with no true matches the two components split the bulk and the
            # similarity floor keeps coincidentally-close rows out.
            if probability > self.match_threshold and similarity >= 0.97:
                parent[find(i)] = find(j)
                matched = True
        if not matched:
            return set()
        clusters: Dict[int, List[int]] = defaultdict(list)
        for node in parent:
            clusters[find(node)].append(node)
        duplicate_groups = [rows for rows in clusters.values() if len(rows) > 1]
        return _duplicate_cells(table, duplicate_groups)
