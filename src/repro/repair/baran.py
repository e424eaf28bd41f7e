"""BARAN: holistic, configuration-free error correction (Table 1 row 15).

BARAN (Mahdavi & Abedjan) proposes correction candidates from three context
models and combines them with an incrementally updated ensemble:

- the *value* model learns string transformations from (error, correction)
  example pairs -- case changes, character deletions/replacements, affix
  stripping -- and applies them to similar errors;
- the *vicinity* model proposes values co-occurring with the row's other
  attributes (FD-style context);
- the *domain* model proposes frequent column values.

Labels: a small budget of corrected tuples (the paper's user labels; here
the ground-truth oracle) trains per-model reliability weights, updated
incrementally after every labeled tuple.  An external revision corpus
(standing in for Wikipedia page histories) can seed extra value-model pairs.

The correction pass is batched: after the (small) labeled training loop,
every remaining detected cell in a column is scored in one numpy pass.
The candidate stream is generated segment by segment in the exact order
the scalar scorer touched its ``scores`` dict -- transformations, typo
scan, vicinity per context column, domain top-5 -- so ``np.add.at``
reproduces each cell's float accumulation sequence and ``np.minimum.at``
over stream positions reproduces dict-insertion first-touch order, the
tie-breaker of ``max(proposals, key=proposals.get)``.  The frozen scalar
pipeline is ``reference_baran_repair`` in ``tests/oracles/repair.py``,
and ``tests/test_cleaning_kernels.py`` proves the two produce identical
repaired tables.
"""

from __future__ import annotations

import re
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.context import CleaningContext
from repro.dataset.columnar import (
    first_occurrence_order,
    intern_values,
    normalized_column,
)
from repro.dataset.table import Cell, Table, is_missing, text_key
from repro.kernels import kernel_stage
from repro.repair.base import GENERIC, RepairMethod

Transformation = Callable[[str], Optional[str]]

#: Cells scored per numpy batch; bounds the (cells x candidates) score
#: matrix while amortizing the per-distinct candidate generation.
_SCORE_CHUNK = 1024

_NEVER = np.iinfo(np.int64).max


def _learn_transformations(error: str, correction: str) -> List[Tuple[str, Transformation]]:
    """Derive reusable string transformations from one example pair."""
    transforms: List[Tuple[str, Transformation]] = []
    if error.lower() == correction.lower():
        if correction == error.lower():
            transforms.append(("lowercase", lambda s: s.lower()))
        elif correction == error.upper():
            transforms.append(("uppercase", lambda s: s.upper()))
        elif correction == error.capitalize():
            transforms.append(("capitalize", lambda s: s.capitalize()))
    if error.replace("_", " ") == correction:
        transforms.append(("underscore_to_space", lambda s: s.replace("_", " ")))
    if error.replace(" ", "") == correction.replace(" ", "") and error != correction:
        transforms.append(("normalize_spaces", lambda s: re.sub(r"\s+", " ", s).strip()))
    for suffix in (" Inc", " inc", ".", " Ltd"):
        if error == correction + suffix:
            def strip_suffix(s: str, sfx: str = suffix) -> Optional[str]:
                return s[: -len(sfx)] if s.endswith(sfx) else None
            transforms.append((f"strip{suffix!r}", strip_suffix))
    if len(error) == len(correction) + 1:
        # A single inserted character.
        for i in range(len(error)):
            if error[:i] + error[i + 1 :] == correction:
                def drop_char(s: str, pos: int = i) -> Optional[str]:
                    return s[:pos] + s[pos + 1 :] if len(s) > pos else None
                transforms.append((f"drop_at_{i}", drop_char))
                break
    if len(error) == len(correction) and error != correction:
        diffs = [i for i in range(len(error)) if error[i] != correction[i]]
        if len(diffs) == 1:
            i = diffs[0]
            wrong, right = error[i], correction[i]
            def substitute(s: str, w: str = wrong, r: str = right) -> Optional[str]:
                return s.replace(w, r) if w in s else None
            transforms.append((f"sub_{wrong}->{right}", substitute))
    if re.sub(r"[A-Za-z]", "", error) == correction and error != correction:
        # A stray letter corrupted a numeric payload ('12a.5' -> '12.5').
        transforms.append(
            ("strip_letters", lambda s: re.sub(r"[A-Za-z]", "", s) or None)
        )
    return transforms


def edit_distance(a: str, b: str, cutoff: int = 3) -> int:
    """Levenshtein distance with an early-exit cutoff."""
    if abs(len(a) - len(b)) > cutoff:
        return cutoff + 1
    previous = list(range(len(b) + 1))
    for i, ch_a in enumerate(a, start=1):
        current = [i]
        row_min = i
        for j, ch_b in enumerate(b, start=1):
            cost = 0 if ch_a == ch_b else 1
            value = min(
                previous[j] + 1, current[j - 1] + 1, previous[j - 1] + cost
            )
            current.append(value)
            row_min = min(row_min, value)
        if row_min > cutoff:
            return cutoff + 1
        previous = current
    return previous[-1]


def _char_matrix(strings: List[str]) -> Tuple[np.ndarray, np.ndarray]:
    """Pad strings into an ``ord`` matrix (``-1`` pad) plus lengths."""
    lengths = np.fromiter(
        (len(s) for s in strings), np.int64, count=len(strings)
    )
    width = int(lengths.max()) if len(strings) else 0
    chars = np.full((len(strings), width), -1, dtype=np.int64)
    for k, s in enumerate(strings):
        if s:
            chars[k, : len(s)] = np.fromiter(map(ord, s), np.int64, count=len(s))
    return chars, lengths


def _edit_distances_capped(
    text: str, chars: np.ndarray, lengths: np.ndarray
) -> np.ndarray:
    """``min(edit_distance(text, cand, cutoff=2) , 3)`` for all candidates.

    One banded Levenshtein DP over every candidate at once.  The inner
    ``current[j-1] + 1`` dependency is resolved with the prefix-min
    identity ``current = j + running_min(temp[k] - k)``, which is exact
    on integers.  The scalar's early exits (length band, per-row
    minimum above the cutoff) only ever produce values ``> 2``, so
    capping at 3 preserves every ``distance < best_distance`` decision
    the scalar typo scan makes.
    """
    n, width = chars.shape
    la = len(text)
    result = np.full(n, 3, dtype=np.int64)
    live = np.abs(lengths - la) <= 2
    if la == 0:
        result[live] = np.minimum(lengths[live], 3)
        return result
    if not live.any():
        return result
    cols = np.arange(width + 1, dtype=np.int64)
    previous = np.repeat(cols[None, :], n, axis=0)
    valid = cols[None, 1:] <= lengths[:, None]
    for i, ch in enumerate(text, start=1):
        cost = (chars != ord(ch)).astype(np.int64)
        stacked = np.empty((n, width + 1), dtype=np.int64)
        stacked[:, 0] = i
        if width:
            stacked[:, 1:] = np.minimum(
                previous[:, 1:] + 1, previous[:, :-1] + cost
            )
        current = (
            np.minimum.accumulate(stacked - cols[None, :], axis=1)
            + cols[None, :]
        )
        if width:
            row_min = np.minimum(
                i, np.where(valid, current[:, 1:], _NEVER).min(axis=1)
            )
        else:
            row_min = np.full(n, i, dtype=np.int64)
        live &= row_min <= 2
        if not live.any():
            return result
        previous = current
    final = previous[np.arange(n), lengths]
    result[live] = np.minimum(final[live], 3)
    return result


def _build_context_models(
    table: Table, categorical: Sequence[str]
) -> Tuple[
    Dict[str, List[Optional[str]]],
    Dict[Tuple[str, str, str], Counter],
    Dict[str, Counter],
]:
    """Vicinity and domain statistics, identical to the scalar build.

    The scalar kernel walked every row once per column pair, updating
    Counters cell by cell.  Here each column is interned once and every
    (context value, target value) pair is counted with one vectorized
    group-by per column pair; the Counters are then rebuilt in
    first-occurrence order so their key insertion order -- which
    ``most_common`` tie-breaking observes -- matches the scalar build
    exactly.
    """
    normalized = {c: table.text_keys(c) for c in categorical}
    uids: Dict[str, np.ndarray] = {}
    distinct: Dict[str, List[str]] = {}
    for c in categorical:
        uids[c], distinct[c] = intern_values(normalized[c])
    vicinity: Dict[Tuple[str, str, str], Counter] = defaultdict(Counter)
    for col_a in categorical:
        for col_b in categorical:
            if col_b == col_a:
                continue
            both = (uids[col_a] >= 0) & (uids[col_b] >= 0)
            if not both.any():
                continue
            width = len(distinct[col_b])
            codes = uids[col_a][both] * width + uids[col_b][both]
            pair_codes, pair_counts, _, _ = first_occurrence_order(codes)
            names_a, names_b = distinct[col_a], distinct[col_b]
            for code, count in zip(pair_codes.tolist(), pair_counts.tolist()):
                key = (col_a, names_a[code // width], col_b)
                vicinity[key][names_b[code % width]] = count
    domain: Dict[str, Counter] = {}
    for c in categorical:
        present = uids[c][uids[c] >= 0]
        values, counts, _, _ = first_occurrence_order(present)
        counter: Counter = Counter()
        names = distinct[c]
        for uid, count in zip(values.tolist(), counts.tolist()):
            counter[names[uid]] = count
        domain[c] = counter
    return normalized, vicinity, domain


def _score_pending_cells(
    table: Table,
    repaired: Table,
    pending: List[Cell],
    transformations: Dict[str, Transformation],
    model_weights: Dict[str, float],
    categorical: Sequence[str],
    normalized: Dict[str, List[Optional[str]]],
    vicinity: Dict[Tuple[str, str, str], Counter],
    domain: Dict[str, Counter],
) -> None:
    """Score and correct every unlabeled detected cell, batched by column."""
    by_column: Dict[str, List[int]] = {}
    for cell_row, column in pending:
        by_column.setdefault(column, []).append(cell_row)
    numeric_means: Dict[str, float] = {}
    for column, cell_rows in by_column.items():
        _score_column(
            table, repaired, column, cell_rows, transformations,
            model_weights, categorical, normalized, vicinity, domain,
            numeric_means,
        )


def _score_column(
    table: Table,
    repaired: Table,
    column: str,
    cell_rows: List[int],
    transformations: Dict[str, Transformation],
    model_weights: Dict[str, float],
    categorical: Sequence[str],
    normalized: Dict[str, List[Optional[str]]],
    vicinity: Dict[Tuple[str, str, str], Counter],
    domain: Dict[str, Counter],
    numeric_means: Dict[str, float],
) -> None:
    is_cat = column in categorical
    if is_cat:
        texts_all = normalized[column]
        texts = [texts_all[i] for i in cell_rows]
        column_domain = domain[column]
        eligible = [c for c, count in column_domain.items() if count >= 2]
        eligible_chars, eligible_lens = _char_matrix(eligible)
        domain_total = sum(column_domain.values()) or 1
        domain_entries = [
            (cand, model_weights["domain"] * count / domain_total)
            for cand, count in column_domain.most_common(5)
        ]
    else:
        # Numeric columns only need the detected cells' texts; normalizing
        # the full column would cost O(rows) for O(detections) work.
        column_values = table.column(column)
        texts = normalized_column(
            [column_values[i] for i in cell_rows], text_key
        )
        column_domain = None
        eligible = []
        domain_entries = []
    transform_fns = list(transformations.values())
    value_weight = model_weights["value"]

    # Candidate generation is memoized per *distinct* payload/context
    # value; entry lists preserve the scalar scorer's touch order.
    transform_cache: Dict[str, List[Tuple[str, float]]] = {}
    typo_cache: Dict[str, Optional[Tuple[str, float]]] = {}
    vicinity_cache: Dict[Tuple[str, str], List[Tuple[str, float]]] = {}

    def transform_entries(text: str) -> List[Tuple[str, float]]:
        entries = transform_cache.get(text)
        if entries is None:
            entries = transform_cache[text] = []
            for fn in transform_fns:
                try:
                    out = fn(text)
                except Exception:  # noqa: BLE001 - user-derived lambdas
                    continue
                if out and out != text:
                    weight = value_weight
                    if is_cat and column_domain.get(out, 0) < 2:
                        # A transform whose output never occurs in the
                        # column is likely misfiring on this cell.
                        weight *= 0.1
                    entries.append((out, weight))
        return entries

    def typo_entry(text: str) -> Optional[Tuple[str, float]]:
        # Character-level value model: a rare payload close (by edit
        # distance) to a *frequent* domain value is almost certainly a
        # typo of it.
        if text in typo_cache:
            return typo_cache[text]
        entry = None
        if eligible:
            distances = _edit_distances_capped(
                text, eligible_chars, eligible_lens
            )
            best = int(np.argmin(distances))
            if distances[best] < 3:
                entry = (
                    eligible[best],
                    value_weight * (2.0 - 0.5 * int(distances[best])),
                )
        typo_cache[text] = entry
        return entry

    def vicinity_entries(col_a: str, context_value: str) -> List[Tuple[str, float]]:
        key = (col_a, context_value)
        entries = vicinity_cache.get(key)
        if entries is None:
            counts = vicinity.get((col_a, context_value, column))
            entries = []
            if counts:
                total = sum(counts.values()) or 1
                entries = [
                    (cand, model_weights["vicinity"] * count / total)
                    for cand, count in counts.most_common(5)
                ]
            vicinity_cache[key] = entries
        return entries

    for lo in range(0, len(cell_rows), _SCORE_CHUNK):
        _score_chunk(
            table, repaired, column, cell_rows[lo : lo + _SCORE_CHUNK],
            texts[lo : lo + _SCORE_CHUNK], is_cat, categorical, normalized,
            column_domain, transform_entries, typo_entry, vicinity_entries,
            domain_entries, numeric_means,
        )


def _score_chunk(
    table: Table,
    repaired: Table,
    column: str,
    chunk_rows: List[int],
    chunk_texts: List[Optional[str]],
    is_cat: bool,
    categorical: Sequence[str],
    normalized: Dict[str, List[Optional[str]]],
    column_domain: Optional[Counter],
    transform_entries,
    typo_entry,
    vicinity_entries,
    domain_entries: List[Tuple[str, float]],
    numeric_means: Dict[str, float],
) -> None:
    """One batched replay of the scalar ``candidates_for`` + argmax loop.

    Candidate contributions are emitted segment by segment in the exact
    order the scalar scorer added them to each cell's ``scores`` dict.
    ``np.add.at`` (unbuffered, in index order) then reproduces every
    per-slot float accumulation sequence, and the minimum stream
    position per slot reproduces dict key insertion order, so the
    argmax-with-first-max-tie-break matches ``max(proposals,
    key=proposals.get)`` bit for bit.
    """
    n_cells = len(chunk_rows)
    cand_ids: Dict[str, int] = {}
    cand_list: List[str] = []
    seg_cells: List[np.ndarray] = []
    seg_cands: List[np.ndarray] = []
    seg_weights: List[np.ndarray] = []

    def intern_candidate(value: str) -> int:
        uid = cand_ids.get(value)
        if uid is None:
            uid = cand_ids[value] = len(cand_list)
            cand_list.append(value)
        return uid

    def emit(members: np.ndarray, entries: List[Tuple[str, float]]) -> None:
        if not len(members) or not entries:
            return
        ids = np.fromiter(
            (intern_candidate(v) for v, _ in entries),
            np.int64, count=len(entries),
        )
        weights = np.fromiter(
            (w for _, w in entries), np.float64, count=len(entries)
        )
        seg_cells.append(np.repeat(members, len(entries)))
        seg_cands.append(np.tile(ids, len(members)))
        seg_weights.append(np.tile(weights, len(members)))

    text_uids, text_distinct = intern_values(chunk_texts)
    # Segment 1 -- value model: learned transformations.
    for uid, text in enumerate(text_distinct):
        emit(np.flatnonzero(text_uids == uid), transform_entries(text))
    if is_cat:
        # Segment 2 -- character-level value model (typo scan).
        for uid, text in enumerate(text_distinct):
            if column_domain.get(text, 0) <= 1:
                entry = typo_entry(text)
                if entry is not None:
                    emit(np.flatnonzero(text_uids == uid), [entry])
        # Segment 3 -- vicinity model, per context column in order.
        for col_a in categorical:
            if col_a == column:
                continue
            context_column = normalized[col_a]
            context_uids, context_distinct = intern_values(
                [context_column[i] for i in chunk_rows]
            )
            for uid, context_value in enumerate(context_distinct):
                emit(
                    np.flatnonzero(context_uids == uid),
                    vicinity_entries(col_a, context_value),
                )
        # Segment 4 -- domain model: same top-5 for every cell.
        emit(np.arange(n_cells, dtype=np.int64), domain_entries)

    if cand_list:
        n_cands = len(cand_list)
        cells = np.concatenate(seg_cells)
        cands = np.concatenate(seg_cands)
        weights = np.concatenate(seg_weights)
        slots = cells * n_cands + cands
        scores = np.zeros(n_cells * n_cands)
        np.add.at(scores, slots, weights)
        first_touch = np.full(n_cells * n_cands, _NEVER, dtype=np.int64)
        np.minimum.at(
            first_touch, slots, np.arange(len(slots), dtype=np.int64)
        )
        score_matrix = scores.reshape(n_cells, n_cands)
        rank_matrix = first_touch.reshape(n_cells, n_cands)
        touched = rank_matrix < _NEVER
        has_text = np.fromiter(
            (t is not None for t in chunk_texts), bool, count=n_cells
        )
        own_ids = np.fromiter(
            (
                cand_ids.get(t, -1) if t is not None else -1
                for t in chunk_texts
            ),
            np.int64, count=n_cells,
        )
        index = np.arange(n_cells)
        owned = own_ids >= 0
        # ``proposals.pop(text, 0.0)``: read the cell's own score, then
        # remove it from the candidate pool.
        current_scores = np.zeros(n_cells)
        current_scores[owned] = score_matrix[index[owned], own_ids[owned]]
        touched[index[owned], own_ids[owned]] = False
        masked = np.where(touched, score_matrix, -np.inf)
        best_score = masked.max(axis=1)
        has_proposals = touched.any(axis=1)
        tie_rank = np.where(
            touched & (masked == best_score[:, None]), rank_matrix, _NEVER
        )
        best_id = np.argmin(tie_rank, axis=1)
        # Leave well-supported current values alone: changing them would
        # turn a detection false positive into a wrong repair.
        accept = has_proposals & (~has_text | (best_score > current_scores))
        for k in np.flatnonzero(accept).tolist():
            repaired.set_cell(chunk_rows[k], column, cand_list[int(best_id[k])])
    else:
        has_proposals = np.zeros(n_cells, dtype=bool)
    unproposed = np.flatnonzero(~has_proposals)
    if len(unproposed) and table.schema.kind_of(column) == "numerical":
        if column not in numeric_means:
            values = table.as_float(column)
            finite = values[~np.isnan(values)]
            numeric_means[column] = (
                float(finite.mean()) if len(finite) else 0.0
            )
        for k in unproposed.tolist():
            repaired.set_cell(chunk_rows[k], column, numeric_means[column])


class BaranRepair(RepairMethod):
    """BARAN error correction with oracle-labeled tuples.

    Args:
        label_budget: number of tuples whose corrections the oracle reveals
            (BARAN's user labels; the paper uses ~20).
        revision_corpus: optional (error, correction) pairs from an external
            source (the Wikipedia-revision analogue) that pre-train the
            value model.
    """

    name = "BARAN"
    category = GENERIC

    def __init__(
        self,
        label_budget: int = 20,
        revision_corpus: Optional[Sequence[Tuple[str, str]]] = None,
    ) -> None:
        if label_budget < 1:
            raise ValueError("label_budget must be >= 1")
        self.label_budget = label_budget
        self.revision_corpus = list(revision_corpus or [])

    def _repair(self, context: CleaningContext, detections: Set[Cell]) -> Table:
        if context.clean is None:
            raise RuntimeError("BARAN needs labeled tuples (oracle/clean data)")
        table = context.dirty
        repaired = table.copy()
        detected = sorted(
            c for c in detections
            if c[1] in table.schema and 0 <= c[0] < table.n_rows
        )
        if not detected:
            return repaired
        rng = context.rng(53)

        # --- model state ------------------------------------------------
        transformations: Dict[str, Transformation] = {}
        for error, correction in self.revision_corpus:
            for key, fn in _learn_transformations(str(error), str(correction)):
                transformations.setdefault(key, fn)
        # The value model starts dominant: a learned transformation that
        # applies exactly to the error string is far stronger evidence than
        # contextual co-occurrence (BARAN's corrector features behave the
        # same way for typo-class errors).
        model_weights = {"value": 2.5, "vicinity": 1.0, "domain": 0.5}

        # Vicinity statistics: (context_column, context_value, target_column)
        # -> Counter of target values, computed once over the dirty table.
        categorical = table.schema.categorical_names
        with kernel_stage("baran.context"):
            normalized, vicinity, domain = _build_context_models(
                table, categorical
            )

        def candidates_for(row: int, column: str) -> Dict[str, float]:
            """Candidate scores, *including* the current value's own score.

            Scoring the current value with the same vicinity/domain models
            lets the corrector leave well-supported values alone -- the
            guard that keeps detection false positives from becoming wrong
            repairs.  Only the (label-budget-bounded) training loop calls
            this; the correction pass replays the same accumulation
            batched in :func:`_score_pending_cells`.
            """
            scores: Dict[str, float] = defaultdict(float)
            value = table.get_cell(row, column)
            text = text_key(value)
            if text is not None:
                for fn in transformations.values():
                    try:
                        out = fn(text)
                    except Exception:  # noqa: BLE001 - user-derived lambdas
                        continue
                    if out and out != text:
                        weight = model_weights["value"]
                        if column in categorical and domain[column].get(out, 0) < 2:
                            # A transform whose output never occurs in the
                            # column is likely misfiring on this cell.
                            weight *= 0.1
                        scores[out] += weight
            if column in categorical:
                column_domain = domain[column]
                if text is not None and column_domain.get(text, 0) <= 1:
                    # Character-level value model: a rare payload close (by
                    # edit distance) to a *frequent* domain value is almost
                    # certainly a typo of it.
                    best_candidate, best_distance = None, 3
                    for candidate, count in column_domain.items():
                        if count < 2 or candidate == text:
                            continue
                        distance = edit_distance(text, candidate, cutoff=2)
                        if distance < best_distance:
                            best_candidate, best_distance = candidate, distance
                    if best_candidate is not None:
                        scores[best_candidate] += model_weights["value"] * (
                            2.0 - 0.5 * best_distance
                        )
                for col_a in categorical:
                    if col_a == column:
                        continue
                    a = normalized[col_a][row]
                    if a is None:
                        continue
                    counts = vicinity[(col_a, a, column)]
                    total = sum(counts.values()) or 1
                    for candidate, count in counts.most_common(5):
                        scores[candidate] += (
                            model_weights["vicinity"] * count / total
                        )
                total = sum(column_domain.values()) or 1
                for candidate, count in column_domain.most_common(5):
                    scores[candidate] += (
                        model_weights["domain"] * count / total
                    )
            return dict(scores)

        # --- incremental training on labeled tuples ----------------------
        budget = min(self.label_budget, len(detected))
        labeled_positions = rng.choice(len(detected), size=budget, replace=False)
        labeled_cells = {detected[int(p)] for p in labeled_positions}
        for row, column in sorted(labeled_cells):
            correction = context.oracle_value((row, column))
            error_value = table.get_cell(row, column)
            if not is_missing(error_value) and not is_missing(correction):
                for key, fn in _learn_transformations(
                    str(error_value).strip(), str(correction).strip()
                ):
                    transformations.setdefault(key, fn)
            # Update model reliabilities: which model would have proposed
            # the right answer?
            proposals = candidates_for(row, column)
            target = text_key(correction)
            if target is not None and proposals:
                best = max(proposals, key=proposals.get)
                if best == target:
                    model_weights["vicinity"] *= 1.1
                else:
                    model_weights["domain"] *= 1.05
            repaired.set_cell(row, column, correction)

        # --- correct the remaining detections ----------------------------
        pending = [c for c in detected if c not in labeled_cells]
        with kernel_stage("baran.score"):
            _score_pending_cells(
                table, repaired, pending, transformations, model_weights,
                categorical, normalized, vicinity, domain,
            )
        return repaired
