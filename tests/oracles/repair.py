"""Frozen pre-vectorization repair kernels (equivalence oracles).

This module preserves the *original* scalar implementations of the
repair hot paths exactly as they were before the cleaning-stage
vectorization pass (mirroring :mod:`oracles.ml`):

- BARAN's per-row vicinity-statistics build (an O(rows x columns^2)
  Python loop of Counter updates), its per-candidate edit-distance scan,
  and its per-detected-cell candidate scoring dict loop;
- HoloClean's per-row co-occurrence build and its per-candidate feature
  construction calls.

The frozen functions take the repair *method instance* plus the context
and detections, and run the complete original repair pipeline, so the
property suite (``tests/test_cleaning_kernels.py``) can assert the
batched rewrites in :mod:`repro.repair.baran` and
:mod:`repro.repair.holistic` produce cell-for-cell identical repaired
tables -- including score tie-breaking, which the originals resolve by
dict insertion order.  ``benchmarks/test_cleaning_speed.py`` measures
speedups against them for the committed ``BENCH_cleaning.json``.

``tools/check_hot_loops.py`` forbids these patterns under
``src/repro/repair/``, which this module no longer ships in.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.context import CleaningContext
from repro.dataset.table import Cell, Table, is_missing
from repro.ml.linear import LogisticRegression
from repro.repair.base import blank_detected_cells

# ----------------------------------------------------------------------
# BARAN
# ----------------------------------------------------------------------


def reference_baran_repair(
    method, context: CleaningContext, detections: Set[Cell]
) -> Table:
    """The original BARAN ``_repair`` pipeline, verbatim."""
    from repro.repair.baran import _learn_transformations, edit_distance

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
    transformations: Dict[str, object] = {}
    for error, correction in method.revision_corpus:
        for key, fn in _learn_transformations(str(error), str(correction)):
            transformations.setdefault(key, fn)
    model_weights = {"value": 2.5, "vicinity": 1.0, "domain": 0.5}

    # Vicinity statistics: (context_column, context_value, target_column)
    # -> Counter of target values, computed once over the dirty table.
    vicinity: Dict[Tuple[str, str, str], Counter] = defaultdict(Counter)
    categorical = table.schema.categorical_names
    normalized = {
        c: [
            None if is_missing(v) else str(v).strip()
            for v in table.column(c)
        ]
        for c in categorical
    }
    for i in range(table.n_rows):
        for col_a in categorical:
            a = normalized[col_a][i]
            if a is None:
                continue
            for col_b in categorical:
                if col_b == col_a:
                    continue
                b = normalized[col_b][i]
                if b is not None:
                    vicinity[(col_a, a, col_b)][b] += 1
    domain = {
        c: Counter(v for v in normalized[c] if v is not None)
        for c in categorical
    }

    def candidates_for(row: int, column: str) -> Dict[str, float]:
        scores: Dict[str, float] = defaultdict(float)
        value = table.get_cell(row, column)
        text = None if is_missing(value) else str(value).strip()
        if text is not None:
            for fn in transformations.values():
                try:
                    out = fn(text)
                except Exception:  # noqa: BLE001 - user-derived lambdas
                    continue
                if out and out != text:
                    weight = model_weights["value"]
                    if column in categorical and domain[column].get(out, 0) < 2:
                        weight *= 0.1
                    scores[out] += weight
        if column in categorical:
            column_domain = domain[column]
            if text is not None and column_domain.get(text, 0) <= 1:
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
    budget = min(method.label_budget, len(detected))
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
        proposals = candidates_for(row, column)
        target = None if is_missing(correction) else str(correction).strip()
        if target is not None and proposals:
            best = max(proposals, key=proposals.get)
            if best == target:
                model_weights["vicinity"] *= 1.1
            else:
                model_weights["domain"] *= 1.05
        repaired.set_cell(row, column, correction)

    # --- correct the remaining detections ----------------------------
    numeric_means: Dict[str, float] = {}
    for row, column in detected:
        if (row, column) in labeled_cells:
            continue
        value = table.get_cell(row, column)
        text = None if is_missing(value) else str(value).strip()
        proposals = candidates_for(row, column)
        current_score = proposals.pop(text, 0.0) if text is not None else 0.0
        if proposals:
            best = max(proposals, key=proposals.get)
            if text is None or proposals[best] > current_score:
                repaired.set_cell(row, column, best)
        elif table.schema.kind_of(column) == "numerical":
            if column not in numeric_means:
                values = table.as_float(column)
                finite = values[~np.isnan(values)]
                numeric_means[column] = (
                    float(finite.mean()) if len(finite) else 0.0
                )
            repaired.set_cell(row, column, numeric_means[column])
    return repaired


# ----------------------------------------------------------------------
# HoloClean
# ----------------------------------------------------------------------


def reference_holoclean_repair(
    method, context: CleaningContext, detections: Set[Cell]
) -> Table:
    """The original HoloClean ``_repair`` pipeline, verbatim."""
    table = context.dirty
    blanked = blank_detected_cells(table, detections)
    repaired = blanked.copy()
    # FD majority votes per (cell -> value).
    fd_votes: Dict[Cell, Counter] = defaultdict(Counter)
    for fd in context.fds:
        for cell, value in fd.majority_repairs(table).items():
            fd_votes[cell][str(value).strip()] += 3  # strong signal
    normalized: Dict[str, List[Optional[str]]] = {}
    for column in table.schema.categorical_names:
        normalized[column] = [
            None if is_missing(v) else str(v).strip()
            for v in blanked.column(column)
        ]
    priors = {
        column: Counter(v for v in normalized[column] if v is not None)
        for column in normalized
    }
    # Co-occurrence counts between categorical columns (on kept cells).
    cooccurrence: Dict[Tuple[str, str], Counter] = defaultdict(Counter)
    categorical = list(normalized)
    for i in range(table.n_rows):
        for col_a in categorical:
            a = normalized[col_a][i]
            if a is None:
                continue
            for col_b in categorical:
                if col_b == col_a:
                    continue
                b = normalized[col_b][i]
                if b is not None:
                    cooccurrence[(col_a, col_b)][(a, b)] += 1

    def candidate_features(row: int, column: str, candidate: str) -> np.ndarray:
        prior = np.log(priors[column][candidate] + 1.0)
        fd_vote = float(fd_votes.get((row, column), Counter())[candidate])
        context_loglik = 0.0
        contexts = 0
        for col_b in categorical:
            if col_b == column:
                continue
            b = normalized[col_b][row]
            if b is None:
                continue
            joint = cooccurrence[(column, col_b)][(candidate, b)]
            context_loglik += np.log(joint + 1.0)
            contexts += 1
        if contexts:
            context_loglik /= contexts
        return np.array([prior, fd_vote, context_loglik, 1.0])

    weights = _reference_learn_weights(
        method, context, detections, categorical, normalized, priors,
        candidate_features,
    )
    method.learned_weights_ = weights

    numeric_means: Dict[str, float] = {}
    for row, column in sorted(detections):
        if column not in table.schema or not (0 <= row < table.n_rows):
            continue
        if table.schema.kind_of(column) == "numerical":
            if column not in numeric_means:
                values = blanked.as_float(column)
                finite = values[~np.isnan(values)]
                numeric_means[column] = (
                    float(finite.mean()) if len(finite) else 0.0
                )
            repaired.set_cell(row, column, numeric_means[column])
            continue
        candidates = [
            v for v, _ in priors[column].most_common(method.max_candidates)
        ]
        for vote_value in fd_votes.get((row, column), ()):
            if vote_value not in candidates:
                candidates.append(vote_value)
        if not candidates:
            continue
        scores = [
            float(weights @ candidate_features(row, column, candidate))
            for candidate in candidates
        ]
        repaired.set_cell(row, column, candidates[int(np.argmax(scores))])
    return repaired


def _reference_learn_weights(
    method,
    context: CleaningContext,
    detections: Set[Cell],
    categorical: List[str],
    normalized: Dict[str, List[Optional[str]]],
    priors: Dict[str, Counter],
    candidate_features,
) -> np.ndarray:
    """The original weak-supervision weight fit, verbatim."""
    if not method.learn_weights or not categorical:
        return method._FALLBACK_WEIGHTS
    rng = context.rng(83)
    detected = set(detections)
    examples: List[np.ndarray] = []
    labels: List[int] = []
    pool: List[Tuple[int, str]] = [
        (row, column)
        for column in categorical
        for row in range(context.dirty.n_rows)
        if (row, column) not in detected
        and normalized[column][row] is not None
        and len(priors[column]) >= 2
    ]
    if len(pool) > method.max_training_cells:
        picks = rng.choice(
            len(pool), size=method.max_training_cells, replace=False
        )
        pool = [pool[int(p)] for p in picks]
    for row, column in pool:
        observed = normalized[column][row]
        examples.append(candidate_features(row, column, observed))
        labels.append(1)
        alternatives = [v for v in priors[column] if v != observed]
        negative = alternatives[int(rng.integers(len(alternatives)))]
        examples.append(candidate_features(row, column, negative))
        labels.append(0)
    if len(examples) < 20:
        return method._FALLBACK_WEIGHTS
    features = np.vstack(examples)
    targets = np.array(labels)
    n_holdout = max(4, len(features) // 4)
    order = rng.permutation(len(features))
    holdout, training = order[:n_holdout], order[n_holdout:]
    model = LogisticRegression(max_iter=200, learning_rate=0.3)
    try:
        model.fit(features[training], targets[training])
    except (ValueError, np.linalg.LinAlgError):
        return method._FALLBACK_WEIGHTS
    learned = model.coef_[:, 1] - model.coef_[:, 0]
    weights = learned[:-1].copy()
    weights[-1] += learned[-1]  # merge the intercept into the bias slot
    if not np.isfinite(weights).all():
        return method._FALLBACK_WEIGHTS
    weights[1] = max(weights[1], method._FALLBACK_WEIGHTS[1])

    def holdout_accuracy(w: np.ndarray) -> float:
        scores = features[holdout] @ w
        predictions = (scores > 0).astype(int)
        return float(np.mean(predictions == targets[holdout]))

    if holdout_accuracy(weights) >= holdout_accuracy(method._FALLBACK_WEIGHTS):
        return weights
    return method._FALLBACK_WEIGHTS
