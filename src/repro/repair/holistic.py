"""Holistic signal-combining repairs: HoloClean, OpenRefine, and CleanLab's
repair side (Table 1 rows 13, 14, 16)."""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.context import CleaningContext
from repro.dataset.columnar import first_occurrence_order, intern_values
from repro.dataset.encoding import LabelEncoder, TableEncoder
from repro.dataset.table import Cell, Table, is_missing
from repro.detectors.openrefine import cluster_column, fingerprint
from repro.kernels import kernel_stage
from repro.ml.linear import LogisticRegression
from repro.repair.base import GENERIC, RepairMethod, blank_detected_cells
from repro.repair.simple import MeanModeImputeRepair


class _SignalModel:
    """Interned categorical signals for HoloClean's factor features.

    Replaces the scalar per-row co-occurrence build (an O(rows x
    columns^2) Python loop of Counter updates) with one interning pass
    per column plus one vectorized pair count per column pair.  The
    value priors are rebuilt as insertion-ordered Counters so
    ``most_common`` tie-breaking (stable by key insertion) matches the
    scalar build exactly; co-occurrence counts are kept as sorted code
    arrays for ``searchsorted`` lookups.
    """

    def __init__(self, blanked: Table, categorical: List[str]) -> None:
        self.categorical = list(categorical)
        self.normalized: Dict[str, List[Optional[str]]] = {
            c: blanked.text_keys(c) for c in self.categorical
        }
        self.uids: Dict[str, np.ndarray] = {}
        self.distinct: Dict[str, List[str]] = {}
        self.ids: Dict[str, Dict[str, int]] = {}
        for c in self.categorical:
            self.uids[c], self.distinct[c] = intern_values(self.normalized[c])
            self.ids[c] = {v: k for k, v in enumerate(self.distinct[c])}
        self.priors: Dict[str, Counter] = {}
        for c in self.categorical:
            present = self.uids[c][self.uids[c] >= 0]
            values, counts, _, _ = first_occurrence_order(present)
            counter: Counter = Counter()
            names = self.distinct[c]
            for uid, count in zip(values.tolist(), counts.tolist()):
                counter[names[uid]] = count
            self.priors[c] = counter
        self._joint: Dict[Tuple[str, str], Tuple[np.ndarray, np.ndarray, int]] = {}

    def _joint_counts(
        self, column: str, col_b: str
    ) -> Tuple[np.ndarray, np.ndarray, int]:
        """Sorted ``(column value, col_b value)`` codes with counts."""
        key = (column, col_b)
        cached = self._joint.get(key)
        if cached is None:
            cu, bu = self.uids[column], self.uids[col_b]
            both = (cu >= 0) & (bu >= 0)
            width = max(len(self.distinct[col_b]), 1)
            codes, counts = np.unique(
                cu[both] * width + bu[both], return_counts=True
            )
            cached = self._joint[key] = (codes, counts, width)
        return cached

    def features(
        self,
        column: str,
        rows: List[int],
        candidates: List[str],
        fd_votes: Dict[Cell, Counter],
    ) -> np.ndarray:
        """Signal features for assigning ``candidates[t]`` to ``rows[t]``.

        Row ``t`` equals the scalar ``candidate_features`` vector
        ``[prior, fd_vote, context_loglik, 1.0]`` bit for bit: the
        context log-likelihood accumulates per context column in the
        same order, and absent contexts contribute ``log(0 + 1) == 0.0``
        exactly as the scalar's skip does.
        """
        m = len(rows)
        prior_counts = np.fromiter(
            (self.priors[column][cand] for cand in candidates),
            np.int64, count=m,
        )
        prior = np.log(prior_counts + 1.0)
        fd_vote = np.zeros(m)
        for t, cell_row in enumerate(rows):
            counter = fd_votes.get((cell_row, column))
            if counter:
                fd_vote[t] = float(counter[candidates[t]])
        cand_uid = np.fromiter(
            (self.ids[column].get(cand, -1) for cand in candidates),
            np.int64, count=m,
        )
        row_arr = np.asarray(rows, dtype=np.int64)
        context_loglik = np.zeros(m)
        contexts = np.zeros(m, dtype=np.int64)
        for col_b in self.categorical:
            if col_b == column:
                continue
            bu = self.uids[col_b][row_arr]
            codes, counts, width = self._joint_counts(column, col_b)
            joint = np.zeros(m, dtype=np.int64)
            present = (cand_uid >= 0) & (bu >= 0)
            if len(codes) and present.any():
                queries = cand_uid[present] * width + bu[present]
                pos = np.clip(
                    np.searchsorted(codes, queries), 0, len(codes) - 1
                )
                joint[present] = np.where(
                    codes[pos] == queries, counts[pos], 0
                )
            context_loglik += np.log(joint + 1.0)
            contexts += bu >= 0
        context_loglik = np.where(
            contexts > 0, context_loglik / np.maximum(contexts, 1),
            context_loglik,
        )
        features = np.empty((m, 4))
        features[:, 0] = prior
        features[:, 1] = fd_vote
        features[:, 2] = context_loglik
        features[:, 3] = 1.0
        return features


class HoloCleanRepair(RepairMethod):
    """HoloClean's repair stage: probabilistic inference over signals.

    Candidate repairs are scored by a log-linear model over the signal
    features HoloClean's factor graph encodes:

    - FD/constraint co-group votes (rows agreeing on a determinant);
    - attribute co-occurrence with the rest of the tuple;
    - the column's empirical value prior.

    With ``learn_weights`` (default), the feature weights are *learned* the
    way HoloClean learns its factor weights: every unflagged categorical
    cell is treated as weak supervision -- its observed value is a positive
    example and sampled domain values are negatives -- and a logistic model
    fits the weights.  With too little evidence the scorer falls back to
    calibrated fixed weights.  Numeric cells fall back to the column mean
    (HoloClean's domain pruning makes continuous attributes statistical).

    Candidate features are built in one vectorized pass per column (see
    :class:`_SignalModel`); only the final length-4 score dot products
    stay per-candidate, because a batched matmul rounds differently than
    the scalar ``weights @ features`` and the outputs must stay
    bit-identical to the frozen reference pipeline.
    """

    name = "HoloClean"
    category = GENERIC

    #: Fixed fallback weights: [prior, fd_vote, cooccurrence, bias].
    _FALLBACK_WEIGHTS = np.array([1.0, 4.0, 1.0, 0.0])

    def __init__(
        self,
        max_candidates: int = 30,
        learn_weights: bool = True,
        max_training_cells: int = 400,
    ) -> None:
        if max_candidates < 2:
            raise ValueError("max_candidates must be >= 2")
        if max_training_cells < 10:
            raise ValueError("max_training_cells must be >= 10")
        self.max_candidates = max_candidates
        self.learn_weights = learn_weights
        self.max_training_cells = max_training_cells
        self.learned_weights_: Optional[np.ndarray] = None

    def _repair(self, context: CleaningContext, detections: Set[Cell]) -> Table:
        table = context.dirty
        blanked = blank_detected_cells(table, detections)
        repaired = blanked.copy()
        # FD majority votes per (cell -> value).
        fd_votes: Dict[Cell, Counter] = defaultdict(Counter)
        for fd in context.fds:
            for cell, value in fd.majority_repairs(table).items():
                fd_votes[cell][str(value).strip()] += 3  # strong signal
        with kernel_stage("holoclean.context"):
            signals = _SignalModel(
                blanked, list(table.schema.categorical_names)
            )

        weights = self._learn_weights(context, detections, signals, fd_votes)
        self.learned_weights_ = weights

        numeric_means: Dict[str, float] = {}
        flagged_by_column: Dict[str, List[int]] = {}
        for cell_row, column in sorted(detections):
            if column not in table.schema or not (0 <= cell_row < table.n_rows):
                continue
            if table.schema.kind_of(column) == "numerical":
                if column not in numeric_means:
                    values = blanked.as_float(column)
                    finite = values[~np.isnan(values)]
                    numeric_means[column] = (
                        float(finite.mean()) if len(finite) else 0.0
                    )
                repaired.set_cell(cell_row, column, numeric_means[column])
                continue
            flagged_by_column.setdefault(column, []).append(cell_row)
        with kernel_stage("holoclean.score"):
            for column, cell_rows in flagged_by_column.items():
                self._score_column(
                    repaired, column, cell_rows, signals, fd_votes, weights
                )
        return repaired

    def _score_column(
        self,
        repaired: Table,
        column: str,
        cell_rows: List[int],
        signals: _SignalModel,
        fd_votes: Dict[Cell, Counter],
        weights: np.ndarray,
    ) -> None:
        """Score every flagged cell of one column in a single feature batch."""
        base = [
            v for v, _ in signals.priors[column].most_common(self.max_candidates)
        ]
        candidate_lists: List[List[str]] = []
        pair_rows: List[int] = []
        pair_candidates: List[str] = []
        offsets = [0]
        for cell_row in cell_rows:
            candidates = list(base)
            for vote_value in fd_votes.get((cell_row, column), ()):
                if vote_value not in candidates:
                    candidates.append(vote_value)
            candidate_lists.append(candidates)
            pair_rows.extend([cell_row] * len(candidates))
            pair_candidates.extend(candidates)
            offsets.append(len(pair_candidates))
        if not pair_candidates:
            return
        features = signals.features(column, pair_rows, pair_candidates, fd_votes)
        # Length-4 dots, one per candidate: a batched ``features @
        # weights`` is *not* bitwise-equal to the scalar ``weights @ f``.
        scores = np.fromiter(
            (float(weights @ features[t]) for t in range(len(features))),
            np.float64, count=len(features),
        )
        for k, cell_row in enumerate(cell_rows):
            lo, hi = offsets[k], offsets[k + 1]
            if lo == hi:
                continue
            choice = candidate_lists[k][int(np.argmax(scores[lo:hi]))]
            repaired.set_cell(cell_row, column, choice)

    def _learn_weights(
        self,
        context: CleaningContext,
        detections: Set[Cell],
        signals: _SignalModel,
        fd_votes: Dict[Cell, Counter],
    ) -> np.ndarray:
        """Fit factor weights from unflagged cells (weak supervision)."""
        if not self.learn_weights or not signals.categorical:
            return self._FALLBACK_WEIGHTS
        rng = context.rng(83)
        detected = set(detections)
        normalized, priors = signals.normalized, signals.priors
        pool: List[Tuple[int, str]] = [
            (pool_row, column)
            for column in signals.categorical
            for pool_row in range(context.dirty.n_rows)
            if (pool_row, column) not in detected
            and normalized[column][pool_row] is not None
            and len(priors[column]) >= 2
        ]
        if len(pool) > self.max_training_cells:
            picks = rng.choice(
                len(pool), size=self.max_training_cells, replace=False
            )
            pool = [pool[int(p)] for p in picks]
        # Negatives are drawn cell by cell so the rng consumes the same
        # sequence as the scalar loop; alternatives lists iterate the
        # insertion-ordered priors exactly as ``[v for v in priors[c]]``.
        alternatives_cache: Dict[Tuple[str, str], List[str]] = {}
        entries: List[Tuple[int, str, str, str]] = []
        for pool_row, column in pool:
            observed = normalized[column][pool_row]
            cache_key = (column, observed)
            alternatives = alternatives_cache.get(cache_key)
            if alternatives is None:
                alternatives = alternatives_cache[cache_key] = [
                    v for v in priors[column] if v != observed
                ]
            negative = alternatives[int(rng.integers(len(alternatives)))]
            entries.append((pool_row, column, observed, negative))
        if 2 * len(entries) < 20:
            return self._FALLBACK_WEIGHTS
        # Feature rows interleave positive/negative per pool cell, same
        # as the scalar ``np.vstack(examples)``; construction is batched
        # per column and scattered back into pool order.
        features = np.empty((2 * len(entries), 4))
        by_column: Dict[str, List[int]] = {}
        for idx, entry in enumerate(entries):
            by_column.setdefault(entry[1], []).append(idx)
        for column, idxs in by_column.items():
            batch_rows: List[int] = []
            batch_cands: List[str] = []
            slots: List[int] = []
            for idx in idxs:
                pool_row, _, observed, negative = entries[idx]
                batch_rows += [pool_row, pool_row]
                batch_cands += [observed, negative]
                slots += [2 * idx, 2 * idx + 1]
            features[slots] = signals.features(
                column, batch_rows, batch_cands, fd_votes
            )
        targets = np.array([1, 0] * len(entries))
        # Hold out a slice of the pseudo-examples to decide whether the
        # learned weights actually beat the calibrated fallback.
        n_holdout = max(4, len(features) // 4)
        order = rng.permutation(len(features))
        holdout, training = order[:n_holdout], order[n_holdout:]
        model = LogisticRegression(max_iter=200, learning_rate=0.3)
        try:
            model.fit(features[training], targets[training])
        except (ValueError, np.linalg.LinAlgError):
            return self._FALLBACK_WEIGHTS
        # Column 1 of coef_ is the positive-class direction; the model adds
        # its own intercept on top of our bias feature -- fold it in.
        learned = model.coef_[:, 1] - model.coef_[:, 0]
        weights = learned[:-1].copy()
        weights[-1] += learned[-1]  # merge the intercept into the bias slot
        if not np.isfinite(weights).all():
            return self._FALLBACK_WEIGHTS
        # FD votes never occur among unflagged training cells, so their
        # weight cannot be learned here; keep the fallback's strong prior
        # (hard-constraint factors are not softened in HoloClean either).
        weights[1] = max(weights[1], self._FALLBACK_WEIGHTS[1])

        def holdout_accuracy(w: np.ndarray) -> float:
            scores = features[holdout] @ w
            predictions = (scores > 0).astype(int)
            return float(np.mean(predictions == targets[holdout]))

        if holdout_accuracy(weights) >= holdout_accuracy(self._FALLBACK_WEIGHTS):
            return weights
        return self._FALLBACK_WEIGHTS


class OpenRefineRepair(RepairMethod):
    """OpenRefine repair (row 14): cluster merges plus GREL transforms.

    Detected categorical cells whose fingerprint cluster has a majority raw
    variant are rewritten to that variant -- the "mass edit" a user performs
    after reviewing clusters.  Optionally, per-column GREL expressions
    (OpenRefine's native transformation language, see
    :mod:`repro.repair.grel`) are applied to the detected cells first, e.g.
    ``{"city": 'value.trim().toLowercase()'}``.
    """

    name = "OpenRefine"
    category = GENERIC

    def __init__(self, transforms: Optional[Dict[str, str]] = None) -> None:
        from repro.repair.grel import GrelExpression

        self.transforms = {
            column: GrelExpression(source)
            for column, source in (transforms or {}).items()
        }

    def _repair(self, context: CleaningContext, detections: Set[Cell]) -> Table:
        table = context.dirty
        repaired = table.copy()
        # Phase 1: user-supplied GREL transforms on detected cells.
        if self.transforms:
            column_names = table.column_names
            for row, column in sorted(detections):
                expression = self.transforms.get(column)
                if expression is None or not (0 <= row < table.n_rows):
                    continue
                cells = {
                    name: table.get_cell(row, name) for name in column_names
                }
                try:
                    repaired.set_cell(
                        row, column,
                        expression.evaluate(table.get_cell(row, column), cells),
                    )
                except Exception:  # noqa: BLE001 - user expression errors
                    continue
        merges: Dict[str, Dict[str, str]] = {}
        for column in table.schema.categorical_names:
            clusters = cluster_column(table, column)
            mapping: Dict[str, str] = {}
            for counts in clusters.values():
                if len(counts) < 2:
                    continue
                majority, _ = counts.most_common(1)[0]
                for variant in counts:
                    if variant != majority:
                        mapping[variant] = majority
            if mapping:
                merges[column] = mapping
        for row, column in detections:
            if column not in merges or not (0 <= row < table.n_rows):
                continue
            value = table.get_cell(row, column)
            if is_missing(value):
                continue
            replacement = merges[column].get(str(value))
            if replacement is not None:
                repaired.set_cell(row, column, replacement)
        return repaired


class CleanLabRepair(RepairMethod):
    """CleanLab's repair side (row 16): relabel flagged label cells.

    Trains a classifier on the rows whose labels were *not* flagged and
    overwrites flagged labels with its predictions -- confident learning's
    prune-and-relearn loop collapsed to one pass.
    """

    name = "CleanLab"
    category = GENERIC

    def _repair(self, context: CleaningContext, detections: Set[Cell]) -> Table:
        label_column = context.label_column
        table = context.dirty
        if label_column is None or label_column not in table.schema:
            return table.copy()
        flagged_rows = sorted(
            {row for row, column in detections if column == label_column}
        )
        if not flagged_rows:
            return table.copy()
        keep_rows = [i for i in range(table.n_rows) if i not in set(flagged_rows)]
        encoder = TableEncoder()
        features = encoder.fit_transform(table, exclude=[label_column])
        label_encoder = LabelEncoder()
        labels = label_encoder.fit_transform(table.column(label_column))
        repaired = table.copy()
        if len(keep_rows) < 10 or len(set(labels[keep_rows])) < 2:
            return repaired
        model = LogisticRegression(max_iter=150)
        model.fit(features[keep_rows], labels[keep_rows])
        predictions = model.predict(features[flagged_rows])
        decoded = label_encoder.inverse_transform(predictions)
        for row, value in zip(flagged_rows, decoded):
            repaired.set_cell(row, label_column, value)
        return repaired
