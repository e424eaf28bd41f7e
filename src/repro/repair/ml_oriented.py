"""ML-oriented repair methods: ActiveClean, BoostClean, CPClean (Table 1
rows 17-19).

These jointly optimise cleaning and modeling: their output is a fitted
*model* (scenario S5 of Table 3), not a repaired table.  Each reproduces the
capability boundaries Section 6.5 reports: BoostClean and CPClean reject
multi-class problems, and ActiveClean fails when no clean warm-start
partition covering every class exists.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.context import CleaningContext
from repro.dataset.encoding import LabelEncoder, TableEncoder
from repro.dataset.table import Cell, Table
from repro.detectors.base import nested_cells
from repro.detectors.simple import IQRDetector, MVDetector, SDDetector
from repro.metrics.model import f1_score
from repro.ml.linear import LogisticRegression
from repro.ml.neighbors import KNNClassifier
from repro.ml.tree import DecisionTreeClassifier
from repro.repair.base import ML_ORIENTED, MLOrientedRepair
from repro.repair.simple import DeleteRepair, MeanModeImputeRepair


class FittedTabularModel:
    """A classifier bundled with the encoders that built its features.

    Lets scenario evaluation feed raw tables (dirty or clean) straight to
    the model, exactly how REIN scores S1/S4/S5 for these methods.
    """

    def __init__(
        self,
        model: Any,
        encoder: TableEncoder,
        label_encoder: LabelEncoder,
        label_column: str,
    ) -> None:
        self.model = model
        self.encoder = encoder
        self.label_encoder = label_encoder
        self.label_column = label_column

    def predict(self, table: Table) -> np.ndarray:
        return self.model.predict(self.encoder.transform(table))

    def f1(self, table: Table) -> float:
        """Macro F1 against the table's own label column."""
        truths = self.label_encoder.transform(table.column(self.label_column))
        return f1_score(truths, self.predict(table))


def _prepare(
    context: CleaningContext,
) -> Tuple[Table, np.ndarray, np.ndarray, TableEncoder, LabelEncoder, str]:
    label_column = context.label_column
    if label_column is None or label_column not in context.dirty.schema:
        raise ValueError("ML-oriented repair requires a label column")
    table = context.dirty
    encoder = TableEncoder()
    features = encoder.fit_transform(table, exclude=[label_column])
    label_encoder = LabelEncoder()
    labels = label_encoder.fit_transform(table.column(label_column))
    return table, features, labels, encoder, label_encoder, label_column


class ActiveCleanRepair(MLOrientedRepair):
    """ActiveClean: gradient-guided interactive cleaning for convex models.

    Warm-starts a logistic model on a fully-clean partition (rows with no
    detected cells; must cover every class -- otherwise the method raises,
    reproducing the failure mode Section 6.5 describes).  Then it repeatedly
    samples dirty records with probability proportional to their gradient
    magnitude, asks the oracle to clean them, and retrains on the grown
    clean set -- descending along the steepest cleaned gradient.
    """

    name = "ActiveClean"
    category = ML_ORIENTED

    def __init__(self, n_iterations: int = 5, batch_size: int = 20) -> None:
        if n_iterations < 1 or batch_size < 1:
            raise ValueError("n_iterations and batch_size must be >= 1")
        self.n_iterations = n_iterations
        self.batch_size = batch_size

    def _fit(self, context: CleaningContext, detections: Set[Cell]):
        if context.clean is None:
            raise RuntimeError("ActiveClean needs an oracle (clean data)")
        table, features, labels, encoder, label_encoder, label_column = _prepare(
            context
        )
        dirty_rows = sorted({row for row, _ in detections if row < table.n_rows})
        dirty_set = set(dirty_rows)
        clean_partition = [i for i in range(table.n_rows) if i not in dirty_set]
        all_classes = set(labels.tolist())
        covered = {int(labels[i]) for i in clean_partition}
        if covered != all_classes:
            raise RuntimeError(
                "ActiveClean found no clean partition covering all classes "
                f"(missing {sorted(all_classes - covered)})"
            )
        rng = context.rng(61)
        # Oracle-cleaned view built lazily as records are sampled.
        cleaned_features = features.copy()
        cleaned_labels = labels.copy()
        clean_label_codes = label_encoder.transform(
            context.clean.column(label_column)
        )
        clean_encoded = encoder.transform(context.clean)
        training_rows = list(clean_partition)
        model = LogisticRegression(max_iter=150)
        model.fit(cleaned_features[training_rows], cleaned_labels[training_rows])
        remaining = list(dirty_rows)
        for _ in range(self.n_iterations):
            if not remaining:
                break
            probabilities = model.predict_proba(cleaned_features[remaining])
            # Gradient magnitude for logistic loss ~ |p - y| * ||x||.
            point_errors = 1.0 - probabilities[
                np.arange(len(remaining)), cleaned_labels[remaining]
            ]
            norms = np.linalg.norm(cleaned_features[remaining], axis=1) + 1e-9
            weights = point_errors * norms
            total = weights.sum()
            if total <= 0:
                break
            batch = min(self.batch_size, len(remaining))
            picks = rng.choice(
                len(remaining), size=batch, replace=False, p=weights / total
            )
            for p in sorted(picks, reverse=True):
                row = remaining.pop(int(p))
                cleaned_features[row] = clean_encoded[row]
                cleaned_labels[row] = clean_label_codes[row]
                training_rows.append(row)
            model = LogisticRegression(max_iter=150)
            model.fit(
                cleaned_features[training_rows], cleaned_labels[training_rows]
            )
        fitted = FittedTabularModel(model, encoder, label_encoder, label_column)
        return fitted, {"records_cleaned": len(training_rows) - len(clean_partition)}


class BoostCleanRepair(MLOrientedRepair):
    """BoostClean: statistical boosting over (detector, repair) pairs.

    Each candidate pair yields a cleaned training set and a weak learner
    trained on it; AdaBoost-style rounds greedily pick the learner with the
    lowest weighted validation error and reweight.  Binary classification
    only (the multi-class limitation Section 6.5 reports).
    """

    name = "BoostClean"
    category = ML_ORIENTED

    def __init__(self, n_rounds: int = 3, validation_fraction: float = 0.25) -> None:
        if n_rounds < 1:
            raise ValueError("n_rounds must be >= 1")
        if not 0.0 < validation_fraction < 1.0:
            raise ValueError("validation_fraction must be in (0, 1)")
        self.n_rounds = n_rounds
        self.validation_fraction = validation_fraction

    @staticmethod
    def _library() -> List[Tuple[str, Optional[Any], Optional[Any]]]:
        """(name, detector, repair) candidates; None means 'no cleaning'."""
        return [
            ("identity", None, None),
            ("mv+impute", MVDetector(), MeanModeImputeRepair()),
            ("sd+impute", SDDetector(3.0), MeanModeImputeRepair()),
            ("iqr+delete", IQRDetector(1.5), DeleteRepair()),
        ]

    def _fit(self, context: CleaningContext, detections: Set[Cell]):
        table, _, labels, _, label_encoder, label_column = _prepare(context)
        if label_encoder.n_classes != 2:
            raise ValueError(
                "BoostClean supports binary classification only "
                f"(got {label_encoder.n_classes} classes)"
            )
        rng = context.rng(67)
        n_rows = table.n_rows
        n_valid = max(2, int(self.validation_fraction * n_rows))
        order = rng.permutation(n_rows)
        valid_rows = np.sort(order[:n_valid])
        train_rows = np.sort(order[n_valid:])
        valid_set = set(valid_rows.tolist())
        shared_encoder = TableEncoder()
        shared_encoder.fit(table, exclude=[label_column])
        valid_features = shared_encoder.transform(table.select_rows(valid_rows))
        valid_labels = labels[valid_rows]
        # Build candidate cleaned training sets.
        candidates = []
        for name, detector, repair in self._library():
            if detector is None:
                cleaned = table.select_rows(train_rows)
            else:
                detected = nested_cells(detector, context)
                train_detected = {
                    (row, col) for row, col in detected if row not in valid_set
                }
                sub_context = CleaningContext(
                    dirty=table.select_rows(train_rows),
                    clean=None,
                    label_column=label_column,
                    seed=context.seed,
                )
                remap = {int(r): k for k, r in enumerate(train_rows)}
                remapped = {
                    (remap[row], col)
                    for row, col in train_detected
                    if row in remap
                }
                cleaned = repair.repair(sub_context, remapped).repaired
            candidates.append((name, cleaned))
        weights = np.full(len(valid_rows), 1.0 / len(valid_rows))
        learners: List[Tuple[Any, float, str]] = []
        for round_index in range(self.n_rounds):
            best = None
            for name, cleaned in candidates:
                cleaned_labels = label_encoder.transform(
                    cleaned.column(label_column)
                )
                if len(set(cleaned_labels.tolist())) < 2:
                    continue
                learner = DecisionTreeClassifier(
                    max_depth=4, seed=context.seed + round_index
                )
                cleaned_features = shared_encoder.transform(cleaned)
                learner.fit(cleaned_features, cleaned_labels)
                predictions = learner.predict(valid_features)
                error = float(np.sum(weights[predictions != valid_labels]))
                if best is None or error < best[0]:
                    best = (error, learner, name)
            if best is None:
                break
            error, learner, name = best
            error = min(max(error, 1e-10), 1 - 1e-10)
            if error >= 0.5:
                break
            alpha = 0.5 * np.log((1 - error) / error)
            learners.append((learner, alpha, name))
            predictions = learner.predict(valid_features)
            signs = np.where(predictions == valid_labels, -1.0, 1.0)
            weights = weights * np.exp(alpha * signs)
            weights /= weights.sum()
        if not learners:
            fallback = DecisionTreeClassifier(max_depth=4, seed=context.seed)
            fallback.fit(
                shared_encoder.transform(table.select_rows(train_rows)),
                labels[train_rows],
            )
            learners = [(fallback, 1.0, "identity")]

        ensemble = _BoostedEnsemble([(l, a) for l, a, _ in learners])
        fitted = FittedTabularModel(
            ensemble, shared_encoder, label_encoder, label_column
        )
        return fitted, {"learners": [name for _, _, name in learners]}


class _BoostedEnsemble:
    """Weighted-vote binary ensemble over encoded features."""

    def __init__(self, learners: Sequence[Tuple[Any, float]]) -> None:
        self.learners = list(learners)

    def predict(self, features: np.ndarray) -> np.ndarray:
        scores = np.zeros(len(features))
        for learner, alpha in self.learners:
            predictions = learner.predict(features).astype(float)
            scores += alpha * np.where(predictions > 0, 1.0, -1.0)
        return (scores > 0).astype(int)


class CPCleanRepair(MLOrientedRepair):
    """CPClean: clean until predictions are certain (KNN-based).

    Over the incomplete (detected-dirty) training set, a prediction on the
    validation set is *certain* when every possible world of the dirty
    cells yields the same label.  CPClean greedily cleans (via the oracle)
    the training rows whose dirtiness blocks the most certain predictions,
    stopping when all validation predictions are certain or every dirty row
    is cleaned.  Binary classification only.
    """

    name = "CPClean"
    category = ML_ORIENTED

    def __init__(self, n_neighbors: int = 3, max_cleaned: int = 100) -> None:
        if n_neighbors < 1 or max_cleaned < 1:
            raise ValueError("n_neighbors and max_cleaned must be >= 1")
        self.n_neighbors = n_neighbors
        self.max_cleaned = max_cleaned

    def _fit(self, context: CleaningContext, detections: Set[Cell]):
        if context.clean is None:
            raise RuntimeError("CPClean needs an oracle (clean data)")
        table, features, labels, encoder, label_encoder, label_column = _prepare(
            context
        )
        if label_encoder.n_classes != 2:
            raise ValueError(
                "CPClean supports binary classification only "
                f"(got {label_encoder.n_classes} classes)"
            )
        rng = context.rng(71)
        n_rows = table.n_rows
        n_valid = max(2, n_rows // 4)
        order = rng.permutation(n_rows)
        valid_rows = np.sort(order[:n_valid])
        train_rows = np.sort(order[n_valid:])
        dirty_train = sorted(
            {row for row, _ in detections if row in set(train_rows.tolist())}
        )
        clean_encoded = encoder.transform(context.clean)
        clean_labels = label_encoder.transform(
            context.clean.column(label_column)
        )
        current_features = features.copy()
        current_labels = labels.copy()
        cleaned_count = 0
        position = {int(r): k for k, r in enumerate(train_rows)}

        def certain_fraction() -> float:
            """Fraction of validation points whose KNN vote is unanimous
            regardless of the dirty rows (worst-case flip analysis)."""
            model = KNNClassifier(n_neighbors=self.n_neighbors)
            model.fit(current_features[train_rows], current_labels[train_rows])
            neighbor_sets = model._neighbor_indices(features[valid_rows])
            dirty_positions = {position[r] for r in dirty_train}
            certain = 0
            for neighbors in neighbor_sets:
                votes = current_labels[train_rows[neighbors]]
                n_dirty = sum(1 for n in neighbors if int(n) in dirty_positions)
                majority = np.bincount(votes, minlength=2)
                margin = abs(int(majority[0]) - int(majority[1]))
                # Each dirty neighbour could flip its vote in some world.
                if margin > 2 * n_dirty:
                    certain += 1
            return certain / max(len(valid_rows), 1)

        history = [certain_fraction()]
        while dirty_train and cleaned_count < self.max_cleaned:
            if history[-1] >= 1.0:
                break
            # Greedy: clean the dirty row most often appearing as a neighbor.
            model = KNNClassifier(n_neighbors=self.n_neighbors)
            model.fit(current_features[train_rows], current_labels[train_rows])
            neighbor_sets = model._neighbor_indices(features[valid_rows])
            counts: Dict[int, int] = {}
            dirty_positions = {position[r]: r for r in dirty_train}
            for neighbors in neighbor_sets:
                for n in neighbors:
                    if int(n) in dirty_positions:
                        row = dirty_positions[int(n)]
                        counts[row] = counts.get(row, 0) + 1
            target = (
                max(counts, key=counts.get) if counts else dirty_train[0]
            )
            current_features[target] = clean_encoded[target]
            current_labels[target] = clean_labels[target]
            dirty_train.remove(target)
            cleaned_count += 1
            history.append(certain_fraction())
        final = KNNClassifier(n_neighbors=self.n_neighbors)
        final.fit(current_features[train_rows], current_labels[train_rows])
        fitted = FittedTabularModel(final, encoder, label_encoder, label_column)
        return fitted, {
            "records_cleaned": cleaned_count,
            "certainty_history": history,
        }
