"""ML-supported detectors: Metadata-driven, RAHA, ED2, and Picket.

All four formulate detection as per-cell classification; they differ in
feature generation and label acquisition (Section 3.1):

- Metadata-driven: base-detector outputs + profile metadata as features,
  one random labeled sample, a random-forest cell classifier.
- RAHA: strategy-output features, per-column clustering, one oracle label
  per cluster propagated to the whole cluster (label-budget efficiency).
- ED2: strategy+metadata features, active learning -- iteratively label
  the cells the classifier is most uncertain about.
- Picket: self-supervision -- each column is reconstructed from the other
  columns and poorly reconstructed cells are flagged; needs no labels.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set

import numpy as np

from repro.context import CleaningContext
from repro.dataset.encoding import TableEncoder
from repro.dataset.table import Cell, Table
from repro.detectors.base import ML_SUPPORTED, Detector, nested_cells
from repro.detectors.ensembles import default_base_detectors
from repro.detectors.features import N_STRATEGY_FEATURES, combined_features
from repro.errors import profile
from repro.ml.forest import RandomForestClassifier
from repro.ml.linear import RidgeRegressor
from repro.ml.naive_bayes import GaussianNB


def _train_and_classify(
    features: np.ndarray,
    labeled_idx: Sequence[int],
    labels: Dict[int, bool],
    seed: int,
) -> np.ndarray:
    """Fit a cell classifier on labeled indices; return per-row dirty flags.

    Falls back to majority vote when only one class is labeled.
    """
    y = np.array([labels[i] for i in labeled_idx], dtype=int)
    if len(np.unique(y)) < 2:
        return np.full(len(features), bool(y[0]) if len(y) else False)
    model = RandomForestClassifier(n_estimators=15, max_depth=8, seed=seed)
    model.fit(features[list(labeled_idx)], y)
    return model.predict(features).astype(bool)


class MetadataDrivenDetector(Detector):
    """Metadata-driven error detection (Table 1 row 'T').

    Features: one binary column per base non-learning detector ("did tool
    X flag this cell?") plus profile metadata.  A labeled random sample of
    cells trains a random forest that classifies every cell.
    """

    name = "Meta"
    category = ML_SUPPORTED
    tackles = frozenset({"holistic"})

    def __init__(
        self,
        label_budget: int = 200,
        base_detectors: Optional[Sequence[Detector]] = None,
    ) -> None:
        if label_budget < 2:
            raise ValueError("label_budget must be >= 2")
        self.label_budget = label_budget
        self.base_detectors = (
            list(base_detectors)
            if base_detectors is not None
            else default_base_detectors()
        )

    def _detect(self, context: CleaningContext) -> Set[Cell]:
        if not context.has_ground_truth:
            return set()
        table = context.dirty
        rng = context.rng(31)
        detector_cells = [
            nested_cells(detector, context) for detector in self.base_detectors
        ]
        # Cells are enumerated column-major: position p is row
        # p % n_rows of column p // n_rows.
        columns = table.column_names
        n_rows = table.n_rows
        n_cells = n_rows * len(columns)
        offset = {column: j * n_rows for j, column in enumerate(columns)}

        def cell_at(pos: int) -> Cell:
            column, row = divmod(int(pos), n_rows)
            return (row, columns[column])

        tool_features = np.zeros((n_cells, len(detector_cells)))
        for j, cells in enumerate(detector_cells):
            hits = [
                offset[column] + row
                for row, column in cells
                if column in offset and 0 <= row < n_rows
            ]
            tool_features[np.asarray(hits, dtype=np.int64), j] = 1.0
        all_features = combined_features(table)
        meta_matrix = np.concatenate(
            [all_features[c][:, N_STRATEGY_FEATURES:] for c in columns]
        )
        features = np.hstack([tool_features, meta_matrix])
        budget = min(self.label_budget, n_cells)
        sample = rng.choice(n_cells, size=budget, replace=False)
        labels = {
            int(pos): context.oracle_is_dirty(cell_at(pos)) for pos in sample
        }
        flags = _train_and_classify(
            features, list(labels), labels, context.seed
        )
        return {cell_at(pos) for pos in np.flatnonzero(flags)}


class RahaDetector(Detector):
    """RAHA: configuration-free detection with cluster-based labeling
    (Table 1 row 'R').

    Per column: strategy features -> agglomerate cells with identical
    feature vectors, refine to at most ``n_clusters`` groups by feature
    distance, label one representative per cluster via the oracle, and
    propagate.
    """

    name = "RAHA"
    category = ML_SUPPORTED
    tackles = frozenset({"holistic"})

    def __init__(self, labels_per_column: int = 12) -> None:
        if labels_per_column < 2:
            raise ValueError("labels_per_column must be >= 2")
        self.labels_per_column = labels_per_column

    def _cluster_cells(
        self, features: np.ndarray, n_clusters: int
    ) -> List[List[int]]:
        """Group rows by feature vector, then merge nearest groups."""
        n = len(features)
        if n == 0:
            return []
        flat = np.ascontiguousarray(features).reshape(n, -1)
        if flat.shape[1] == 0:
            groups: List[List[int]] = [list(range(n))]
        else:
            # Byte-exact signature grouping (matches row.tobytes() keys):
            # unique void rows, renumbered by first appearance so group
            # order and within-group row order match the scalar dict build.
            signatures = flat.view(
                np.dtype((np.void, flat.dtype.itemsize * flat.shape[1]))
            ).ravel()
            _, first_seen, inverse = np.unique(
                signatures, return_index=True, return_inverse=True
            )
            appearance = np.argsort(first_seen, kind="stable")
            rank = np.empty(len(appearance), dtype=np.int64)
            rank[appearance] = np.arange(len(appearance))
            codes = rank[inverse]
            order = np.argsort(codes, kind="stable")
            boundaries = np.flatnonzero(np.diff(codes[order])) + 1
            groups = [chunk.tolist() for chunk in np.split(order, boundaries)]
        if len(groups) <= n_clusters:
            return groups
        centroids = np.array(
            [features[group].mean(axis=0) for group in groups]
        )
        # Iteratively merge the closest centroid pair (average linkage on
        # group centroids -- cheap because identical-signature grouping has
        # already collapsed most cells).
        while len(groups) > n_clusters:
            distances = np.linalg.norm(
                centroids[:, None, :] - centroids[None, :, :], axis=2
            )
            np.fill_diagonal(distances, np.inf)
            a, b = np.unravel_index(np.argmin(distances), distances.shape)
            a, b = int(min(a, b)), int(max(a, b))
            merged = groups[a] + groups[b]
            centroids[a] = features[merged].mean(axis=0)
            groups[a] = merged
            groups.pop(b)
            centroids = np.delete(centroids, b, axis=0)
        return groups

    def _detect(self, context: CleaningContext) -> Set[Cell]:
        if not context.has_ground_truth:
            return set()
        table = context.dirty
        rng = context.rng(37)
        all_features = combined_features(table)
        cells: Set[Cell] = set()
        for column in table.column_names:
            features = all_features[column][:, :N_STRATEGY_FEATURES]
            clusters = self._cluster_cells(features, self.labels_per_column)
            for cluster in clusters:
                representative = cluster[int(rng.integers(len(cluster)))]
                if context.oracle_is_dirty((representative, column)):
                    cells.update((i, column) for i in cluster)
        return cells


class ED2Detector(Detector):
    """ED2: active-learning error detection (Table 1 row 'E').

    Per column: start from a small random labeled batch, train a cell
    classifier, then repeatedly label the cells with the most uncertain
    predictions until the column's budget is spent.
    """

    name = "ED2"
    category = ML_SUPPORTED
    tackles = frozenset({"holistic"})

    def __init__(
        self, labels_per_column: int = 20, batch_size: int = 5
    ) -> None:
        if labels_per_column < 4:
            raise ValueError("labels_per_column must be >= 4")
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.labels_per_column = labels_per_column
        self.batch_size = batch_size

    def _detect(self, context: CleaningContext) -> Set[Cell]:
        if not context.has_ground_truth:
            return set()
        table = context.dirty
        rng = context.rng(41)
        all_features = combined_features(table)
        cells: Set[Cell] = set()
        for column in table.column_names:
            features = all_features[column]
            n_rows = len(features)
            budget = min(self.labels_per_column, n_rows)
            initial = min(max(4, budget // 3), budget)
            labeled: Dict[int, bool] = {}
            for i in rng.choice(n_rows, size=initial, replace=False):
                labeled[int(i)] = context.oracle_is_dirty((int(i), column))
            while len(labeled) < budget:
                y = np.array([labeled[i] for i in labeled], dtype=int)
                idx = list(labeled)
                if len(np.unique(y)) < 2:
                    # No decision boundary yet; sample randomly.
                    pool = [i for i in range(n_rows) if i not in labeled]
                    if not pool:
                        break
                    picks = rng.choice(
                        len(pool),
                        size=min(self.batch_size, len(pool)),
                        replace=False,
                    )
                    for p in picks:
                        row = pool[int(p)]
                        labeled[row] = context.oracle_is_dirty((row, column))
                    continue
                model = RandomForestClassifier(
                    n_estimators=10, max_depth=8, seed=context.seed
                )
                model.fit(features[idx], y)
                probabilities = model.predict_proba(features)[:, 1]
                uncertainty = -np.abs(probabilities - 0.5)
                order = np.argsort(uncertainty)[::-1]
                added = 0
                for i in order:
                    if int(i) in labeled:
                        continue
                    labeled[int(i)] = context.oracle_is_dirty((int(i), column))
                    added += 1
                    if added >= self.batch_size or len(labeled) >= budget:
                        break
                if added == 0:
                    break
            flags = _train_and_classify(
                features, list(labeled), labeled, context.seed
            )
            cells.update((int(i), column) for i in np.flatnonzero(flags))
        return cells


class PicketDetector(Detector):
    """Picket: self-supervised detection, no user labels (Table 1 row 'P').

    Each column is reconstructed from the remaining columns; cells whose
    observed value is poorly explained by the reconstruction model (low
    predicted probability for categorical values, large standardized
    residual for numeric values) are flagged.  Missing and non-numeric
    payloads in numeric columns are flagged directly, as the reconstruction
    loss is undefined there.
    """

    name = "Picket"
    category = ML_SUPPORTED
    tackles = frozenset({"holistic"})

    def __init__(
        self,
        numeric_residual_sigmas: float = 3.0,
        categorical_probability: float = 0.05,
        max_rows: int = 5000,
    ) -> None:
        if numeric_residual_sigmas <= 0:
            raise ValueError("numeric_residual_sigmas must be positive")
        if not 0.0 < categorical_probability < 1.0:
            raise ValueError("categorical_probability must be in (0, 1)")
        self.numeric_residual_sigmas = numeric_residual_sigmas
        self.categorical_probability = categorical_probability
        self.max_rows = max_rows

    def _detect(self, context: CleaningContext) -> Set[Cell]:
        table = context.dirty
        if table.n_rows > self.max_rows:
            # The original Picket runs out of memory on large datasets
            # (Section 6.5); we reproduce the capability boundary explicitly.
            raise MemoryError(
                f"Picket does not scale beyond {self.max_rows} rows "
                f"(got {table.n_rows})"
            )
        # Missing cells have undefined reconstruction loss: flagged directly.
        cells: Set[Cell] = set(table.missing_cells())
        for column in table.column_names:
            encoder = TableEncoder(max_categories=15)
            features = encoder.fit_transform(table, exclude=[column])
            if features.shape[1] == 0:
                continue
            if table.schema.kind_of(column) == "numerical":
                cells |= self._numeric_column(table, column, features)
            else:
                cells |= self._categorical_column(table, column, features)
        return cells

    def _numeric_column(
        self, table: Table, column: str, features: np.ndarray
    ) -> Set[Cell]:
        values = table.as_float(column)
        corrupted = ~table.missing_mask(column) & np.isnan(values)
        usable = ~np.isnan(values)
        cells: Set[Cell] = {
            (int(i), column) for i in np.flatnonzero(corrupted)
        }
        if usable.sum() < 10:
            return cells
        model = RidgeRegressor(alpha=1.0)
        model.fit(features[usable], values[usable])
        residuals = np.abs(model.predict(features[usable]) - values[usable])
        scale = residuals.std() or 1.0
        flagged = residuals > self.numeric_residual_sigmas * scale
        usable_idx = np.flatnonzero(usable)
        cells.update(
            (int(usable_idx[i]), column) for i in np.flatnonzero(flagged)
        )
        return cells

    def _categorical_column(
        self, table: Table, column: str, features: np.ndarray
    ) -> Set[Cell]:
        keys = table.text_keys(column)
        usable = np.array([k is not None for k in keys])
        if usable.sum() < 10:
            return set()
        classes = sorted({k for k in keys if k is not None})
        if len(classes) < 2 or len(classes) > 50:
            return set()
        index = {c: j for j, c in enumerate(classes)}
        labels = np.array([index[k] if k is not None else -1 for k in keys])
        model = GaussianNB()
        model.fit(features[usable], labels[usable])
        probabilities = model.predict_proba(features[usable])
        usable_idx = np.flatnonzero(usable)
        cells: Set[Cell] = set()
        for local, row in enumerate(usable_idx):
            observed = labels[row]
            position = int(np.flatnonzero(model.classes_ == observed)[0])
            if probabilities[local, position] < self.categorical_probability:
                cells.add((int(row), column))
        return cells
