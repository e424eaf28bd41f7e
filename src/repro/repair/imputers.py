"""ML-driven imputation repairs: missForest, DataWig, and combinations
(Table 1 rows 6-12).

All of them share the missForest loop: blank the detected cells, fill them
with a cheap initial guess, then repeatedly re-train a per-column predictor
on the observed cells (features = every other column, encoded) and overwrite
the holes with its predictions, sweeping columns from fewest to most holes.
What varies is the predictor family and whether numeric and categorical
columns see each other's features:

- missForest: random forests, *mixed* mode (all columns as features) or
  *separate* mode (numeric columns predicted from numeric features only,
  categorical from categorical);
- DataWig: MLP predictors (the deep-learning imputer analogue), mixed mode;
- DT-/Bayes-/KNN-MISS: the named regressor for numeric columns combined
  with missForest for categorical columns.
"""

from __future__ import annotations

from collections import Counter
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Set

import numpy as np

from repro.context import CleaningContext
from repro.dataset.encoding import TableEncoder
from repro.dataset.table import Cell, Table
from repro.ml.base import fit_predict
from repro.ml.forest import RandomForestClassifier, RandomForestRegressor
from repro.ml.linear import BayesianRidgeRegressor
from repro.ml.mlp import MLPClassifier, MLPRegressor
from repro.ml.neighbors import KNNClassifier, KNNRegressor
from repro.ml.tree import DecisionTreeRegressor
from repro.repair.base import GENERIC, RepairMethod, blank_detected_cells

MIXED = "mixed"
SEPARATE = "separate"


def _initial_fill(table: Table) -> Table:
    """Mean/mode-fill every missing cell as the iteration starting point."""
    filled = table.copy()
    for column in table.column_names:
        holes = np.flatnonzero(table.missing_mask(column)).tolist()
        if not holes:
            continue
        if table.schema.kind_of(column) == "numerical":
            values = table.as_float(column)
            finite = values[~np.isnan(values)]
            fill = float(finite.mean()) if len(finite) else 0.0
        else:
            keys = table.text_keys(column)
            counts = Counter(k for k in keys if k is not None)
            fill = counts.most_common(1)[0][0] if counts else "unknown"
        for row in holes:
            filled.set_cell(row, column, fill)
    return filled


class MLImputeRepair(RepairMethod):
    """Iterative model-based imputation (the missForest loop).

    Args:
        numeric_factory: builds the regressor used for numeric columns.
        categorical_factory: builds the classifier for categorical columns.
        mode: ``"mixed"`` (features from all columns) or ``"separate"``
            (features restricted to same-kind columns).
        n_iterations: sweeps of the column-wise re-impute loop.
    """

    name = "MLImpute"
    category = GENERIC

    def __init__(
        self,
        numeric_factory: Callable[[], object],
        categorical_factory: Callable[[], object],
        mode: str = MIXED,
        n_iterations: int = 2,
        max_categories: int = 20,
    ) -> None:
        if mode not in (MIXED, SEPARATE):
            raise ValueError("mode must be 'mixed' or 'separate'")
        if n_iterations < 1:
            raise ValueError("n_iterations must be >= 1")
        self.numeric_factory = numeric_factory
        self.categorical_factory = categorical_factory
        self.mode = mode
        self.n_iterations = n_iterations
        self.max_categories = max_categories

    def _feature_columns(self, table: Table, target: str) -> List[str]:
        others = [c for c in table.column_names if c != target]
        if self.mode == MIXED:
            return others
        kind = table.schema.kind_of(target)
        same_kind = [c for c in others if table.schema.kind_of(c) == kind]
        return same_kind if same_kind else others

    def _repair(self, context: CleaningContext, detections: Set[Cell]) -> Table:
        table = context.dirty
        blanked = blank_detected_cells(table, detections)
        holes_by_column: Dict[str, List[int]] = {}
        for column in table.column_names:
            holes = np.flatnonzero(blanked.missing_mask(column)).tolist()
            if holes:
                holes_by_column[column] = holes
        if not holes_by_column:
            return blanked
        current = _initial_fill(blanked)
        # missForest sweeps columns from fewest to most missing values.
        order = sorted(holes_by_column, key=lambda c: len(holes_by_column[c]))
        for _ in range(self.n_iterations):
            for column in order:
                holes = holes_by_column[column]
                hole_set = set(holes)
                observed = [
                    i for i in range(table.n_rows) if i not in hole_set
                ]
                if len(observed) < 5:
                    continue
                feature_cols = self._feature_columns(table, column)
                if not feature_cols:
                    continue
                encoder = TableEncoder(max_categories=self.max_categories)
                view = current.select_columns(feature_cols)
                features = encoder.fit_transform(view)
                if features.shape[1] == 0:
                    continue
                try:
                    predictions = self._predict_column(
                        table, current, column, features, observed, holes
                    )
                except (ValueError, np.linalg.LinAlgError, RuntimeError):
                    continue
                if predictions is None:
                    continue
                for row, value in zip(holes, predictions):
                    current.set_cell(row, column, value)
        return current

    def _predict_column(
        self,
        table: Table,
        current: Table,
        column: str,
        features: np.ndarray,
        observed: Sequence[int],
        holes: Sequence[int],
    ) -> Optional[List[object]]:
        observed = list(observed)
        holes = list(holes)
        if table.schema.kind_of(column) == "numerical":
            targets = current.as_float(column)
            usable = [i for i in observed if not np.isnan(targets[i])]
            if len(usable) < 5:
                return None
            predicted = fit_predict(
                self.numeric_factory(),
                features[usable],
                targets[usable],
                features[holes],
            )
            return [float(v) for v in predicted]
        values = current.text_keys(column)
        usable = [i for i in observed if values[i] is not None]
        classes = sorted({values[i] for i in usable})
        if len(usable) < 5 or len(classes) < 2:
            if len(classes) == 1:
                return [classes[0]] * len(holes)
            return None
        index = {c: j for j, c in enumerate(classes)}
        labels = np.array([index[values[i]] for i in usable])
        predicted = fit_predict(
            self.categorical_factory(), features[usable], labels, features[holes]
        )
        return [classes[int(p)] for p in predicted]


def _rf_regressor() -> RandomForestRegressor:
    return RandomForestRegressor(n_estimators=15, max_depth=10, seed=0)


def _rf_classifier() -> RandomForestClassifier:
    return RandomForestClassifier(n_estimators=15, max_depth=10, seed=0)


def _mlp_regressor() -> MLPRegressor:
    return MLPRegressor(hidden=(32,), epochs=40, seed=0)


def _mlp_classifier() -> MLPClassifier:
    return MLPClassifier(hidden=(32,), epochs=40, seed=0)


class MissForestMixRepair(MLImputeRepair):
    """missForest in mixed mode (Table 1 row 6, 'MISS-Mix')."""

    name = "MISS-Mix"

    def __init__(self) -> None:
        super().__init__(_rf_regressor, _rf_classifier, mode=MIXED)


class MissForestSepRepair(MLImputeRepair):
    """missForest in separate mode (row 8, 'MISS-Sep')."""

    name = "MISS-Sep"

    def __init__(self) -> None:
        super().__init__(_rf_regressor, _rf_classifier, mode=SEPARATE)


class DataWigMixRepair(MLImputeRepair):
    """DataWig analogue: MLP imputer in mixed mode (row 7)."""

    name = "DataWig-Mix"

    def __init__(self) -> None:
        super().__init__(_mlp_regressor, _mlp_classifier, mode=MIXED)


class MissDataWigRepair(MLImputeRepair):
    """missForest for numeric, DataWig for categorical (row 9)."""

    name = "MISS-DataWig"

    def __init__(self) -> None:
        super().__init__(_rf_regressor, _mlp_classifier, mode=MIXED)


class DTMissRepair(MLImputeRepair):
    """Decision tree for numeric, missForest for categorical (row 10)."""

    name = "DT-MISS"

    def __init__(self, max_depth: int = 10) -> None:
        super().__init__(
            partial(DecisionTreeRegressor, max_depth=max_depth),
            _rf_classifier,
            mode=MIXED,
        )


class BayesMissRepair(MLImputeRepair):
    """Bayesian ridge for numeric, missForest for categorical (row 11)."""

    name = "Bayes-MISS"

    def __init__(self) -> None:
        super().__init__(BayesianRidgeRegressor, _rf_classifier, mode=MIXED)


class KNNMissRepair(MLImputeRepair):
    """KNN for numeric, missForest for categorical (row 12)."""

    name = "KNN-MISS"

    def __init__(self, n_neighbors: int = 5) -> None:
        super().__init__(
            partial(KNNRegressor, n_neighbors=n_neighbors),
            _rf_classifier,
            mode=MIXED,
        )
