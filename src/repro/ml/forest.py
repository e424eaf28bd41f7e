"""Tree ensembles: random forest (classifier/regressor) and isolation forest.

The isolation forest lives here rather than in :mod:`repro.detectors` because
it is a generic model; the IF outlier *detector* of Table 1 wraps it.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple, Union

import numpy as np

from repro.ml.base import BaseEstimator, ClassifierMixin, RegressorMixin, check_arrays
from repro.ml.tree import DecisionTreeClassifier, DecisionTreeRegressor, _leaf_indices


class RandomForestClassifier(BaseEstimator, ClassifierMixin):
    """Bagged CART trees with sqrt-feature subsampling and soft voting."""

    def __init__(
        self,
        n_estimators: int = 30,
        max_depth: Optional[int] = None,
        min_samples_leaf: int = 1,
        max_features: Union[str, int, None] = "sqrt",
        seed: int = 0,
    ) -> None:
        if n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.seed = seed
        self.trees_: Optional[List[DecisionTreeClassifier]] = None

    def fit(self, features: np.ndarray, targets: np.ndarray) -> "RandomForestClassifier":
        features, targets = check_arrays(features, targets)
        encoded = self._encode_labels(targets)
        rng = np.random.default_rng(self.seed)
        n_samples = len(features)
        self.trees_ = []
        for t in range(self.n_estimators):
            idx = rng.integers(0, n_samples, size=n_samples)
            tree = DecisionTreeClassifier(
                max_depth=self.max_depth,
                min_samples_leaf=self.min_samples_leaf,
                max_features=self.max_features,
                seed=self.seed * 1000 + t,
            )
            tree.fit(features[idx], encoded[idx])
            self.trees_.append(tree)
        return self

    def _predict_proba_rows(self, features: np.ndarray) -> np.ndarray:
        n_classes = len(self.classes_)
        votes = np.zeros((len(features), n_classes))
        for tree in self.trees_:
            proba = tree.predict_proba(features)
            # Per-tree class indexing follows the encoded labels it saw;
            # trees were trained on indices into self.classes_, so tree
            # classes_ are a subset of range(n_classes).
            for j, cls in enumerate(tree.classes_):
                votes[:, int(cls)] += proba[:, j]
        totals = votes.sum(axis=1, keepdims=True)
        totals[totals == 0] = 1.0
        return votes / totals

    def predict_proba(
        self, features: np.ndarray, block_rows: Optional[int] = None
    ) -> np.ndarray:
        self._require_fitted("trees_")
        features, _ = check_arrays(features)
        if block_rows is None:
            return self._predict_proba_rows(features)
        if block_rows < 1:
            raise ValueError(f"block_rows must be >= 1, got {block_rows}")
        n = len(features)
        out = np.empty((n, len(self.classes_)), dtype=np.float64)
        # Each row's votes are independent, so blocking bounds the
        # transient per-tree probability matrices at one block of rows
        # while leaving the output byte-identical.
        for start in range(0, n, block_rows):
            stop = min(start + block_rows, n)
            out[start:stop] = self._predict_proba_rows(features[start:stop])
        return out

    def predict(
        self, features: np.ndarray, block_rows: Optional[int] = None
    ) -> np.ndarray:
        return self._decode_labels(
            np.argmax(self.predict_proba(features, block_rows), axis=1)
        )


class RandomForestRegressor(BaseEstimator, RegressorMixin):
    """Bagged CART regression trees (mean aggregation)."""

    def __init__(
        self,
        n_estimators: int = 30,
        max_depth: Optional[int] = None,
        min_samples_leaf: int = 1,
        max_features: Union[str, int, None] = "sqrt",
        seed: int = 0,
    ) -> None:
        if n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.seed = seed
        self.trees_: Optional[List[DecisionTreeRegressor]] = None

    def fit(self, features: np.ndarray, targets: np.ndarray) -> "RandomForestRegressor":
        features, targets = check_arrays(features, targets)
        targets = targets.astype(np.float64)
        rng = np.random.default_rng(self.seed)
        n_samples = len(features)
        self.trees_ = []
        for t in range(self.n_estimators):
            idx = rng.integers(0, n_samples, size=n_samples)
            tree = DecisionTreeRegressor(
                max_depth=self.max_depth,
                min_samples_leaf=self.min_samples_leaf,
                max_features=self.max_features,
                seed=self.seed * 1000 + t,
            )
            tree.fit(features[idx], targets[idx])
            self.trees_.append(tree)
        return self

    def _predict_mean_rows(self, features: np.ndarray) -> np.ndarray:
        # Sequential accumulation in tree order: each output element sees
        # the same addition order whatever the row-batch width, unlike
        # ``vstack(...).mean(axis=0)`` whose reduction order varies with
        # the inner axis length -- which would break blocked/unblocked
        # byte-identity at the last ulp.
        total = np.zeros(len(features), dtype=np.float64)
        for tree in self.trees_:
            total += tree.predict(features)
        return total / len(self.trees_)

    def predict(
        self, features: np.ndarray, block_rows: Optional[int] = None
    ) -> np.ndarray:
        self._require_fitted("trees_")
        features, _ = check_arrays(features)
        if block_rows is None:
            return self._predict_mean_rows(features)
        if block_rows < 1:
            raise ValueError(f"block_rows must be >= 1, got {block_rows}")
        n = len(features)
        out = np.empty(n, dtype=np.float64)
        for start in range(0, n, block_rows):
            stop = min(start + block_rows, n)
            out[start:stop] = self._predict_mean_rows(features[start:stop])
        return out


# ----------------------------------------------------------------------
# Isolation forest
# ----------------------------------------------------------------------
def _average_path_length(n: float) -> float:
    """Expected unsuccessful-search path length in a BST of n nodes (c(n))."""
    if n <= 1:
        return 0.0
    if n == 2:
        return 1.0
    harmonic = np.log(n - 1) + np.euler_gamma
    return 2.0 * harmonic - 2.0 * (n - 1) / n


#: Flat isolation tree: (feature, threshold, left, right, path_value)
#: arrays in pre-order.  ``feature[i] == -1`` marks a leaf, whose
#: ``path_value`` is its depth plus ``c(size)`` -- the full per-row
#: contribution -- so scoring a batch is just routing every row to its
#: leaf and gathering.
IsoTree = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def _grow_iso_tree(
    features: np.ndarray, max_depth: int, rng: np.random.Generator
) -> IsoTree:
    """Grow one isolation tree straight into flat pre-order arrays.

    Draws from ``rng`` in pre-order (a node's feature tries and
    threshold, then its left subtree, then its right), the order of the
    recursive builder the scores were defined with.
    """
    node_feature: List[int] = []
    node_threshold: List[float] = []
    node_left: List[int] = []
    node_right: List[int] = []
    path_value: List[float] = []

    # Depth-first, left child first: each entry is (the node's rows of
    # features, its depth, the parent whose right child it is, or -1).
    stack = [(features, 0, -1)]
    while stack:
        subset, depth, right_of = stack.pop()
        index = len(node_feature)
        if right_of >= 0:
            node_right[right_of] = index
        n_samples = len(subset)
        feature = -1
        if depth < max_depth and n_samples > 1:
            # Pick a random feature with spread; give up after a few tries.
            for _ in range(5):
                drawn = int(rng.integers(0, subset.shape[1]))
                lo, hi = subset[:, drawn].min(), subset[:, drawn].max()
                if hi > lo:
                    feature = drawn
                    break
        node_right.append(-1)
        if feature < 0:
            node_feature.append(-1)
            node_threshold.append(0.0)
            node_left.append(-1)
            path_value.append(depth + _average_path_length(n_samples))
            continue
        lo, hi = float(lo), float(hi)
        if math.isfinite(hi - lo):
            threshold = float(rng.uniform(lo, hi))
        else:
            # ``uniform`` rejects a span past the float range; draw the
            # same one double and split without forming the span.
            share = rng.random()
            threshold = lo * (1.0 - share) + hi * share
        goes_left = subset[:, feature] <= threshold
        node_feature.append(feature)
        node_threshold.append(threshold)
        node_left.append(index + 1)
        path_value.append(0.0)
        stack.append((subset[~goes_left], depth + 1, index))
        stack.append((subset[goes_left], depth + 1, -1))
    return (
        np.array(node_feature, dtype=np.int64),
        np.array(node_threshold, dtype=np.float64),
        np.array(node_left, dtype=np.int64),
        np.array(node_right, dtype=np.int64),
        np.array(path_value, dtype=np.float64),
    )


#: A one-feature isolation tree in order: ``(thresholds, leaf_values)``.
SearchTree = Tuple[np.ndarray, np.ndarray]


def _search_arrays(tree: IsoTree) -> Optional[SearchTree]:
    """A one-feature tree as ``(thresholds, leaf_values)`` in order.

    In a pre-order tree the last node before an internal node's right
    child is the last leaf of its left subtree, so ranking the leaves in
    pre-order (which is their in-order) places each internal threshold
    between its two neighbouring leaves.  When those thresholds are
    non-decreasing, a row's leaf is the number of thresholds below its
    value -- ``x <= t`` goes left, NaN goes right at every node, to the
    last leaf -- so scoring is one ``searchsorted``.  A drawn threshold
    can fall outside its node's range (a rounded uniform draw, the
    overflow branch, an infinite span) and break the order: that tree
    returns None and keeps routing.
    """
    feature, threshold, _, right, path_value = tree
    leaf = feature < 0
    internal = np.flatnonzero(~leaf)
    rank = np.cumsum(leaf) - 1
    thresholds = np.empty(len(internal), dtype=np.float64)
    thresholds[rank[right[internal] - 1]] = threshold[internal]
    if np.any(thresholds[1:] < thresholds[:-1]) or np.isnan(thresholds).any():
        return None
    return thresholds, path_value[leaf]


class IsolationForest(BaseEstimator):
    """Isolation forest anomaly detector (Liu & Zhou).

    Outliers isolate in fewer random splits, hence shorter average path
    lengths; anomaly scores follow the paper's ``2^(-E[h]/c(psi))`` formula.
    """

    def __init__(
        self,
        n_estimators: int = 100,
        max_samples: int = 256,
        contamination: float = 0.1,
        seed: int = 0,
    ) -> None:
        if not 0.0 < contamination < 0.5:
            raise ValueError("contamination must be in (0, 0.5)")
        self.n_estimators = n_estimators
        self.max_samples = max_samples
        self.contamination = contamination
        self.seed = seed
        self.trees_: Optional[List[IsoTree]] = None
        self.search_trees_: Optional[List[Optional[SearchTree]]] = None
        self.subsample_size_: int = 0
        self.threshold_: float = 0.5

    def fit(self, features: np.ndarray) -> "IsolationForest":
        self._fit_scores(features)
        return self

    def fit_predict(
        self, features: np.ndarray, block_rows: Optional[int] = None
    ) -> np.ndarray:
        """``fit(features).predict(features, block_rows)``, bit for bit,
        scoring the training matrix once: the scores that set
        ``threshold_`` are the ones ``predict`` would compute."""
        scores = self._fit_scores(features, block_rows)
        return np.where(scores > self.threshold_, -1, 1)

    def _fit_scores(
        self, features: np.ndarray, block_rows: Optional[int] = None
    ) -> np.ndarray:
        """Grow the trees, set ``threshold_``; return the training scores."""
        features, _ = check_arrays(features)
        if features.shape[1] == 0:
            raise ValueError("isolation forest needs at least one feature")
        rng = np.random.default_rng(self.seed)
        n_samples = len(features)
        psi = min(self.max_samples, n_samples)
        max_depth = int(np.ceil(np.log2(max(psi, 2))))
        self.subsample_size_ = psi
        self.trees_ = []
        for _ in range(self.n_estimators):
            idx = rng.choice(n_samples, size=psi, replace=False)
            self.trees_.append(_grow_iso_tree(features[idx], max_depth, rng))
        self.search_trees_ = (
            [_search_arrays(tree) for tree in self.trees_]
            if features.shape[1] == 1 else None
        )
        scores = self.score_samples(features, block_rows=block_rows)
        self.threshold_ = float(
            np.quantile(scores, 1.0 - self.contamination)
        )
        return scores

    def _score_rows(self, features: np.ndarray, c_norm: float) -> np.ndarray:
        n = len(features)
        total_path = np.zeros(n)
        searches = self.search_trees_
        if searches is None or features.shape[1] != 1:
            searches = [None] * len(self.trees_)
        for (*routing, path_value), search in zip(self.trees_, searches):
            if search is None:
                total_path += path_value[_leaf_indices(*routing, features)]
            else:
                thresholds, leaf_values = search
                total_path += leaf_values[
                    np.searchsorted(thresholds, features[:, 0], side="left")
                ]
        mean_path = total_path / max(len(self.trees_), 1)
        return 2.0 ** (-mean_path / c_norm)

    def score_samples(
        self, features: np.ndarray, block_rows: Optional[int] = None
    ) -> np.ndarray:
        """Anomaly scores in (0, 1); higher means more anomalous."""
        self._require_fitted("trees_")
        features, _ = check_arrays(features)
        c_norm = _average_path_length(float(self.subsample_size_)) or 1.0
        if block_rows is None:
            return self._score_rows(features, c_norm)
        if block_rows < 1:
            raise ValueError(f"block_rows must be >= 1, got {block_rows}")
        n = len(features)
        out = np.empty(n, dtype=np.float64)
        # Rows isolate independently, so scoring block-by-block bounds
        # the routing state per slice and stays byte-identical.
        for start in range(0, n, block_rows):
            stop = min(start + block_rows, n)
            out[start:stop] = self._score_rows(features[start:stop], c_norm)
        return out

    def predict(
        self, features: np.ndarray, block_rows: Optional[int] = None
    ) -> np.ndarray:
        """Return +1 for inliers, -1 for outliers (sklearn convention)."""
        scores = self.score_samples(features, block_rows=block_rows)
        return np.where(scores > self.threshold_, -1, 1)
