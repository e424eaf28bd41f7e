"""Tree ensembles: random forest (classifier/regressor) and isolation forest.

The isolation forest lives here rather than in :mod:`repro.detectors` because
it is a generic model; the IF outlier *detector* of Table 1 wraps it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Union

import numpy as np

from repro.ml.base import BaseEstimator, ClassifierMixin, RegressorMixin, check_arrays
from repro.ml.tree import DecisionTreeClassifier, DecisionTreeRegressor


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
@dataclass
class _IsoNode:
    feature: int = -1
    threshold: float = 0.0
    size: int = 0
    left: Optional["_IsoNode"] = None
    right: Optional["_IsoNode"] = None

    @property
    def is_leaf(self) -> bool:
        return self.left is None


def _average_path_length(n: float) -> float:
    """Expected unsuccessful-search path length in a BST of n nodes (c(n))."""
    if n <= 1:
        return 0.0
    if n == 2:
        return 1.0
    harmonic = np.log(n - 1) + np.euler_gamma
    return 2.0 * harmonic - 2.0 * (n - 1) / n


def _build_iso_tree(
    features: np.ndarray, depth: int, max_depth: int, rng: np.random.Generator
) -> _IsoNode:
    n_samples = len(features)
    if depth >= max_depth or n_samples <= 1:
        return _IsoNode(size=n_samples)
    # Pick a random feature with spread; give up after a few tries.
    for _ in range(5):
        feature = int(rng.integers(0, features.shape[1]))
        lo, hi = features[:, feature].min(), features[:, feature].max()
        if hi > lo:
            break
    else:
        return _IsoNode(size=n_samples)
    threshold = float(rng.uniform(lo, hi))
    goes_left = features[:, feature] <= threshold
    node = _IsoNode(feature=feature, threshold=threshold, size=n_samples)
    node.left = _build_iso_tree(features[goes_left], depth + 1, max_depth, rng)
    node.right = _build_iso_tree(features[~goes_left], depth + 1, max_depth, rng)
    return node


def _flatten_iso_tree(root: _IsoNode):
    """Linearize an isolation tree for batched routing.

    Returns (feature, threshold, left, right, path_value) arrays where
    ``path_value[i]`` for a leaf is its depth plus ``c(size)`` -- the
    full per-row contribution -- so scoring a batch is just routing every
    row to its leaf and gathering.
    """
    feature: List[int] = []
    threshold: List[float] = []
    left: List[int] = []
    right: List[int] = []
    path_value: List[float] = []
    stack = [(root, 0)]
    order: List[_IsoNode] = []
    depths: List[int] = []
    indices = {id(root): 0}
    while stack:
        node, depth = stack.pop()
        order.append(node)
        depths.append(depth)
        if not node.is_leaf:
            for child in (node.right, node.left):
                indices[id(child)] = len(indices)
                stack.append((child, depth + 1))
    ranked = sorted(range(len(order)), key=lambda i: indices[id(order[i])])
    for i in ranked:
        node, depth = order[i], depths[i]
        if node.is_leaf:
            feature.append(-1)
            threshold.append(0.0)
            left.append(-1)
            right.append(-1)
            path_value.append(depth + _average_path_length(node.size))
        else:
            feature.append(node.feature)
            threshold.append(node.threshold)
            left.append(indices[id(node.left)])
            right.append(indices[id(node.right)])
            path_value.append(0.0)
    return (
        np.asarray(feature, dtype=np.int64),
        np.asarray(threshold, dtype=np.float64),
        np.asarray(left, dtype=np.int64),
        np.asarray(right, dtype=np.int64),
        np.asarray(path_value, dtype=np.float64),
    )


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
        self.trees_: Optional[List[_IsoNode]] = None
        self._flat_trees_: Optional[list] = None
        self.subsample_size_: int = 0
        self.threshold_: float = 0.5

    def fit(self, features: np.ndarray) -> "IsolationForest":
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
            self.trees_.append(_build_iso_tree(features[idx], 0, max_depth, rng))
        self._flat_trees_ = [_flatten_iso_tree(tree) for tree in self.trees_]
        scores = self.score_samples(features)
        self.threshold_ = float(
            np.quantile(scores, 1.0 - self.contamination)
        )
        return self

    def _score_rows(self, features: np.ndarray, c_norm: float) -> np.ndarray:
        n = len(features)
        total_path = np.zeros(n)
        for feature, threshold, left, right, path_value in self._flat_trees_:
            at = np.zeros(n, dtype=np.int64)
            active = np.flatnonzero(feature[at] >= 0)
            while active.size:
                nodes = at[active]
                goes_left = features[active, feature[nodes]] <= threshold[nodes]
                at[active] = np.where(goes_left, left[nodes], right[nodes])
                active = active[feature[at[active]] >= 0]
            total_path += path_value[at]
        mean_path = total_path / max(len(self._flat_trees_), 1)
        return 2.0 ** (-mean_path / c_norm)

    def score_samples(
        self, features: np.ndarray, block_rows: Optional[int] = None
    ) -> np.ndarray:
        """Anomaly scores in (0, 1); higher means more anomalous."""
        self._require_fitted("trees_")
        features, _ = check_arrays(features)
        c_norm = _average_path_length(float(self.subsample_size_)) or 1.0
        if self._flat_trees_ is None:  # unpickled from an older snapshot
            self._flat_trees_ = [_flatten_iso_tree(tree) for tree in self.trees_]
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
