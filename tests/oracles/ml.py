"""Frozen pre-vectorization reference kernels (equivalence oracles).

This module preserves the *original* scalar implementations of the hot
ML kernels exactly as they were before the vectorization pass:

- a CART builder whose ``_best_split`` re-argsorts every candidate
  feature at every node;
- per-row recursive tree prediction;
- naive O(n*m*d) pairwise squared distances by full broadcasting;
- the recursive isolation-tree builder over ``_IsoNode`` objects and its
  ``id()``-keyed flatten, from before isolation trees were grown flat;
- isolation scoring that routes every tree node by node, from before
  one-feature trees were scored by search.

They exist for two reasons and must not be "improved":

1. the property suite proves the vectorized kernels in
   :mod:`repro.ml.tree`, :mod:`repro.ml.forest` and
   :mod:`repro.ml.neighbors` produce *exactly* the same trees and
   predictions (and distances to 1e-12) as these;
2. the kernel microbenchmarks (``benchmarks/test_kernel_speed.py``)
   measure speedups against them, so the committed ``BENCH_kernels.json``
   numbers stay comparable PR over PR.

``tools/check_hot_loops.py`` forbids these patterns under
``src/repro/ml/``, which this module no longer ships in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

import numpy as np

from repro.ml.base import BaseEstimator, ClassifierMixin, RegressorMixin, check_arrays
from repro.ml.forest import _average_path_length
from repro.ml.tree import FlatTree, _leaf_indices, _resolve_max_features


@dataclass
class _Node:
    """A tree node; leaves carry a prediction, internal nodes a split."""

    prediction: np.ndarray  # class distribution or [mean]
    feature: int = -1
    threshold: float = 0.0
    left: Optional["_Node"] = None
    right: Optional["_Node"] = None

    @property
    def is_leaf(self) -> bool:
        return self.left is None


def flatten_preorder(root: _Node) -> FlatTree:
    """Lay a node tree out as :data:`repro.ml.tree.FlatTree` arrays in
    pre-order (left subtree before right), the layout the flat builder
    writes, so two trees compare array by array."""
    feature: List[int] = []
    threshold: List[float] = []
    left: List[int] = []
    right: List[int] = []
    predictions: List[np.ndarray] = []

    def visit(node: _Node) -> None:
        index = len(feature)
        predictions.append(node.prediction)
        feature.append(-1 if node.is_leaf else node.feature)
        threshold.append(0.0 if node.is_leaf else node.threshold)
        left.append(-1)
        right.append(-1)
        if not node.is_leaf:
            left[index] = len(feature)
            visit(node.left)
            right[index] = len(feature)
            visit(node.right)

    visit(root)
    return (
        np.asarray(feature, dtype=np.int64),
        np.asarray(threshold, dtype=np.float64),
        np.asarray(left, dtype=np.int64),
        np.asarray(right, dtype=np.int64),
        np.vstack(predictions),
    )


class _ReferenceTreeBuilder:
    """The original recursive CART builder (per-node argsort)."""

    def __init__(
        self,
        task: str,
        max_depth: Optional[int],
        min_samples_split: int,
        min_samples_leaf: int,
        max_features: Union[str, int, None],
        rng: np.random.Generator,
        n_classes: int = 0,
    ) -> None:
        self.task = task
        self.max_depth = max_depth if max_depth is not None else 10**9
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.rng = rng
        self.n_classes = n_classes

    def _leaf_value(self, targets: np.ndarray) -> np.ndarray:
        if self.task == "classification":
            counts = np.bincount(targets.astype(int), minlength=self.n_classes)
            return counts / max(counts.sum(), 1)
        return np.array([targets.mean() if len(targets) else 0.0])

    def _node_impurity(self, targets: np.ndarray) -> float:
        if self.task == "classification":
            counts = np.bincount(targets.astype(int), minlength=self.n_classes)
            p = counts / max(counts.sum(), 1)
            return float(1.0 - np.sum(p * p))
        return float(targets.var()) if len(targets) else 0.0

    def _best_split(
        self, features: np.ndarray, targets: np.ndarray
    ) -> Optional[Tuple[int, float, float]]:
        """Return (feature, threshold, impurity_decrease) or None."""
        n_samples, n_features = features.shape
        k = _resolve_max_features(self.max_features, n_features)
        candidates = (
            np.arange(n_features)
            if k == n_features
            else self.rng.choice(n_features, size=k, replace=False)
        )
        parent_impurity = self._node_impurity(targets)
        best: Optional[Tuple[int, float, float]] = None
        min_leaf = self.min_samples_leaf
        for feature in candidates:
            order = np.argsort(features[:, feature], kind="stable")
            values = features[order, feature]
            sorted_targets = targets[order]
            boundaries = np.flatnonzero(values[1:] > values[:-1]) + 1
            if len(boundaries) == 0:
                continue
            valid = boundaries[
                (boundaries >= min_leaf) & (boundaries <= n_samples - min_leaf)
            ]
            if len(valid) == 0:
                continue
            if self.task == "classification":
                onehot = np.zeros((n_samples, self.n_classes))
                onehot[np.arange(n_samples), sorted_targets.astype(int)] = 1.0
                left_counts = np.cumsum(onehot, axis=0)
                total = left_counts[-1]
                left = left_counts[valid - 1]
                right = total - left
                n_left = valid.astype(np.float64)
                n_right = n_samples - n_left
                gini_left = 1.0 - np.sum((left / n_left[:, None]) ** 2, axis=1)
                gini_right = 1.0 - np.sum((right / n_right[:, None]) ** 2, axis=1)
                child = (n_left * gini_left + n_right * gini_right) / n_samples
            else:
                prefix = np.cumsum(sorted_targets, dtype=np.float64)
                prefix_sq = np.cumsum(sorted_targets**2, dtype=np.float64)
                n_left = valid.astype(np.float64)
                n_right = n_samples - n_left
                sum_left = prefix[valid - 1]
                sum_right = prefix[-1] - sum_left
                sq_left = prefix_sq[valid - 1]
                sq_right = prefix_sq[-1] - sq_left
                var_left = sq_left / n_left - (sum_left / n_left) ** 2
                var_right = sq_right / n_right - (sum_right / n_right) ** 2
                child = (n_left * var_left + n_right * var_right) / n_samples
            decrease = parent_impurity - child
            pos = int(np.argmax(decrease))
            if decrease[pos] > 1e-12:
                split_at = valid[pos]
                low, high = values[split_at - 1], values[split_at]
                threshold = 0.5 * (low + high)
                # Same degenerate-midpoint guard as the vectorized
                # builder (rounding to ``high`` / overflow to inf would
                # recurse forever on an unchanged node); applied to both
                # sides identically so trees stay bit-identical.
                if not (low <= threshold < high):
                    threshold = low
                if best is None or decrease[pos] > best[2]:
                    best = (int(feature), float(threshold), float(decrease[pos]))
        return best

    def build(
        self, features: np.ndarray, targets: np.ndarray, depth: int = 0
    ) -> _Node:
        node = _Node(prediction=self._leaf_value(targets))
        if (
            depth >= self.max_depth
            or len(targets) < self.min_samples_split
            or self._node_impurity(targets) < 1e-12
        ):
            return node
        split = self._best_split(features, targets)
        if split is None:
            return node
        feature, threshold, _ = split
        goes_left = features[:, feature] <= threshold
        node.feature, node.threshold = feature, threshold
        node.left = self.build(features[goes_left], targets[goes_left], depth + 1)
        node.right = self.build(features[~goes_left], targets[~goes_left], depth + 1)
        return node


def reference_predict_node(node: _Node, row: np.ndarray) -> np.ndarray:
    """The original per-row iterative descent."""
    while not node.is_leaf:
        node = node.left if row[node.feature] <= node.threshold else node.right
    return node.prediction


class ReferenceDecisionTreeClassifier(BaseEstimator, ClassifierMixin):
    """The original CART classifier: scalar build, per-row predict."""

    def __init__(
        self,
        max_depth: Optional[int] = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: Union[str, int, None] = None,
        seed: int = 0,
    ) -> None:
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.seed = seed
        self.root_: Optional[_Node] = None

    def fit(
        self,
        features: np.ndarray,
        targets: np.ndarray,
        sample_weight: Optional[np.ndarray] = None,
    ) -> "ReferenceDecisionTreeClassifier":
        features, targets = check_arrays(features, targets)
        encoded = self._encode_labels(targets)
        if sample_weight is not None:
            rng = np.random.default_rng(self.seed)
            probabilities = np.asarray(sample_weight, dtype=np.float64)
            probabilities = probabilities / probabilities.sum()
            idx = rng.choice(len(features), size=len(features), p=probabilities)
            features, encoded = features[idx], encoded[idx]
        builder = _ReferenceTreeBuilder(
            "classification",
            self.max_depth,
            self.min_samples_split,
            self.min_samples_leaf,
            self.max_features,
            np.random.default_rng(self.seed),
            n_classes=len(self.classes_),
        )
        self.root_ = builder.build(features, encoded)
        return self

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        self._require_fitted("root_")
        features, _ = check_arrays(features)
        return np.vstack(
            [reference_predict_node(self.root_, row) for row in features]
        )

    def predict(self, features: np.ndarray) -> np.ndarray:
        return self._decode_labels(np.argmax(self.predict_proba(features), axis=1))


class ReferenceDecisionTreeRegressor(BaseEstimator, RegressorMixin):
    """The original CART regressor: scalar build, per-row predict."""

    def __init__(
        self,
        max_depth: Optional[int] = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: Union[str, int, None] = None,
        seed: int = 0,
    ) -> None:
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.seed = seed
        self.root_: Optional[_Node] = None

    def fit(
        self, features: np.ndarray, targets: np.ndarray
    ) -> "ReferenceDecisionTreeRegressor":
        features, targets = check_arrays(features, targets)
        builder = _ReferenceTreeBuilder(
            "regression",
            self.max_depth,
            self.min_samples_split,
            self.min_samples_leaf,
            self.max_features,
            np.random.default_rng(self.seed),
        )
        self.root_ = builder.build(features, targets.astype(np.float64))
        return self

    def predict(self, features: np.ndarray) -> np.ndarray:
        self._require_fitted("root_")
        features, _ = check_arrays(features)
        return np.array(
            [reference_predict_node(self.root_, row)[0] for row in features]
        )


def reference_forest(forest, features: np.ndarray, targets: np.ndarray):
    """Fit an unfitted ``RandomForest{Regressor,Classifier}`` as its own
    ``fit`` does -- the same bootstrap draws and per-tree seeds -- but
    grow every tree with the frozen reference builder.  Prediction stays
    the forest's own (soft voting or the sequential mean)."""
    features, targets = check_arrays(features, targets)
    if isinstance(forest, RegressorMixin):
        tree_class = ReferenceDecisionTreeRegressor
        targets = targets.astype(np.float64)
    else:
        tree_class = ReferenceDecisionTreeClassifier
        targets = forest._encode_labels(targets)
    rng = np.random.default_rng(forest.seed)
    n_samples = len(features)
    forest.trees_ = []
    for t in range(forest.n_estimators):
        idx = rng.integers(0, n_samples, size=n_samples)
        tree = tree_class(
            max_depth=forest.max_depth,
            min_samples_leaf=forest.min_samples_leaf,
            max_features=forest.max_features,
            seed=forest.seed * 1000 + t,
        )
        forest.trees_.append(tree.fit(features[idx], targets[idx]))
    return forest


def reference_pairwise_sq_distances(
    queries: np.ndarray, reference: np.ndarray
) -> np.ndarray:
    """Naive squared Euclidean distances by full (n, m, d) broadcasting."""
    deltas = queries[:, None, :] - reference[None, :, :]
    return np.sum(deltas * deltas, axis=2)


# ----------------------------------------------------------------------
# Isolation trees
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


def reference_build_iso_tree(
    features: np.ndarray, depth: int, max_depth: int, rng: np.random.Generator
) -> _IsoNode:
    """The original recursive isolation-tree builder."""
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
    node.left = reference_build_iso_tree(
        features[goes_left], depth + 1, max_depth, rng
    )
    node.right = reference_build_iso_tree(
        features[~goes_left], depth + 1, max_depth, rng
    )
    return node


def reference_flatten_iso_tree(root: _IsoNode):
    """The original isolation-tree flatten: discovery-order indices
    found by an ``id()``-keyed re-walk; a leaf's path value is its depth
    plus ``c(size)``."""
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


def reference_isolation_forest(forest, features: np.ndarray):
    """Fit an unfitted ``IsolationForest`` as its own ``fit`` did before
    trees were grown flat: the same subsample draws from the shared
    generator, each followed by the recursive builder, then the flatten
    and the contamination threshold.  Scoring stays the forest's own."""
    features, _ = check_arrays(features)
    rng = np.random.default_rng(forest.seed)
    n_samples = len(features)
    psi = min(forest.max_samples, n_samples)
    max_depth = int(np.ceil(np.log2(max(psi, 2))))
    roots = []
    for _ in range(forest.n_estimators):
        idx = rng.choice(n_samples, size=psi, replace=False)
        roots.append(reference_build_iso_tree(features[idx], 0, max_depth, rng))
    forest.subsample_size_ = psi
    forest.trees_ = [reference_flatten_iso_tree(root) for root in roots]
    scores = forest.score_samples(features)
    forest.threshold_ = float(np.quantile(scores, 1.0 - forest.contamination))
    return forest


def reference_isolation_fit_predict(forest, features, block_rows=None):
    """The two-pass original: ``fit`` scores the training matrix to set
    ``threshold_``, then ``predict`` scores it again."""
    return forest.fit(features).predict(features, block_rows)


def reference_isolation_score_rows(
    forest, features: np.ndarray, c_norm: float
) -> np.ndarray:
    """The original ``IsolationForest._score_rows``: every tree routed
    node by node (``_leaf_indices``), from before one-feature trees were
    scored by search."""
    total_path = np.zeros(len(features))
    for *routing, path_value in forest.trees_:
        total_path += path_value[_leaf_indices(*routing, features)]
    mean_path = total_path / max(len(forest.trees_), 1)
    return 2.0 ** (-mean_path / c_norm)
