"""CART decision trees (classifier and regressor).

Greedy binary trees with Gini impurity (classification) or variance
reduction (regression), supporting depth/leaf-size limits and per-split
feature subsampling so the forest and boosting ensembles can reuse them.

Hot-path layout (see ``benchmarks/test_kernel_speed.py`` for measured
speedups against the frozen scalar kernels in ``tests/oracles/ml.py``):

- **Fit** presorts every feature column *once* at the root
  (``np.argsort(features, axis=0)``) and threads the per-feature sorted
  row indices down the recursion, partitioning them stably at each
  split -- so ``_best_split`` never sorts again and scans each candidate
  feature with prefix-sum impurity updates in O(n) instead of
  O(n log n).  The class one-hot matrix is likewise built once and
  gathered per node.
- **Predict** flattens the fitted tree into parallel node arrays and
  routes all query rows down the tree iteratively, level by level, with
  no Python-level per-row work; a depth-0 tree short-circuits to a tiled
  leaf value.

Both paths are bit-for-bit equivalent to the reference implementation:
node statistics are computed over rows in ascending original order (the
exact order the scalar builder saw), and stable presorting partitions to
the same tie order as the per-node stable argsort it replaces.  The
property suite asserts this exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

import numpy as np

from repro.ml.base import BaseEstimator, ClassifierMixin, RegressorMixin, check_arrays


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


def _resolve_max_features(max_features: Union[str, int, None], n_features: int) -> int:
    if max_features is None:
        return n_features
    if max_features == "sqrt":
        return max(1, int(np.sqrt(n_features)))
    if max_features == "log2":
        return max(1, int(np.log2(n_features))) if n_features > 1 else 1
    if isinstance(max_features, (int, np.integer)):
        if max_features < 1:
            raise ValueError("max_features must be >= 1")
        return min(int(max_features), n_features)
    raise ValueError(f"unsupported max_features {max_features!r}")


class _TreeBuilder:
    """Shared recursive CART builder, parameterized by task.

    The builder holds the full feature/target arrays; each node is a set
    of row indices carried in two synchronized forms -- ``rows`` in
    ascending original order (for order-sensitive node statistics) and
    ``order``, an ``(n_features, n_node)`` matrix whose row ``j`` lists
    the node's rows sorted by feature ``j`` (stable, ties in ascending
    row order, inherited from the single root argsort).
    """

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
        self._features: Optional[np.ndarray] = None
        self._features_t: Optional[np.ndarray] = None
        self._targets: Optional[np.ndarray] = None
        self._onehot: Optional[np.ndarray] = None
        self._in_left: Optional[np.ndarray] = None

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
        self, order: np.ndarray, parent_impurity: float
    ) -> Optional[Tuple[int, float, float]]:
        """Return (feature, threshold, impurity_decrease) or None.

        ``order`` supplies each candidate feature's rows presorted, so
        the whole node is scanned in one shot: every candidate feature's
        impurity curve is a prefix-sum row of a single (c, n[, k])
        gather -- no per-node sorting and no per-feature Python loop.

        Elementwise operations and the class-axis reductions are applied
        in the same order as the scalar reference, and ties resolve
        identically (first-best position within a feature, first-best
        feature across candidates), so the chosen split is exactly the
        reference's.
        """
        n_samples = order.shape[1]
        n_features = self._features.shape[1]
        k = _resolve_max_features(self.max_features, n_features)
        candidates = (
            np.arange(n_features)
            if k == n_features
            else self.rng.choice(n_features, size=k, replace=False)
        )
        min_leaf = self.min_samples_leaf
        # ``order`` is feature-major (d, n): each candidate's presorted
        # rows are a contiguous row, so every per-feature op below is a
        # cache-friendly sweep.
        sub_order = order if k == n_features else order[candidates]
        values = self._features_t[candidates[:, None], sub_order]  # (c, n)
        # Valid split positions p in 1..n-1 per feature: a boundary
        # between distinct adjacent values, with both children >= min_leaf.
        positions = np.arange(1, n_samples)
        valid = (
            (values[:, 1:] > values[:, :-1])
            & (positions >= min_leaf)
            & (positions <= n_samples - min_leaf)
        )
        # Flatten the valid (feature, position) pairs -- row-major
        # nonzero is already feature-major. The impurity curve is then
        # evaluated ONLY at candidate splits (one-hot columns contribute
        # a single entry each), and the first flat maximum is exactly
        # the reference's winner: earliest candidate feature, earliest
        # position within it.
        at_feature, at_position = np.nonzero(valid)
        if len(at_feature) == 0:
            return None
        n_left = (at_position + 1).astype(np.float64)
        n_right = n_samples - n_left
        if self.task == "classification":
            left_counts = np.cumsum(self._onehot[sub_order], axis=1)
            total = left_counts[:, -1]
            left = left_counts[at_feature, at_position]
            right = total[at_feature] - left
            gini_left = 1.0 - ((left / n_left[:, None]) ** 2).sum(axis=1)
            gini_right = 1.0 - ((right / n_right[:, None]) ** 2).sum(axis=1)
            child = (n_left * gini_left + n_right * gini_right) / n_samples
        else:
            sorted_targets = self._targets[sub_order]
            prefix = np.cumsum(sorted_targets, axis=1, dtype=np.float64)
            prefix_sq = np.cumsum(
                sorted_targets**2, axis=1, dtype=np.float64
            )
            sum_left = prefix[at_feature, at_position]
            sum_right = prefix[at_feature, -1] - sum_left
            sq_left = prefix_sq[at_feature, at_position]
            sq_right = prefix_sq[at_feature, -1] - sq_left
            var_left = sq_left / n_left - (sum_left / n_left) ** 2
            var_right = sq_right / n_right - (sum_right / n_right) ** 2
            child = (n_left * var_left + n_right * var_right) / n_samples
        decrease = parent_impurity - child
        flat = int(np.argmax(decrease))
        best_decrease = float(decrease[flat])
        if best_decrease <= 1e-12:
            return None
        winner = int(at_feature[flat])
        split_at = int(at_position[flat]) + 1
        winner_values = values[winner]
        low, high = winner_values[split_at - 1], winner_values[split_at]
        threshold = 0.5 * (low + high)
        # The midpoint can round up to ``high`` for adjacent subnormals
        # or overflow to +/-inf for huge magnitudes; either way ``<=``
        # routing would send every row to one child and the builder
        # would recurse on an unchanged node forever.  ``low`` itself is
        # always an exact separator.
        if not (low <= threshold < high):
            threshold = low
        return int(candidates[winner]), float(threshold), best_decrease

    def build(self, features: np.ndarray, targets: np.ndarray) -> _Node:
        """Build the tree: one presort at the root, then recurse."""
        n_samples = len(features)
        self._features = features
        # Feature-major copy: per-feature value gathers read contiguous
        # memory instead of stride-d columns.
        self._features_t = np.ascontiguousarray(features.T)
        self._targets = targets
        if self.task == "classification" and n_samples:
            onehot = np.zeros((n_samples, self.n_classes))
            onehot[np.arange(n_samples), targets.astype(int)] = 1.0
            self._onehot = onehot
        self._in_left = np.zeros(n_samples, dtype=bool)
        rows = np.arange(n_samples)
        # Presort once, then keep the order table feature-major (d, n)
        # so each feature's presorted rows stay contiguous in memory.
        order = (
            np.ascontiguousarray(
                np.argsort(features, axis=0, kind="stable").T
            )
            if n_samples
            else np.zeros((features.shape[1], 0), dtype=np.int64)
        )
        return self._build(rows, order, 0)

    def _build(self, rows: np.ndarray, order: np.ndarray, depth: int) -> _Node:
        node_targets = self._targets[rows]
        node = _Node(prediction=self._leaf_value(node_targets))
        if (
            depth >= self.max_depth
            or len(node_targets) < self.min_samples_split
        ):
            return node
        impurity = self._node_impurity(node_targets)
        if impurity < 1e-12:
            return node
        split = self._best_split(order, impurity)
        if split is None:
            return node
        feature, threshold, _ = split
        node.feature, node.threshold = feature, threshold
        goes_left = self._features_t[feature, rows] <= threshold
        left_rows, right_rows = rows[goes_left], rows[~goes_left]
        # Partition every feature's presorted rows by left-membership;
        # boolean gathers keep the stable tie order without re-sorting.
        self._in_left[left_rows] = True
        selected = self._in_left[order]
        n_features = order.shape[0]
        left_order = order[selected].reshape(n_features, len(left_rows))
        right_order = order[~selected].reshape(n_features, len(right_rows))
        self._in_left[left_rows] = False
        node.left = self._build(left_rows, left_order, depth + 1)
        node.right = self._build(right_rows, right_order, depth + 1)
        return node


def _predict_node(node: _Node, row: np.ndarray) -> np.ndarray:
    """Single-row descent (kept for spot checks; batch paths use
    :func:`_predict_batch`)."""
    while not node.is_leaf:
        node = node.left if row[node.feature] <= node.threshold else node.right
    return node.prediction


def _tree_depth(node: _Node) -> int:
    if node.is_leaf:
        return 0
    return 1 + max(_tree_depth(node.left), _tree_depth(node.right))


#: Flattened tree: (feature, threshold, left, right, predictions) arrays.
#: ``feature[i] == -1`` marks a leaf; predictions is (n_nodes, pred_dim).
FlatTree = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def _flatten_tree(root: _Node) -> FlatTree:
    """Linearize a node tree into parallel arrays for batched routing."""
    feature: List[int] = []
    threshold: List[float] = []
    left: List[int] = []
    right: List[int] = []
    predictions: List[np.ndarray] = []
    stack = [root]
    indices = {id(root): 0}
    nodes: List[_Node] = []
    while stack:
        node = stack.pop()
        nodes.append(node)
        if not node.is_leaf:
            for child in (node.right, node.left):
                indices[id(child)] = len(indices)
                stack.append(child)
    # Re-walk in discovery order so child indices are already assigned.
    by_index = sorted(nodes, key=lambda n: indices[id(n)])
    for node in by_index:
        predictions.append(node.prediction)
        if node.is_leaf:
            feature.append(-1)
            threshold.append(0.0)
            left.append(-1)
            right.append(-1)
        else:
            feature.append(node.feature)
            threshold.append(node.threshold)
            left.append(indices[id(node.left)])
            right.append(indices[id(node.right)])
    return (
        np.asarray(feature, dtype=np.int64),
        np.asarray(threshold, dtype=np.float64),
        np.asarray(left, dtype=np.int64),
        np.asarray(right, dtype=np.int64),
        np.vstack(predictions),
    )


def _predict_batch(
    flat: FlatTree,
    features: np.ndarray,
    block_rows: Optional[int] = None,
) -> np.ndarray:
    """Route all rows down a flattened tree; returns (n, pred_dim).

    With ``block_rows`` set, rows are routed in fixed-size slices into a
    preallocated output so peak transient memory is bounded by one block
    of routing state.  Each row's descent is independent, so the blocked
    result is byte-identical to the single-pass one.
    """
    if block_rows is not None:
        if block_rows < 1:
            raise ValueError(f"block_rows must be >= 1, got {block_rows}")
        predictions = flat[4]
        n = len(features)
        out = np.empty((n, predictions.shape[1]), dtype=predictions.dtype)
        for start in range(0, n, block_rows):
            stop = min(start + block_rows, n)
            out[start:stop] = _route_rows(flat, features[start:stop])
        return out
    return _route_rows(flat, features)


def _route_rows(flat: FlatTree, features: np.ndarray) -> np.ndarray:
    """Single-pass iterative routing of a row batch down a flat tree.

    Routing decisions are the same ``row[feature] <= threshold``
    comparisons the per-row descent makes, so leaf assignment -- and
    therefore the output -- is exactly equal.
    """
    feature, threshold, left, right, predictions = flat
    n = len(features)
    if len(feature) == 1 or n == 0:
        # Depth-0 tree (or empty query): tile the root leaf value
        # instead of routing -- the leaf-only fast path.
        return np.repeat(predictions[:1], n, axis=0)
    at = np.zeros(n, dtype=np.int64)
    active = np.flatnonzero(feature[at] >= 0)
    while active.size:
        nodes = at[active]
        goes_left = (
            features[active, feature[nodes]] <= threshold[nodes]
        )
        at[active] = np.where(goes_left, left[nodes], right[nodes])
        active = active[feature[at[active]] >= 0]
    return predictions[at]


class DecisionTreeClassifier(BaseEstimator, ClassifierMixin):
    """CART classification tree (Gini impurity)."""

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
        self._flat: Optional[FlatTree] = None

    def fit(
        self,
        features: np.ndarray,
        targets: np.ndarray,
        sample_weight: Optional[np.ndarray] = None,
    ) -> "DecisionTreeClassifier":
        features, targets = check_arrays(features, targets)
        encoded = self._encode_labels(targets)
        if sample_weight is not None:
            # Weighted fitting via resampling, adequate for AdaBoost's needs.
            rng = np.random.default_rng(self.seed)
            probabilities = np.asarray(sample_weight, dtype=np.float64)
            probabilities = probabilities / probabilities.sum()
            idx = rng.choice(len(features), size=len(features), p=probabilities)
            features, encoded = features[idx], encoded[idx]
        builder = _TreeBuilder(
            "classification",
            self.max_depth,
            self.min_samples_split,
            self.min_samples_leaf,
            self.max_features,
            np.random.default_rng(self.seed),
            n_classes=len(self.classes_),
        )
        self.root_ = builder.build(features, encoded)
        self._flat = _flatten_tree(self.root_)
        return self

    def predict_proba(
        self, features: np.ndarray, block_rows: Optional[int] = None
    ) -> np.ndarray:
        self._require_fitted("root_")
        features, _ = check_arrays(features)
        if self._flat is None:  # e.g. unpickled from an older snapshot
            self._flat = _flatten_tree(self.root_)
        return _predict_batch(self._flat, features, block_rows=block_rows)

    def predict(
        self, features: np.ndarray, block_rows: Optional[int] = None
    ) -> np.ndarray:
        return self._decode_labels(
            np.argmax(self.predict_proba(features, block_rows), axis=1)
        )

    @property
    def depth(self) -> int:
        self._require_fitted("root_")
        return _tree_depth(self.root_)


class DecisionTreeRegressor(BaseEstimator, RegressorMixin):
    """CART regression tree (variance reduction)."""

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
        self._flat: Optional[FlatTree] = None

    def fit(self, features: np.ndarray, targets: np.ndarray) -> "DecisionTreeRegressor":
        features, targets = check_arrays(features, targets)
        builder = _TreeBuilder(
            "regression",
            self.max_depth,
            self.min_samples_split,
            self.min_samples_leaf,
            self.max_features,
            np.random.default_rng(self.seed),
        )
        self.root_ = builder.build(features, targets.astype(np.float64))
        self._flat = _flatten_tree(self.root_)
        return self

    def predict(
        self, features: np.ndarray, block_rows: Optional[int] = None
    ) -> np.ndarray:
        self._require_fitted("root_")
        features, _ = check_arrays(features)
        if self._flat is None:
            self._flat = _flatten_tree(self.root_)
        return _predict_batch(self._flat, features, block_rows=block_rows)[:, 0]

    @property
    def depth(self) -> int:
        self._require_fitted("root_")
        return _tree_depth(self.root_)
