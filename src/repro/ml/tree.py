"""CART decision trees (classifier and regressor).

Greedy binary trees with Gini impurity (classification) or variance
reduction (regression), supporting depth/leaf-size limits and per-split
feature subsampling so the forest and boosting ensembles can reuse them.

Hot-path layout (see ``benchmarks/test_kernel_speed.py`` for measured
speedups against the frozen scalar kernels in ``tests/oracles/ml.py``):

- **Fit** presorts every feature column *once* at the root
  (``np.argsort(features, axis=0)``) and threads the per-feature sorted
  row indices down the tree, partitioning them stably at each
  split -- so ``_best_split`` never sorts again and scans each candidate
  feature with prefix-sum impurity updates in O(n) instead of
  O(n log n).  The class one-hot matrix is likewise built once and
  gathered per node.  The trees the ensembles grow are tiny (tens of
  nodes, half of them holding one or two rows), so the cost is the
  numpy calls each node makes, not arithmetic: one depth-first builder
  writes each node straight into flat pre-order arrays (no node objects,
  no second walk), computes a node's mean once for both its leaf value
  and its impurity, makes a one-row regression node a leaf without a
  numpy call, partitions the order table only for children that can
  still split, and resolves ``max_features`` and the split sizes once
  per tree.
- **Predict** routes all query rows down the flat tree iteratively,
  level by level, with no Python-level per-row work; a depth-0 tree
  short-circuits to a tiled leaf value.

Both paths are bit-for-bit equivalent to the reference implementation:
node statistics are computed over rows in ascending original order (the
exact order the scalar builder saw) with the same reductions, candidate
features are drawn from the tree's generator in the same pre-order, and
stable presorting partitions to the same tie order as the per-node
stable argsort it replaces.  The property suite asserts this exactly.
"""

from __future__ import annotations

from typing import List, Optional, Tuple, Union

import numpy as np

from repro.ml.base import BaseEstimator, ClassifierMixin, RegressorMixin, check_arrays

#: Flattened tree: (feature, threshold, left, right, predictions) arrays in
#: pre-order.  ``feature[i] == -1`` marks a leaf (threshold 0.0, children
#: -1); an internal node's left child is ``i + 1``.  predictions is
#: (n_nodes, pred_dim): class distributions, or one mean per node.
FlatTree = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]


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


def _grow_tree(
    features: np.ndarray,
    targets: np.ndarray,
    n_classes: Optional[int],
    max_depth: Optional[int],
    min_samples_split: int,
    min_samples_leaf: int,
    max_features: Union[str, int, None],
    rng: np.random.Generator,
) -> FlatTree:
    """Grow one CART tree into flat pre-order arrays.

    With ``n_classes`` set it grows a classifier on integer class codes,
    with None a regressor on float64 targets.  Each node is a
    set of rows carried in two synchronized forms: ``rows`` in ascending
    original order (for order-sensitive node statistics) and ``order``,
    a ``(n_features, n_node)`` matrix whose row ``j`` lists the node's
    rows sorted by feature ``j`` (stable, ties in ascending row order,
    inherited from the single root argsort).  ``order`` is None for a
    node that cannot split.
    """
    n_samples, n_features = features.shape
    depth_limit = max_depth if max_depth is not None else 10**9
    classification = n_classes is not None
    k = _resolve_max_features(max_features, n_features)
    subsample = k < n_features
    all_features = np.arange(n_features)[:, None]
    # Feature-major copy: per-feature value gathers read contiguous
    # memory instead of stride-d columns.
    features_t = np.ascontiguousarray(features.T)
    # split_sizes[p - 1] is the left child's row count at position p.
    split_sizes = np.arange(1, n_samples, dtype=np.float64)
    if classification:
        onehot = np.zeros((n_samples, n_classes))
        onehot[np.arange(n_samples), targets] = 1.0
    else:
        # Each row's target beside its square: one gather and one
        # prefix sum per node give both running sums of the scan.
        moments = np.empty((n_samples, 2))
        moments[:, 0] = targets
        moments[:, 1] = targets**2
    node_feature: List[int] = []
    node_threshold: List[float] = []
    node_left: List[int] = []
    node_right: List[int] = []
    node_value: list = []

    def _best_split(
        order: np.ndarray, m: int, impurity: float
    ) -> Optional[Tuple[int, float]]:
        """Return the (feature, threshold) of the node's best split, or None.

        ``order`` supplies each candidate feature's rows presorted, so
        the whole node is scanned in one shot: every candidate feature's
        impurity curve is a prefix-sum row of a single (c, m, k) gather
        (class one-hots, or each target beside its square) -- no
        per-node sorting and no per-feature Python loop.

        Elementwise operations and the class-axis reductions are applied
        in the same order as the scalar reference, and ties resolve
        identically (first-best position within a feature, first-best
        feature across candidates), so the chosen split is exactly the
        reference's.
        """
        if subsample:
            candidates = rng.choice(n_features, size=k, replace=False)
            sub_order = order[candidates]
            values = features_t[candidates[:, None], sub_order]  # (c, m)
        else:
            candidates = None
            sub_order = order
            values = features_t[all_features, order]
        # Valid split positions p in 1..m-1 per feature: a boundary
        # between distinct adjacent values, with min_samples_leaf rows or
        # more on each side.
        valid = values[:, 1:] > values[:, :-1]
        if min_samples_leaf > 1:
            valid[:, : min_samples_leaf - 1] = False
            valid[:, m - min_samples_leaf :] = False
        # Flatten the valid (feature, position) pairs -- row-major
        # nonzero is already feature-major. The impurity curve is then
        # evaluated ONLY at candidate splits (one-hot columns contribute
        # a single entry each), and the first flat maximum is exactly
        # the reference's winner: earliest candidate feature, earliest
        # position within it.
        at_feature, at_position = valid.nonzero()
        if not len(at_feature):
            return None
        n_left = split_sizes[at_position]
        n_right = m - n_left
        if classification:
            left_counts = onehot[sub_order].cumsum(axis=1)
            total = left_counts[:, -1]
            left = left_counts[at_feature, at_position]
            right = total[at_feature] - left
            gini_left = 1.0 - np.add.reduce((left / n_left[:, None]) ** 2, axis=1)
            gini_right = 1.0 - np.add.reduce(
                (right / n_right[:, None]) ** 2, axis=1
            )
            child = (n_left * gini_left + n_right * gini_right) / m
        else:
            # (c, m, 2): running sums of the targets and their squares.
            prefix = moments[sub_order].cumsum(axis=1)
            left = prefix[at_feature, at_position]
            right = prefix[at_feature, -1] - left
            # Column 0 is the mean, column 1 the mean square.
            left /= n_left[:, None]
            right /= n_right[:, None]
            var_left = left[:, 1] - left[:, 0] ** 2
            var_right = right[:, 1] - right[:, 0] ** 2
            child = (n_left * var_left + n_right * var_right) / m
        decrease = impurity - child
        flat = int(decrease.argmax())
        # ``not >`` also rejects NaN, where argmax stops.  A NaN decrease
        # means the node's sum of squared targets overflows (or a target
        # is infinite); then every right side's sum of squares is inf,
        # no position has a finite child impurity, and the reference
        # splits nowhere either.
        if not decrease[flat] > 1e-12:
            return None
        winner = int(at_feature[flat])
        split_at = int(at_position[flat]) + 1
        low, high = values[winner, split_at - 1], values[winner, split_at]
        threshold = 0.5 * (low + high)
        # The midpoint can round up to ``high`` for adjacent subnormals
        # or overflow to +/-inf for huge magnitudes; either way ``<=``
        # routing would send every row to one child and the builder
        # would split an unchanged node forever.  ``low`` itself is
        # always an exact separator.
        if not (low <= threshold < high):
            threshold = low
        feature = winner if candidates is None else int(candidates[winner])
        return feature, float(threshold)

    root_order = None
    if n_samples >= min_samples_split and depth_limit > 0:
        # Presort once, then keep the order table feature-major (d, n)
        # so each feature's presorted rows stay contiguous in memory.
        root_order = np.ascontiguousarray(
            np.argsort(features, axis=0, kind="stable").T
        )
    # Depth-first, left child first: nodes are numbered (and draw their
    # candidate features) in pre-order.  Each entry is (rows, order,
    # depth, the parent whose right child it is, or -1).
    stack = [(np.arange(n_samples), root_order, 0, -1)]
    while stack:
        rows, order, depth, right_of = stack.pop()
        index = len(node_feature)
        if right_of >= 0:
            node_right[right_of] = index
        node_feature.append(-1)
        node_threshold.append(0.0)
        node_left.append(-1)
        node_right.append(-1)
        m = len(rows)
        if classification:
            if m == 1:
                # One row: its one-hot row is the class distribution.
                node_value.append(onehot[rows[0]])
                continue
            counts = np.bincount(targets[rows], minlength=n_classes)
            value = counts / (m or 1)
            node_value.append(value)
            if order is None:
                continue
            impurity = 1.0 - np.add.reduce(value * value)
        elif m == 1:
            # The mean of one row, as ``np.add.reduce`` (which starts
            # from 0.0, so -0.0 reads 0.0) divided by one computes it.
            node_value.append(0.0 + targets[rows[0]])
            continue
        else:
            node_targets = targets[rows]
            mean = np.add.reduce(node_targets) / m if m else 0.0
            node_value.append(mean)
            if order is None:
                continue
            # ``ndarray.var``'s own arithmetic, reusing the mean.
            deviation = node_targets - mean
            impurity = np.add.reduce(deviation * deviation) / m
        if impurity < 1e-12:
            continue
        split = _best_split(order, m, impurity)
        if split is None:
            continue
        feature, threshold = split
        node_feature[index] = feature
        node_threshold[index] = threshold
        node_left[index] = index + 1
        column = features_t[feature]
        goes_left = column[rows] <= threshold
        left_rows, right_rows = rows[goes_left], rows[~goes_left]
        child_depth = depth + 1
        deeper = child_depth < depth_limit
        split_left = deeper and len(left_rows) >= min_samples_split
        split_right = deeper and len(right_rows) >= min_samples_split
        left_order = right_order = None
        if split_left or split_right:
            # Partition every feature's presorted rows by the same
            # comparison; boolean gathers keep the stable tie order
            # without re-sorting.  A child that cannot split gets none.
            selected = column[order] <= threshold
            if split_left:
                left_order = order[selected].reshape(n_features, -1)
            if split_right:
                right_order = order[~selected].reshape(n_features, -1)
        stack.append((right_rows, right_order, child_depth, index))
        stack.append((left_rows, left_order, child_depth, -1))
    if classification:
        predictions = np.vstack(node_value)
    else:
        predictions = np.array(node_value, dtype=np.float64)[:, None]
    return (
        np.array(node_feature, dtype=np.int64),
        np.array(node_threshold, dtype=np.float64),
        np.array(node_left, dtype=np.int64),
        np.array(node_right, dtype=np.int64),
        predictions,
    )


def _tree_depth(flat: FlatTree) -> int:
    """Depth of a flat pre-order tree (a lone leaf has depth 0)."""
    feature, _, left, right, _ = flat
    depth = np.zeros(len(feature), dtype=np.int64)
    # Pre-order: every parent precedes its children.
    for node in np.flatnonzero(feature >= 0):
        depth[left[node]] = depth[right[node]] = depth[node] + 1
    return int(depth.max())


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
    return predictions[_leaf_indices(feature, threshold, left, right, features)]


def _leaf_indices(
    feature: np.ndarray,
    threshold: np.ndarray,
    left: np.ndarray,
    right: np.ndarray,
    features: np.ndarray,
) -> np.ndarray:
    """The leaf each row reaches in a flat tree, all rows level by level."""
    at = np.zeros(len(features), dtype=np.int64)
    active = np.flatnonzero(feature[at] >= 0)
    while active.size:
        nodes = at[active]
        goes_left = (
            features[active, feature[nodes]] <= threshold[nodes]
        )
        at[active] = np.where(goes_left, left[nodes], right[nodes])
        active = active[feature[at[active]] >= 0]
    return at


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
        self.tree_: Optional[FlatTree] = None

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
        self.tree_ = _grow_tree(
            features,
            encoded,
            len(self.classes_),
            self.max_depth,
            self.min_samples_split,
            self.min_samples_leaf,
            self.max_features,
            np.random.default_rng(self.seed),
        )
        return self

    def predict_proba(
        self, features: np.ndarray, block_rows: Optional[int] = None
    ) -> np.ndarray:
        self._require_fitted("tree_")
        features, _ = check_arrays(features)
        return _predict_batch(self.tree_, features, block_rows=block_rows)

    def predict(
        self, features: np.ndarray, block_rows: Optional[int] = None
    ) -> np.ndarray:
        return self._decode_labels(
            np.argmax(self.predict_proba(features, block_rows), axis=1)
        )

    @property
    def depth(self) -> int:
        self._require_fitted("tree_")
        return _tree_depth(self.tree_)


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
        self.tree_: Optional[FlatTree] = None

    def fit(self, features: np.ndarray, targets: np.ndarray) -> "DecisionTreeRegressor":
        features, targets = check_arrays(features, targets)
        self.tree_ = _grow_tree(
            features,
            targets.astype(np.float64),
            None,
            self.max_depth,
            self.min_samples_split,
            self.min_samples_leaf,
            self.max_features,
            np.random.default_rng(self.seed),
        )
        return self

    def predict(
        self, features: np.ndarray, block_rows: Optional[int] = None
    ) -> np.ndarray:
        self._require_fitted("tree_")
        features, _ = check_arrays(features)
        return _predict_batch(self.tree_, features, block_rows=block_rows)[:, 0]

    @property
    def depth(self) -> int:
        self._require_fitted("tree_")
        return _tree_depth(self.tree_)
