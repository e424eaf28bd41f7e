"""Feature encoding for the ML stage.

REIN feeds dirty, repaired, and clean table versions to the same model pool,
so the encoder must tolerate anything a dirty table can contain: missing
values, categories unseen at fit time, and numeric cells corrupted into text.
The policy mirrors common practice (and REIN's own preprocessing): numerical
columns are mean-imputed and standardized; categorical columns are one-hot
encoded over the categories seen at fit time with unseen values mapped to an
all-zero block.

Transforms are single-pass and columnar: numeric imputation and scaling are
whole-matrix vectorized operations, and each categorical column makes one
pass over its cells to produce level indices that are scattered into the
one-hot block in a single assignment.

Both :meth:`TableEncoder.fit_transform` and :func:`encode_supervised`
consult the process-wide artifact cache (:func:`repro.cache.current_cache`)
when one is installed: the encoded matrices and the fitted encoder state are
memoized under content-addressed keys, so re-encoding an identical table
version under identical settings is a disk read.  With no cache installed
both behave exactly as before.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cache.keys import artifact_key, table_fingerprint
from repro.cache.store import current_cache
from repro.dataset.table import Table, is_missing


class LabelEncoder:
    """Map arbitrary label payloads to contiguous integer classes."""

    def __init__(self) -> None:
        self.classes_: List[Any] = []
        self._index: Dict[str, int] = {}

    @staticmethod
    def _key(value: Any) -> str:
        return "␀missing" if is_missing(value) else str(value).strip()

    def fit(self, values: Sequence[Any]) -> "LabelEncoder":
        seen: Dict[str, Any] = {}
        for v in values:
            key = self._key(v)
            if key not in seen:
                seen[key] = v
        self.classes_ = [seen[k] for k in sorted(seen)]
        self._index = {self._key(c): i for i, c in enumerate(self.classes_)}
        return self

    def transform(self, values: Sequence[Any]) -> np.ndarray:
        if not self._index:
            raise RuntimeError("LabelEncoder used before fit")
        index = self._index
        key = self._key
        # Unseen labels bucket into class 0 so the pipeline keeps running
        # on very dirty label columns.
        return np.fromiter(
            (index.get(key(v), 0) for v in values),
            dtype=np.int64,
            count=len(values),
        )

    def fit_transform(self, values: Sequence[Any]) -> np.ndarray:
        return self.fit(values).transform(values)

    def inverse_transform(self, codes: Sequence[int]) -> List[Any]:
        return [self.classes_[int(c)] for c in codes]

    @property
    def n_classes(self) -> int:
        return len(self.classes_)


class TableEncoder:
    """Encode a :class:`Table` into a dense float feature matrix.

    Args:
        max_categories: cap on one-hot width per categorical column; the most
            frequent categories are kept and the tail is bucketed together.
        scale: when True (default), numerical columns are standardized with
            statistics learned at fit time.
    """

    def __init__(self, max_categories: int = 20, scale: bool = True):
        if max_categories < 1:
            raise ValueError("max_categories must be >= 1")
        self.max_categories = max_categories
        self.scale = scale
        self._numerical: List[str] = []
        self._categorical: List[str] = []
        self._num_mean: Optional[np.ndarray] = None
        self._num_std: Optional[np.ndarray] = None
        self._cat_levels: Dict[str, List[str]] = {}
        self._cat_index: Dict[str, Dict[str, int]] = {}
        self._fitted = False

    @staticmethod
    def _cat_key(value: Any) -> Optional[str]:
        return None if is_missing(value) else str(value).strip()

    def fit(self, table: Table, exclude: Sequence[str] = ()) -> "TableEncoder":
        excluded = set(exclude)
        self._numerical = [
            n for n in table.schema.numerical_names if n not in excluded
        ]
        self._categorical = [
            n for n in table.schema.categorical_names if n not in excluded
        ]
        if self._numerical:
            matrix = table.numeric_matrix(self._numerical)
            mean = np.nanmean(matrix, axis=0)
            self._num_mean = np.where(np.isnan(mean), 0.0, mean)
            std = np.nanstd(matrix, axis=0)
            self._num_std = np.where((std == 0) | np.isnan(std), 1.0, std)
        else:
            self._num_mean = np.zeros(0)
            self._num_std = np.ones(0)
        self._cat_levels = {}
        for name in self._categorical:
            counts: Dict[str, int] = {}
            for v in table.column(name):
                key = self._cat_key(v)
                if key is not None:
                    counts[key] = counts.get(key, 0) + 1
            top = sorted(counts, key=lambda k: (-counts[k], k))
            self._cat_levels[name] = top[: self.max_categories]
        self._cat_index = {
            name: {lvl: j for j, lvl in enumerate(levels)}
            for name, levels in self._cat_levels.items()
        }
        self._fitted = True
        return self

    def _transform_block(self, block: Table) -> np.ndarray:
        """Encode one row block with the fitted statistics.

        Imputation, scaling, and one-hot scattering are all elementwise
        against fit-time state, so encoding block-by-block produces the
        same bytes as encoding the whole table at once.
        """
        parts: List[np.ndarray] = []
        if self._numerical:
            matrix = block.numeric_matrix(self._numerical)
            # Mean-impute anything missing or corrupted-to-text, one
            # whole-matrix pass instead of a per-column loop.
            matrix = np.where(np.isnan(matrix), self._num_mean, matrix)
            if self.scale:
                matrix = (matrix - self._num_mean) / self._num_std
            parts.append(matrix)
        for name in self._categorical:
            levels = self._cat_levels[name]
            onehot = np.zeros((block.n_rows, len(levels)), dtype=np.float64)
            index = self._cat_index[name]
            key = self._cat_key
            cells = block.column(name)
            # One pass: map each cell to its level index (-1 for missing
            # or unseen), then scatter the hits in a single assignment.
            hits = np.fromiter(
                (
                    index.get(k, -1) if (k := key(v)) is not None else -1
                    for v in cells
                ),
                dtype=np.int64,
                count=len(cells),
            )
            rows = np.flatnonzero(hits >= 0)
            onehot[rows, hits[rows]] = 1.0
            parts.append(onehot)
        if not parts:
            return np.zeros((block.n_rows, 0), dtype=np.float64)
        return np.hstack(parts)

    def transform(
        self, table: Table, block_rows: Optional[int] = None
    ) -> np.ndarray:
        """Encode a table into a dense float matrix.

        With ``block_rows`` set, encoding streams over zero-copy row
        blocks into a preallocated output: transient memory drops to one
        block's intermediates while the result stays byte-identical to
        the whole-table pass.
        """
        if not self._fitted:
            raise RuntimeError("TableEncoder used before fit")
        if block_rows is None:
            return self._transform_block(table)
        out = np.empty((table.n_rows, self.n_features), dtype=np.float64)
        for start, block in table.iter_blocks(block_rows):
            out[start:start + block.n_rows] = self._transform_block(block)
        return out

    def fit_transform(self, table: Table, exclude: Sequence[str] = ()) -> np.ndarray:
        cache = current_cache()
        if cache is None:
            return self.fit(table, exclude=exclude).transform(table)
        key = artifact_key(
            "encoder/fit_transform@v1",
            [table_fingerprint(table)],
            {
                "max_categories": self.max_categories,
                "scale": self.scale,
                "exclude": sorted(str(n) for n in exclude),
            },
        )
        entry = cache.get(key)
        if entry is not None:
            self.restore_state(entry.meta["encoder"])
            return entry.arrays["matrix"]
        matrix = self.fit(table, exclude=exclude).transform(table)
        cache.put(key, {"matrix": matrix}, {"encoder": self.state()})
        return matrix

    # ------------------------------------------------------------------
    # Fitted-state serialization (for cache entries)
    # ------------------------------------------------------------------
    def state(self) -> Dict[str, Any]:
        """JSON-serializable fitted state (exact: floats round-trip via
        ``repr`` so a restored encoder transforms byte-identically)."""
        if not self._fitted:
            raise RuntimeError("TableEncoder used before fit")
        return {
            "max_categories": self.max_categories,
            "scale": self.scale,
            "numerical": list(self._numerical),
            "categorical": list(self._categorical),
            "num_mean": [float(x) for x in self._num_mean],
            "num_std": [float(x) for x in self._num_std],
            "cat_levels": {k: list(v) for k, v in self._cat_levels.items()},
        }

    def restore_state(self, state: Dict[str, Any]) -> "TableEncoder":
        self.max_categories = int(state["max_categories"])
        self.scale = bool(state["scale"])
        self._numerical = list(state["numerical"])
        self._categorical = list(state["categorical"])
        self._num_mean = np.asarray(state["num_mean"], dtype=np.float64)
        self._num_std = np.asarray(state["num_std"], dtype=np.float64)
        self._cat_levels = {k: list(v) for k, v in state["cat_levels"].items()}
        self._cat_index = {
            name: {lvl: j for j, lvl in enumerate(levels)}
            for name, levels in self._cat_levels.items()
        }
        self._fitted = True
        return self

    @classmethod
    def from_state(cls, state: Dict[str, Any]) -> "TableEncoder":
        return cls(
            max_categories=int(state["max_categories"]),
            scale=bool(state["scale"]),
        ).restore_state(state)

    @property
    def n_features(self) -> int:
        if not self._fitted:
            raise RuntimeError("TableEncoder used before fit")
        return len(self._numerical) + sum(
            len(v) for v in self._cat_levels.values()
        )

    @property
    def feature_names(self) -> List[str]:
        if not self._fitted:
            raise RuntimeError("TableEncoder used before fit")
        names = list(self._numerical)
        for col in self._categorical:
            names.extend(f"{col}={lvl}" for lvl in self._cat_levels[col])
        return names


def _encode_supervised_fresh(
    train: Table,
    test: Table,
    target: str,
    task: str,
    max_categories: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, TableEncoder]:
    encoder = TableEncoder(max_categories=max_categories)
    x_train = encoder.fit(train, exclude=[target]).transform(train)
    x_test = encoder.transform(test)
    if task == "classification":
        label_encoder = LabelEncoder()
        label_encoder.fit(
            list(train.column(target)) + list(test.column(target))
        )
        y_train = label_encoder.transform(train.column(target))
        y_test = label_encoder.transform(test.column(target))
    elif task == "regression":
        y_train = train.as_float(target)
        y_test = test.as_float(target)
        fill = float(np.nanmean(y_train)) if len(y_train) else 0.0
        if math.isnan(fill):
            fill = 0.0
        y_train = np.where(np.isnan(y_train), fill, y_train)
        y_test = np.where(np.isnan(y_test), fill, y_test)
    else:
        raise ValueError(f"unsupported supervised task {task!r}")
    return x_train, y_train, x_test, y_test, encoder


def encode_supervised(
    train: Table,
    test: Table,
    target: str,
    task: str,
    max_categories: int = 20,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, TableEncoder]:
    """Encode a train/test table pair for a supervised task.

    Returns ``(X_train, y_train, X_test, y_test, encoder)``.  For
    classification, labels are label-encoded over the union of both splits so
    train and test codes agree.  For regression, labels are float-coerced with
    NaN targets replaced by the training-label mean (dirty labels must not
    crash the pipeline).

    When an artifact cache is installed, the full quadruple plus the fitted
    encoder state is memoized against the content of both splits and the
    encoding settings.
    """
    cache = current_cache()
    if cache is None:
        return _encode_supervised_fresh(train, test, target, task, max_categories)
    key = artifact_key(
        "encoder/supervised@v1",
        [table_fingerprint(train), table_fingerprint(test)],
        {"target": target, "task": task, "max_categories": max_categories},
    )
    entry = cache.get(key)
    if entry is not None:
        encoder = TableEncoder.from_state(entry.meta["encoder"])
        return (
            entry.arrays["x_train"],
            entry.arrays["y_train"],
            entry.arrays["x_test"],
            entry.arrays["y_test"],
            encoder,
        )
    x_train, y_train, x_test, y_test, encoder = _encode_supervised_fresh(
        train, test, target, task, max_categories
    )
    cache.put(
        key,
        {
            "x_train": x_train,
            "y_train": y_train,
            "x_test": x_test,
            "y_test": y_test,
        },
        {"encoder": encoder.state()},
    )
    return x_train, y_train, x_test, y_test, encoder
