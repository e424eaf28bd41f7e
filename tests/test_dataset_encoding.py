"""Unit tests for feature encoding and splits."""

import math

import numpy as np
import pytest

from repro.dataset import (
    CATEGORICAL,
    NUMERICAL,
    LabelEncoder,
    Schema,
    Table,
    TableEncoder,
    kfold_indices,
    train_test_split,
)
from repro.dataset.encoding import encode_supervised


@pytest.fixture
def table():
    schema = Schema.from_pairs(
        [("x", NUMERICAL), ("color", CATEGORICAL), ("y", NUMERICAL)]
    )
    return Table(
        schema,
        {
            "x": [1.0, 2.0, 3.0, 4.0, None, 6.0],
            "color": ["r", "g", "b", "r", "r", None],
            "y": [10.0, 20.0, 30.0, 40.0, 50.0, 60.0],
        },
    )


class TestStandardize:
    """Numerical columns are z-scored by :class:`TableEncoder`."""

    @staticmethod
    def _numeric(a, b):
        schema = Schema.from_pairs([("a", NUMERICAL), ("b", NUMERICAL)])
        return Table(schema, {"a": a, "b": b})

    def test_zero_mean_unit_std(self):
        table = self._numeric([1.0, 3.0, 5.0], [5.0, 5.0, 5.0])
        scaled = TableEncoder().fit_transform(table)
        assert np.allclose(scaled.mean(axis=0), [0.0, 0.0])
        assert np.allclose(scaled[:, 0] * np.std([1.0, 3.0, 5.0]), [-2, 0, 2])
        # Constant column: std forced to 1, values centred to 0.
        assert np.allclose(scaled[:, 1], 0.0)

    def test_empty(self):
        scaled = TableEncoder().fit_transform(self._numeric([], []))
        assert scaled.shape == (0, 2)


class TestLabelEncoder:
    def test_round_trip(self):
        enc = LabelEncoder()
        codes = enc.fit_transform(["cat", "dog", "cat", "bird"])
        assert enc.n_classes == 3
        assert enc.inverse_transform(codes) == ["cat", "dog", "cat", "bird"]

    def test_missing_is_a_class(self):
        enc = LabelEncoder()
        codes = enc.fit_transform(["a", None, "a"])
        assert enc.n_classes == 2
        assert codes[1] != codes[0]

    def test_unseen_maps_to_zero(self):
        enc = LabelEncoder().fit(["a", "b"])
        assert enc.transform(["zzz"])[0] == 0

    def test_use_before_fit(self):
        with pytest.raises(RuntimeError):
            LabelEncoder().transform(["a"])

    def test_numeric_labels(self):
        enc = LabelEncoder()
        codes = enc.fit_transform([0, 1, 1, 0])
        assert enc.n_classes == 2
        assert codes.tolist() == [0, 1, 1, 0]


class TestTableEncoder:
    def test_shapes_and_names(self, table):
        enc = TableEncoder()
        features = enc.fit_transform(table, exclude=["y"])
        # 1 numerical + 3 one-hot levels.
        assert features.shape == (6, 4)
        assert enc.n_features == 4
        assert enc.feature_names == ["x", "color=r", "color=b", "color=g"]

    def test_missing_numeric_mean_imputed(self, table):
        enc = TableEncoder(scale=False)
        features = enc.fit_transform(table, exclude=["y"])
        expected_mean = np.nanmean([1.0, 2.0, 3.0, 4.0, 6.0])
        assert features[4, 0] == pytest.approx(expected_mean)

    def test_missing_category_all_zero(self, table):
        enc = TableEncoder()
        features = enc.fit_transform(table, exclude=["y"])
        assert np.allclose(features[5, 1:], 0.0)

    def test_unseen_category_all_zero(self, table):
        enc = TableEncoder().fit(table, exclude=["y"])
        other = table.copy()
        other.set_cell(0, "color", "violet")
        features = enc.transform(other)
        assert np.allclose(features[0, 1:], 0.0)

    def test_max_categories_caps_width(self, table):
        enc = TableEncoder(max_categories=1)
        features = enc.fit_transform(table, exclude=["y"])
        assert features.shape == (6, 2)
        # Most frequent category kept: 'r'.
        assert enc.feature_names == ["x", "color=r"]

    def test_use_before_fit(self, table):
        with pytest.raises(RuntimeError):
            TableEncoder().transform(table)
        with pytest.raises(RuntimeError):
            _ = TableEncoder().n_features

    def test_invalid_max_categories(self):
        with pytest.raises(ValueError):
            TableEncoder(max_categories=0)

    def test_corrupted_numeric_imputed_not_crash(self, table):
        dirty = table.copy()
        dirty.set_cell(0, "x", "oops")
        enc = TableEncoder(scale=False).fit(table, exclude=["y"])
        features = enc.transform(dirty)
        assert not np.isnan(features).any()


class TestEncodeSupervised:
    def test_classification(self, table):
        train = table.select_rows([0, 1, 2, 3])
        test = table.select_rows([4, 5])
        x_tr, y_tr, x_te, y_te, enc = encode_supervised(
            train, test, target="color", task="classification"
        )
        assert x_tr.shape[0] == 4 and x_te.shape[0] == 2
        assert x_tr.shape[1] == x_te.shape[1]
        assert y_tr.dtype == np.int64

    def test_regression_nan_target_filled(self, table):
        dirty = table.copy()
        dirty.set_cell(0, "y", None)
        train = dirty.select_rows([0, 1, 2])
        test = dirty.select_rows([3, 4, 5])
        _, y_tr, _, _, _ = encode_supervised(
            train, test, target="y", task="regression"
        )
        assert not np.isnan(y_tr).any()

    def test_bad_task(self, table):
        with pytest.raises(ValueError):
            encode_supervised(table, table, target="y", task="ranking")


class TestSplits:
    def test_train_test_split_disjoint_exhaustive(self):
        train, test = train_test_split(100, 0.25, seed=0)
        assert len(train) + len(test) == 100
        assert set(train).isdisjoint(set(test))
        assert len(test) == 25

    def test_split_reproducible(self):
        a = train_test_split(50, 0.2, seed=7)
        b = train_test_split(50, 0.2, seed=7)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_split_validation(self):
        with pytest.raises(ValueError):
            train_test_split(10, 0.0)
        with pytest.raises(ValueError):
            train_test_split(1, 0.5)
        with pytest.raises(ValueError):
            train_test_split(10, 0.5, stratify=[1, 2])

    def test_stratified_keeps_classes_in_both_splits(self):
        labels = ["a"] * 40 + ["b"] * 10
        train, test = train_test_split(50, 0.2, seed=1, stratify=labels)
        train_labels = {labels[i] for i in train}
        test_labels = {labels[i] for i in test}
        assert train_labels == {"a", "b"}
        assert test_labels == {"a", "b"}

    def test_stratified_distinguishes_same_repr_labels(self):
        # Regression: groups used to be keyed on str(label), merging the
        # int 1 with the string "1" (and None with "None") into one
        # stratum, so a minority class could vanish from a split.
        labels = [1] * 40 + ["1"] * 4 + [None] * 4 + ["None"] * 4
        train, test = train_test_split(
            len(labels), 0.25, seed=0, stratify=labels
        )
        for cls in (1, "1", None, "None"):
            members = {
                i for i, label in enumerate(labels)
                if label is cls or (type(label) is type(cls) and label == cls)
            }
            assert members & set(train.tolist()), cls
            assert members & set(test.tolist()), cls

    def test_stratified_type_keying_preserves_proportions(self):
        labels = [0] * 30 + ["0"] * 10
        train, test = train_test_split(40, 0.25, seed=3, stratify=labels)
        # Independent strata: 30 ints contribute round(30*0.25)=8 test
        # rows, 10 strings round(10*0.25)=2 -- not one merged group of 40.
        int_test = sum(1 for i in test if type(labels[i]) is int)
        str_test = sum(1 for i in test if type(labels[i]) is str)
        assert int_test == 8
        assert str_test == 2

    def test_kfold_partitions(self):
        folds = list(kfold_indices(20, 4, seed=3))
        assert len(folds) == 4
        all_test = np.concatenate([t for _, t in folds])
        assert sorted(all_test.tolist()) == list(range(20))
        for train, test in folds:
            assert set(train).isdisjoint(set(test))
            assert len(train) + len(test) == 20

    def test_kfold_validation(self):
        with pytest.raises(ValueError):
            list(kfold_indices(10, 1))
        with pytest.raises(ValueError):
            list(kfold_indices(3, 5))
