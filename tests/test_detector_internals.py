"""Unit tests for detector internals: fingerprints, featurizers, dBoost
models, ZeroER pair features, and the BART unary/FD machinery."""

import numpy as np
import pytest

from repro.dataset import CATEGORICAL, NUMERICAL, Schema, Table
from repro.detectors.dboost import (
    _Config,
    _gaussian_outliers,
    _histogram_outliers,
    _mixture_outliers,
)
from repro.detectors.duplicates import (
    column_standard_deviations,
    pair_feature_matrix,
)
from repro.detectors.features import metadata_features, strategy_features
from repro.detectors.openrefine import cluster_column, fingerprint


class TestFingerprint:
    @pytest.mark.parametrize(
        "a,b",
        [
            ("New York", "new york"),
            ("new  york ", "York New"),
            ("Acme Inc", "acme"),
            ("foo_bar", "foo bar"),
            ("don't", "dont"),
        ],
    )
    def test_variants_collide(self, a, b):
        assert fingerprint(a) == fingerprint(b)

    def test_distinct_entities_do_not_collide(self):
        assert fingerprint("berlin") != fingerprint("munich")

    def test_cluster_column_counts(self):
        schema = Schema.from_pairs([("c", CATEGORICAL)])
        table = Table(
            schema, {"c": ["Berlin", "berlin", "berlin", "munich", None]}
        )
        clusters = cluster_column(table, "c")
        berlin = clusters[fingerprint("berlin")]
        assert berlin["berlin"] == 2
        assert berlin["Berlin"] == 1
        assert sum(len(v) for v in clusters.values()) == 3  # distinct raws


class TestDBoostModels:
    def test_gaussian_flags_extreme(self):
        values = np.array([0.0] * 50 + [100.0])
        flagged = _gaussian_outliers(values, 3.0)
        assert flagged[-1]
        assert flagged.sum() == 1

    def test_gaussian_handles_constant(self):
        values = np.full(20, 5.0)
        assert not _gaussian_outliers(values, 3.0).any()

    def test_histogram_flags_rare_bin(self):
        rng = np.random.default_rng(0)
        values = np.concatenate([rng.normal(0, 1, 200), [50.0]])
        flagged = _histogram_outliers(values, 0.01, 20)
        assert flagged[-1]

    def test_mixture_flags_low_likelihood(self):
        # A point in the density gap *between* two modes has low likelihood
        # under every component.  (A gross extreme value can instead be
        # absorbed by variance inflation -- the classic GMM failure that
        # motivates dBoost's configuration search across model families.)
        rng = np.random.default_rng(1)
        values = np.concatenate(
            [rng.normal(0, 1, 100), rng.normal(20, 1, 100), [10.0]]
        )
        flagged = _mixture_outliers(values, 0.02, 2, rng)
        assert flagged[-1]

    def test_nan_never_flagged(self):
        values = np.array([0.0] * 30 + [np.nan, 100.0])
        for flags in (
            _gaussian_outliers(values, 3.0),
            _histogram_outliers(values, 0.01, 10),
        ):
            assert not flags[-2]


def _pair_features(table, i, j, stds):
    """ZeroER's feature vector for the one pair ``(i, j)``."""
    return pair_feature_matrix(table, [(i, j)], stds)[0]


def _string_similarity(a, b):
    """ZeroER's trigram Jaccard of two text cells."""
    table = Table(Schema.from_pairs([("c", CATEGORICAL)]), {"c": [a, b]})
    return _pair_features(table, 0, 1, {})[0]


class TestZeroERFeatures:
    def test_string_similarity_bounds(self):
        assert _string_similarity("abc", "abc") == 1.0
        assert _string_similarity("abc", "xyz") < 0.3
        assert 0.0 <= _string_similarity("berlin", "berln") <= 1.0

    def test_pair_features_duplicate_rows_score_high(self):
        schema = Schema.from_pairs([("x", NUMERICAL), ("c", CATEGORICAL)])
        table = Table(
            schema,
            {"x": [1.0, 1.0, 50.0], "c": ["alpha", "alpha", "omega"]},
        )
        stds = column_standard_deviations(table)
        same = _pair_features(table, 0, 1, stds)
        different = _pair_features(table, 0, 2, stds)
        assert same.mean() > 0.95
        assert different.mean() < same.mean()

    def test_missing_values_neutral(self):
        schema = Schema.from_pairs([("x", NUMERICAL)])
        table = Table(schema, {"x": [1.0, None]})
        features = _pair_features(table, 0, 1, {"x": 1.0})
        assert features[0] == 0.5


class TestFeaturizers:
    def _table(self):
        schema = Schema.from_pairs([("n", NUMERICAL), ("c", CATEGORICAL)])
        return Table(
            schema,
            {
                "n": [1.0, 2.0, 3.0, None, 100.0, "junk"],
                "c": ["a", "a", "b", "a", None, "a"],
            },
        )

    def test_strategy_features_shape_and_flags(self):
        table = self._table()
        features = strategy_features(table, "n")
        assert features.shape[0] == 6
        # Missing-cell column is the first strategy.
        assert features[3, 0] == 1.0
        # Non-numeric payload strategy is the last column.
        assert features[5, -1] == 1.0
        assert features[0, -1] == 0.0

    def test_metadata_features_shape(self):
        table = self._table()
        features = metadata_features(table, "c")
        assert features.shape == (6, 7)
        assert np.isfinite(features).all()

    def test_identical_values_identical_features(self):
        table = self._table()
        features = strategy_features(table, "c")
        assert np.array_equal(features[0], features[1])


class TestBartInternals:
    def test_fd_shape_extraction(self):
        from repro.constraints import FunctionalDependency
        from repro.errors.bart import BartEngine

        fd = FunctionalDependency(("a", "b"), "c")
        engine = BartEngine([fd.to_denial_constraint()])
        shape = engine._fd_shape(fd.to_denial_constraint())
        assert shape is not None
        lhs, rhs = shape
        assert sorted(lhs) == ["a", "b"]
        assert rhs == "c"

    def test_non_fd_constraint_yields_none(self):
        from repro.constraints import DenialConstraint, Predicate
        from repro.errors.bart import BartEngine

        dc = DenialConstraint(
            [Predicate("a", ">", constant=1.0)], binary=False
        )
        engine = BartEngine([dc])
        assert engine._fd_shape(dc) is None
