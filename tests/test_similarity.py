"""Tests for the similarity measures the pipeline computes.

ZeroER featurizes a candidate row pair with one value per column
(:func:`repro.detectors.duplicates.pair_feature_matrix`): padded
character-trigram Jaccard for text cells, closeness scaled by the
column's standard deviation for numeric cells, 0.5 when a cell is
missing.  BARAN ranks repair candidates by Levenshtein distance
(:func:`repro.repair.baran.edit_distance`).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataset import CATEGORICAL, NUMERICAL, Schema, Table
from repro.detectors.duplicates import pair_feature_matrix
from repro.repair.baran import edit_distance

short_text = st.text(alphabet="abcxyz ", max_size=12)


def jaccard_ngram(a: str, b: str) -> float:
    """ZeroER's trigram Jaccard of two text cells."""
    table = Table(Schema.from_pairs([("c", CATEGORICAL)]), {"c": [a, b]})
    return float(pair_feature_matrix(table, [(0, 1)], {})[0, 0])


def numeric_similarity(a: float, b: float, scale: float) -> float:
    """ZeroER's closeness of two numeric cells in a column of std ``scale``."""
    table = Table(Schema.from_pairs([("x", NUMERICAL)]), {"x": [a, b]})
    return float(pair_feature_matrix(table, [(0, 1)], {"x": scale})[0, 0])


class TestLevenshtein:
    @pytest.mark.parametrize(
        "a,b,expected",
        [
            ("", "", 0),
            ("abc", "abc", 0),
            ("abc", "abd", 1),
            ("abc", "ab", 1),
            ("abc", "xabc", 1),
            ("kitten", "sitting", 3),
            ("", "abc", 3),
        ],
    )
    def test_known_distances(self, a, b, expected):
        assert edit_distance(a, b, cutoff=100) == expected

    def test_cutoff(self):
        assert edit_distance("aaaaaaaa", "bbbbbbbb", cutoff=2) == 3

    @given(short_text, short_text)
    @settings(max_examples=100, deadline=None)
    def test_symmetry(self, a, b):
        assert edit_distance(a, b, cutoff=100) == edit_distance(
            b, a, cutoff=100
        )

    @given(short_text, short_text, short_text)
    @settings(max_examples=60, deadline=None)
    def test_triangle_inequality(self, a, b, c):
        assert edit_distance(a, c, cutoff=100) <= edit_distance(
            a, b, cutoff=100
        ) + edit_distance(b, c, cutoff=100)


class TestStringSimilarities:
    @pytest.mark.parametrize("fn", [jaccard_ngram], ids=lambda f: f.__name__)
    def test_identity_is_one(self, fn):
        assert fn("hello world", "hello world") == pytest.approx(1.0)

    @pytest.mark.parametrize("fn", [jaccard_ngram], ids=lambda f: f.__name__)
    @given(a=short_text, b=short_text)
    @settings(max_examples=60, deadline=None)
    def test_bounds(self, fn, a, b):
        assert 0.0 <= fn(a, b) <= 1.0

    def test_ngrams(self):
        # Padding gives "ab" and "ax" the shared leading gram "  a":
        # {"  a", " ab", "ab "} vs {"  a", " ax", "ax "}.
        assert jaccard_ngram("ab", "ax") == pytest.approx(1 / 5)


class TestNumericSimilarity:
    def test_equality(self):
        assert numeric_similarity(5.0, 5.0, 2.0) == 1.0

    def test_one_scale_away_is_zero(self):
        assert numeric_similarity(0.0, 2.0, 2.0) == 0.0

    def test_zero_scale(self):
        # A zero std falls back to a unit scale.
        assert numeric_similarity(1.0, 1.0, 0.0) == 1.0
        assert numeric_similarity(1.0, 2.0, 0.0) == 0.0


class TestRecordPairFeatures:
    def _table(self):
        schema = Schema.from_pairs([("x", NUMERICAL), ("name", CATEGORICAL)])
        return Table(
            schema,
            {"x": [1.0, 1.0, 9.0], "name": ["acme corp", "acme corp", "zzz"]},
        )

    def test_feature_names_align_with_vector(self):
        # One feature per column, in column order: x first.
        table = self._table()
        features = pair_feature_matrix(table, [(0, 2)], {"x": 1.0})
        assert features.shape == (1, len(table.column_names))
        assert features[0, 0] == numeric_similarity(1.0, 9.0, 1.0)
        assert features[0, 1] == jaccard_ngram("acme corp", "zzz")

    def test_duplicates_score_high(self):
        table = self._table()
        same, different = pair_feature_matrix(
            table, [(0, 1), (0, 2)], {"x": 1.0}
        )
        assert same.mean() > 0.99
        assert different.mean() < 0.5

    def test_missing_is_neutral(self):
        schema = Schema.from_pairs([("c", CATEGORICAL)])
        table = Table(schema, {"c": ["a", None]})
        features = pair_feature_matrix(table, [(0, 1)], {})
        assert np.allclose(features, 0.5)
