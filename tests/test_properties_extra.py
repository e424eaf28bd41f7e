"""Additional property-based tests: GREL, profiling, BARAN transforms,
and ensemble monotonicity."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.dataset import CATEGORICAL, NUMERICAL, Schema, Table
from repro.profiling.profiler import profile_column
from repro.repair.baran import _learn_transformations, edit_distance
from repro.repair.grel import GrelError, GrelExpression

plain_text = st.text(alphabet="abcXYZ019 _.-", max_size=10)


class TestGrelProperties:
    @given(plain_text)
    @settings(max_examples=100, deadline=None)
    def test_trim_idempotent(self, value):
        expr = GrelExpression("value.trim()")
        once = expr.evaluate(value)
        twice = expr.evaluate(once)
        assert once == twice

    @given(plain_text)
    @settings(max_examples=100, deadline=None)
    def test_case_round_trip(self, value):
        lower = GrelExpression("value.toLowercase()").evaluate(value)
        upper = GrelExpression("value.toUppercase()").evaluate(lower)
        assert upper == value.upper()

    @given(st.floats(-1e6, 1e6, allow_nan=False))
    @settings(max_examples=100, deadline=None)
    def test_arithmetic_identity(self, x):
        assert GrelExpression("value + 0").evaluate(x) == pytest.approx(x)
        assert GrelExpression("value * 1").evaluate(x) == pytest.approx(x)

    @given(plain_text)
    @settings(max_examples=60, deadline=None)
    def test_string_literal_round_trips_through_parser(self, text):
        assume('"' not in text and "\\" not in text)
        expr = GrelExpression(f'"{text}"')
        assert expr.evaluate(None) == text

    @given(st.text(alphabet="()+*/=<>!@#$%", min_size=1, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_garbage_never_crashes_uncontrolled(self, source):
        # Garbage either parses (rare) or raises GrelError -- never
        # anything else.
        try:
            GrelExpression(source)
        except GrelError:
            pass


class TestBaranTransformProperties:
    @given(plain_text, plain_text)
    @settings(max_examples=100, deadline=None)
    def test_learned_transforms_reproduce_their_example(self, error, correction):
        assume(error and correction)
        for name, fn in _learn_transformations(error, correction):
            try:
                out = fn(error)
            except Exception as exc:  # noqa: BLE001
                pytest.fail(f"transform {name} raised {exc}")
            # Every learned transform must map its own example correctly
            # (or abstain with None).
            assert out is None or out == correction or name.startswith("sub_")

    @given(plain_text, plain_text)
    @settings(max_examples=100, deadline=None)
    def test_edit_distance_agrees_with_similarity_module(self, a, b):
        from oracles.repair import levenshtein

        assert edit_distance(a, b, cutoff=100) == levenshtein(a, b)


class TestProfilerProperties:
    @given(
        st.lists(
            st.one_of(
                st.none(),
                st.floats(-1e6, 1e6, allow_nan=False),
                st.text(alphabet="abc019", max_size=6),
            ),
            min_size=1,
            max_size=40,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_profile_invariants(self, values):
        schema = Schema.from_pairs([("c", CATEGORICAL)])
        table = Table(schema, {"c": values})
        profile = profile_column(table, "c")
        assert profile.n_values == len(values)
        assert 0.0 <= profile.null_ratio <= 1.0
        assert 0.0 <= profile.distinctness <= 1.0
        assert profile.n_distinct <= profile.n_values - profile.n_missing
        assert profile.entropy >= 0.0
        assert 0.0 <= profile.shape_conformity <= 1.0


class TestEnsembleMonotonicity:
    @given(st.integers(0, 50))
    @settings(max_examples=10, deadline=None)
    def test_min_k_monotone_in_k(self, seed):
        from repro.context import CleaningContext
        from repro.detectors import MinKDetector
        from repro.errors import MissingValueInjector, OutlierInjector, CompositeInjector

        rng = np.random.default_rng(seed)
        schema = Schema.from_pairs(
            [("a", NUMERICAL), ("b", NUMERICAL), ("c", CATEGORICAL)]
        )
        clean = Table(
            schema,
            {
                "a": rng.normal(size=40).tolist(),
                "b": rng.normal(size=40).tolist(),
                "c": [f"v{int(rng.integers(3))}" for _ in range(40)],
            },
        )
        injector = CompositeInjector(
            [MissingValueInjector(), OutlierInjector(degree=5.0)]
        )
        result = injector.inject(clean, 0.1, rng)
        context = CleaningContext(dirty=result.dirty, seed=seed)
        previous = None
        for k in (1, 2, 3):
            cells = MinKDetector(k=k, trusted=()).detect(context).cells
            if previous is not None:
                assert cells <= previous
            previous = cells
