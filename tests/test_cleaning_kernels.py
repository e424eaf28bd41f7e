"""Property suite: vectorized cleaning kernels == frozen scalar references.

The cleaning-stage hot paths (dBoost histogram scoring and mixture EM, duplicate
blocking + pair features, KATARA alignment, FD/DC checking, Baran and
HoloClean candidate scoring) were rewritten on numpy with a hard
contract: **bit-identical outputs** to the scalar implementations
frozen in :mod:`oracles`.  Hypothesis drives that contract
with adversarial tables -- mixed types, NaN/None holes, unicode,
empty columns -- and the comparisons are strict: byte equality for
masks and feature matrices, set equality for violation sets, and
type-plus-bit-pattern equality for repaired cells (``values_equal``'s
tolerance would hide drift).

Also covered here:

- blocked == unblocked detection through the public suite runner;
- checkpoint stores byte-identical across kernel choice (reference vs
  vectorized), worker count, and block size;
- duplicate canonical-row selection stable under permutations of the
  block/group discovery order.
"""

import inspect
import json
import math
import random
import struct

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.benchmark.runner import run_detection_suite, run_repair_suite
from repro.cache import ArtifactCache, cache_scope
from repro.constraints import DenialConstraint, FunctionalDependency, Predicate
from repro.context import CleaningContext
from repro.datagen import DATASET_NAMES, generate
from repro.dataset import CATEGORICAL, NUMERICAL, Schema, Table
from repro.detectors import (
    DBoostDetector,
    ED2Detector,
    KeyCollisionDetector,
    KnowledgeBase,
    MetadataDrivenDetector,
    MVDetector,
    NadeefDetector,
    RahaDetector,
    ZeroERDetector,
)
from repro.detectors import features
from repro.detectors.dboost import (
    _component_log_probs,
    _histogram_outliers,
    _logsumexp_rows,
    _mixture_outliers,
)
from repro.detectors.duplicates import (
    _duplicate_cells,
    _enumerate_block_pairs,
    build_blocks,
    column_standard_deviations,
    pair_feature_matrix,
)
from repro.dataset.columnar import normalized_column
from repro.detectors.katara import katara_violations
from repro.parallel import ProcessPoolExecutor, null_sleep
from repro.repair import BaranRepair, HoloCleanRepair
from repro.resilience import SuiteCheckpoint

import oracles.constraints
import oracles.detectors
import oracles.repair
import oracles.table
from oracles import KERNELS, reference_kernels
from oracles.constraints import (
    reference_binary_violations,
    reference_fd_majority_repairs,
    reference_fd_violations,
    reference_unary_violations,
)
from oracles.detectors import (
    reference_build_blocks,
    reference_column_features,
    reference_digit_fraction,
    reference_enumerate_block_pairs,
    reference_histogram_outliers,
    reference_meta_detect,
    reference_mixture_outliers,
    reference_pair_feature_matrix,
    reference_shape_of,
)

# ----------------------------------------------------------------------
# Strategies: adversarial small tables
# ----------------------------------------------------------------------
#: Unicode text with whitespace, case variants, digits and separators --
#: everything the normalizers have to chew through.
unicode_text = st.text(alphabet="abAB019éü日 ,._-", min_size=0, max_size=8)

numeric_cell = st.one_of(
    st.none(),
    st.sampled_from(
        [float("nan"), float("inf"), float("-inf"), -0.0, 0.0]
    ),
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
)
categorical_cell = st.one_of(st.none(), unicode_text)


@st.composite
def small_tables(draw, min_rows=1, max_rows=16, min_categorical=0):
    n_rows = draw(st.integers(min_value=min_rows, max_value=max_rows))
    n_numeric = draw(st.integers(min_value=0, max_value=2))
    n_categorical = draw(
        st.integers(min_value=min_categorical, max_value=3)
    )
    assume(n_numeric + n_categorical >= 1)
    pairs = [(f"n{i}", NUMERICAL) for i in range(n_numeric)] + [
        (f"c{i}", CATEGORICAL) for i in range(n_categorical)
    ]
    schema = Schema.from_pairs(pairs)
    columns = {}
    for name, kind in pairs:
        strategy = numeric_cell if kind == NUMERICAL else categorical_cell
        if draw(st.booleans()) and draw(st.integers(0, 4)) == 0:
            # Occasionally a fully-empty column.
            columns[name] = [None] * n_rows
        else:
            columns[name] = draw(
                st.lists(strategy, min_size=n_rows, max_size=n_rows)
            )
    return Table(schema, columns)


def _numeric_table(values):
    """One numerical column holding exactly ``values``."""
    return Table(Schema.from_pairs([("n0", NUMERICAL)]), {"n0": list(values)})


@st.composite
def detection_sets(draw, table, max_size=8):
    """Detected cells, including out-of-range rows and ghost columns."""
    columns = list(table.column_names) + ["ghost"]
    return draw(
        st.sets(
            st.tuples(
                st.integers(min_value=-1, max_value=table.n_rows),
                st.sampled_from(columns),
            ),
            max_size=max_size,
        )
    )


def _strict_cell_diff(got: Table, want: Table):
    """Cells differing by type or bit pattern (NaN == NaN allowed)."""
    diff = []
    for name in got.schema.names:
        for i in range(got.n_rows):
            a, b = got.get_cell(i, name), want.get_cell(i, name)
            if type(a) is not type(b):
                diff.append(((i, name), a, b))
                continue
            if isinstance(a, float):
                same = (a != a and b != b) or (
                    np.float64(a).tobytes() == np.float64(b).tobytes()
                )
            else:
                same = a == b
            if not same:
                diff.append(((i, name), a, b))
    return diff


# ----------------------------------------------------------------------
# dBoost: histogram scoring
# ----------------------------------------------------------------------
class TestHistogramKernel:
    @given(
        st.lists(numeric_cell, min_size=0, max_size=40),
        st.floats(min_value=0.01, max_value=0.5),
        st.integers(min_value=2, max_value=8),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_reference(self, values, threshold, n_bins):
        # The kernel's production input is ``Table.as_float`` output,
        # where ``coerce_float`` maps non-finite payloads to NaN.
        array = np.array(
            [
                np.nan if v is None or not math.isfinite(float(v)) else float(v)
                for v in values
            ],
            dtype=float,
        )
        got = _histogram_outliers(array, threshold, n_bins)
        want = reference_histogram_outliers(array, threshold, n_bins)
        assert got.dtype == want.dtype == np.bool_
        assert np.array_equal(got, want)


# ----------------------------------------------------------------------
# dBoost: mixture EM
# ----------------------------------------------------------------------
class TestMixtureKernel:
    @given(
        st.integers(0, 30),
        st.integers(1, 4),
        st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_row_log_sum_exp_matches_reduce(self, n_rows, n_cols, data):
        elements = st.one_of(
            st.floats(allow_nan=True, allow_infinity=True),
            st.sampled_from([-np.inf, np.inf, -0.0, 0.0, -745.2, 709.8]),
        )
        flat = data.draw(
            st.lists(elements, min_size=n_rows * n_cols,
                     max_size=n_rows * n_cols)
        )
        log_probs = np.array(flat, dtype=np.float64).reshape(n_rows, n_cols)
        with np.errstate(all="ignore"):
            got = _logsumexp_rows(log_probs)
            want = np.logaddexp.reduce(log_probs, axis=1)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    @given(
        st.lists(st.floats(allow_nan=True), min_size=0, max_size=30),
        st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=1.0),
                st.floats(allow_nan=False),
                st.floats(min_value=1e-12, max_value=1e12),
            ),
            min_size=1, max_size=3,
        ),
    )
    @settings(max_examples=80, deadline=None)
    def test_component_log_likelihoods_match_expression(self, xs, components):
        x = np.array(xs, dtype=np.float64)
        weights, means, variances = (
            np.array(column, dtype=np.float64) for column in zip(*components)
        )
        with np.errstate(all="ignore"):
            got = _component_log_probs(x, weights, means, variances)
            want = (
                np.log(weights[None, :] + 1e-12)
                - 0.5 * np.log(2 * np.pi * variances[None, :])
                - 0.5 * (x[:, None] - means[None, :]) ** 2 / variances[None, :]
            )
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @given(
        st.lists(numeric_cell, min_size=0, max_size=60),
        st.floats(min_value=0.005, max_value=0.05),
        st.integers(min_value=2, max_value=3),
        st.booleans(),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_reference(self, values, threshold, n_components, cluster):
        array = np.array(
            [
                np.nan if v is None or not math.isfinite(float(v)) else float(v)
                for v in values
            ],
            dtype=float,
        )
        if cluster:  # two tight modes, the shape the EM is meant for
            array = np.round(array / 1e5) * 10.0 + array / 1e6
        rng = np.random.default_rng(0)
        with np.errstate(all="ignore"):
            got = _mixture_outliers(array, threshold, n_components, rng)
            want = reference_mixture_outliers(
                array, threshold, n_components, rng
            )
        assert got.dtype == want.dtype == np.bool_
        assert np.array_equal(got, want)

    def test_soccer_columns_match_reference(self):
        dataset = generate("Soccer", n_rows=400, seed=2)
        for column in dataset.dirty.schema.numerical_names:
            values = dataset.dirty.as_float(column)
            for n_components in (2, 3):
                got = _mixture_outliers(values, 0.02, n_components, None)
                want = reference_mixture_outliers(
                    values, 0.02, n_components, None
                )
                assert np.array_equal(got, want), (column, n_components)


# ----------------------------------------------------------------------
# Columnar normalization memo
# ----------------------------------------------------------------------
class TestNormalizedColumn:
    def test_signed_zeros_keep_their_own_normalization(self):
        column = np.array([float("-inf"), -0.0, 0.0], dtype=object)
        assert normalized_column(column, str) == ["-inf", "-0.0", "0.0"]
        assert normalized_column([0.0, -0.0], str) == ["0.0", "-0.0"]
        assert normalized_column(
            [np.float32(-0.0), np.float32(0.0)], str
        ) == ["-0.0", "0.0"]

    @given(st.lists(st.one_of(numeric_cell, unicode_text, st.booleans())))
    @settings(max_examples=60, deadline=None)
    def test_equals_per_row_comprehension(self, values):
        assert normalized_column(values, repr) == [repr(v) for v in values]


# ----------------------------------------------------------------------
# Cell features: code-point tables, one pass per table, Meta
# ----------------------------------------------------------------------
#: Text mixing ASCII, Latin-1, non-Latin letters, digits that are not
#: decimal (superscript two), Arabic-Indic digits and separators.
featurized_text = st.text(
    alphabet=st.one_of(
        st.sampled_from("aZ09 ._-/²٣٤жЖ漢字éßΩ\t"), st.characters()
    ),
    max_size=12,
)


def _nan_with_payload(payload):
    return struct.unpack("<d", struct.pack("<Q", 0x7FF8000000000000 | payload))[0]


#: Cells that stress the one-pass keys: float reprs in exponent form,
#: signed zeros, infinities and NaN payloads; bools beside ints and big
#: ints; numpy scalars (``KIND_OTHER``); padded and missing-token text,
#: sentinel words, a letter whose ``lower()`` changes length and digits
#: that are not ASCII.
hostile_cell = st.one_of(
    st.none(),
    st.floats(),
    st.sampled_from([
        -0.0, 0.0, float("inf"), float("-inf"), 1e16, 1e-05, 1.5e300,
        _nan_with_payload(1), _nan_with_payload(0xBEEF),
    ]),
    st.booleans(),
    st.integers(-3, 3),
    st.integers(min_value=2**63, max_value=2**70),
    st.integers(max_value=-(2**63) - 1, min_value=-(2**70)),
    st.sampled_from([
        np.float64(1.5), np.float64("nan"), np.float32(-0.0), np.int64(3),
        np.str_(" n/a "), np.str_("x"),
    ]),
    st.sampled_from([
        " 12 ", " n/a ", "NULL", "", "  ", "unknown", "UNK", " x ", "-",
        "tbd", "İ", "İstanbul", "²", "٣", "٣٤", "1e+16", "a b  c", "True",
    ]),
    featurized_text,
)


@st.composite
def hostile_tables(draw):
    n_rows = draw(st.integers(min_value=0, max_value=24))
    kinds = draw(
        st.lists(st.sampled_from([NUMERICAL, CATEGORICAL]), min_size=1,
                 max_size=3)
    )
    pairs = [(f"k{i}", kind) for i, kind in enumerate(kinds)]
    pool = draw(st.lists(hostile_cell, min_size=1, max_size=6))
    columns = {
        name: draw(
            st.lists(
                st.one_of(st.sampled_from(pool), hostile_cell),
                min_size=n_rows,
                max_size=n_rows,
            )
        )
        for name, _ in pairs
    }
    return Table(Schema.from_pairs(pairs), columns)


def _assert_same_matrices(got, want):
    assert list(got) == list(want)
    for column in want:
        assert got[column].dtype == want[column].dtype
        assert got[column].shape == want[column].shape
        assert got[column].tobytes() == want[column].tobytes(), column


class TestCellFeatureKernels:
    @given(featurized_text)
    @example("²٣ж漢 12ab")
    @settings(max_examples=200, deadline=None)
    def test_shape_equals_per_character_loop(self, text):
        assert features._shape_of(text) == reference_shape_of(text)

    @given(featurized_text.filter(bool))
    @example("²٣ж漢 12ab")
    @settings(max_examples=200, deadline=None)
    def test_digit_fraction_equals_per_character_count(self, text):
        got = features._digit_fraction(text)
        want = reference_digit_fraction(text)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()

    @pytest.mark.parametrize("name", DATASET_NAMES)
    def test_features_bit_identical_on_every_generator(self, name):
        for table in (
            generate(name, n_rows=80, seed=2).dirty,
            generate(name, n_rows=80, seed=2).clean,
        ):
            live = features.combined_features(table)
            with reference_kernels():
                frozen = features.combined_features(table)
            _assert_same_matrices(live, frozen)

    @given(hostile_tables())
    @example(Table(
        Schema.from_pairs([("k0", CATEGORICAL), ("k1", NUMERICAL)]),
        {"k0": ["İ", "i̇", "İ", " n/a ", True, "true"],
         "k1": [1e16, "1e+16", -0.0, 0.0, np.float64(2.5), 2**64]},
    ))
    # Shapes ``aa`` and ``99`` tie at two cells each, ``aa`` first (and
    # spread over two entries): only the first to occur is dominant.
    @example(Table(
        Schema.from_pairs([("k0", CATEGORICAL)]),
        {"k0": ["x1", "AB", "12", "ab", "34"]},
    ))
    @settings(max_examples=200, deadline=None)
    def test_one_pass_equals_frozen_families_on_hostile_columns(self, table):
        names = table.column_names
        row_missing = np.zeros(table.n_rows)
        for name in names:
            row_missing += table.missing_mask(name).astype(float)
        row_missing /= len(names)
        with np.errstate(all="ignore"):
            for name in names:
                matrix = features._column_features(table, name, row_missing)
                want_matrix = reference_column_features(
                    table, name, row_missing
                )
                assert matrix.dtype == want_matrix.dtype
                assert matrix.shape == want_matrix.shape
                assert matrix.tobytes() == want_matrix.tobytes(), name
            live = features.combined_features(table)
            with reference_kernels():
                frozen = features.combined_features(table)
        _assert_same_matrices(live, frozen)

    @pytest.mark.parametrize("name", DATASET_NAMES)
    def test_feature_detectors_and_dboost_cells_unchanged(self, name):
        dataset = generate(name, n_rows=80, seed=2)
        context = dataset.context(seed=1)
        detectors = [
            RahaDetector(), ED2Detector(), MetadataDrivenDetector(),
            DBoostDetector(),
        ]
        with np.errstate(all="ignore"):
            live = [detector._detect(context) for detector in detectors]
            with reference_kernels():
                frozen = [detector._detect(context) for detector in detectors]
        for detector, got, want in zip(detectors, live, frozen):
            assert got == want, detector.name

    @pytest.mark.parametrize("name", ["Soccer", "Beers", "Adult"])
    def test_meta_cells_unchanged(self, name):
        dataset = generate(name, n_rows=300, seed=5)
        detector = MetadataDrivenDetector()
        context = dataset.context(seed=2)
        got = detector._detect(context)
        assert got == reference_meta_detect(detector, context)
        assert got, "a Meta run that flags nothing shows nothing"
        assert all(type(row) is int for row, _ in got)


# ----------------------------------------------------------------------
# Duplicates: blocking, pair enumeration, pair features
# ----------------------------------------------------------------------
class TestDuplicateKernels:
    @given(small_tables())
    @example(
        Table(
            Schema.from_pairs([("c0", CATEGORICAL)]), {"c0": ["a", -0.0, 0.0]}
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_blocks_same_key_multisets(self, table):
        got = build_blocks(table)
        want = reference_build_blocks(table)
        assert {k: sorted(v) for k, v in got.items()} == {
            k: sorted(v) for k, v in want.items()
        }

    @given(small_tables(), st.sampled_from([1, 2, 5, 100_000]))
    @settings(max_examples=40, deadline=None)
    def test_pair_enumeration_matches_reference(self, table, max_pairs):
        blocks = reference_build_blocks(table)
        got = _enumerate_block_pairs(dict(blocks), max_pairs, 60)
        want = reference_enumerate_block_pairs(dict(blocks), max_pairs, 60)
        assert got == want

    @given(small_tables(min_rows=2))
    @example(_numeric_table([float("-inf"), -0.0, 0.0]))
    @example(_numeric_table([0.0, -0.0]))
    @settings(max_examples=30, deadline=None)
    def test_pair_feature_matrix_byte_identical(self, table):
        # Feature the blocking candidates when there are any, otherwise
        # every row pair: the featurizer itself is blocking-agnostic.
        pairs = reference_enumerate_block_pairs(
            reference_build_blocks(table), 500, 60
        ) or [
            (i, j)
            for i in range(table.n_rows)
            for j in range(i + 1, table.n_rows)
        ]
        stds = column_standard_deviations(table)
        got = pair_feature_matrix(table, pairs, stds)
        want = reference_pair_feature_matrix(table, pairs, stds)
        assert got.shape == want.shape
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    @given(small_tables(min_rows=2), st.randoms(use_true_random=False))
    @settings(max_examples=30, deadline=None)
    def test_canonical_rows_stable_under_discovery_order(self, table, rnd):
        """Satellite regression: the canonical (unflagged) row of a
        duplicate group must not depend on the order blocking happened
        to discover the group's members."""
        n = table.n_rows
        groups = [
            list(range(0, n, 2)) or [0],
            list(range(1, n, 2)) or [0],
        ]
        groups = [g for g in groups if len(g) > 1]
        assume(groups)
        baseline = _duplicate_cells(table, groups)
        shuffled = [list(g) for g in groups]
        for g in shuffled:
            rnd.shuffle(g)
        rnd.shuffle(shuffled)
        assert _duplicate_cells(table, shuffled) == baseline

    @given(small_tables(), st.randoms(use_true_random=False))
    @settings(max_examples=30, deadline=None)
    def test_pair_enumeration_stable_under_block_insertion_order(
        self, table, rnd
    ):
        blocks = reference_build_blocks(table)
        baseline = _enumerate_block_pairs(dict(blocks), 100_000, 60)
        keys = list(blocks)
        rnd.shuffle(keys)
        permuted = {k: blocks[k] for k in keys}
        assert _enumerate_block_pairs(permuted, 100_000, 60) == baseline


# ----------------------------------------------------------------------
# KATARA: alignment and violations
# ----------------------------------------------------------------------
class TestKataraKernels:
    @given(small_tables(min_categorical=1), st.integers(0, 3))
    @settings(max_examples=40, deadline=None)
    def test_alignment_and_violations_match_reference(self, table, salt):
        cats = [
            c
            for c in table.column_names
            if table.schema.kind_of(c) == CATEGORICAL
        ]
        kb = KnowledgeBase()
        alignment = {}
        for idx, column in enumerate(cats):
            values = sorted(
                {
                    v
                    for v in (
                        KnowledgeBase.normalize(x)
                        for x in table.column(column)
                    )
                    if v is not None
                }
            )
            domain = {
                v for i, v in enumerate(values) if (i + salt) % 2 == 0
            } or {"fallback"}
            kb.add_domain(f"concept{idx}", domain)
            alignment[column] = f"concept{idx}"
        if len(cats) >= 2:
            observed = [
                (
                    KnowledgeBase.normalize(table.get_cell(i, cats[0])),
                    KnowledgeBase.normalize(table.get_cell(i, cats[1])),
                )
                for i in range(table.n_rows)
            ]
            pairs = {
                (a, b)
                for i, (a, b) in enumerate(observed)
                if a is not None and b is not None and (i + salt) % 2
            }
            kb.add_relation("concept0", "concept1", pairs)
        for column in cats:
            got_concept = kb.align_column(table, column, 0.3)
            with reference_kernels():
                want_concept = kb.align_column(table, column, 0.3)
            assert got_concept == want_concept
        got = katara_violations(kb, table, alignment)
        with reference_kernels():
            want = katara_violations(kb, table, alignment)
        assert got == want


# ----------------------------------------------------------------------
# Constraints: FD and DC checking
# ----------------------------------------------------------------------
class TestConstraintKernels:
    @given(small_tables(min_categorical=2))
    @settings(max_examples=40, deadline=None)
    def test_fd_violations_and_repairs_match_reference(self, table):
        fd = FunctionalDependency(("c0",), "c1")
        assert fd.violations(table) == reference_fd_violations(fd, table)
        assert fd.majority_repairs(table) == reference_fd_majority_repairs(
            fd, table
        )

    @given(small_tables(min_categorical=1), st.sampled_from([6, 2_000_000]))
    @settings(max_examples=40, deadline=None)
    def test_dc_violations_match_reference(self, table, max_pairs):
        has_numeric = "n0" in table.schema
        constraints = []
        if has_numeric:
            constraints.append(
                DenialConstraint([Predicate("n0", ">", constant=0.0)])
            )
            constraints.append(
                DenialConstraint(
                    [
                        Predicate("c0", "==", right_attr="c0"),
                        Predicate("n0", ">", right_attr="n0"),
                    ],
                    binary=True,
                )
            )
        constraints.append(
            DenialConstraint(
                [Predicate("c0", "==", right_attr="c0")], binary=True
            )
        )
        for dc in constraints:
            got = dc.violations(table, max_pairs=max_pairs)
            if dc.binary:
                want = reference_binary_violations(dc, table, max_pairs)
            else:
                want = reference_unary_violations(dc, table)
            assert got == want, str(dc)


# ----------------------------------------------------------------------
# Repairs: Baran and HoloClean candidate scoring
# ----------------------------------------------------------------------
@st.composite
def repair_cases(draw):
    clean = draw(small_tables(min_rows=4, max_rows=14, min_categorical=1))
    dirty = clean.copy()
    for _ in range(draw(st.integers(0, 5))):
        row = draw(st.integers(0, clean.n_rows - 1))
        column = draw(st.sampled_from(list(clean.column_names)))
        if clean.schema.kind_of(column) == NUMERICAL:
            dirty.set_cell(row, column, draw(numeric_cell))
        else:
            dirty.set_cell(row, column, draw(categorical_cell))
    detections = draw(detection_sets(dirty))
    return clean, dirty, detections


class TestRepairKernels:
    @given(repair_cases(), st.sampled_from([1, 4]))
    @settings(max_examples=12, deadline=None)
    def test_baran_byte_identical_to_reference(self, case, budget):
        clean, dirty, detections = case
        got = BaranRepair(label_budget=budget)._repair(
            CleaningContext(dirty=dirty, clean=clean, seed=7),
            set(detections),
        )
        with reference_kernels():
            want = BaranRepair(label_budget=budget)._repair(
                CleaningContext(dirty=dirty, clean=clean, seed=7),
                set(detections),
            )
        assert _strict_cell_diff(got, want) == []

    @given(repair_cases(), st.booleans())
    @settings(max_examples=12, deadline=None)
    def test_holoclean_byte_identical_to_reference(self, case, learn):
        clean, dirty, detections = case
        cats = [
            c
            for c in dirty.column_names
            if dirty.schema.kind_of(c) == CATEGORICAL
        ]
        fds = (
            [FunctionalDependency((cats[0],), cats[1])]
            if len(cats) >= 2
            else []
        )
        vectorized = HoloCleanRepair(learn_weights=learn)
        got = vectorized._repair(
            CleaningContext(dirty=dirty, fds=fds, seed=3), set(detections)
        )
        reference = HoloCleanRepair(learn_weights=learn)
        with reference_kernels():
            want = reference._repair(
                CleaningContext(dirty=dirty, fds=fds, seed=3),
                set(detections),
            )
        assert _strict_cell_diff(got, want) == []
        if vectorized.learned_weights_ is None:
            assert reference.learned_weights_ is None
        else:
            assert np.array_equal(
                np.asarray(vectorized.learned_weights_),
                np.asarray(reference.learned_weights_),
            )


# ----------------------------------------------------------------------
# End to end: checkpoint stores byte-identical across kernel choice,
# worker count, and block size
# ----------------------------------------------------------------------
class _StepClock:
    def __init__(self, tick: float = 2.0 ** -10):
        self.ticks = 0
        self.tick = tick

    def __call__(self) -> float:
        self.ticks += 1
        return self.ticks * self.tick



def _dataset():
    return generate("SmartFactory", n_rows=120, seed=3)


def _detectors():
    return [
        MVDetector(),
        DBoostDetector(),
        KeyCollisionDetector(),
        NadeefDetector(),
        ZeroERDetector(max_pairs=4_000),
    ]


def _store_canonical(store_path, drop_runtime=False) -> bytes:
    with SuiteCheckpoint.open(store_path, "run", resume=True) as ckpt:
        units = sorted(ckpt.completed_units())
        payload = {unit: ckpt.get(unit) for unit in units}
    if drop_runtime:
        # For blocked-vs-unblocked comparisons: a blocked run also
        # checkpoints its per-block sub-units (``...@rows<lo>-<hi>``),
        # and times each block separately, so the deterministic clock is
        # read a different number of times than a whole-table run.  The
        # final per-detector units must still match in everything but
        # the honest runtime total.
        payload = {
            unit: value
            for unit, value in payload.items()
            if "@rows" not in unit
        }
        for unit in payload.values():
            if isinstance(unit, dict):
                unit.pop("runtime_seconds", None)
    return json.dumps(payload, sort_keys=True).encode()


def _detection_store(
    store_path, *, reference=False, executor=None, block_rows=None,
    drop_runtime=False,
) -> bytes:
    dataset = _dataset()
    with SuiteCheckpoint.open(store_path, "run", resume=False) as ckpt:
        kwargs = dict(
            checkpoint=ckpt,
            clock=_StepClock(),
            sleep=null_sleep,
            executor=executor,
            block_rows=block_rows,
        )
        if reference:
            with reference_kernels():
                run_detection_suite(dataset, _detectors(), **kwargs)
        else:
            run_detection_suite(dataset, _detectors(), **kwargs)
    return _store_canonical(store_path, drop_runtime=drop_runtime)


class TestCheckpointByteIdentity:
    def test_detection_stores_identical_across_kernels_and_workers(
        self, tmp_path
    ):
        reference = _detection_store(
            str(tmp_path / "ref.sqlite"), reference=True
        )
        vectorized = _detection_store(str(tmp_path / "vec.sqlite"))
        assert vectorized == reference
        pooled = _detection_store(
            str(tmp_path / "pool.sqlite"), executor=ProcessPoolExecutor(2)
        )
        assert pooled == reference

    def test_blocked_stores_identical_across_kernels(self, tmp_path):
        # Same block size, reference vs vectorized kernels: every byte
        # of the store (including per-block runtime accounting) agrees.
        blocked_ref = _detection_store(
            str(tmp_path / "bref.sqlite"), reference=True, block_rows=37
        )
        blocked_vec = _detection_store(
            str(tmp_path / "bvec.sqlite"), block_rows=37
        )
        assert blocked_vec == blocked_ref

    def test_blocked_equals_unblocked_up_to_runtime(self, tmp_path):
        whole = _detection_store(
            str(tmp_path / "whole.sqlite"), drop_runtime=True
        )
        blocked = _detection_store(
            str(tmp_path / "blk.sqlite"), block_rows=37, drop_runtime=True
        )
        assert blocked == whole

    def test_repair_stores_identical_across_kernels_and_workers(
        self, tmp_path
    ):
        dataset = _dataset()
        detections = {
            "MV": MVDetector()._detect(dataset.context(seed=0))
        }

        def repair_store(store_path, *, reference=False, executor=None):
            with SuiteCheckpoint.open(store_path, "run", resume=False) as c:
                kwargs = dict(
                    checkpoint=c,
                    clock=_StepClock(),
                    sleep=null_sleep,
                    executor=executor,
                )
                methods = [
                    BaranRepair(label_budget=5),
                    HoloCleanRepair(),
                ]
                if reference:
                    with reference_kernels():
                        run_repair_suite(
                            dataset, detections, methods, **kwargs
                        )
                else:
                    run_repair_suite(dataset, detections, methods, **kwargs)
            return _store_canonical(store_path)

        reference = repair_store(str(tmp_path / "ref.sqlite"), reference=True)
        vectorized = repair_store(str(tmp_path / "vec.sqlite"))
        assert vectorized == reference
        pooled = repair_store(
            str(tmp_path / "pool.sqlite"), executor=ProcessPoolExecutor(2)
        )
        assert pooled == reference


# ----------------------------------------------------------------------
# The swap table: oracles reach the public API only through KERNELS
# ----------------------------------------------------------------------
def _live_kernels():
    return [getattr(owner, attribute) for owner, attribute, _ in KERNELS]


def _assert_live(before):
    assert all(a is b for a, b in zip(_live_kernels(), before))
    assert not any(
        getattr(owner, attribute) is reference
        for owner, attribute, reference in KERNELS
    )


class TestReferenceSwapTable:
    def test_every_row_swapped_inside_and_restored_after(self):
        live = _live_kernels()
        with reference_kernels():
            for owner, attribute, reference in KERNELS:
                assert getattr(owner, attribute) is reference, attribute
        _assert_live(live)

    def test_live_kernels_restored_after_an_exception(self):
        live = _live_kernels()
        with pytest.raises(ZeroDivisionError):
            with reference_kernels():
                1 / 0
        _assert_live(live)

    def test_refuses_to_run_under_an_artifact_cache(self, tmp_path):
        live = _live_kernels()
        with cache_scope(ArtifactCache(str(tmp_path / "art"))):
            with pytest.raises(RuntimeError, match="uncached"):
                with reference_kernels():
                    pass
        _assert_live(live)

    def test_every_cleaning_oracle_has_a_row(self):
        swapped = {reference for _, _, reference in KERNELS}
        # Called only by other oracles, never in place of a live kernel.
        helpers = {
            "reference_fd_groups", "reference_pair_features",
            "reference_fit_column_profile",
            "reference_strategy_features_block",
            "reference_metadata_features_block",
        }
        for module in (
            oracles.constraints, oracles.detectors, oracles.repair,
            oracles.table,
        ):
            for name, value in vars(module).items():
                if name.startswith("reference_") and name not in helpers:
                    assert value in swapped, f"{module.__name__}.{name}"

    def test_every_reference_takes_the_live_signature(self):
        for owner, attribute, reference in KERNELS:
            live = list(
                inspect.signature(getattr(owner, attribute)).parameters.values()
            )
            frozen = list(inspect.signature(reference).parameters.values())
            if isinstance(owner, type):
                # Methods: the oracle names the instance after its role.
                live, frozen = live[1:], frozen[1:]
            assert [(p.name, p.kind, p.default) for p in frozen] == [
                (p.name, p.kind, p.default) for p in live
            ], attribute
