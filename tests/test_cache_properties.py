"""Property-based tests: cache-hit equivalence and kernel equivalence.

Two families, both hypothesis-driven:

- **cache transparency**: for any generated table, reading an encoded
  matrix back through the artifact cache is byte-identical to computing
  it fresh, and the restored encoder state transforms unseen tables
  byte-identically too;
- **array fingerprints**: two arrays share an ``array_fingerprint``
  exactly when their dtype, shape and raw bytes agree, the property the
  memoized fit->predict keys rest on;
- **table fingerprints**: over hostile mixed-type columns, two tables
  share a ``table_fingerprint`` exactly when the per-cell reference in
  :mod:`oracles.cache` gives them equal digests, and a block's
  fingerprint is its ``block_view``'s;
- **cell diffs**: on the same hostile columns plus infinities and
  numbers beside their text, the typed ``Table.diff_cells`` equals the
  per-cell ``values_equal`` reference in :mod:`oracles.table`, and
  categorical repair scores built on it equal the per-cell scoring in
  :mod:`oracles.metrics`;
- **column views**: on the same hostile columns, every consumer of the
  memoized ``ColumnView`` (codec, ``normalized_column``, ``as_float``,
  ``missing_mask``, ``table_to_payload``) equals its per-cell
  definition, also after a ``set_cell``;
- **kernel equivalence**: the vectorized CART builder and batched
  predictors in :mod:`repro.ml.tree` produce *exactly* the trees and
  predictions of the frozen scalar reference implementations in
  :mod:`oracles.ml`, also on hostile targets (signed zeros, subnormals,
  overflowing squares, infinities) and inside random forests; isolation
  forests score exactly as with the frozen recursive builder, and
  ``fit_predict`` equals ``fit`` then ``predict``; and the
  blocked distance kernel matches the naive broadcast within 1e-12.
"""

import json
import math
import pickle
import struct

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.benchmark.runner import DetectionRun, RepairRun, ScenarioRun
from repro.cache import (
    ArtifactCache,
    array_fingerprint,
    cache_scope,
    canonical_cell,
    table_block_fingerprint,
    table_fingerprint,
)
from repro.dataset import CATEGORICAL, NUMERICAL, Schema, Table
from repro.dataset.columnar import ColumnView, normalized_column
from repro.dataset.encoding import TableEncoder, encode_supervised
from repro.dataset.table import coerce_float, is_missing
from repro.detectors.base import DetectionResult
from repro.metrics.detection import DetectionScores
from repro.metrics.repair import repair_scores_categorical
from repro.ml.forest import (
    IsolationForest,
    _average_path_length,
    RandomForestClassifier,
    RandomForestRegressor,
)
from repro.ml.neighbors import _pairwise_sq_distances
from repro.ml.tree import (
    DecisionTreeClassifier,
    DecisionTreeRegressor,
    _leaf_indices,
)
from repro.repair.base import RepairResult
from repro.repository.store import (
    decode_payload,
    encode_cell_value,
    encode_payload,
)
from repro.resilience.checkpoint import table_to_payload

from oracles.cache import reference_table_fingerprint
from oracles.metrics import reference_repair_scores_categorical
from oracles.table import reference_diff_cells
from oracles.ml import (
    ReferenceDecisionTreeClassifier,
    ReferenceDecisionTreeRegressor,
    flatten_preorder,
    reference_forest,
    reference_isolation_fit_predict,
    reference_isolation_forest,
    reference_isolation_score_rows,
    reference_pairwise_sq_distances,
)

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
cell_value = st.one_of(
    st.none(),
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    st.text(alphabet="abcxyz019 ._-", min_size=0, max_size=8),
)


@st.composite
def small_tables(draw, min_rows=1):
    n_rows = draw(st.integers(min_value=min_rows, max_value=12))
    n_numeric = draw(st.integers(min_value=0, max_value=3))
    n_categorical = draw(st.integers(min_value=0, max_value=3))
    assume(n_numeric + n_categorical >= 1)
    pairs = [(f"n{i}", NUMERICAL) for i in range(n_numeric)] + [
        (f"c{i}", CATEGORICAL) for i in range(n_categorical)
    ]
    schema = Schema.from_pairs(pairs)
    columns = {
        name: draw(st.lists(cell_value, min_size=n_rows, max_size=n_rows))
        for name, _ in pairs
    }
    return Table(schema, columns)


@st.composite
def feature_matrices(draw, max_rows=40, max_cols=6, tie_prone=False):
    n = draw(st.integers(min_value=2, max_value=max_rows))
    d = draw(st.integers(min_value=1, max_value=max_cols))
    elements = st.floats(min_value=-100, max_value=100, allow_nan=False)
    flat = draw(
        st.lists(elements, min_size=n * d, max_size=n * d)
    )
    matrix = np.array(flat, dtype=np.float64).reshape(n, d)
    if tie_prone or draw(st.booleans()):
        matrix = np.round(matrix, 1)  # force duplicate split values
    return matrix


tree_params = st.fixed_dictionaries(
    {
        "max_depth": st.one_of(st.none(), st.integers(0, 5)),
        "min_samples_split": st.integers(2, 4),
        "min_samples_leaf": st.integers(1, 3),
        "max_features": st.one_of(
            st.none(), st.just("sqrt"), st.just("log2"), st.integers(1, 3)
        ),
        "seed": st.integers(0, 10_000),
    }
)


#: Regression targets built to break bit-exactness: signed zeros and
#: subnormals beside ordinary values (so that nodes still split);
#: magnitudes whose squares, or sums of squares, overflow; infinities.
#: The last two leave some split positions' impurity NaN.
TINY_TARGETS = np.array(
    [0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308, 1.5, -2.0]
)
HUGE_TARGETS = np.array([1e300, -1e300, 1e154, -1e154, 1.5])
HOSTILE_TARGETS = np.concatenate([TINY_TARGETS, HUGE_TARGETS, [math.inf, -math.inf]])


@st.composite
def hostile_fits(draw, classes=False, forest=False):
    """A feature matrix, targets and tree (or forest) parameters whose
    trees hold one-row and duplicate-row nodes, constant targets and
    nodes of more than 128 rows (numpy's pairwise-summation block).

    Everything is derived from one drawn seed, so the examples spread
    evenly over sizes, target styles and parameters instead of
    clustering on the smallest choices.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = int(rng.choice([1, 2, 3, 5, 9, 40, 129, 200, 260]))
    d = int(rng.integers(1, 5))
    matrix = np.round(rng.normal(scale=3.0, size=(n, d)), rng.integers(0, 2))
    if rng.random() < 0.5:
        matrix[n // 2 :] = matrix[: n - n // 2]  # duplicate rows
    if rng.random() < 0.25:
        matrix = matrix * 5e-324  # adjacent subnormal split values
    style = rng.choice(["tiny", "huge", "mixed", "constant", "normal"])
    if classes:
        n_classes = 1 if style == "constant" else int(rng.integers(2, 6))
        targets = rng.integers(0, n_classes, size=n)
    elif style == "constant":
        targets = np.full(n, rng.choice(HOSTILE_TARGETS))
    elif style == "normal":
        targets = rng.normal(size=n)
    else:
        pool = {"tiny": TINY_TARGETS, "huge": HUGE_TARGETS}.get(style, HOSTILE_TARGETS)
        targets = rng.choice(pool, size=n)
    params = {
        "max_depth": [None, 0, 1, 2, 4, 10][rng.integers(0, 6)],
        "min_samples_leaf": int(rng.integers(1, 5)),
        "max_features": [None, "sqrt", 1][rng.integers(0, 3)],
        "seed": int(rng.integers(0, 10_000)),
    }
    if forest:
        params["n_estimators"] = int(rng.integers(1, 5))
    else:
        params["min_samples_split"] = int(rng.integers(2, 5))
    return matrix, targets, params


def _trees_identical(flat, root) -> bool:
    """Every node's feature, threshold and prediction bits and its child
    links agree, the reference tree laid out in the same pre-order."""
    return all(
        ours.dtype == theirs.dtype
        and ours.shape == theirs.shape
        and ours.tobytes() == theirs.tobytes()
        for ours, theirs in zip(flat, flatten_preorder(root))
    )


def _nan(payload: int) -> np.ndarray:
    """A one-element float64 array holding a quiet NaN with ``payload``."""
    bits = np.array([0x7FF8000000000000 | payload], dtype=np.uint64)
    return bits.view(np.float64)


_FINGERPRINT_DTYPES = [np.float64, np.float32, np.int64, np.int32, np.bool_]


@st.composite
def array_pairs(draw):
    """An array and a copy, a one-bit flip, a retype or a reshape of it."""
    array = draw(
        hnp.arrays(
            dtype=st.sampled_from(_FINGERPRINT_DTYPES),
            shape=hnp.array_shapes(min_dims=1, max_dims=3, max_side=4),
        )
    )
    change = draw(st.sampled_from(["copy", "flip", "retype", "reshape"]))
    other = array.copy()
    if change == "flip" and array.size:
        raw = other.view(np.uint8).reshape(-1)
        position = draw(st.integers(0, raw.size - 1))
        raw[position] ^= np.uint8(1 << draw(st.integers(0, 7)))
    elif change == "retype":
        other = array.astype(draw(st.sampled_from(_FINGERPRINT_DTYPES)))
    elif change == "reshape":
        other = array.reshape(array.shape[::-1])
    return array, other


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# ----------------------------------------------------------------------
# Array fingerprints
# ----------------------------------------------------------------------
@given(array_pairs())
@example((np.array([-0.0]), np.array([0.0])))
@example((_nan(1), _nan(2)))
@example((np.arange(3, dtype=np.int64), np.arange(3, dtype=np.float64)))
@example((np.zeros((2, 3)), np.zeros((3, 2))))
@settings(max_examples=60, deadline=None)
def test_array_fingerprint_is_bit_equality(pair):
    a, b = pair
    assert (array_fingerprint(a) == array_fingerprint(b)) == _same_bits(a, b)


@given(
    hnp.arrays(
        dtype=st.sampled_from(_FINGERPRINT_DTYPES),
        shape=hnp.array_shapes(min_dims=2, max_dims=2, max_side=5),
    )
)
@example(np.arange(6.0).reshape(2, 3))
@settings(max_examples=40, deadline=None)
def test_array_fingerprint_of_view_matches_contiguous_copy(matrix):
    for view in (matrix.T, matrix[::2], matrix[:, ::-1]):
        assert array_fingerprint(view) == array_fingerprint(
            np.ascontiguousarray(view)
        )


# ----------------------------------------------------------------------
# Table fingerprints
# ----------------------------------------------------------------------
class _Token:
    """An arbitrary object; its canonical form is its ``str``."""

    def __init__(self, text):
        self.text = text

    def __str__(self):
        return self.text


_MISSING_FORMS = [
    None, math.nan, np.float64("nan"), np.float32("nan"), "NA", " na ", "?", "",
]

hostile_cell = st.one_of(
    st.sampled_from(
        _MISSING_FORMS
        + [-0.0, 0.0, 1, 1.0, True, False, "1", "1.0", "True", "null"]
        + [np.int64(1), np.float64(1.0), np.float32(1.5), np.bool_(True)]
        + [np.str_("a"), "a", 2**63, 2**63 + 1, -(2**64), "\ud800", "é"]
    ),
    st.builds(_Token, st.sampled_from(["NA", "1", "a", "True", ""])),
    st.integers(min_value=-(2**80), max_value=2**80),
    st.floats(allow_infinity=False),
    st.floats(width=32, allow_infinity=False).map(np.float32),
    st.text(
        st.one_of(
            st.characters(categories=["Ll", "Lo", "Nd", "Zs", "Po"]),
            st.sampled_from(["\ud800", "\udfff"]),
        ),
        max_size=3,
    ),
)


def _aliases(value):
    """Other payloads with the same canonical JSON as ``value``."""
    canonical = canonical_cell(value)
    if canonical is None:
        return _MISSING_FORMS
    if isinstance(canonical, bool):
        return [canonical]
    if isinstance(canonical, int):
        fits = -(2**63) <= canonical < 2**63
        return [canonical] + ([np.int64(canonical)] if fits else [])
    if isinstance(canonical, float):
        return [canonical, np.float64(canonical)]
    strings = [] if is_missing(canonical) else [canonical, np.str_(canonical)]
    return strings + [_Token(canonical)]


@st.composite
def hostile_tables(draw, min_rows=0, cell=hostile_cell):
    n_rows = draw(st.integers(min_value=min_rows, max_value=5))
    kinds = draw(
        st.lists(st.sampled_from([NUMERICAL, CATEGORICAL]), min_size=1, max_size=3)
    )
    schema = Schema.from_pairs([(f"c{i}", kind) for i, kind in enumerate(kinds)])
    cells = st.lists(cell, min_size=n_rows, max_size=n_rows)
    return Table(schema, {name: draw(cells) for name in schema.names})


@st.composite
def hostile_table_pairs(draw):
    """A hostile table and a twin of aliases, one cell maybe redrawn."""
    table = draw(hostile_tables())
    twin = {
        name: [draw(st.sampled_from(_aliases(v))) for v in table.column(name)]
        for name in table.column_names
    }
    if table.n_rows and draw(st.booleans()):
        name = draw(st.sampled_from(table.column_names))
        twin[name][draw(st.integers(0, table.n_rows - 1))] = draw(hostile_cell)
    return table, Table(table.schema, twin)


def _hostile(*columns):
    schema = Schema.from_pairs([(f"c{i}", CATEGORICAL) for i in range(len(columns))])
    return Table(schema, {f"c{i}": list(c) for i, c in enumerate(columns)})


@given(hostile_table_pairs())
@example((_hostile([None, "NA"]), _hostile([np.float32("nan"), " na "])))
@example((_hostile([-0.0]), _hostile([0.0])))
@example((_hostile([1, 1.0, True]), _hostile(["1", "1", "1"])))
@example((_hostile([2**63 + 1]), _hostile([2**63])))
@example((_hostile([_Token("NA")]), _hostile(["NA"])))
@example((_hostile([np.bool_(True)]), _hostile(["True"])))
@example((_hostile([True]), _hostile([False])))
@example((_hostile([1, 23]), _hostile([12, 3])))
@example((_hostile([None, 1.0, "a"]), _hostile(["a", None, 1.0])))
@example((_hostile(["ab", "c"]), _hostile(["a", "bc"])))
@example((_hostile(["\ud800"]), _hostile(["\udfff"])))
@example((_hostile([1.5], [1]), _hostile([np.float32(1.5)], [np.int64(1)])))
@example((_hostile([2**64, "a"]), _hostile(["18446744073709551616", "a"])))
@settings(max_examples=300, deadline=None)
def test_table_fingerprint_equality_matches_reference(pair):
    a, b = pair
    same = reference_table_fingerprint(a) == reference_table_fingerprint(b)
    assert (table_fingerprint(a) == table_fingerprint(b)) == same


@given(hostile_tables(min_rows=1), st.data())
@settings(max_examples=60, deadline=None)
def test_block_fingerprint_is_block_view_fingerprint(table, data):
    start = data.draw(st.integers(0, table.n_rows))
    stop = data.draw(st.integers(start, table.n_rows))
    block = table_block_fingerprint(table, start, stop)
    assert block == table_fingerprint(table.block_view(start, stop))
    copy = Table(
        table.schema,
        {n: list(table.column(n)[start:stop]) for n in table.column_names},
    )
    assert block == table_fingerprint(copy)


# ----------------------------------------------------------------------
# Cell diffs
# ----------------------------------------------------------------------
#: Hostile cells plus the pairs ``values_equal`` relates across types:
#: infinities, numbers and their text, padded missing tokens.
diff_cell = st.one_of(
    hostile_cell,
    st.sampled_from(
        [math.inf, -math.inf, np.float64("-inf"), "inf", " -Inf", 3, 3.0,
         "3.0", " 3 ", " NA ", None, _nan(7)[0].item()]
    ),
)


@st.composite
def diff_table_pairs(draw):
    """A hostile table and a twin whose cells are kept, aliased or
    redrawn one by one."""
    table = draw(hostile_tables(cell=diff_cell))
    twin = {
        name: [
            draw(st.one_of(st.just(v), st.sampled_from(_aliases(v)), diff_cell))
            for v in table.column(name)
        ]
        for name in table.column_names
    }
    return table, Table(table.schema, twin)


@given(diff_table_pairs())
@example((_hostile([_nan(1)[0].item()]), _hostile([_nan(2)[0].item()])))
@example((_hostile([-0.0, 0.0]), _hostile([0.0, -0.0])))
@example((_hostile(["3.0", 3.0, 3]), _hostile([3.0, "3.0", 3.0])))
@example((_hostile([" NA ", None, math.nan]), _hostile([None, " NA ", "?"])))
@example((_hostile([1, True, 0]), _hostile([True, 1, False])))
@example((_hostile([2**64, 2**64, -(2**70)]),
          _hostile(["18446744073709551616", 2**64 + 1, -(2**70)])))
@example((_hostile([np.int64(3), np.float32(1.5), np.str_("a"), np.bool_(True)]),
          _hostile([3, 1.5, "a", True])))
@example((_hostile([math.inf, -math.inf, math.inf]),
          _hostile(["inf", -math.inf, -math.inf])))
@example((_hostile(["a", "b", "a"]), _hostile(["b", "a", "a "])))
@example((_hostile([1.0, 0.0, 1e300, "1.0000000000001", 1.7e308, 2e-12]),
          _hostile([1 + 1e-13, 5e-13, 1e300 * (1 + 1e-13), 1.0, -1.7e308, 0.0])))
@settings(max_examples=300, deadline=None)
def test_diff_cells_matches_per_cell_reference(pair):
    a, b = pair
    for mine, theirs in ((a, b), (b, a)):
        for columns in (None, mine.column_names[::-2]):
            typed = mine.diff_cells(theirs, columns)
            reference = reference_diff_cells(mine, theirs, columns)
            # Equal sets built in the same order iterate the same way.
            assert list(typed) == list(reference)
    assert a.diff_cells(a) == set()


@st.composite
def repair_scoring_triples(draw):
    """Dirty, repaired and clean versions of one hostile table (each
    cell kept, aliased or redrawn), some error cells and a column pick."""
    dirty = draw(hostile_tables(cell=diff_cell))

    def version():
        return Table(dirty.schema, {
            name: [
                draw(st.one_of(
                    st.just(v), st.sampled_from(_aliases(v)), diff_cell
                ))
                for v in dirty.column(name)
            ]
            for name in dirty.column_names
        })

    repaired, clean = version(), version()
    cells = [(i, n) for n in dirty.column_names for i in range(dirty.n_rows)]
    errors = draw(st.sets(st.sampled_from(cells))) if cells else set()
    columns = draw(st.one_of(
        st.none(), st.lists(st.sampled_from(dirty.column_names), unique=True)
    ))
    return dirty, repaired, clean, errors, columns


@given(repair_scoring_triples())
@example((_hostile([None, "a", 1.0]), _hostile(["NA", "b", "1.0"]),
          _hostile([math.nan, "b", 1]), {(0, "c0"), (1, "c0")}, None))
@example((_hostile([-0.0, math.inf]), _hostile([0.0, "inf"]),
          _hostile([0.0, math.inf]), set(), ["c0"]))
@settings(max_examples=200, deadline=None)
def test_repair_scores_match_per_cell_reference(triple):
    dirty, repaired, clean, errors, columns = triple
    got = repair_scores_categorical(dirty, repaired, clean, errors, columns)
    want = reference_repair_scores_categorical(
        dirty, repaired, clean, errors, columns
    )
    assert got == want


# ----------------------------------------------------------------------
# Column views
# ----------------------------------------------------------------------
def _same_cell(a, b) -> bool:
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        return struct.pack("<d", a) == struct.pack("<d", b)
    if isinstance(a, np.generic):
        return a.tobytes() == b.tobytes()
    if a is None or isinstance(a, (bool, int, str)):
        return a == b
    return pickle.dumps(a) == pickle.dumps(b)


#: Columns whose views hit every lane: big ints beside their decimal
#: text, NaN payloads, -0.0, bools beside ints, numpy scalars.
_LANE_COLUMNS = _hostile(
    [2**64, "18446744073709551616", 1, True, -0.0, 0.0, _nan(5)[0].item()],
    [np.float32("nan"), None, "NA", "x", "x", np.int64(3), _Token("NA")],
)


@given(hostile_tables())
@example(_LANE_COLUMNS)
@settings(max_examples=150, deadline=None)
def test_codec_round_trip_is_type_and_bit_identical(table):
    encoded = table.to_buffers()
    buf = bytearray(encoded.nbytes)
    encoded.write_into(buf)
    restored = Table.from_buffers(encoded.meta, buf)
    for name in table.column_names:
        pairs = zip(table.column(name), restored.column(name))
        assert all(_same_cell(a, b) for a, b in pairs), name


@given(hostile_tables())
@example(_LANE_COLUMNS)
@settings(max_examples=150, deadline=None)
def test_view_consumers_match_per_cell_definitions(table):
    for name in table.column_names:
        cells = table.column(name)
        for fn in (str, repr, is_missing, coerce_float):
            expected = [fn(v) for v in cells]
            assert normalized_column(table.column_view(name), fn) == expected
            assert normalized_column(list(cells), fn) == expected
        floats = np.array([coerce_float(v) for v in cells], dtype=np.float64)
        assert table.as_float(name).tobytes() == floats.tobytes()
        assert table.missing_mask(name).tolist() == [is_missing(v) for v in cells]
    rows = [
        [encode_cell_value(v) for v in table.row(i)] for i in range(table.n_rows)
    ]
    assert json.dumps(table_to_payload(table)["rows"]) == json.dumps(rows)


@given(hostile_tables(min_rows=1), st.data())
@settings(max_examples=100, deadline=None)
def test_column_view_memo_follows_writes(table, data):
    name = data.draw(st.sampled_from(table.column_names))
    view = table.column_view(name)
    assert table.column_view(name) is view
    row = data.draw(st.integers(0, table.n_rows - 1))
    table.set_cell(row, name, data.draw(hostile_cell))
    memo, fresh = table.column_view(name), ColumnView(list(table.column(name)))
    assert memo.tags.tobytes() == fresh.tags.tobytes()
    assert memo.lane.tobytes() == fresh.lane.tobytes()
    assert memo.strings == fresh.strings
    cells = table.column(name)
    assert normalized_column(memo, repr) == [repr(v) for v in cells]


# ----------------------------------------------------------------------
# Cache transparency
# ----------------------------------------------------------------------
@given(small_tables())
@settings(max_examples=40, deadline=None)
def test_cache_hit_encode_is_byte_identical(tmp_path_factory, table):
    fresh_encoder = TableEncoder(max_categories=5)
    fresh = fresh_encoder.fit_transform(table)
    root = tmp_path_factory.mktemp("art")
    cache = ArtifactCache(str(root))
    with cache_scope(cache):
        cold = TableEncoder(max_categories=5).fit_transform(table)
        warm_encoder = TableEncoder(max_categories=5)
        warm = warm_encoder.fit_transform(table)
    assert cache.stats()["hits"] == 1
    assert cold.dtype == fresh.dtype and warm.dtype == fresh.dtype
    assert cold.tobytes() == fresh.tobytes()
    assert warm.tobytes() == fresh.tobytes()
    # Restored fitted state transforms an unseen table identically.
    assert warm_encoder.transform(table).tobytes() == (
        fresh_encoder.transform(table).tobytes()
    )


@given(small_tables(min_rows=2), st.integers(0, 1))
@settings(max_examples=25, deadline=None)
def test_cache_hit_supervised_encode_is_byte_identical(
    tmp_path_factory, table, task_index
):
    target = table.column_names[0]
    task = ("classification", "regression")[task_index]
    fresh = encode_supervised(table, table, target, task)
    cache = ArtifactCache(str(tmp_path_factory.mktemp("art")))
    with cache_scope(cache):
        encode_supervised(table, table, target, task)
        warm = encode_supervised(table, table, target, task)
    assert cache.stats()["hits"] == 1
    for got, expected in zip(warm[:4], fresh[:4]):
        assert got.dtype == expected.dtype
        assert got.tobytes() == expected.tobytes()


# ----------------------------------------------------------------------
# Kernel equivalence: vectorized vs frozen reference
# ----------------------------------------------------------------------
@given(feature_matrices(), tree_params, st.integers(0, 2))
@settings(max_examples=60, deadline=None)
def test_classifier_tree_and_predictions_match_reference(
    matrix, params, n_extra_classes
):
    rng = np.random.default_rng(params["seed"])
    targets = rng.integers(0, 2 + n_extra_classes, size=len(matrix))
    ours = DecisionTreeClassifier(**params).fit(matrix, targets)
    reference = ReferenceDecisionTreeClassifier(**params).fit(matrix, targets)
    assert _trees_identical(ours.tree_, reference.root_)
    assert np.array_equal(
        ours.predict_proba(matrix), reference.predict_proba(matrix)
    )
    assert np.array_equal(ours.predict(matrix), reference.predict(matrix))


@given(feature_matrices(), tree_params)
@settings(max_examples=60, deadline=None)
def test_regressor_tree_and_predictions_match_reference(matrix, params):
    rng = np.random.default_rng(params["seed"] + 1)
    targets = rng.normal(size=len(matrix))
    ours = DecisionTreeRegressor(**params).fit(matrix, targets)
    reference = ReferenceDecisionTreeRegressor(**params).fit(matrix, targets)
    assert _trees_identical(ours.tree_, reference.root_)
    assert np.array_equal(ours.predict(matrix), reference.predict(matrix))


@given(feature_matrices(), tree_params)
@settings(max_examples=30, deadline=None)
def test_weighted_classifier_fit_matches_reference(matrix, params):
    rng = np.random.default_rng(params["seed"] + 2)
    targets = rng.integers(0, 2, size=len(matrix))
    weights = rng.random(len(matrix)) + 1e-3
    ours = DecisionTreeClassifier(**params).fit(
        matrix, targets, sample_weight=weights
    )
    reference = ReferenceDecisionTreeClassifier(**params).fit(
        matrix, targets, sample_weight=weights
    )
    assert _trees_identical(ours.tree_, reference.root_)


_STUMP = {"max_depth": None, "min_samples_split": 2, "min_samples_leaf": 1,
          "max_features": None, "seed": 0}


@given(hostile_fits())
# A one-row leaf holding -0.0 (the reference's mean reads 0.0).
@example((np.array([[0.0], [1.0]]), np.array([-0.0, 5.0]), _STUMP))
# A split whose impurity decrease is NaN (inf - inf): never taken.
@example((np.array([[2.0], [1.0]]), np.array([math.inf, -1e300]), _STUMP))
@settings(max_examples=60, deadline=None)
def test_regressor_tree_matches_reference_on_hostile_targets(fit):
    matrix, targets, params = fit
    with np.errstate(all="ignore"):
        ours = DecisionTreeRegressor(**params).fit(matrix, targets)
        reference = ReferenceDecisionTreeRegressor(**params).fit(matrix, targets)
        assert _trees_identical(ours.tree_, reference.root_)
        assert ours.predict(matrix).tobytes() == reference.predict(matrix).tobytes()


@given(hostile_fits(classes=True))
@settings(max_examples=40, deadline=None)
def test_classifier_tree_matches_reference_on_hostile_nodes(fit):
    matrix, targets, params = fit
    ours = DecisionTreeClassifier(**params).fit(matrix, targets)
    reference = ReferenceDecisionTreeClassifier(**params).fit(matrix, targets)
    assert _trees_identical(ours.tree_, reference.root_)
    assert ours.predict_proba(matrix).tobytes() == (
        reference.predict_proba(matrix).tobytes()
    )


@given(st.booleans(), st.data())
@settings(max_examples=40, deadline=None)
def test_forests_match_a_forest_of_reference_trees(classify, data):
    matrix, targets, params = data.draw(hostile_fits(classify, forest=True))
    forest_class = RandomForestClassifier if classify else RandomForestRegressor
    with np.errstate(all="ignore"):
        ours = forest_class(**params).fit(matrix, targets)
        reference = reference_forest(forest_class(**params), matrix, targets)
        for tree, reference_tree in zip(ours.trees_, reference.trees_):
            assert _trees_identical(tree.tree_, reference_tree.root_)
        assert ours.predict(matrix).tobytes() == (
            reference.predict(matrix).tobytes()
        )
        if classify:
            assert ours.predict_proba(matrix).tobytes() == (
                reference.predict_proba(matrix).tobytes()
            )


@given(
    feature_matrices(max_rows=60, max_cols=4),
    st.integers(1, 6),
    st.integers(2, 64),
    st.integers(0, 10_000),
)
@settings(max_examples=50, deadline=None)
def test_isolation_forest_matches_reference_builder(
    matrix, n_estimators, max_samples, seed
):
    params = dict(n_estimators=n_estimators, max_samples=max_samples, seed=seed)
    ours = IsolationForest(**params).fit(matrix)
    reference = reference_isolation_forest(IsolationForest(**params), matrix)
    assert ours.threshold_ == reference.threshold_
    for block_rows in (None, 7):
        assert ours.score_samples(matrix, block_rows).tobytes() == (
            reference.score_samples(matrix, block_rows).tobytes()
        )
        assert ours.predict(matrix, block_rows).tobytes() == (
            reference.predict(matrix, block_rows).tobytes()
        )


#: Finite features with duplicates, signed zeros, subnormals and
#: magnitudes near the float64 limit.
hostile_feature = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.7e308, -1.7e308, 1.0]),
)


@given(
    st.lists(hostile_feature, min_size=1, max_size=5),
    st.data(),
    st.integers(1, 6),
    st.integers(1, 64),
    st.integers(0, 10_000),
)
@example(
    [1.7e308, -1.7e308, 0.0, -0.0, 1.0],
    None,
    3,
    16,
    7,
)
@settings(max_examples=80, deadline=None)
def test_one_feature_isolation_search_equals_routing(
    pool, data, n_estimators, max_samples, seed
):
    if data is None:  # the explicit example: the pool itself, twice
        column, queries = pool * 2, pool
    else:
        column = data.draw(st.lists(st.sampled_from(pool), min_size=1,
                                    max_size=40))
        queries = data.draw(st.lists(hostile_feature, max_size=10))
    column = np.array(column, dtype=np.float64)
    probe = np.concatenate([column, np.array(queries, dtype=np.float64)])
    params = dict(n_estimators=n_estimators, max_samples=max_samples, seed=seed)
    with np.errstate(all="ignore"):
        forest = IsolationForest(**params).fit(column[:, None])
        c_norm = _average_path_length(float(forest.subsample_size_)) or 1.0
        assert forest.score_samples(probe[:, None]).tobytes() == (
            reference_isolation_score_rows(forest, probe[:, None], c_norm)
            .tobytes()
        )
        # NaN is refused by ``score_samples``; per tree it goes right at
        # every node, to the last leaf, on both paths.
        with_nan = np.append(probe, np.nan)
        for tree, arrays in zip(forest.trees_, forest.search_trees_):
            if arrays is None:
                continue
            thresholds, leaf_values = arrays
            by_search = leaf_values[
                np.searchsorted(thresholds, with_nan, side="left")
            ]
            by_routing = tree[4][_leaf_indices(*tree[:4], with_nan[:, None])]
            assert by_search.tobytes() == by_routing.tobytes()
        twice = IsolationForest(**params)
        flags = IsolationForest(**params).fit_predict(column[:, None])
        expected = reference_isolation_fit_predict(twice, column[:, None])
    assert flags.tobytes() == expected.tobytes()


def test_one_feature_isolation_trees_are_scored_by_search():
    column = np.random.default_rng(0).normal(size=(500, 1))
    forest = IsolationForest(n_estimators=20, seed=1).fit(column)
    assert all(arrays is not None for arrays in forest.search_trees_)
    assert IsolationForest().fit(np.ones((8, 2))).search_trees_ is None


@given(
    st.integers(1, 40),
    st.integers(1, 3),
    st.data(),
    st.integers(1, 6),
    st.integers(1, 64),
    st.integers(0, 10_000),
    st.one_of(st.none(), st.integers(1, 9)),
)
@settings(max_examples=60, deadline=None)
def test_isolation_fit_predict_is_fit_then_predict(
    n_rows, n_cols, data, n_estimators, max_samples, seed, block_rows
):
    flat = data.draw(
        st.lists(hostile_feature, min_size=n_rows * n_cols,
                 max_size=n_rows * n_cols)
    )
    matrix = np.array(flat, dtype=np.float64).reshape(n_rows, n_cols)
    params = dict(n_estimators=n_estimators, max_samples=max_samples, seed=seed)

    once, twice = IsolationForest(**params), IsolationForest(**params)
    with np.errstate(all="ignore"):
        flags = once.fit_predict(matrix, block_rows)
        expected = reference_isolation_fit_predict(twice, matrix, block_rows)
    assert flags.dtype == expected.dtype
    assert flags.tobytes() == expected.tobytes()
    assert once.threshold_ == twice.threshold_


@given(feature_matrices(max_rows=25, max_cols=5), st.integers(0, 10_000))
@settings(max_examples=50, deadline=None)
def test_blocked_distances_match_reference(reference_matrix, seed):
    rng = np.random.default_rng(seed)
    queries = rng.normal(scale=50.0, size=(rng.integers(1, 20), reference_matrix.shape[1]))
    ours = _pairwise_sq_distances(queries, reference_matrix, block_size=3)
    naive = reference_pairwise_sq_distances(queries, reference_matrix)
    # The expansion trick computes ||q||^2 + ||r||^2 - 2 q.r, so its
    # rounding error scales with the *norms*, not the distance: two
    # nearly-identical far-from-origin points cancel catastrophically
    # and the absolute error can dwarf the tiny true distance.  The
    # tolerance must therefore scale with the operand magnitudes.
    q_norms = (queries**2).sum(axis=1)
    r_norms = (reference_matrix**2).sum(axis=1)
    scale = np.maximum(q_norms[:, None] + r_norms[None, :], 1.0)
    assert np.all(np.abs(ours - naive) / scale < 1e-12)


#: Floats a memoized run may carry, NaN and both infinities included.
any_float = st.floats(allow_nan=True, allow_infinity=True)

stored_cell = st.one_of(
    st.none(), any_float, st.text(alphabet="abcxyz019 ._-\"\\", max_size=8)
)


@st.composite
def memoized_runs(draw):
    """A run of every memoized type, scores and cells hostile."""
    scores = DetectionScores(
        draw(any_float), draw(any_float), draw(any_float),
        *draw(st.tuples(*[st.integers(0, 10 ** 6)] * 3)),
    )
    cells = draw(st.frozensets(st.tuples(
        st.integers(0, 10 ** 6), st.text(max_size=4)
    ), max_size=6))
    detection = DetectionRun(
        "SD", DetectionResult("SD", cells, draw(any_float)), scores
    )
    table = draw(small_tables())
    for name in table.schema.names:
        for row in range(table.n_rows):
            table.set_cell(row, name, draw(stored_cell))
    metadata = draw(st.dictionaries(
        st.text(max_size=4), st.one_of(any_float, st.text(max_size=4)),
        max_size=3,
    ))
    repair = RepairRun(
        "SD", "GT", RepairResult("GT", table, draw(any_float), metadata),
        *draw(st.tuples(*[any_float] * 4)),
    )
    return [detection, repair, ScenarioRun(draw(any_float))]


@given(memoized_runs())
@settings(max_examples=60, deadline=None)
def test_memoized_payload_text_survives_decoding(runs):
    """The driver checkpoints a memo hit from its decoded payload: that
    payload must encode to the stored text, which is also what the run
    it decodes to would encode to."""
    for run in runs:
        text = encode_payload(run.to_payload())
        payload = decode_payload(text)
        assert encode_payload(payload) == text
        replayed = type(run).from_payload(payload)
        assert encode_payload(replayed.to_payload()) == text
