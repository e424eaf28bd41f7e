"""Row-block sharding: zero-copy views, block fingerprints, the blocked
execution plan, and the blocked == unblocked byte-identity contract.

The substrate's promise is exact: for any block size, streaming
inference over row blocks produces *byte-identical* results to the
whole-table run -- detectors, encoder transforms,
and ML-kernel predictions alike.  The property tests here drive that
promise with hypothesis-chosen tables and block sizes, including blocks
that split rows carrying quoted/multiline text cells straight out of a
CSV round trip.
"""

import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.benchmark.runner import run_detection_suite
from repro.cache.keys import table_block_fingerprint, table_fingerprint
from repro.context import CleaningContext
from repro.datagen import generate
from repro.dataset import CATEGORICAL, NUMERICAL, Schema, Table
from repro.dataset.encoding import TableEncoder
from repro.detectors import IQRDetector, MVDetector, SDDetector
from repro.detectors.base import BlockwiseDetector
from repro.ml.forest import (
    IsolationForest,
    RandomForestClassifier,
    RandomForestRegressor,
)
from repro.ml.neighbors import KNNClassifier, KNNRegressor
from repro.ml.tree import DecisionTreeClassifier, DecisionTreeRegressor
from repro.parallel.engine import block_spans, block_unit_key, null_sleep
from repro.resilience import SuiteCheckpoint

from oracles.detectors import (
    reference_iqr_detect,
    reference_mv_detect,
    reference_sd_detect,
)


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
#: Text values deliberately include the CSV troublemakers: commas,
#: double quotes, and embedded newlines, all of which force quoting on
#: write and multi-line records on read.
tricky_text = st.text(
    alphabet='abc019 ,"\n._-', min_size=0, max_size=10
)

cell_value = st.one_of(
    st.none(),
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    tricky_text,
)


@st.composite
def small_tables(draw, min_rows=1, max_rows=16):
    n_rows = draw(st.integers(min_value=min_rows, max_value=max_rows))
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


block_sizes = st.integers(min_value=1, max_value=20)


# ----------------------------------------------------------------------
# Block views
# ----------------------------------------------------------------------
class TestBlockViews:
    @pytest.fixture
    def table(self):
        schema = Schema.from_pairs([("n", NUMERICAL), ("c", CATEGORICAL)])
        return Table(
            schema,
            {"n": [1.0, 2.0, 3.0, 4.0, 5.0], "c": ["a", "b", "c", "d", "e"]},
        )

    def test_view_is_zero_copy(self, table):
        view = table.block_view(1, 4)
        assert view.n_rows == 3
        # Shares the parent's buffer: a parent write shows through.
        assert np.shares_memory(
            view.column("n"), table.column("n")
        )

    def test_view_is_read_only(self, table):
        view = table.block_view(0, 2)
        with pytest.raises(TypeError):
            view.set_cell(0, "n", 9.0)
        # The parent stays writable.
        table.set_cell(0, "n", 9.0)
        assert table.get_cell(0, "n") == 9.0

    def test_view_rows_match_parent(self, table):
        view = table.block_view(2, 5)
        for offset in range(3):
            assert view.row(offset) == table.row(2 + offset)

    def test_bad_bounds(self, table):
        with pytest.raises(IndexError):
            table.block_view(-1, 3)
        with pytest.raises(IndexError):
            table.block_view(3, 2)
        with pytest.raises(IndexError):
            table.block_view(0, 6)

    def test_iter_blocks_tiles_exactly(self, table):
        starts = []
        total = 0
        for start, block in table.iter_blocks(2):
            starts.append(start)
            total += block.n_rows
        assert starts == [0, 2, 4]
        assert total == table.n_rows

    def test_iter_blocks_validates(self, table):
        with pytest.raises(ValueError):
            list(table.iter_blocks(0))

    @given(small_tables(), block_sizes)
    @settings(max_examples=40, deadline=None)
    def test_blocks_reassemble_to_parent(self, table, block_rows):
        seen = []
        for start, block in table.iter_blocks(block_rows):
            for offset in range(block.n_rows):
                seen.append(block.row(offset))
        assert seen == [table.row(i) for i in range(table.n_rows)]


# ----------------------------------------------------------------------
# Block fingerprints
# ----------------------------------------------------------------------
class TestBlockFingerprints:
    def _table(self):
        schema = Schema.from_pairs([("n", NUMERICAL)])
        return Table(schema, {"n": [1.0, 2.0, 3.0, 4.0]})

    def test_matches_slice_fingerprint(self):
        table = self._table()
        assert table_block_fingerprint(table, 1, 3) == table_fingerprint(
            table.block_view(1, 3)
        )

    def test_memo_survives_reads_not_writes(self):
        table = self._table()
        first = table_block_fingerprint(table, 0, 2)
        assert table_block_fingerprint(table, 0, 2) == first
        table.set_cell(0, "n", 99.0)
        assert table_block_fingerprint(table, 0, 2) != first
        # An untouched block keeps its (recomputed) digest stable.
        tail = table_block_fingerprint(table, 2, 4)
        table.set_cell(0, "n", 100.0)
        assert table_block_fingerprint(table, 2, 4) == tail

    def test_distinct_blocks_distinct_digests(self):
        table = self._table()
        assert table_block_fingerprint(table, 0, 2) != table_block_fingerprint(
            table, 2, 4
        )

    def test_view_memos_follow_parent_writes(self):
        table = self._table()
        view = table.block_view(0, 2)
        before = table_fingerprint(view)
        assert view.as_float("n")[0] == 1.0
        table.set_cell(0, "n", 99.0)
        assert view.column("n")[0] == 99.0
        assert table_fingerprint(view) != before
        assert table_fingerprint(view) == table_fingerprint(
            table.block_view(0, 2)
        )
        assert view.as_float("n")[0] == 99.0


# ----------------------------------------------------------------------
# Engine plumbing
# ----------------------------------------------------------------------
class TestBlockSpans:
    def test_tiles_without_gaps(self):
        spans = block_spans(10, 3)
        assert spans == [(0, 3), (3, 6), (6, 9), (9, 10)]

    def test_single_span_when_block_exceeds_rows(self):
        assert block_spans(5, 100) == [(0, 5)]

    def test_empty_table_gets_one_empty_span(self):
        assert block_spans(0, 4) == [(0, 0)]

    def test_validates(self):
        with pytest.raises(ValueError):
            block_spans(10, 0)
        with pytest.raises(ValueError):
            block_spans(-1, 4)

    def test_block_unit_key_is_stable(self):
        assert block_unit_key("det/x", 0, 512) == "det/x@rows0-512"


class _BoomOnLaterBlock(SDDetector):
    """SD variant that crashes once detection reaches a given row."""

    name = "SD"

    def __init__(self, boom_at: int) -> None:
        super().__init__()
        self.boom_at = boom_at

    def _detect_block(self, context, fitted, block, start):
        if start >= self.boom_at:
            raise RuntimeError("boom")
        return super()._detect_block(context, fitted, block, start)


class TestBlockedDetectionSuite:
    def test_blocked_matches_unblocked(self):
        dataset = generate("Adult", n_rows=120, seed=2)
        detectors = [MVDetector(), SDDetector(), IQRDetector()]
        plain = run_detection_suite(dataset, detectors, seed=0)
        for block_rows in (1, 7, 64, 120, 999):
            blocked = run_detection_suite(
                dataset,
                [MVDetector(), SDDetector(), IQRDetector()],
                seed=0,
                block_rows=block_rows,
            )
            for a, b in zip(plain, blocked):
                assert a.result.cells == b.result.cells
                assert a.scores == b.scores

    def test_failed_block_fails_the_unit(self):
        dataset = generate("Adult", n_rows=60, seed=2)
        runs = run_detection_suite(
            dataset, [_BoomOnLaterBlock(boom_at=20)], seed=0, block_rows=10
        )
        assert runs[0].failed
        assert runs[0].result.cells == frozenset()

    def test_block_rows_validation(self):
        dataset = generate("Adult", n_rows=20, seed=2)
        with pytest.raises(ValueError):
            run_detection_suite(dataset, [MVDetector()], block_rows=0)


class _StepClock:
    """Deterministic clock: every reading advances one power-of-two tick."""

    def __init__(self) -> None:
        self.ticks = 0

    def __call__(self) -> float:
        self.ticks += 1
        return self.ticks * 2.0 ** -10


class _SpySD(SDDetector):
    """SD that logs its whole-table and per-block detection calls, and
    can simulate a kill when detection reaches a given block."""

    name = "SD"

    def __init__(self, log, interrupt_at=None) -> None:
        super().__init__()
        self.log = log
        self.interrupt_at = interrupt_at

    def detect(self, context):
        self.log.append("detect")
        return super().detect(context)

    def detect_block(self, context, fitted, block, start):
        if start == self.interrupt_at:
            raise KeyboardInterrupt
        self.log.append(start)
        return super().detect_block(context, fitted, block, start)


class TestBlockedResume:
    """Checkpoint interop between blocked and unblocked runs."""

    BLOCK_ROWS = 30  # 120 rows -> four blocks per blockwise detector

    def _suite(self, path, spy, block_rows, resume):
        with SuiteCheckpoint.open(path, "run", resume=resume) as checkpoint:
            return run_detection_suite(
                generate("Adult", n_rows=120, seed=2),
                [spy, MVDetector(), IQRDetector()],
                clock=_StepClock(),
                sleep=null_sleep,
                checkpoint=checkpoint,
                block_rows=block_rows,
            )

    @staticmethod
    def _final_units(runs):
        """Run payloads minus the runtime, which differs by mode."""
        payloads = [run.to_payload() for run in runs]
        for payload in payloads:
            del payload["runtime_seconds"]
        return payloads

    @staticmethod
    def _store(path):
        with SuiteCheckpoint.open(path, "run", resume=True) as checkpoint:
            units = sorted(checkpoint.completed_units())
            return json.dumps(
                {unit: checkpoint.get(unit) for unit in units}, sort_keys=True
            )

    def _uninterrupted(self, tmp_path, block_rows):
        path = str(tmp_path / f"reference-{block_rows}.sqlite")
        return self._suite(path, _SpySD([]), block_rows, resume=False), path

    def test_unblocked_store_feeds_blocked_resume(self, tmp_path):
        written, path = self._uninterrupted(tmp_path, None)
        log = []
        resumed = self._suite(path, _SpySD(log), self.BLOCK_ROWS, resume=True)
        assert log == []  # no detect_block (and no detect) call
        assert self._final_units(resumed) == self._final_units(written)

    def test_blocked_store_feeds_unblocked_resume(self, tmp_path):
        written, path = self._uninterrupted(tmp_path, self.BLOCK_ROWS)
        log = []
        resumed = self._suite(path, _SpySD(log), None, resume=True)
        assert log == []  # no detect call
        assert [run.to_payload() for run in resumed] == [
            run.to_payload() for run in written
        ]
        plain, _ = self._uninterrupted(tmp_path, None)
        assert self._final_units(resumed) == self._final_units(plain)

    def test_interrupted_blocked_run_resumes_remaining_blocks(self, tmp_path):
        path = str(tmp_path / "killed.sqlite")
        log = []
        with pytest.raises(KeyboardInterrupt):
            self._suite(
                path, _SpySD(log, interrupt_at=60), self.BLOCK_ROWS,
                resume=False,
            )
        assert log == [0, 30]  # two of SD's four blocks finalized
        log = []
        resumed = self._suite(path, _SpySD(log), self.BLOCK_ROWS, resume=True)
        assert log == [60, 90]  # the finalized blocks never re-ran
        written, reference = self._uninterrupted(tmp_path, self.BLOCK_ROWS)
        assert self._store(path) == self._store(reference)
        plain, _ = self._uninterrupted(tmp_path, None)
        assert self._final_units(resumed) == self._final_units(plain)
        assert [run.to_payload() for run in resumed] == [
            run.to_payload() for run in written
        ]


# ----------------------------------------------------------------------
# Byte-identity properties
# ----------------------------------------------------------------------
def _context(table):
    return CleaningContext(dirty=table)


#: Each blockwise detector with its frozen whole-table oracle.
_BLOCKWISE_ORACLES = (
    (MVDetector(), reference_mv_detect),
    (SDDetector(), reference_sd_detect),
    (IQRDetector(), reference_iqr_detect),
)


@given(small_tables(), block_sizes)
@settings(max_examples=40, deadline=None)
def test_blockwise_detectors_byte_identical(table, block_rows):
    for detector, reference in _BLOCKWISE_ORACLES:
        context = _context(table)
        whole = reference(detector, context)
        fitted = detector.fit_profile(context)
        streamed = set()
        for start, block in table.iter_blocks(block_rows):
            streamed |= detector._detect_block(context, fitted, block, start)
        assert streamed == whole, detector.name


@given(small_tables(min_rows=2), block_sizes)
@settings(max_examples=30, deadline=None)
def test_encoder_transform_byte_identical(table, block_rows):
    encoder = TableEncoder().fit(table)
    whole = encoder.transform(table)
    blocked = encoder.transform(table, block_rows=block_rows)
    assert whole.dtype == blocked.dtype
    assert np.array_equal(whole, blocked)  # exact, not approx


@given(
    st.integers(0, 2**32 - 1),
    st.integers(min_value=1, max_value=17),
)
@settings(max_examples=20, deadline=None)
def test_ml_kernels_byte_identical(seed, block_rows):
    rng = np.random.default_rng(seed)
    train = rng.normal(size=(40, 4))
    labels = rng.integers(0, 3, size=40)
    targets = rng.normal(size=40)
    queries = rng.normal(size=(23, 4))

    classifier = DecisionTreeClassifier(max_depth=4, seed=0).fit(train, labels)
    assert np.array_equal(
        classifier.predict_proba(queries),
        classifier.predict_proba(queries, block_rows=block_rows),
    )
    regressor = DecisionTreeRegressor(max_depth=4, seed=0).fit(train, targets)
    assert np.array_equal(
        regressor.predict(queries),
        regressor.predict(queries, block_rows=block_rows),
    )
    forest_c = RandomForestClassifier(n_estimators=5, seed=0).fit(train, labels)
    assert np.array_equal(
        forest_c.predict_proba(queries),
        forest_c.predict_proba(queries, block_rows=block_rows),
    )
    forest_r = RandomForestRegressor(n_estimators=5, seed=0).fit(train, targets)
    assert np.array_equal(
        forest_r.predict(queries),
        forest_r.predict(queries, block_rows=block_rows),
    )
    iso = IsolationForest(n_estimators=5, seed=0).fit(train)
    assert np.array_equal(
        iso.score_samples(queries),
        iso.score_samples(queries, block_rows=block_rows),
    )
    knn_c = KNNClassifier(n_neighbors=3).fit(train, labels)
    assert np.array_equal(
        knn_c.predict_proba(queries),
        knn_c.predict_proba(queries, block_rows=block_rows),
    )
    knn_r = KNNRegressor(n_neighbors=3).fit(train, targets)
    assert np.array_equal(
        knn_r.predict(queries),
        knn_r.predict(queries, block_rows=block_rows),
    )


@given(table=small_tables(min_rows=2), block_rows=block_sizes)
@settings(max_examples=25, deadline=None)
def test_csv_round_trip_then_blocked_identity(tmp_path_factory, table, block_rows):
    """Blocks that split quoted/multiline CSV rows change nothing.

    A text cell holding commas, quotes, or embedded newlines survives
    the CSV round trip as one logical row; block boundaries falling on
    or around such rows must not perturb detection or encoding.
    """
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    table.to_csv(str(path))
    reloaded = Table.from_csv(str(path), table.schema)
    assert reloaded.n_rows == table.n_rows

    context = _context(reloaded)
    for detector, reference in _BLOCKWISE_ORACLES:
        whole = reference(detector, context)
        fitted = detector.fit_profile(context)
        streamed = set()
        for start, block in reloaded.iter_blocks(block_rows):
            streamed |= detector._detect_block(context, fitted, block, start)
        assert streamed == whole, detector.name

    encoder = TableEncoder().fit(reloaded)
    assert np.array_equal(
        encoder.transform(reloaded),
        encoder.transform(reloaded, block_rows=block_rows),
    )
