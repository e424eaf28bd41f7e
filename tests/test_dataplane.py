"""Tier-1 tests for the shared-memory data plane (repro.dataplane).

The codec's contract is *bit* fidelity: ``Table.from_buffers(
*table.to_buffers())`` returns a table whose every cell has the same
Python type and -- for floats -- the same 8 bytes as the original,
including NaN payloads, infinities and ``-0.0``.  On top of that sit the
segment lifecycle (create/attach/close/unlink with no ``/dev/shm``
residue) and the end-to-end acceptance matrix: a pooled detection run
checkpoints byte-identically to the serial reference for any worker
count, block size and start method.
"""

import json
import pickle
import sqlite3
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.benchmark import run_detection_suite
from repro.datagen import generate
from repro.dataplane import (
    SEGMENT_PREFIX,
    SegmentManager,
    attach_shipment,
    attach_table,
    live_segments,
    pack_shared,
)
from repro.dataset import CATEGORICAL, NUMERICAL, Schema, Table
from repro.detectors import MVDetector, SDDetector
from repro.parallel import ProcessPoolExecutor, engine, null_sleep
from repro.repository import CheckpointStore
from repro.resilience import SuiteCheckpoint


# ----------------------------------------------------------------------
# Bit-level cell comparison
# ----------------------------------------------------------------------
def _same_cell(a, b) -> bool:
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        return struct.pack("<d", a) == struct.pack("<d", b)
    if isinstance(a, (int, str, bool)) or a is None:
        return a == b
    return pickle.dumps(a) == pickle.dumps(b)


def _assert_bit_identical(original: Table, restored: Table) -> None:
    assert restored.n_rows == original.n_rows
    assert restored.column_names == original.column_names
    for name in original.column_names:
        before = original.column(name)
        after = restored.column(name)
        for row in range(original.n_rows):
            assert _same_cell(before[row], after[row]), (
                f"cell ({row}, {name}): {before[row]!r} "
                f"({type(before[row]).__name__}) != {after[row]!r} "
                f"({type(after[row]).__name__})"
            )


def _round_trip(table: Table) -> Table:
    encoded = table.to_buffers()
    buf = bytearray(encoded.nbytes)
    encoded.write_into(buf)
    return Table.from_buffers(encoded.meta, memoryview(buf))


# ----------------------------------------------------------------------
# Hypothesis strategies: adversarial cells
# ----------------------------------------------------------------------
_numeric_cell = st.one_of(
    st.none(),
    st.floats(allow_nan=True, allow_infinity=True, width=64),
    st.integers(min_value=-(2 ** 70), max_value=2 ** 70),
    st.booleans(),
)
_text_cell = st.one_of(
    st.none(),
    st.text(max_size=12),  # full unicode, embedded newlines/quotes
    st.floats(allow_nan=True, allow_infinity=True, width=64),
    st.integers(min_value=-(2 ** 70), max_value=2 ** 70),
)


@st.composite
def adversarial_tables(draw):
    n_rows = draw(st.integers(min_value=0, max_value=10))
    n_numeric = draw(st.integers(min_value=0, max_value=3))
    n_categorical = draw(st.integers(min_value=0, max_value=3))
    pairs = [(f"n{i}", NUMERICAL) for i in range(n_numeric)] + [
        (f"c{i}", CATEGORICAL) for i in range(n_categorical)
    ]
    schema = Schema.from_pairs(pairs)
    columns = {}
    for name, kind in pairs:
        cell = _numeric_cell if kind is NUMERICAL else _text_cell
        columns[name] = draw(
            st.lists(cell, min_size=n_rows, max_size=n_rows)
        )
    return Table(schema, columns)


class TestCodecRoundTrip:
    @given(adversarial_tables())
    @settings(max_examples=80, deadline=None)
    def test_round_trip_is_type_and_bit_identical(self, table):
        _assert_bit_identical(table, _round_trip(table))

    def test_preserves_float_bit_patterns(self):
        signalling_nan = struct.unpack(
            "<d", struct.pack("<Q", 0x7FF0000000000001)
        )[0]
        schema = Schema.from_pairs([("x", NUMERICAL)])
        table = Table(
            schema,
            {
                "x": [
                    signalling_nan, float("nan"), float("inf"),
                    float("-inf"), -0.0, 0.0, 2.0 ** -1074,
                ]
            },
        )
        restored = _round_trip(table)
        for row in range(table.n_rows):
            assert struct.pack("<d", table.column("x")[row]) == struct.pack(
                "<d", restored.column("x")[row]
            )

    def test_preserves_exotic_cells(self):
        schema = Schema.from_pairs([("c", CATEGORICAL)])
        table = Table(
            schema,
            {
                "c": [
                    "宽字符 unicode ✓", "line\nbreak \"quoted\"", "",
                    2 ** 100, -(2 ** 63) - 1, -(2 ** 63), 2 ** 63 - 1,
                    True, False, None, np.float32(1.5),
                ]
            },
        )
        _assert_bit_identical(table, _round_trip(table))

    def test_zero_row_and_empty_column_tables(self):
        schema = Schema.from_pairs([("a", NUMERICAL), ("b", CATEGORICAL)])
        _assert_bit_identical(
            Table(schema, {"a": [], "b": []}),
            _round_trip(Table(schema, {"a": [], "b": []})),
        )
        empty = Table(Schema.from_pairs([]), {})
        _assert_bit_identical(empty, _round_trip(empty))

    def test_attached_view_is_read_only(self):
        schema = Schema.from_pairs([("x", NUMERICAL)])
        restored = _round_trip(Table(schema, {"x": [1.0, 2.0]}))
        with pytest.raises(TypeError, match="read-only"):
            restored.set_cell(0, "x", 9.0)

    def test_interned_strings_share_objects(self):
        schema = Schema.from_pairs([("c", CATEGORICAL)])
        restored = _round_trip(
            Table(schema, {"c": ["dup", "dup", "other", "dup"]})
        )
        column = restored.column("c")
        assert column[0] is column[1] is column[3]


# ----------------------------------------------------------------------
# Segment lifecycle
# ----------------------------------------------------------------------
class TestSegmentLifecycle:
    def test_destroy_unlinks_every_created_segment(self):
        manager = SegmentManager()
        names = []
        try:
            for nbytes in (1, 64, 4096):
                names.append(manager.create(nbytes).name)
            assert set(names) <= set(live_segments())
        finally:
            manager.destroy()
        assert not (set(names) & set(live_segments()))
        manager.destroy()  # idempotent

    def test_context_manager_cleans_up_on_error(self):
        with pytest.raises(RuntimeError):
            with SegmentManager() as manager:
                name = manager.create(128).name
                assert name in live_segments()
                raise RuntimeError("boom")
        assert name not in live_segments()

    def test_segment_names_carry_the_lint_prefix(self):
        with SegmentManager() as manager:
            assert manager.create(8).name.startswith(SEGMENT_PREFIX)


# ----------------------------------------------------------------------
# Shipment pack/attach
# ----------------------------------------------------------------------
class TestShipment:
    def test_tables_deduplicate_by_identity(self):
        table = Table(Schema.from_pairs([("x", NUMERICAL)]), {"x": [1.0]})
        shared = {"a": table, "b": table, "label": "twice"}
        with SegmentManager() as manager:
            shipment = pack_shared(shared, manager)
            assert len(shipment.handles) == 1
            context = attach_shipment(shipment)
        assert context["label"] == "twice"
        assert context["a"] is context["b"]

    def test_attach_is_memoized_per_segment(self):
        table = Table(Schema.from_pairs([("x", NUMERICAL)]), {"x": [3.5]})
        with SegmentManager() as manager:
            shipment = pack_shared({"t": table}, manager)
            (handle,) = shipment.handles
            assert attach_table(handle) is attach_table(handle)

    def test_shared_bytes_accounting(self):
        table = Table(
            Schema.from_pairs([("x", NUMERICAL)]),
            {"x": [float(i) for i in range(100)]},
        )
        with SegmentManager() as manager:
            shipment = pack_shared({"t": table}, manager)
            assert shipment.shared_bytes == manager.total_bytes > 0
            # The per-worker pickle is a small shell, not the table.
            assert shipment.shipped_bytes < shipment.shared_bytes

    def test_unpicklable_context_raises_and_leaves_no_segment(self):
        # The table is spilled into a segment before the pickler reaches
        # the lambda; that segment must be gone when the error surfaces.
        table = Table(Schema.from_pairs([("x", NUMERICAL)]), {"x": [1.0]})
        shared = {"table": table, "clock": lambda: 0.0}
        before = set(live_segments())
        manager = SegmentManager()
        with pytest.raises(TypeError, match="cannot be shipped.*<lambda>"):
            pack_shared(shared, manager)
        assert manager.names == []
        assert not [
            name for name in set(live_segments()) - before
            if name.startswith(SEGMENT_PREFIX)
        ]


# ----------------------------------------------------------------------
# End-to-end byte identity: workers x block size x start method
# ----------------------------------------------------------------------
class StepClock:
    """Deterministic monotonic clock: each reading advances one tick.

    Power-of-two tick, so elapsed times are exact call-count multiples
    and every worker's copy agrees with the serial run bit for bit.
    """

    def __init__(self, tick: float = 2.0 ** -10):
        self.ticks = 0
        self.tick = tick

    def __call__(self) -> float:
        self.ticks += 1
        return self.ticks * self.tick


def _dataset():
    return generate("SmartFactory", n_rows=120, seed=3)


def _store_bytes(path: str) -> bytes:
    connection = sqlite3.connect(path)
    try:
        rows = connection.execute(
            "SELECT run_id, unit, payload_json FROM checkpoints "
            "ORDER BY run_id, unit"
        ).fetchall()
    finally:
        connection.close()
    return json.dumps(rows, sort_keys=True).encode()


def _checkpointed_detection(tmp_path, tag, executor, block_rows):
    path = str(tmp_path / f"{tag}.sqlite")
    with SuiteCheckpoint.open(path, "run", resume=False) as checkpoint:
        runs = run_detection_suite(
            _dataset(),
            [MVDetector(), SDDetector(3.0)],
            clock=StepClock(),
            sleep=null_sleep,
            checkpoint=checkpoint,
            executor=executor,
            block_rows=block_rows,
        )
    payloads = json.dumps(
        [r.to_payload() for r in runs], sort_keys=True
    ).encode()
    return _store_bytes(path), payloads


class TestEndToEndByteIdentity:
    @pytest.mark.parametrize("block_rows", [None, 48])
    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    @pytest.mark.parametrize("workers", [2, 4])
    def test_pool_checkpoint_store_matches_serial(
        self, tmp_path, workers, start_method, block_rows
    ):
        reference_store, reference_payloads = _checkpointed_detection(
            tmp_path, "serial", None, block_rows
        )
        pool = ProcessPoolExecutor(workers, start_method=start_method)
        store, payloads = _checkpointed_detection(
            tmp_path, f"pool-{workers}-{start_method}", pool, block_rows
        )
        assert store == reference_store
        assert payloads == reference_payloads

    def test_explicit_chunk_sizes_do_not_change_bytes(
        self, tmp_path, monkeypatch
    ):
        reference_store, reference_payloads = _checkpointed_detection(
            tmp_path, "serial", None, 32
        )
        for chunk_size in (1, 3):
            monkeypatch.setattr(
                engine, "adaptive_chunk_size", lambda n, w, c=chunk_size: c
            )
            store, payloads = _checkpointed_detection(
                tmp_path, f"chunk-{chunk_size}", ProcessPoolExecutor(2), 32
            )
            assert store == reference_store
            assert payloads == reference_payloads

    def test_normal_teardown_leaves_no_segments(self):
        before = set(live_segments())
        run_detection_suite(
            _dataset(),
            [MVDetector()],
            clock=StepClock(),
            sleep=null_sleep,
            executor=ProcessPoolExecutor(2),
        )
        assert set(live_segments()) <= before
