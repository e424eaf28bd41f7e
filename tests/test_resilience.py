"""Tier-1 unit tests for the resilience layer (guards, taxonomy,
checkpoints).  The full fault-injection pipeline lives in the tier-2
chaos suite (test_chaos.py, `pytest -m chaos`)."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.benchmark import (
    evaluate_scenarios,
    run_detection_suite,
    run_repair_suite,
)
from repro.datagen import generate
from repro.detectors import MVDetector
from repro.parallel import ProcessPoolExecutor
from repro.repair import MeanModeImputeRepair, RepairMethod
from repro.resilience import (
    BUG,
    CAPABILITY,
    DATA,
    TRANSIENT,
    CircuitBreaker,
    CorruptOutputError,
    Deadline,
    DeadlineExceeded,
    FailureRecord,
    RetryPolicy,
    TransientError,
    classify_exception,
    guarded_call,
    run_id_for,
    unit_key,
)
from repro.repository import CheckpointStore
from repro.repository.store import (
    _tag_infinities,
    encode_payload,
    nan_guard,
    sanitize_payload,
)
from repro.resilience.checkpoint import SuiteCheckpoint

from chaos_doubles import CrashingDetector


class FakeClock:
    """Monotonic fake clock advancing a fixed tick per call."""

    def __init__(self, tick: float = 0.0):
        self.now = 0.0
        self.tick = tick

    def __call__(self) -> float:
        self.now += self.tick
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestDeadline:
    def test_unlimited_never_expires(self):
        deadline = Deadline.unlimited()
        assert not deadline.expired()
        assert deadline.remaining() == float("inf")
        deadline.check()  # no raise

    def test_expires_on_fake_clock(self):
        clock = FakeClock()
        deadline = Deadline(5.0, clock=clock)
        deadline.check()
        clock.advance(4.9)
        assert not deadline.expired()
        clock.advance(0.2)
        assert deadline.expired()
        with pytest.raises(DeadlineExceeded) as info:
            deadline.check("UnitTest.detect")
        assert "UnitTest.detect" in str(info.value)

    def test_rejects_nonpositive_budget(self):
        with pytest.raises(ValueError):
            Deadline(0.0)

    def test_restarted_gets_fresh_budget(self):
        clock = FakeClock()
        deadline = Deadline(1.0, clock=clock)
        clock.advance(2.0)
        assert deadline.expired()
        assert not deadline.restarted().expired()


class TestTaxonomy:
    def test_classification(self):
        assert classify_exception(TransientError("x")) == TRANSIENT
        assert classify_exception(ConnectionError()) == TRANSIENT
        assert classify_exception(MemoryError()) == CAPABILITY
        assert classify_exception(DeadlineExceeded("x")) == CAPABILITY
        assert classify_exception(CorruptOutputError("x")) == DATA
        assert classify_exception(ValueError("x")) == DATA
        assert classify_exception(np.linalg.LinAlgError("x")) == DATA
        assert classify_exception(RuntimeError("x")) == BUG
        assert classify_exception(AttributeError("x")) == BUG

    def test_record_round_trip(self):
        record = FailureRecord.from_exception(
            MemoryError("boom"), "Picket", "detection",
            elapsed_seconds=1.25, retries=2, dataset="Beers",
        )
        assert record.category == CAPABILITY
        assert record.describe() == "MemoryError: boom"
        clone = FailureRecord.from_json(record.to_json())
        assert clone == record

    def test_invalid_category_rejected(self):
        with pytest.raises(ValueError):
            FailureRecord("m", "detection", "weird", "E", "msg")

    def test_quarantine_skip_record(self):
        record = FailureRecord.quarantine_skip(
            "RAHA", "detection", "quarantined after 3 consecutive failures"
        )
        assert record.quarantined
        assert record.category == CAPABILITY
        assert "quarantined" in record.describe()


class TestRetryPolicy:
    def test_deterministic_jitter(self):
        policy = RetryPolicy(max_attempts=4, base_delay=0.1, seed=7)
        first = list(policy.delays("detection:RAHA"))
        second = list(policy.delays("detection:RAHA"))
        assert first == second
        assert len(first) == 3
        assert all(0 < d <= 0.4 for d in first)
        other = list(policy.delays("detection:ED2"))
        assert first != other  # jitter depends on the key

    def test_only_transient_retryable(self):
        policy = RetryPolicy(max_attempts=3)
        assert policy.should_retry(TransientError("x"), 1)
        assert not policy.should_retry(MemoryError(), 1)
        assert not policy.should_retry(TransientError("x"), 3)

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter_fraction=2.0)


class TestCircuitBreaker:
    def test_trips_after_k_consecutive_failures(self):
        breaker = CircuitBreaker(threshold=3)
        for _ in range(2):
            breaker.record_failure("RAHA", "MemoryError: boom")
        assert not breaker.is_quarantined("RAHA")
        breaker.record_failure("RAHA", "MemoryError: boom")
        assert breaker.is_quarantined("RAHA")
        assert "3 consecutive failures" in breaker.reason("RAHA")
        assert "MemoryError" in breaker.reason("RAHA")

    def test_success_resets_counter(self):
        breaker = CircuitBreaker(threshold=2)
        breaker.record_failure("ED2")
        breaker.record_success("ED2")
        breaker.record_failure("ED2")
        assert not breaker.is_quarantined("ED2")

    def test_quarantined_mapping(self):
        breaker = CircuitBreaker(threshold=1)
        breaker.record_failure("Picket", "boom")
        assert set(breaker.quarantined) == {"Picket"}


class TestGuardedCall:
    def test_success_path(self):
        result = guarded_call(lambda: 42, method="m", stage="detection")
        assert result.ok and result.value == 42 and result.retries == 0

    def test_failure_produces_categorized_record(self):
        def boom():
            raise MemoryError("out of memory")

        result = guarded_call(boom, method="Picket", stage="detection")
        assert not result.ok
        assert result.failure.category == CAPABILITY
        assert result.failure.error_type == "MemoryError"

    def test_transient_retries_then_succeeds(self):
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise TransientError("flake")
            return "ok"

        slept = []
        result = guarded_call(
            flaky, method="m", stage="detection",
            retry=RetryPolicy(max_attempts=3, base_delay=0.01),
            sleep=slept.append,
        )
        assert result.ok and result.value == "ok"
        assert result.retries == 2
        assert len(slept) == 2

    def test_nontransient_never_retried(self):
        calls = {"n": 0}

        def broken():
            calls["n"] += 1
            raise ValueError("bad data")

        result = guarded_call(
            broken, method="m", stage="repair",
            retry=RetryPolicy(max_attempts=5),
        )
        assert calls["n"] == 1
        assert result.failure.category == DATA

    def test_quarantined_method_skipped_without_calling(self):
        breaker = CircuitBreaker(threshold=1)
        breaker.record_failure("RAHA", "boom")

        def must_not_run():
            raise AssertionError("should have been quarantined")

        result = guarded_call(
            must_not_run, method="RAHA", stage="detection", breaker=breaker
        )
        assert result.failure.quarantined
        assert "quarantined" in result.failure.message

    def test_breaker_records_outcomes(self):
        breaker = CircuitBreaker(threshold=2)
        for _ in range(2):
            guarded_call(
                lambda: (_ for _ in ()).throw(MemoryError("x")),
                method="Picket", stage="detection", breaker=breaker,
            )
        assert breaker.is_quarantined("Picket")

    def test_expired_deadline_fails_before_calling(self):
        clock = FakeClock()
        deadline = Deadline(1.0, clock=clock)
        clock.advance(2.0)

        def must_not_run():
            raise AssertionError("deadline already spent")

        result = guarded_call(
            must_not_run, method="m", stage="detection", deadline=deadline
        )
        assert result.failure.error_type == "DeadlineExceeded"
        assert result.failure.category == CAPABILITY

    def test_keyboard_interrupt_propagates(self):
        def interrupted():
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            guarded_call(interrupted, method="m", stage="detection")

    def test_elapsed_time_captured_on_failure(self):
        clock = FakeClock()

        def slow_crash():
            clock.advance(3.0)
            raise MemoryError("boom")

        result = guarded_call(
            slow_crash, method="m", stage="detection", clock=clock
        )
        assert result.failure.elapsed_seconds == pytest.approx(3.0)


class TestCheckpointStore:
    def test_round_trip_and_isolation(self, tmp_path):
        path = str(tmp_path / "ckpt.sqlite")
        with CheckpointStore(path) as store:
            store.put("run-a", "detection/D/x", {"value": 1.5})
            store.put("run-b", "detection/D/x", {"value": 9.9})
            assert store.get("run-a", "detection/D/x") == {"value": 1.5}
            assert store.get("run-a", "missing") is None
            assert store.units("run-a") == ["detection/D/x"]
            store.clear_run("run-a")
            assert store.count("run-a") == 0
            assert store.count("run-b") == 1

    def test_nan_payloads_stored_as_standard_json(self, tmp_path):
        # NaN scores are written as null (standard JSON, external tools
        # can parse the rows); consumers restore them via nan_guard.
        path = str(tmp_path / "ckpt.sqlite")
        with CheckpointStore(path) as store:
            store.put("r", "u", {"value": math.nan, "nested": [math.nan, 2]})
            store.commit()
            raw = store._connection.execute(
                "SELECT payload_json FROM checkpoints "
                "WHERE run_id = 'r' AND unit = 'u'"
            ).fetchone()[0]
            assert "NaN" not in raw
            json.loads(raw)  # strict JSON parses
            loaded = store.get("r", "u")
            assert loaded["value"] is None
            assert loaded["nested"] == [None, 2]
            assert math.isnan(nan_guard(loaded["value"]))

    def test_legacy_nan_token_rows_still_load(self, tmp_path):
        # Stores written before the hygiene change contain the literal
        # NaN token; Python's json reader accepts it, so old checkpoints
        # resume without migration.
        path = str(tmp_path / "ckpt.sqlite")
        with CheckpointStore(path) as store:
            store._connection.execute(
                "INSERT INTO checkpoints VALUES ('r', 'legacy', ?)",
                ('{"value": NaN}',),
            )
            store.commit()
            loaded = store.get("r", "legacy")
            assert math.isnan(loaded["value"])
            assert math.isnan(nan_guard(loaded["value"]))

    def test_infinite_payloads_stored_as_standard_json(self, tmp_path):
        # json.dumps(allow_nan=False) used to reject ±inf outright; they
        # are now tagged objects that get() turns back into floats.
        path = str(tmp_path / "ckpt.sqlite")
        payload = {"value": math.inf, "rows": [[-math.inf, 1.5, "inf"]]}
        with CheckpointStore(path) as store:
            store.put("r", "u", payload)
            store.put("r", "finite", {"value": 1.5, "rows": [["inf"]]})
            store.commit()
            raw = dict(store._connection.execute(
                "SELECT unit, payload_json FROM checkpoints"
            ).fetchall())
            assert "Infinity" not in raw["u"]
            json.loads(raw["u"], parse_constant=pytest.fail)  # strict JSON
            assert raw["finite"] == json.dumps(
                {"value": 1.5, "rows": [["inf"]]}, sort_keys=True
            )
        with CheckpointStore(path) as store:
            assert store.get("r", "u") == payload

    @given(st.recursive(
        st.one_of(
            st.none(), st.booleans(), st.integers(), st.text(max_size=3),
            st.floats(), st.sampled_from([math.nan, math.inf, -math.inf]),
        ),
        lambda children: st.one_of(
            st.lists(children, max_size=3),
            st.tuples(children, children),
            st.dictionaries(st.text(max_size=3), children, max_size=3),
        ),
        max_leaves=12,
    ))
    @settings(max_examples=200, deadline=None)
    def test_encoded_text_is_the_sanitized_encoding(self, value):
        # The walk is skipped when a payload needs none: same text.
        clean = sanitize_payload({"value": value})
        try:
            want = json.dumps(clean, sort_keys=True, allow_nan=False)
        except ValueError:
            want = json.dumps(
                _tag_infinities(clean), sort_keys=True, allow_nan=False
            )
        assert encode_payload({"value": value}) == want

    def test_suite_checkpoint_open_resume_semantics(self, tmp_path):
        path = str(tmp_path / "ckpt.sqlite")
        with SuiteCheckpoint.open(path, "r1") as ckpt:
            ckpt.put("u1", {"x": 1})
        with SuiteCheckpoint.open(path, "r1", resume=True) as ckpt:
            assert ckpt.get("u1") == {"x": 1}
        with SuiteCheckpoint.open(path, "r1", resume=False) as ckpt:
            assert ckpt.get("u1") is None

    def test_unit_key_and_run_id(self):
        key = unit_key("repair", "Beers", detector="MVD", repair="GT", seed=3)
        assert key == "repair/Beers/MVD/GT///3"
        with pytest.raises(ValueError):
            unit_key("repair", "data/set")
        assert run_id_for("a", 1) == run_id_for("a", 1)
        assert run_id_for("a", 1) != run_id_for("a", 2)

    def test_run_id_hashes_structure_not_str(self):
        # str(part)-based hashing collided a list with its repr string,
        # and "1" with 1 -- distinct configs must get distinct run ids.
        assert run_id_for(["a", "b"]) != run_id_for("['a', 'b']")
        assert run_id_for("1") != run_id_for(1)
        assert run_id_for("a", "b") != run_id_for("a/b")
        assert run_id_for(["a", ["b"]]) != run_id_for(["a", "b"])

    def test_run_id_ignores_dict_insertion_order(self):
        first = run_id_for({"dataset": "Beers", "seed": 1})
        second = run_id_for({"seed": 1, "dataset": "Beers"})
        assert first == second
        assert first != run_id_for({"dataset": "Beers", "seed": 2})

    def test_run_id_handles_sets_and_objects(self):
        assert run_id_for({"x", "y"}) == run_id_for({"y", "x"})

        class Config:
            def __repr__(self):
                return "cfg"

        # Equal reprs of different types stay distinct.
        assert run_id_for(Config()) != run_id_for("cfg")


class _StoredRepair(RepairMethod):
    """Stands in for a repair whose every unit is already stored."""

    name = "Impute-Mean"

    def _repair(self, context, detections):
        raise AssertionError("a stored unit was recomputed")


class TestInfiniteCells:
    """A numerical dirty cell holding ±inf that no detector flags stays
    in the repaired table; checkpointing that table used to kill the run
    with "Out of range float values are not JSON compliant"."""

    @staticmethod
    def _dataset():
        dataset = generate("SmartFactory", n_rows=60, seed=0)
        column = dataset.dirty.schema.numerical_names[0]
        dataset.dirty.set_cell(6, column, math.inf)
        dataset.dirty.set_cell(7, column, -math.inf)
        return dataset, {"X": {(5, column)}}

    def test_stored_serial_pooled_and_unstored_runs_agree(self, tmp_path):
        dataset, detections = self._dataset()
        column = dataset.dirty.schema.numerical_names[0]
        (plain,) = run_repair_suite(
            dataset, detections, [MeanModeImputeRepair()], seed=0
        )
        assert plain.result.repaired.get_cell(6, column) == math.inf
        stored = {}
        for name, executor in (
            ("serial", None),
            ("pooled", ProcessPoolExecutor(2, start_method="fork")),
        ):
            path = str(tmp_path / f"{name}.sqlite")
            with SuiteCheckpoint.open(path, "r") as checkpoint:
                (stored[name],) = run_repair_suite(
                    dataset, detections, [MeanModeImputeRepair()], seed=0,
                    checkpoint=checkpoint, executor=executor,
                )
            with SuiteCheckpoint.open(path, "r") as checkpoint:
                (stored[f"{name} resumed"],) = run_repair_suite(
                    dataset, detections, [_StoredRepair()], seed=0,
                    checkpoint=checkpoint,
                )
        for name, run in stored.items():
            assert not run.failed, name
            assert run.result.repaired.diff_cells(
                plain.result.repaired
            ) == set(), name
            assert run.result.repaired.get_cell(7, column) == -math.inf
            assert run.numerical_rmse == plain.numerical_rmse, name


class TestRunnerFailureBookkeeping:
    def test_failed_detection_reports_elapsed_runtime(self):
        dataset = generate("SmartFactory", n_rows=100, seed=1)
        clock = FakeClock()
        crasher = CrashingDetector(
            MemoryError, "boom", spend_seconds=2.0,
            sleep=lambda s: clock.advance(s),
        )
        runs = run_detection_suite(
            dataset, [crasher, MVDetector()], clock=clock
        )
        by_name = {r.detector: r for r in runs}
        failed = by_name["Crashing"]
        assert failed.failed
        assert failed.failure_record.category == CAPABILITY
        # The crash burned 2 fake seconds -- runtime must reflect it
        # instead of the old 0.0 under-report.
        assert failed.result.runtime_seconds >= 2.0
        assert not by_name["MVD"].failed

    def test_detection_checkpoint_skips_completed_work(self, tmp_path):
        dataset = generate("SmartFactory", n_rows=100, seed=1)
        ckpt = SuiteCheckpoint.open(str(tmp_path / "c.sqlite"), "r")
        first = run_detection_suite(dataset, [MVDetector()], checkpoint=ckpt)

        class MustNotRun(MVDetector):
            def _detect(self, context):
                raise AssertionError("checkpoint should have skipped this")

        second = run_detection_suite(dataset, [MustNotRun()], checkpoint=ckpt)
        assert second[0].scores == first[0].scores
        assert set(second[0].result.cells) == set(first[0].result.cells)
        ckpt.close()

    def test_scenario_failures_are_recorded_not_swallowed(self, monkeypatch):
        dataset = generate("SmartFactory", n_rows=120, seed=0)

        import repro.benchmark.runner as runner_module

        real = runner_module._scenario_metric
        calls = {"n": 0}

        def sometimes_broken(*args, **kwargs):
            calls["n"] += 1
            if kwargs.get("seed") == 1:
                raise ValueError("injected scenario crash")
            return real(*args, **kwargs)

        monkeypatch.setattr(runner_module, "_scenario_metric", sometimes_broken)
        evaluation = runner_module.evaluate_scenarios(
            dataset, dataset.dirty, "dirty", "DT",
            scenario_names=("S1",), n_seeds=3, sample_rows=60,
        )
        scores = evaluation.scores["S1"]
        assert math.isnan(scores[1])
        record = evaluation.failures["S1"][1]
        assert record.category == DATA
        assert "injected scenario crash" in record.message
        assert evaluation.failure_reason("S1", 1).startswith("ValueError")
        assert evaluation.failure_reason("S1", 0) == ""
        assert any("seed=1" in line for line in evaluation.failure_summary())
