"""Tier-1 tests for the parallel execution engine (repro.parallel).

The engine's contract: for any executor (serial reference, seeded
shuffled completion order, N-worker process pool), the finalized suite
output -- payload for payload -- is identical.  These tests drive the
real detection / repair / scenario plans with deterministic injected
clocks so "identical" means byte-identical canonical JSON, including
failure records and circuit-breaker quarantine skips.
"""

import json
import math

import pytest

from repro.benchmark import (
    evaluate_scenarios,
    run_detection_suite,
    run_repair_suite,
)
from repro.datagen import generate
from repro.detectors import MaxEntropyDetector, MVDetector, SDDetector
from repro.parallel import (
    ExecutionPlan,
    ProcessPoolExecutor,
    SerialExecutor,
    StageAdapter,
    UnitSpec,
    execute_plan,
    make_executor,
    null_sleep,
)
from repro.repair import GroundTruthRepair, MeanModeImputeRepair
from repro.resilience import (
    CircuitBreaker,
    CorruptingRepair,
    CrashingDetector,
    FailureRecord,
    SuiteCheckpoint,
)

from parallel_doubles import ShuffledExecutor


class StepClock:
    """Deterministic monotonic clock: each reading advances one tick."""

    def __init__(self, tick: float = 2.0 ** -10):
        self.ticks = 0
        self.tick = tick

    def __call__(self) -> float:
        self.ticks += 1
        return self.ticks * self.tick


def _dataset():
    return generate("SmartFactory", n_rows=120, seed=3)


def _canonical(runs) -> bytes:
    return json.dumps(
        [r.to_payload() for r in runs], sort_keys=True
    ).encode()


def _detectors():
    return [MVDetector(), SDDetector(3.0), MaxEntropyDetector()]


def _detection_runs(executor, breaker=None, with_crash=False):
    detectors = _detectors()
    if with_crash:
        detectors.insert(1, CrashingDetector(MemoryError, "boom"))
    return run_detection_suite(
        _dataset(),
        detectors,
        clock=StepClock(),
        sleep=null_sleep,
        breaker=breaker,
        executor=executor,
    )


class TestDetectionEquivalence:
    def test_shuffled_orders_match_serial(self):
        reference = _canonical(_detection_runs(None, with_crash=True))
        for seed in range(6):
            runs = _detection_runs(ShuffledExecutor(seed), with_crash=True)
            assert _canonical(runs) == reference

    @pytest.mark.parametrize("workers", [2, 3, 5])
    def test_pool_matches_serial_for_any_worker_count(self, workers):
        reference = _canonical(_detection_runs(None, with_crash=True))
        runs = _detection_runs(
            ProcessPoolExecutor(workers), with_crash=True
        )
        assert _canonical(runs) == reference


def _repair_grid(executor, breaker):
    """Detector x repair grid where one repair fails on every unit.

    With breaker threshold 2 the failing repair is quarantined mid-plan:
    its third unit must come back as a quarantine-skip record, identical
    for every executor even when a pool worker already executed it.
    """
    dataset = _dataset()
    detection_runs = run_detection_suite(
        dataset, _detectors(), clock=StepClock(), sleep=null_sleep
    )
    detections = {
        r.detector: set(r.result.cells)
        for r in detection_runs
        if not r.failed and r.result.n_detected
    }
    assert len(detections) >= 3
    repairs = [
        CorruptingRepair(MeanModeImputeRepair(), mode="misalign"),
        GroundTruthRepair(),
    ]
    return run_repair_suite(
        dataset,
        detections,
        repairs,
        clock=StepClock(),
        sleep=null_sleep,
        breaker=breaker,
        executor=executor,
    )


class TestRepairEquivalenceWithBreaker:
    def test_shuffled_orders_replay_breaker_identically(self):
        reference_breaker = CircuitBreaker(threshold=2)
        reference = _repair_grid(None, reference_breaker)
        assert reference_breaker.is_quarantined("Impute-Mean")
        skips = [
            r for r in reference
            if r.failure_record is not None and r.failure_record.quarantined
        ]
        assert skips, "the grid must exercise a mid-plan quarantine"
        for seed in range(6):
            breaker = CircuitBreaker(threshold=2)
            runs = _repair_grid(ShuffledExecutor(seed), breaker)
            assert _canonical(runs) == _canonical(reference)
            assert breaker.quarantined == reference_breaker.quarantined

    def test_pool_replays_breaker_identically(self):
        reference_breaker = CircuitBreaker(threshold=2)
        reference = _repair_grid(None, reference_breaker)
        breaker = CircuitBreaker(threshold=2)
        runs = _repair_grid(ProcessPoolExecutor(2), breaker)
        assert _canonical(runs) == _canonical(reference)
        assert breaker.quarantined == reference_breaker.quarantined


class TestScenarioEquivalence:
    def _evaluate(self, executor):
        dataset = _dataset()
        return evaluate_scenarios(
            dataset,
            dataset.dirty,
            "dirty",
            "DT",
            scenario_names=("S1", "S4"),
            n_seeds=3,
            sample_rows=60,
            clock=StepClock(),
            sleep=null_sleep,
            executor=executor,
        )

    def test_pool_matches_serial(self):
        reference = self._evaluate(None)
        pooled = self._evaluate(ProcessPoolExecutor(3))
        assert pooled.scores == reference.scores
        assert set(pooled.failures) == set(reference.failures)

    def test_shuffled_matches_serial(self):
        reference = self._evaluate(None)
        shuffled = self._evaluate(ShuffledExecutor(11))
        assert shuffled.scores == reference.scores


# ----------------------------------------------------------------------
# Driver-level tests on a tiny synthetic stage
# ----------------------------------------------------------------------
def _tiny_execute(shared, spec):
    value = shared["base"] + spec.params["x"]
    record = None
    if spec.params.get("fail"):
        record = FailureRecord(
            method=spec.method,
            stage="detection",
            category="capability",
            error_type="MemoryError",
            message="synthetic",
        )
    return {"value": value, "failure": record}


def _tiny_to_payload(run):
    return {
        "value": run["value"],
        "failure": (
            run["failure"].to_payload() if run["failure"] is not None else None
        ),
    }


def _tiny_from_payload(payload):
    record = (
        FailureRecord.from_payload(payload["failure"])
        if payload["failure"] is not None
        else None
    )
    return {"value": payload["value"], "failure": record}


def _tiny_quarantine(shared, spec, reason):
    record = FailureRecord.quarantine_skip(spec.method, "detection", reason)
    return {"value": None, "failure": record}


def _tiny_failure(run):
    return run["failure"]


_TINY_ADAPTER = StageAdapter(
    stage="detection",
    execute=_tiny_execute,
    to_payload=_tiny_to_payload,
    from_payload=_tiny_from_payload,
    quarantine_skip=_tiny_quarantine,
    failure_of=_tiny_failure,
)


def _tiny_plan(n=8, fail_method=None):
    units = [
        UnitSpec(
            i,
            f"detection/tiny/u{i}///0",
            "flaky" if fail_method and i in fail_method else f"m{i}",
            {"x": i, "fail": bool(fail_method and i in fail_method)},
        )
        for i in range(n)
    ]
    return ExecutionPlan(_TINY_ADAPTER, {"base": 100}, units)


class TestExecutePlanDriver:
    def test_plan_rejects_misordered_units(self):
        units = [
            UnitSpec(1, "detection/tiny/a///0", "m", {}),
            UnitSpec(0, "detection/tiny/b///0", "m", {}),
        ]
        with pytest.raises(ValueError, match="canonical order"):
            ExecutionPlan(_TINY_ADAPTER, {}, units)

    def test_serial_and_shuffled_agree(self):
        reference = execute_plan(_tiny_plan())
        for seed in range(5):
            runs = execute_plan(_tiny_plan(), executor=ShuffledExecutor(seed))
            assert [r["value"] for r in runs] == [
                r["value"] for r in reference
            ]

    def test_broken_executor_reports_missing_units(self):
        class LossyExecutor:
            def run(self, plan, pending, should_execute):
                for spec in pending[:-2]:
                    yield spec.index, plan.adapter.execute(plan.shared, spec)

        with pytest.raises(RuntimeError, match="never completed"):
            execute_plan(_tiny_plan(), executor=LossyExecutor())

    def test_breaker_quarantines_consistently_out_of_order(self):
        # Units 1, 3, 5 share a failing method with threshold 2: unit 5
        # must finalize as a quarantine skip under every completion order.
        fail = {1, 3, 5}
        reference_breaker = CircuitBreaker(threshold=2)
        reference = execute_plan(
            _tiny_plan(fail_method=fail), breaker=reference_breaker
        )
        assert reference[5]["failure"].quarantined
        assert reference[5]["value"] is None  # never executed serially
        for seed in range(5):
            breaker = CircuitBreaker(threshold=2)
            runs = execute_plan(
                _tiny_plan(fail_method=fail),
                executor=ShuffledExecutor(seed),
                breaker=breaker,
            )
            assert _tiny_to_payload(runs[5]) == _tiny_to_payload(
                reference[5]
            )
            assert breaker.quarantined == reference_breaker.quarantined

    def test_progress_interrupt_then_resume_matches(self, tmp_path):
        """A kill at an exact unit boundary resumes without re-execution.

        The progress callback raising KeyboardInterrupt models the
        operator killing the run right after unit 3 finalized; batched
        checkpoint writes must still be visible on resume.
        """
        path = str(tmp_path / "ckpt.sqlite")
        reference = execute_plan(
            _tiny_plan(), checkpoint=SuiteCheckpoint.open(path, "ref")
        )

        executed = []

        def record_execute(spec, run):
            executed.append(spec.index)
            if spec.index == 3:
                raise KeyboardInterrupt

        with SuiteCheckpoint.open(path, "run") as ckpt:
            with pytest.raises(KeyboardInterrupt):
                execute_plan(
                    _tiny_plan(), checkpoint=ckpt, progress=record_execute
                )
            assert len(ckpt.completed_units()) == 4  # units 0-3 persisted
        with SuiteCheckpoint.open(path, "run", resume=True) as ckpt:
            resumed = execute_plan(_tiny_plan(), checkpoint=ckpt)
        assert [r["value"] for r in resumed] == [
            r["value"] for r in reference
        ]

    def test_cached_units_are_not_reexecuted(self, tmp_path):
        path = str(tmp_path / "ckpt.sqlite")
        with SuiteCheckpoint.open(path, "run") as ckpt:
            execute_plan(_tiny_plan(), checkpoint=ckpt)
        calls = []

        def spy_progress(spec, run):
            calls.append(spec.index)

        with SuiteCheckpoint.open(path, "run", resume=True) as ckpt:
            runs = execute_plan(
                _tiny_plan(), checkpoint=ckpt, progress=spy_progress
            )
        # Every unit finalizes (progress fires) but all came from cache:
        # values match without _tiny_execute having access to "base" drift.
        assert calls == list(range(8))
        assert [r["value"] for r in runs] == [100 + i for i in range(8)]


class TestExecutorConstruction:
    def test_make_executor_serial_cases(self):
        assert make_executor(None) is None
        assert make_executor(1) is None

    def test_make_executor_pool(self):
        executor = make_executor(4)
        assert isinstance(executor, ProcessPoolExecutor)
        assert executor.workers == 4

    @pytest.mark.parametrize("workers", [0, -1])
    def test_make_executor_rejects_nonpositive(self, workers):
        with pytest.raises(ValueError, match="workers"):
            make_executor(workers)

    def test_pool_validates_arguments(self):
        with pytest.raises(ValueError):
            ProcessPoolExecutor(0)

    def test_serial_executor_skips_quarantined_lazily(self):
        # The serial reference consults should_execute per unit, so a
        # quarantine tripped by unit k is honoured by unit k+1 without
        # the executor being restarted.
        seen = []

        def should_execute(spec):
            seen.append(spec.index)
            return spec.index != 2

        plan = _tiny_plan(4)
        runs = dict(
            SerialExecutor().run(plan, list(plan.units), should_execute)
        )
        assert sorted(runs) == [0, 1, 3]
        assert seen == [0, 1, 2, 3]


class TestBreakerSnapshotMerge:
    def test_snapshot_round_trip(self):
        breaker = CircuitBreaker(threshold=2)
        breaker.record_failure("A", "first")
        breaker.record_failure("A", "second")
        breaker.record_failure("B", "only")
        clone = CircuitBreaker.from_snapshot(breaker.snapshot())
        assert clone.threshold == 2
        assert clone.is_quarantined("A")
        assert not clone.is_quarantined("B")
        assert clone.failures("B") == 1
        assert clone.reason("A") == breaker.reason("A")

    def test_merge_is_sticky_and_pessimistic(self):
        left = CircuitBreaker(threshold=2)
        left.record_failure("A", "left-1")
        right = CircuitBreaker(threshold=2)
        right.record_failure("A", "right-1")
        right.record_failure("A", "right-2")
        left.merge(right)
        assert left.is_quarantined("A")
        assert "right-2" in left.reason("A")
        # Merging a healthier view never lifts a quarantine.
        healthy = CircuitBreaker(threshold=2)
        healthy.record_success("A")
        left.merge(healthy)
        assert left.is_quarantined("A")

    def test_merge_keeps_first_reason(self):
        first = CircuitBreaker(threshold=1)
        first.record_failure("A", "original")
        later = CircuitBreaker(threshold=1)
        later.record_failure("A", "newer")
        first.merge(later)
        assert "original" in first.reason("A")


class TestCheckpointBatching:
    def test_put_batches_commits_until_interval(self, tmp_path):
        import sqlite3

        from repro.repository import CheckpointStore

        path = str(tmp_path / "ckpt.sqlite")
        store = CheckpointStore(path, commit_interval=4)
        try:
            for i in range(3):
                store.put("r", f"u{i}", {"i": i})
            # Same connection sees pending rows; a second connection
            # only sees committed ones.
            assert len(store.units("r")) == 3
            other = sqlite3.connect(path)
            count = other.execute(
                "SELECT COUNT(*) FROM checkpoints"
            ).fetchone()[0]
            assert count == 0
            store.put("r", "u3", {"i": 3})  # 4th put hits the interval
            count = other.execute(
                "SELECT COUNT(*) FROM checkpoints"
            ).fetchone()[0]
            assert count == 4
            other.close()
        finally:
            store.close()

    def test_close_flushes_pending_batch(self, tmp_path):
        from repro.repository import CheckpointStore

        path = str(tmp_path / "ckpt.sqlite")
        store = CheckpointStore(path, commit_interval=100)
        store.put("r", "u", {"x": 1})
        store.close()
        reopened = CheckpointStore(path)
        try:
            assert reopened.get("r", "u") == {"x": 1}
        finally:
            reopened.close()

    def test_commit_interval_validation(self):
        from repro.repository import CheckpointStore

        with pytest.raises(ValueError):
            CheckpointStore(commit_interval=0)

    def test_pending_batch_does_not_hold_the_write_lock(self, tmp_path):
        from repro.repository import CheckpointStore
        from repro.repository.store import connect

        path = str(tmp_path / "ckpt.sqlite")
        store = CheckpointStore(path, commit_interval=64)
        other = connect(path, busy_timeout_seconds=0.05)
        try:
            for i in range(3):
                store.put("r", f"u{i}", {"i": i})
            # A second writer (another service worker) commits at once
            # instead of waiting for this store's batch to flush.
            with other:
                other.execute(
                    "INSERT INTO checkpoints VALUES ('s', 'u', '{}')"
                )
            store.commit()
            assert other.execute(
                "SELECT COUNT(*) FROM checkpoints"
            ).fetchone()[0] == 4
        finally:
            other.close()
            store.close()

    def test_reads_see_pending_rows(self, tmp_path):
        from repro.repository import CheckpointStore

        path = str(tmp_path / "ckpt.sqlite")
        with CheckpointStore(path, commit_interval=64) as store:
            store.put("r", "b", {"v": 0})
            store.commit()
            store.put("r", "b", {"v": 1})  # pending over a committed row
            store.put("r", "a", {"v": 1})
            store.put("r", "a", {"v": 2})  # a repeated put keeps the last
            store.put("s", "c", {"v": 3})
            assert store.get("r", "a") == {"v": 2}
            assert store.get("r", "b") == {"v": 1}
            assert store.units("r") == ["a", "b"]
            assert store.count("r") == 2
            assert store.count() == 3
            store.commit()
            assert store.get("r", "a") == {"v": 2}
            assert store.get("r", "b") == {"v": 1}
            assert store.count() == 3

    def test_clear_run_drops_only_that_runs_pending_rows(self, tmp_path):
        from repro.repository import CheckpointStore

        path = str(tmp_path / "ckpt.sqlite")
        with CheckpointStore(path, commit_interval=64) as store:
            store.put("r", "old", {"v": 0})
            store.commit()
            store.put("r", "new", {"v": 1})
            store.put("s", "keep", {"v": 2})
            store.clear_run("r")
            assert store.units("r") == []
            assert store.get("s", "keep") == {"v": 2}
        with CheckpointStore(path) as reopened:
            assert reopened.units("r") == []
            assert reopened.units("s") == ["keep"]

    @staticmethod
    def _locked_store(path):
        """A store with two pending rows and a second connection holding
        the database's write lock; the store's busy wait is shortened so
        a commit exhausts its retries quickly."""
        from repro.repository import CheckpointStore
        from repro.repository.store import connect

        store = CheckpointStore(path, commit_interval=64)
        store._connection.execute("PRAGMA busy_timeout=10")
        store.put("r", "a", {"v": 1})
        store.put("r", "b", {"v": 2})
        blocker = connect(path)
        blocker.execute("BEGIN IMMEDIATE")
        return store, blocker

    def test_busy_commit_keeps_the_batch(self, tmp_path):
        from repro.resilience.failures import TransientError

        path = str(tmp_path / "ckpt.sqlite")
        store, blocker = self._locked_store(path)
        try:
            with pytest.raises(TransientError):
                store.commit()
            assert store.units("r") == ["a", "b"]
            blocker.rollback()
            store.commit()
            assert blocker.execute(
                "SELECT unit, payload_json FROM checkpoints ORDER BY unit"
            ).fetchall() == [("a", '{"v": 1}'), ("b", '{"v": 2}')]
        finally:
            blocker.close()
            store.close()

    def test_close_closes_connection_when_final_commit_fails(self, tmp_path):
        import sqlite3

        from repro.resilience.failures import TransientError

        path = str(tmp_path / "ckpt.sqlite")
        store, blocker = self._locked_store(path)
        try:
            with pytest.raises(TransientError):
                store.close()
            with pytest.raises(sqlite3.ProgrammingError):
                store._connection.execute("SELECT 1")
        finally:
            blocker.close()


class TestParallelLintCoverage:
    def test_parallel_package_is_lint_clean_and_not_allowlisted(self):
        import sys
        from pathlib import Path

        repo_root = Path(__file__).resolve().parent.parent
        sys.path.insert(0, str(repo_root / "tools"))
        try:
            import check_exceptions
        finally:
            sys.path.pop(0)
        package = repo_root / "src" / "repro" / "parallel"
        files = sorted(p.name for p in package.glob("*.py"))
        assert files == ["__init__.py", "engine.py", "plan.py"]
        for path in package.glob("*.py"):
            relative = path.relative_to(repo_root / "src").as_posix()
            assert relative not in check_exceptions.ALLOWLIST
            assert list(check_exceptions.check_file(path)) == []
