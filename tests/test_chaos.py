"""Tier-2 chaos suite: seeded fault injection against the full pipeline.

Run with ``pytest -m chaos``.  Asserts the acceptance properties of the
resilience layer: with injected crashes, hangs and corrupted outputs the
detect -> repair -> model pipeline always completes, every failure
surfaces as a categorized FailureRecord (never an unexplained NaN),
quarantined methods are skipped with a recorded reason, and an
interrupted run resumed from the SQLite checkpoint produces byte-identical
final results.
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
from repro.detectors import MVDetector, SDDetector
from repro.repair import GroundTruthRepair, MeanModeImputeRepair
from repro.resilience import (
    CAPABILITY,
    DATA,
    CircuitBreaker,
    RetryPolicy,
    SuiteCheckpoint,
    TransientError,
)

from chaos_doubles import (
    CorruptingRepair,
    CrashingDetector,
    FlakyDetector,
    FlakyRepair,
    HangingDetector,
)

pytestmark = pytest.mark.chaos


class StepClock:
    """Fake monotonic clock: every reading advances a fixed tick.

    Per-unit elapsed times become deterministic call-count multiples.
    Ticks are counted as integers and the tick is a power of two, so
    readings and their differences are exact floats regardless of the
    absolute offset -- two runs of the same suite produce byte-identical
    payloads even when one of them skipped checkpointed units."""

    def __init__(self, tick: float = 2.0 ** -10):
        self.ticks = 0
        self.tick = tick

    def __call__(self) -> float:
        self.ticks += 1
        return self.ticks * self.tick

    def advance(self, seconds: float) -> None:
        self.ticks += max(1, round(seconds / self.tick))


NO_SLEEP = lambda seconds: None  # noqa: E731


class InterruptingDetector(MVDetector):
    """Simulates the operator killing the process mid-suite.

    Takes the name of the detector whose slot it occupies, so the
    resumed run's real detector maps onto the same checkpoint unit."""

    def __init__(self, name: str):
        self.name = name

    def _detect(self, context):
        raise KeyboardInterrupt


def _dataset():
    return generate("SmartFactory", n_rows=120, seed=3)


class TestChaosDetection:
    def test_flaky_detector_recovers_with_retries(self):
        dataset = _dataset()
        flaky = FlakyDetector(MVDetector(), fail_first=2)
        runs = run_detection_suite(
            dataset, [flaky],
            retry=RetryPolicy(max_attempts=3, base_delay=0.0),
            sleep=NO_SLEEP,
        )
        assert not runs[0].failed
        assert flaky.calls == 3
        baseline = run_detection_suite(dataset, [MVDetector()])
        assert runs[0].scores == baseline[0].scores

    def test_flaky_without_retries_is_transient_failure(self):
        runs = run_detection_suite(_dataset(), [FlakyDetector(MVDetector())])
        assert runs[0].failed
        assert runs[0].failure_record.category == "transient"

    def test_memory_crash_mid_suite_completes_with_record(self):
        dataset = _dataset()
        runs = run_detection_suite(
            dataset,
            [MVDetector(), CrashingDetector(MemoryError, "boom"), SDDetector(3.0)],
        )
        by_name = {r.detector: r for r in runs}
        assert len(runs) == 3
        crashed = by_name["Crashing"]
        assert crashed.failed
        assert crashed.failure_record.category == CAPABILITY
        assert "MemoryError" in crashed.failure
        assert not by_name["MVD"].failed
        assert not by_name["SD"].failed

    def test_hanging_detector_trips_deadline(self):
        dataset = _dataset()
        clock = StepClock()
        hanging = HangingDetector(
            tick=0.05, sleep=lambda s: clock.advance(s)
        )
        runs = run_detection_suite(
            dataset, [hanging, MVDetector()],
            deadline_seconds=0.5, clock=clock, sleep=NO_SLEEP,
        )
        by_name = {r.detector: r for r in runs}
        hung = by_name["Hanging"]
        assert hung.failed
        assert hung.failure_record.error_type == "DeadlineExceeded"
        assert hung.failure_record.category == CAPABILITY
        # The suite moved on: the well-behaved detector still ran.
        assert not by_name["MVD"].failed

    def test_quarantine_trips_after_k_failures_and_records_reason(self):
        dataset = _dataset()
        breaker = CircuitBreaker(threshold=2)
        crasher = FlakyDetector(MVDetector(), fail_first=None, exc=MemoryError)
        for _ in range(2):
            runs = run_detection_suite(dataset, [crasher], breaker=breaker)
            assert runs[0].failed
        assert breaker.is_quarantined("MVD")
        calls_before = crasher.calls
        runs = run_detection_suite(dataset, [crasher], breaker=breaker)
        assert crasher.calls == calls_before  # skipped, not re-executed
        record = runs[0].failure_record
        assert record.quarantined
        assert "2 consecutive failures" in record.message


class TestChaosRepair:
    def _detections(self, dataset):
        runs = run_detection_suite(dataset, [MVDetector()])
        return {runs[0].detector: set(runs[0].result.cells)}

    @pytest.mark.parametrize("mode", ["misalign", "nan_flood", "schema_drift"])
    def test_corrupted_output_booked_as_data_failure(self, mode):
        dataset = _dataset()
        corrupting = CorruptingRepair(MeanModeImputeRepair(), mode=mode)
        runs = run_repair_suite(
            dataset, self._detections(dataset), [corrupting, GroundTruthRepair()]
        )
        by_name = {r.repair: r for r in runs}
        corrupted = by_name["Impute-Mean"]
        assert corrupted.failed
        assert corrupted.failure_record.category == DATA
        assert corrupted.failure_record.error_type == "CorruptOutputError"
        # Scores stay NaN but the reason is recorded, and the healthy
        # repair still completed.
        assert math.isnan(corrupted.categorical_f1)
        assert not by_name["GT"].failed

    def test_flaky_repair_recovers_with_retries(self):
        dataset = _dataset()
        flaky = FlakyRepair(MeanModeImputeRepair(), fail_first=1)
        runs = run_repair_suite(
            dataset, self._detections(dataset), [flaky],
            retry=RetryPolicy(max_attempts=2, base_delay=0.0),
            sleep=NO_SLEEP,
        )
        assert not runs[0].failed
        assert flaky.calls == 2


class TestChaosFullPipeline:
    def test_pipeline_completes_and_explains_every_nan(self):
        """Detect -> repair -> model under injected chaos: the suite
        finishes and every missing score has a categorized reason."""
        dataset = _dataset()
        detectors = [
            MVDetector(),
            CrashingDetector(MemoryError, "injected"),
            FlakyDetector(SDDetector(3.0), fail_first=5, exc=TransientError),
        ]
        detection_runs = run_detection_suite(dataset, detectors)
        assert len(detection_runs) == len(detectors)
        for run in detection_runs:
            if run.failed:
                assert run.failure_record is not None
                assert run.failure_record.category in (
                    "transient", "capability", "data", "bug",
                )

        detections = {
            r.detector: set(r.result.cells)
            for r in detection_runs
            if not r.failed and r.result.n_detected
        }
        repairs = [
            GroundTruthRepair(),
            CorruptingRepair(MeanModeImputeRepair(), mode="misalign"),
        ]
        repair_runs = run_repair_suite(dataset, detections, repairs)
        for run in repair_runs:
            if run.failed:
                assert run.failure_record is not None
            else:
                assert run.result is not None

        healthy = [r for r in repair_runs if not r.failed]
        assert healthy, "at least the GT repair must survive"
        evaluation = evaluate_scenarios(
            dataset, healthy[0].result.repaired, healthy[0].strategy, "DT",
            scenario_names=("S1",), n_seeds=2, sample_rows=60,
        )
        for i, value in enumerate(evaluation.scores["S1"]):
            if math.isnan(value):
                assert evaluation.failure_reason("S1", i)


class TestResumableRuns:
    def _run_suite(self, path, run_id, detectors, repairs, resume):
        """One full checkpointed detect -> repair -> model pass."""
        dataset = _dataset()
        clock = StepClock()
        with SuiteCheckpoint.open(path, run_id, resume=resume) as ckpt:
            detection_runs = run_detection_suite(
                dataset, detectors, checkpoint=ckpt, clock=clock,
                sleep=NO_SLEEP,
            )
            detections = {
                r.detector: set(r.result.cells)
                for r in detection_runs
                if not r.failed and r.result.n_detected
            }
            repair_runs = run_repair_suite(
                dataset, detections, repairs, checkpoint=ckpt, clock=clock,
                sleep=NO_SLEEP,
            )
            healthy = [r for r in repair_runs if not r.failed]
            evaluation = evaluate_scenarios(
                dataset, healthy[0].result.repaired, healthy[0].strategy,
                "DT", scenario_names=("S1",), n_seeds=2, sample_rows=60,
                checkpoint=ckpt, clock=clock, sleep=NO_SLEEP,
            )
        return detection_runs, repair_runs, evaluation

    @staticmethod
    def _canonical(detection_runs, repair_runs, evaluation) -> bytes:
        payload = {
            "detection": [r.to_payload() for r in detection_runs],
            "repair": [r.to_payload() for r in repair_runs],
            "model": {
                "scores": evaluation.scores,
                "failures": {
                    name: {
                        str(seed): record.to_payload()
                        for seed, record in seeds.items()
                    }
                    for name, seeds in evaluation.failures.items()
                },
            },
        }
        return json.dumps(payload, sort_keys=True).encode()

    def test_killed_then_resumed_run_matches_uninterrupted(self, tmp_path):
        detectors = lambda: [MVDetector(), SDDetector(3.0)]  # noqa: E731
        repairs = lambda: [GroundTruthRepair(), MeanModeImputeRepair()]  # noqa: E731

        # Reference: uninterrupted run.
        reference = self._run_suite(
            str(tmp_path / "ref.sqlite"), "run", detectors(), repairs(),
            resume=False,
        )

        # Interrupted run: the second detector slot kills the process.
        path = str(tmp_path / "killed.sqlite")
        dataset = _dataset()
        clock = StepClock()
        with SuiteCheckpoint.open(path, "run", resume=False) as ckpt:
            with pytest.raises(KeyboardInterrupt):
                run_detection_suite(
                    dataset, [MVDetector(), InterruptingDetector("SD")],
                    checkpoint=ckpt, clock=clock, sleep=NO_SLEEP,
                )
            completed = ckpt.completed_units()
        assert len(completed) == 1  # only MVD finished before the kill

        # Resume: same store, same run id, the real detector lineup.
        resumed = self._run_suite(path, "run", detectors(), repairs(), resume=True)
        assert self._canonical(*resumed) == self._canonical(*reference)

    def test_resume_does_not_reexecute_completed_units(self, tmp_path):
        path = str(tmp_path / "c.sqlite")
        counting = FlakyDetector(MVDetector(), fail_first=0)  # pure counter
        self._run_suite(path, "run", [counting], [GroundTruthRepair()],
                        resume=False)
        calls_before = counting.calls
        self._run_suite(path, "run", [counting], [GroundTruthRepair()],
                        resume=True)
        assert counting.calls == calls_before

    def test_fresh_start_clears_previous_checkpoints(self, tmp_path):
        path = str(tmp_path / "c.sqlite")
        counting = FlakyDetector(MVDetector(), fail_first=0)
        self._run_suite(path, "run", [counting], [GroundTruthRepair()],
                        resume=False)
        calls_before = counting.calls
        self._run_suite(path, "run", [counting], [GroundTruthRepair()],
                        resume=False)
        assert counting.calls > calls_before
