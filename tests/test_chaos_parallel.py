"""Tier-2 chaos suite for the parallel engine (``pytest -m chaos``).

Extends the serial chaos acceptance properties to ``--workers N``: with
injected crashes, hangs, corrupted outputs and mid-run kills, a process-
pool run produces byte-identical payloads to the serial reference, and a
killed parallel run resumed from its checkpoint converges to the same
bytes.  Kills are simulated at the single-writer boundary (the driver's
checkpoint ``put``), never inside pool workers -- killing a worker is a
pool-management failure, not a suite interrupt.
"""

import json
import os
import signal

import pytest

from repro.benchmark import (
    evaluate_scenarios,
    run_detection_suite,
    run_repair_suite,
)
from repro.datagen import generate
from repro.detectors import MVDetector, SDDetector
from repro.dataplane import live_segments
from repro.parallel import ProcessPoolExecutor, WorkerCrashError, null_sleep
from repro.repair import GroundTruthRepair, MeanModeImputeRepair
from repro.repository import CheckpointStore
from repro.resilience import (
    CircuitBreaker,
    SuiteCheckpoint,
)

from chaos_doubles import CorruptingRepair, CrashingDetector, HangingDetector

pytestmark = pytest.mark.chaos


class StepClock:
    """Deterministic clock (see test_chaos.StepClock): power-of-two tick
    so per-unit elapsed times are exact call-count multiples regardless
    of the absolute offset -- which is what makes worker-process clock
    copies agree with the serial run."""

    def __init__(self, tick: float = 2.0 ** -10):
        self.ticks = 0
        self.tick = tick

    def __call__(self) -> float:
        self.ticks += 1
        return self.ticks * self.tick

    def advance(self, seconds: float) -> None:
        self.ticks += max(1, round(seconds / self.tick))


class KillingCheckpoint(SuiteCheckpoint):
    """Raises KeyboardInterrupt after ``kill_after`` finalized units --
    the operator hitting Ctrl-C at an exact unit boundary."""

    def __init__(self, store, run_id, kill_after):
        super().__init__(store, run_id)
        self.kill_after = kill_after
        self.puts = 0

    def put(self, unit, payload):
        super().put(unit, payload)
        self.puts += 1
        if self.puts >= self.kill_after:
            raise KeyboardInterrupt


def _dataset():
    return generate("SmartFactory", n_rows=120, seed=3)


def _canonical(runs) -> bytes:
    return json.dumps(
        [r.to_payload() for r in runs], sort_keys=True
    ).encode()


def _chaos_detection(executor, checkpoint=None):
    clock = StepClock()
    detectors = [
        MVDetector(),
        CrashingDetector(MemoryError, "boom"),
        HangingDetector(tick=0.05, sleep=clock.advance),
        SDDetector(3.0),
    ]
    return run_detection_suite(
        _dataset(),
        detectors,
        deadline_seconds=0.5,
        clock=clock,
        sleep=null_sleep,
        checkpoint=checkpoint,
        executor=executor,
    )


class TestChaosFaultsUnderParallel:
    def test_detection_faults_match_serial_bytes(self):
        reference = _canonical(_chaos_detection(None))
        for workers in (2, 3):
            runs = _chaos_detection(ProcessPoolExecutor(workers))
            assert _canonical(runs) == reference

    def test_repair_faults_and_quarantine_match_serial_bytes(self):
        def grid(executor):
            dataset = _dataset()
            clock = StepClock()
            detection_runs = run_detection_suite(
                dataset,
                [MVDetector(), SDDetector(3.0)],
                clock=clock,
                sleep=null_sleep,
            )
            detections = {
                r.detector: set(r.result.cells)
                for r in detection_runs
                if not r.failed and r.result.n_detected
            }
            breaker = CircuitBreaker(threshold=2)
            runs = run_repair_suite(
                dataset,
                detections,
                [
                    CorruptingRepair(MeanModeImputeRepair(), mode="misalign"),
                    GroundTruthRepair(),
                ],
                clock=clock,
                sleep=null_sleep,
                breaker=breaker,
                executor=executor,
            )
            return runs, breaker

        reference, reference_breaker = grid(None)
        assert reference_breaker.is_quarantined("Impute-Mean")
        pooled, pooled_breaker = grid(ProcessPoolExecutor(2))
        assert _canonical(pooled) == _canonical(reference)
        assert pooled_breaker.quarantined == reference_breaker.quarantined

    def test_scenario_stage_matches_serial(self):
        def evaluate(executor):
            dataset = _dataset()
            return evaluate_scenarios(
                dataset,
                dataset.dirty,
                "dirty",
                "DT",
                scenario_names=("S1", "S4"),
                n_seeds=2,
                sample_rows=60,
                clock=StepClock(),
                sleep=null_sleep,
                executor=executor,
            )

        reference = evaluate(None)
        pooled = evaluate(ProcessPoolExecutor(2))
        assert pooled.scores == reference.scores
        assert {
            name: sorted(seeds) for name, seeds in pooled.failures.items()
        } == {
            name: sorted(seeds)
            for name, seeds in reference.failures.items()
        }


class TestKilledParallelRunResumes:
    def test_killed_pool_run_resumed_matches_serial_reference(self, tmp_path):
        # Reference: uninterrupted serial run (no checkpoint involved).
        reference = _canonical(_chaos_detection(None))

        # Parallel run killed after two finalized units.
        path = str(tmp_path / "killed.sqlite")
        store = CheckpointStore(path)
        killing = KillingCheckpoint(store, "run", kill_after=2)
        try:
            with pytest.raises(KeyboardInterrupt):
                _chaos_detection(ProcessPoolExecutor(3), checkpoint=killing)
            assert len(killing.completed_units()) == 2
        finally:
            store.close()

        # Resume under the pool: cached units load, the rest execute.
        with SuiteCheckpoint.open(path, "run", resume=True) as ckpt:
            resumed = _chaos_detection(
                ProcessPoolExecutor(3), checkpoint=ckpt
            )
        assert _canonical(resumed) == reference

    def test_killed_pool_run_resumed_serially_matches_too(self, tmp_path):
        # Executor choice is free across the kill boundary: kill under
        # the pool, resume serially, same bytes.
        reference = _canonical(_chaos_detection(None))
        path = str(tmp_path / "killed.sqlite")
        store = CheckpointStore(path)
        killing = KillingCheckpoint(store, "run", kill_after=1)
        try:
            with pytest.raises(KeyboardInterrupt):
                _chaos_detection(ProcessPoolExecutor(2), checkpoint=killing)
        finally:
            store.close()
        with SuiteCheckpoint.open(path, "run", resume=True) as ckpt:
            resumed = _chaos_detection(None, checkpoint=ckpt)
        assert _canonical(resumed) == reference


# ----------------------------------------------------------------------
# Worker death (SIGKILL mid-unit) and data-plane hygiene
# ----------------------------------------------------------------------
class KamikazeDetector(MVDetector):
    """SIGKILLs its own process the first time it runs outside the
    driver -- a real worker death mid-unit, not a raised exception.

    One-shot via a flag file, and guarded by the driver pid so the
    serial reference (and the resumed run) execute it as a plain
    ``MVDetector`` with the same unit key and payload bytes.
    """

    def __init__(self, driver_pid: int, flag_path: str) -> None:
        super().__init__()
        self.driver_pid = driver_pid
        self.flag_path = flag_path

    def _detect(self, context):
        if os.getpid() != self.driver_pid and not os.path.exists(
            self.flag_path
        ):
            with open(self.flag_path, "w") as flag:
                flag.write(str(os.getpid()))
            os.kill(os.getpid(), signal.SIGKILL)
        return super()._detect(context)


def _kill_grid(tmp_path, executor, checkpoint=None):
    flag = str(tmp_path / "kamikaze.flag")
    return run_detection_suite(
        _dataset(),
        [KamikazeDetector(os.getpid(), flag), SDDetector(3.0)],
        clock=StepClock(),
        sleep=null_sleep,
        checkpoint=checkpoint,
        executor=executor,
    )


class TestWorkerDeathMidUnit:
    def test_sigkill_raises_worker_crash_and_leaks_nothing(self, tmp_path):
        before = set(live_segments())
        with pytest.raises(WorkerCrashError):
            _kill_grid(tmp_path, ProcessPoolExecutor(2, poll_seconds=0.05))
        assert (tmp_path / "kamikaze.flag").exists(), (
            "the kamikaze unit must actually have run in a worker"
        )
        assert not (set(live_segments()) - before), (
            "a worker SIGKILL must not leak data-plane segments"
        )

    def test_killed_run_resumes_to_serial_reference(self, tmp_path):
        # Serial reference: same grid, flag pre-set so nothing dies.
        reference_dir = tmp_path / "reference"
        reference_dir.mkdir()
        (reference_dir / "kamikaze.flag").write_text("disarmed")
        reference = _canonical(_kill_grid(reference_dir, None))

        path = str(tmp_path / "killed.sqlite")
        store = CheckpointStore(path)
        try:
            killed = SuiteCheckpoint(store, "run")
            with pytest.raises(WorkerCrashError):
                _kill_grid(
                    tmp_path,
                    ProcessPoolExecutor(2, poll_seconds=0.05),
                    checkpoint=killed,
                )
        finally:
            store.close()

        # Resume under the pool: the flag file disarms the kamikaze,
        # cached units load, lost units re-execute -- same bytes.
        with SuiteCheckpoint.open(path, "run", resume=True) as ckpt:
            resumed = _kill_grid(
                tmp_path, ProcessPoolExecutor(2), checkpoint=ckpt
            )
        assert _canonical(resumed) == reference

    def test_pool_teardown_after_interrupt_leaks_nothing(self, tmp_path):
        before = set(live_segments())
        path = str(tmp_path / "interrupted.sqlite")
        store = CheckpointStore(path)
        killing = KillingCheckpoint(store, "run", kill_after=1)
        try:
            with pytest.raises(KeyboardInterrupt):
                _chaos_detection(ProcessPoolExecutor(2), checkpoint=killing)
        finally:
            store.close()
        assert not (set(live_segments()) - before)
