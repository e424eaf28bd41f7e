"""Tier-1 tests for the executor-owned worker pool.

A :class:`~repro.parallel.ProcessPoolExecutor` starts one
``multiprocessing.Pool`` at its first plan and keeps it until
``close()``.  Each plan reaches the workers in a per-plan task header,
so consecutive plans -- with telemetry or the artifact cache switched
on or off in between -- must produce exactly the stores fresh executors
produce, leave no data-plane segment behind, and survive a worker that
died between plans.  Every property runs under ``fork`` and ``spawn``.
"""

import json
import os
import signal
import sqlite3
import time

import pytest

from repro.benchmark import (
    evaluate_scenarios,
    run_detection_suite,
    run_repair_suite,
)
from repro.cache import ArtifactCache, cache_scope
from repro.datagen import generate
from repro.dataplane import live_segments
from repro.detectors import MVDetector, SDDetector
from repro.observability import Telemetry, telemetry_scope
from repro.parallel import (
    ExecutionPlan,
    ProcessPoolExecutor,
    StageAdapter,
    UnitSpec,
    execute_plan,
    null_sleep,
)
from repro.repair import DTMissRepair, KNNMissRepair
from repro.resilience import SuiteCheckpoint

START_METHODS = ["fork", "spawn"]


class StepClock:
    """Deterministic clock (see test_dataplane.StepClock)."""

    def __init__(self, tick: float = 2.0 ** -10):
        self.ticks = 0
        self.tick = tick

    def __call__(self) -> float:
        self.ticks += 1
        return self.ticks * self.tick


# ----------------------------------------------------------------------
# A stage whose unit reports the worker it ran in
# ----------------------------------------------------------------------
def _pid_execute(shared, spec):
    return {"pid": os.getpid(), "value": shared["base"] + spec.params["x"]}


def _identity(run):
    return dict(run)


def _pid_quarantine(shared, spec, reason):
    return {"pid": None, "value": None}


def _no_failure(run):
    return None


_PID_ADAPTER = StageAdapter(
    stage="detection",
    execute=_pid_execute,
    to_payload=_identity,
    from_payload=_identity,
    quarantine_skip=_pid_quarantine,
    failure_of=_no_failure,
)


def _pid_plan(base: int, n: int = 6) -> ExecutionPlan:
    units = [
        UnitSpec(i, f"detection/pid/u{i}///0", f"m{i}", {"x": i})
        for i in range(n)
    ]
    return ExecutionPlan(_PID_ADAPTER, {"base": base}, units)


def _pool_pids(executor):
    return {process.pid for process in executor._pool._pool}


# ----------------------------------------------------------------------
# Real detection stores
# ----------------------------------------------------------------------
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


def _detection_store(path, executor, seed=3):
    with SuiteCheckpoint.open(str(path), "run", resume=False) as checkpoint:
        run_detection_suite(
            generate("SmartFactory", n_rows=120, seed=seed),
            [MVDetector(), SDDetector(3.0)],
            clock=StepClock(),
            sleep=null_sleep,
            checkpoint=checkpoint,
            executor=executor,
        )
    return _store_bytes(str(path))


def _scenario_store(path, executor, seed):
    """S1/S4 model scores: units that encode and fit through the cache."""
    dataset = generate("SmartFactory", n_rows=120, seed=seed)
    with SuiteCheckpoint.open(str(path), "run", resume=False) as checkpoint:
        evaluate_scenarios(
            dataset, dataset.dirty, "dirty", "DT",
            scenario_names=("S1", "S4"), n_seeds=2, sample_rows=60,
            checkpoint=checkpoint, clock=StepClock(), sleep=null_sleep,
            executor=executor,
        )
    return _store_bytes(str(path))


def _wait_until_dead(pid: int, deadline_seconds: float = 10.0) -> None:
    deadline = time.monotonic() + deadline_seconds
    while time.monotonic() < deadline:
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.02)
    pytest.fail(f"pid {pid} outlived SIGKILL")


@pytest.mark.parametrize("start_method", START_METHODS)
class TestOnePoolPerExecutor:
    def test_consecutive_plans_share_one_pool(self, start_method):
        with ProcessPoolExecutor(2, start_method=start_method) as executor:
            pools, pids, bases = [], [], (100, 200, 300)
            for base in bases:
                runs = execute_plan(_pid_plan(base), executor)
                assert [run["value"] for run in runs] == [
                    base + i for i in range(6)
                ]
                pools.append(executor._pool)
                pids.append(_pool_pids(executor))
                # Every unit ran in one of the pool's own workers.
                assert {run["pid"] for run in runs} <= pids[-1]
            assert pools[0] is pools[1] is pools[2]
            assert pids[0] == pids[1] == pids[2]

    def test_no_segment_is_left_between_plans(self, tmp_path, start_method):
        before = set(live_segments())
        with ProcessPoolExecutor(2, start_method=start_method) as executor:
            for seed in (3, 4, 5):
                _detection_store(tmp_path / f"s{seed}.sqlite", executor, seed)
                assert set(live_segments()) <= before
        assert set(live_segments()) <= before

    # Killing every worker surely kills the one idling with the task
    # queue's read lock, which a bare Pool.terminate() would wait on.
    @pytest.mark.parametrize("victims", [1, 2])
    def test_worker_killed_between_plans_gets_a_fresh_pool(
        self, tmp_path, start_method, victims
    ):
        reference = _detection_store(tmp_path / "serial.sqlite", None)
        with ProcessPoolExecutor(2, start_method=start_method) as executor:
            first = _detection_store(tmp_path / "first.sqlite", executor)
            old_pool = executor._pool
            killed = sorted(_pool_pids(executor))[:victims]
            for pid in killed:
                os.kill(pid, signal.SIGKILL)
            for pid in killed:
                _wait_until_dead(pid)
            second = _detection_store(tmp_path / "second.sqlite", executor)
            assert executor._pool is not old_pool
            assert not set(killed) & _pool_pids(executor)
        assert first == second == reference

    def test_toggling_telemetry_and_cache_matches_fresh_executors(
        self, tmp_path, start_method
    ):
        cache_dir = tmp_path / "art"

        def settings(executor, tag, traced, cached, seed):
            telemetry = Telemetry() if traced else None
            cache = ArtifactCache(str(cache_dir)) if cached else None
            with telemetry_scope(telemetry), cache_scope(cache):
                store = _scenario_store(
                    tmp_path / f"{tag}.sqlite", executor, seed
                )
            return store, telemetry

        grid = [
            (True, False, 3),
            (False, True, 4),
            (False, False, 5),
            (True, True, 6),
            (False, False, 7),
        ]
        with ProcessPoolExecutor(2, start_method=start_method) as shared:
            reused = []
            for n, (traced, cached, seed) in enumerate(grid):
                files = sorted(cache_dir.rglob("*.npz"))
                store, telemetry = settings(
                    shared, f"reused-{n}", traced, cached, seed
                )
                reused.append(store)
                if traced:
                    # Worker spans reached the driver's trace.
                    names = {
                        span["name"]
                        for span in telemetry.tracer.to_payloads()
                    }
                    assert "dataplane:attach" in names
                after = sorted(cache_dir.rglob("*.npz"))
                # The workers write to the cache exactly when it is
                # installed in the driver.
                assert (after != files) == cached
        fresh = []
        for n, (traced, cached, seed) in enumerate(grid):
            with ProcessPoolExecutor(2, start_method=start_method) as one:
                fresh.append(
                    settings(one, f"fresh-{n}", traced, cached, seed)[0]
                )
        assert reused == fresh

    def test_close_reaps_workers_and_is_idempotent(self, start_method):
        executor = ProcessPoolExecutor(2, start_method=start_method)
        executor.close()  # before any pool: a no-op
        execute_plan(_pid_plan(1), executor)
        workers = list(executor._pool._pool)
        executor.close()
        assert executor._pool is None
        assert all(process.exitcode is not None for process in workers)
        executor.close()
        # A closed executor starts a new pool for its next plan.
        runs = execute_plan(_pid_plan(5), executor)
        assert [run["value"] for run in runs] == [5 + i for i in range(6)]
        executor.close()


# ----------------------------------------------------------------------
# Repairs whose regressor factories must cross a spawn pool
# ----------------------------------------------------------------------
def _miss_repair_store(path, executor):
    dataset = generate("SmartFactory", n_rows=80, seed=3)
    detections = {
        run.detector: set(run.result.cells)
        for run in run_detection_suite(
            dataset, [MVDetector(), SDDetector(3.0)],
            clock=StepClock(), sleep=null_sleep,
        )
        if not run.failed and run.result.n_detected
    }
    with SuiteCheckpoint.open(str(path), "run", resume=False) as checkpoint:
        runs = run_repair_suite(
            dataset,
            detections,
            [DTMissRepair(), KNNMissRepair()],
            clock=StepClock(),
            sleep=null_sleep,
            checkpoint=checkpoint,
            executor=executor,
        )
    assert runs and not any(run.failed for run in runs)
    return _store_bytes(str(path))


def test_dt_and_knn_miss_stores_match_across_start_methods(tmp_path):
    reference = _miss_repair_store(tmp_path / "serial.sqlite", None)
    for start_method in START_METHODS:
        with ProcessPoolExecutor(2, start_method=start_method) as executor:
            store = _miss_repair_store(
                tmp_path / f"{start_method}.sqlite", executor
            )
        assert store == reference, start_method
