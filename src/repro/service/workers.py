"""Service workers: lease jobs, execute them, stream observability.

A :class:`ServiceWorker` is the single-job loop (lease -> running ->
execute through the existing engines -> complete/fail) plus a heartbeat
thread that keeps the lease alive during long executions.  Execution
failures go through the PR 1 taxonomy: ``transient`` failures requeue
the job (bounded by the policy's ``max_attempts``), everything else
fails it with the categorized record attached.

:class:`WorkerPool` runs N workers as real OS processes
(``multiprocessing``), which is what makes the chaos guarantees honest:
a SIGKILLed worker takes nothing with it but its lease, and SIGTERM is
the graceful-drain signal -- stop leasing, finish the in-flight job,
exit 0.

Each worker process streams spans and counters into its own shard of
the PR 3 observability ledger (``<events>.<worker_id>.jsonl`` -- the ledger
is single-writer by design, so concurrent workers must not share a
file), with every span and event tagged with the job id it served.
"""

from __future__ import annotations

import importlib
import os
import signal
import sqlite3
import threading
import time
from typing import Any, Callable, Dict, List, Optional

import multiprocessing

from repro.observability import RunLedger, Telemetry
from repro.observability.telemetry import telemetry_scope
from repro.parallel import make_executor
from repro.repository.store import is_busy_error
from repro.resilience.failures import TRANSIENT, FailureRecord
from repro.service.queue import JobQueue, LeasedJob
from repro.service.scheduler import SchedulerPolicy

#: Default execution function, as an importable reference so freshly
#: spawned worker processes (and test/benchmark doubles) resolve it by
#: name -- the same install-by-spec idiom the artifact cache uses.
DEFAULT_EXECUTE_REF = "repro.service.jobs:execute_job_payload"

#: Span/trace category for one job execution.
JOB = "job"

JOB_STARTED = "job_started"
JOB_FINISHED = "job_finished"


def resolve_execute(ref: str) -> Callable[..., Dict[str, Any]]:
    """Resolve a ``module:attribute`` execution reference."""
    module_name, _, attribute = ref.partition(":")
    if not module_name or not attribute:
        raise ValueError(
            f"execute ref must look like 'module:attribute', got {ref!r}"
        )
    module = importlib.import_module(module_name)
    return getattr(module, attribute)


class ServiceWorker:
    """One worker identity: leases and executes jobs from a queue."""

    def __init__(
        self,
        queue: JobQueue,
        worker_id: str,
        execute: Optional[Callable[..., Dict[str, Any]]] = None,
        store_path: Optional[str] = None,
        telemetry: Optional[Telemetry] = None,
        heartbeat_interval: Optional[float] = None,
        job_workers: int = 1,
    ) -> None:
        self.queue = queue
        self.worker_id = worker_id
        self.execute = execute or resolve_execute(DEFAULT_EXECUTE_REF)
        self.store_path = store_path
        self.telemetry = telemetry
        # ``job_workers > 1`` shards each job's own unit grid across a
        # nested process pool (shared-memory data plane); 1 is serial.
        # One executor, so one pool, serves every job this worker runs.
        self.executor = make_executor(job_workers)
        lease = queue.policy.lease_seconds
        self.heartbeat_interval = (
            heartbeat_interval if heartbeat_interval is not None
            else max(lease / 4.0, 0.05)
        )
        self.jobs_done = 0

    # ------------------------------------------------------------------
    def run_once(self) -> bool:
        """Lease and fully process one job; False when queue was idle."""
        job = self.queue.lease(self.worker_id)
        if job is None:
            return False
        self.queue.mark_running(job.job_id, self.worker_id)
        stop_heartbeat = threading.Event()
        beater = threading.Thread(
            target=self._heartbeat_loop,
            args=(job.job_id, stop_heartbeat),
            daemon=True,
        )
        beater.start()
        try:
            self._process(job)
        finally:
            stop_heartbeat.set()
            beater.join()
        return True

    def _heartbeat_loop(self, job_id: str, stop: threading.Event) -> None:
        while not stop.wait(self.heartbeat_interval):
            try:
                alive = self.queue.heartbeat(job_id, self.worker_id)
            except sqlite3.OperationalError as exc:
                if not is_busy_error(exc):
                    raise
                # Writer contention: a missed beat is recoverable as
                # long as the next one lands before the lease lapses.
                continue
            if not alive:
                # Lease lost (expired and requeued elsewhere); the
                # ownership check on complete() will drop our result.
                return

    def _process(self, job: LeasedJob) -> None:
        telemetry = self.telemetry
        if telemetry is not None:
            telemetry.event(
                JOB_STARTED,
                job_id=job.job_id,
                worker=self.worker_id,
                attempts=job.attempts,
                kind=job.spec.kind,
                dataset=job.spec.dataset,
            )
        status = "done"
        try:
            if telemetry is not None:
                with telemetry_scope(telemetry):
                    with telemetry.span(
                        f"job:{job.job_id}", JOB,
                        job_id=job.job_id, kind=job.spec.kind,
                    ):
                        result = self._execute(job)
            else:
                result = self._execute(job)
        except Exception as exc:  # the worker's designated failure boundary
            record = FailureRecord.from_exception(
                exc,
                method=job.spec.kind,
                stage="service",
                job_id=job.job_id,
                dataset=job.spec.dataset,
            )
            retryable = record.category == TRANSIENT
            state = self.queue.fail(
                job.job_id, self.worker_id, record.to_payload(),
                retryable=retryable,
            )
            status = state or "stale"
            if telemetry is not None:
                telemetry.record_failure(record)
                telemetry.count("service.jobs.failed_attempts")
        else:
            accepted = self.queue.complete(
                job.job_id, self.worker_id, result
            )
            status = "done" if accepted else "stale"
            self.jobs_done += 1
            if telemetry is not None:
                telemetry.count("service.jobs.executed")
                if not accepted:
                    telemetry.count("service.jobs.stale_results")
        if telemetry is not None:
            telemetry.event(
                JOB_FINISHED,
                job_id=job.job_id,
                worker=self.worker_id,
                status=status,
            )

    def _execute(self, job: LeasedJob) -> Dict[str, Any]:
        return self.execute(
            job.spec.to_payload(),
            store_path=self.store_path,
            telemetry=self.telemetry,
            executor=self.executor,
        )

    def close(self) -> None:
        """Release the job pool, if any (idempotent)."""
        if self.executor is not None:
            self.executor.close()

    def run_forever(
        self,
        stop: threading.Event,
        poll_seconds: float = 0.1,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        """Serve until told to stop or the queue starts draining.

        Idle polls back off by ``poll_seconds``; a busy worker loops
        immediately.  In-flight work always finishes -- ``stop`` and the
        drain flag are only consulted *between* jobs.

        SQLite busy errors (the shared queue's writer lock outlasting
        the busy timeout under contention) are treated as an idle tick,
        not a worker death: the lease expiry path cleans up whatever
        the interrupted iteration held.
        """
        while not stop.is_set():
            if self.queue.draining():
                return
            try:
                idle = not self.run_once()
            except sqlite3.OperationalError as exc:
                if not is_busy_error(exc):
                    raise
                idle = True
            if idle:
                sleep(poll_seconds)


# ----------------------------------------------------------------------
# Process pool
# ----------------------------------------------------------------------
def worker_main(
    queue_path: str,
    worker_id: str,
    policy: SchedulerPolicy,
    execute_ref: str = DEFAULT_EXECUTE_REF,
    store_path: Optional[str] = None,
    events_path: Optional[str] = None,
    poll_seconds: float = 0.1,
    job_workers: int = 1,
) -> None:
    """Entry point of one worker process.

    SIGTERM is the drain signal: it sets the stop event, so the worker
    finishes the job it holds (if any) and exits cleanly instead of
    abandoning a lease.  A SIGKILLed worker is the chaos case the lease
    expiry path exists for.
    """
    stop = threading.Event()

    def _drain(signum, frame):  # noqa: ARG001 - signal handler shape
        stop.set()

    signal.signal(signal.SIGTERM, _drain)
    signal.signal(signal.SIGINT, _drain)
    telemetry: Optional[Telemetry] = None
    ledger: Optional[RunLedger] = None
    if events_path is not None:
        ledger = RunLedger(f"{events_path}.{worker_id}.jsonl")
        telemetry = Telemetry(ledger=ledger)
    queue = JobQueue(queue_path, policy=policy)
    worker = ServiceWorker(
        queue,
        worker_id,
        execute=resolve_execute(execute_ref),
        store_path=store_path,
        telemetry=telemetry,
        job_workers=job_workers,
    )
    try:
        worker.run_forever(stop, poll_seconds=poll_seconds)
    finally:
        worker.close()
        if telemetry is not None:
            telemetry.flush_to_ledger()
        if ledger is not None:
            ledger.close()
        queue.close()


class WorkerPool:
    """N worker processes over one queue database.

    Processes are started with the ``fork`` start method where
    available (workers inherit the warm interpreter); the pool parent
    must therefore hold **no** open queue connection when ``start`` runs
    -- :class:`~repro.service.daemon.BenchService` opens its own
    connection only after the fork.
    """

    def __init__(
        self,
        queue_path: str,
        n_workers: int,
        policy: Optional[SchedulerPolicy] = None,
        execute_ref: str = DEFAULT_EXECUTE_REF,
        store_path: Optional[str] = None,
        events_path: Optional[str] = None,
        poll_seconds: float = 0.1,
        name_prefix: str = "worker",
        job_workers: int = 1,
    ) -> None:
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        if job_workers < 1:
            raise ValueError("job_workers must be >= 1")
        self.queue_path = str(queue_path)
        self.n_workers = n_workers
        self.policy = policy or SchedulerPolicy()
        self.execute_ref = execute_ref
        self.store_path = store_path
        self.events_path = events_path
        self.poll_seconds = poll_seconds
        self.name_prefix = name_prefix
        self.job_workers = job_workers
        self._processes: List[multiprocessing.process.BaseProcess] = []

    def start(self) -> None:
        if self._processes:
            raise RuntimeError("pool already started")
        try:
            context = multiprocessing.get_context("fork")
        except ValueError:  # platforms without fork
            context = multiprocessing.get_context()
        for index in range(self.n_workers):
            worker_id = f"{self.name_prefix}-{index}"
            process = context.Process(
                target=worker_main,
                args=(self.queue_path, worker_id, self.policy),
                kwargs={
                    "execute_ref": self.execute_ref,
                    "store_path": self.store_path,
                    "events_path": self.events_path,
                    "poll_seconds": self.poll_seconds,
                    "job_workers": self.job_workers,
                },
                name=worker_id,
                # Daemonic processes may not have children: a worker
                # that shards jobs across its own pool must be a
                # regular process (stop()/join() still reap it).
                daemon=self.job_workers <= 1,
            )
            process.start()
            self._processes.append(process)

    @property
    def processes(self) -> List[multiprocessing.process.BaseProcess]:
        return list(self._processes)

    def alive_count(self) -> int:
        return sum(1 for p in self._processes if p.is_alive())

    def kill(self, index: int) -> int:
        """SIGKILL one worker (chaos injection); returns its pid."""
        process = self._processes[index]
        pid = process.pid
        os.kill(pid, signal.SIGKILL)
        process.join(timeout=5.0)
        return pid

    def stop(self) -> None:
        """SIGTERM every live worker (graceful drain)."""
        for process in self._processes:
            if process.is_alive():
                process.terminate()

    def join(self, timeout: float = 30.0) -> bool:
        """Wait for workers to exit; True when all did."""
        deadline = time.monotonic() + timeout
        for process in self._processes:
            remaining = max(0.0, deadline - time.monotonic())
            process.join(timeout=remaining)
        alive = self.alive_count()
        for process in self._processes:
            if not process.is_alive():
                process.close()
        self._processes = [p for p in self._processes if _is_open(p)]
        return alive == 0


def _is_open(process) -> bool:
    try:
        process.is_alive()
    except ValueError:  # closed handle
        return False
    return True
