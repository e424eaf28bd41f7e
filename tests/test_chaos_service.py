"""Tier-2 chaos suite for the benchmark service (``pytest -m chaos``).

The acceptance property: SIGKILL a worker while it holds a job, and the
system heals itself -- the lease expires, the job is re-queued *exactly
once*, a surviving worker resumes it from the checkpoint store, and both
the final result and the checkpoint store are byte-identical to an
uninterrupted run of the same configuration.
"""

import json
import sqlite3
import time

import pytest

from repro.repository.store import CheckpointStore
from repro.service import (
    BenchService,
    JobSpec,
    SchedulerPolicy,
    ServiceClient,
    canonical_result_text,
)

from service_doubles import attempt_count, deterministic_execute

pytestmark = pytest.mark.chaos


def _store_dump(path, run_id) -> bytes:
    """Canonical bytes of one run's checkpoint rows (unit -> payload)."""
    store = CheckpointStore(str(path))
    try:
        dump = {
            unit: store.get(run_id, unit) for unit in store.units(run_id)
        }
    finally:
        store.close()
    return json.dumps(dump, sort_keys=True, allow_nan=False).encode()


def _wait_for(predicate, deadline_seconds=60.0, poll_seconds=0.05):
    deadline = time.monotonic() + deadline_seconds
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(poll_seconds)
    return False


class TestWorkerKill:
    def test_sigkilled_worker_requeues_exactly_once_and_matches(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_SERVICE_TEST_DIR", str(tmp_path))
        spec = JobSpec(
            kind="detect", dataset="SmartFactory", rows=100, seed=7,
            options={"detectors": ["MVD", "SD", "IQR"]},
        )
        queue_path = str(tmp_path / "queue.sqlite")
        store_path = str(tmp_path / "store.sqlite")
        service = BenchService(
            queue_path,
            n_workers=2,
            policy=SchedulerPolicy(lease_seconds=2.0),
            execute_ref="service_doubles:chaos_execute",
            store_path=store_path,
            events_path=str(tmp_path / "events.jsonl"),
        )
        with service:
            client = ServiceClient(service.address, timeout=30.0)
            receipt = client.submit(spec.to_payload())
            assert receipt["job_id"] == spec.job_id

            # chaos_execute finishes the first attempt's real execution
            # (checkpoints committed), drops the ready marker, then
            # parks without reporting back: the SIGKILL window.
            ready = tmp_path / f"{spec.job_id}.ready"
            assert _wait_for(ready.exists), "first attempt never parked"

            # SIGKILL exactly the worker that holds the lease.
            read = sqlite3.connect(queue_path)
            (owner,) = read.execute(
                "SELECT lease_owner FROM jobs WHERE job_id = ?",
                (spec.job_id,),
            ).fetchone()
            read.close()
            assert owner is not None
            victim = int(owner.rsplit("-", 1)[1])
            service.pool.kill(victim)
            assert service.pool.alive_count() == 1

            # The lease expires, the survivor re-leases and resumes.
            record = client.wait(spec.job_id, deadline_seconds=120.0)
            assert record["state"] == "done"
            assert record["requeues"] == 1  # re-queued exactly once
            assert record["attempts"] == 2
            service_text = client.result_text(spec.job_id)
            stats = client.stats()
            assert stats["counters"]["jobs.requeued"] == 1
            assert stats["counters"]["jobs.completed"] == 1

        # Both executions actually ran (kill was mid-job, not before).
        assert attempt_count(tmp_path, spec.job_id) == 2

        # Uninterrupted reference run: same config, fresh store.
        reference_store = tmp_path / "reference.sqlite"
        reference = deterministic_execute(
            spec.to_payload(), store_path=str(reference_store)
        )
        assert service_text == canonical_result_text(reference)
        assert _store_dump(store_path, spec.job_id) == _store_dump(
            reference_store, spec.job_id
        )

    def test_lease_expiry_bounds_repeated_kills(self, tmp_path, monkeypatch):
        """Kill every worker that ever picks the job up: attempts are
        bounded by the policy and the job fails with the categorized
        lease-expiry record instead of looping forever."""
        monkeypatch.setenv("REPRO_SERVICE_TEST_DIR", str(tmp_path))
        spec = JobSpec(
            kind="detect", dataset="Nasa", rows=60, seed=1,
            options={"detectors": ["MVD"]},
        )
        service = BenchService(
            str(tmp_path / "queue.sqlite"),
            n_workers=1,
            policy=SchedulerPolicy(lease_seconds=1.0, max_attempts=2),
            execute_ref="service_doubles:hanging_execute",
        )
        with service:
            client = ServiceClient(service.address, timeout=30.0)
            client.submit(spec.to_payload())
            ready = tmp_path / f"{spec.job_id}.ready"
            assert _wait_for(ready.exists)
            service.pool.kill(0)

            # First expiry sweep: requeued (attempt budget not spent).
            assert _wait_for(
                lambda: service.queue.requeue_expired() == [spec.job_id]
                or client.status(spec.job_id)["state"] == "queued"
            )
            assert client.status(spec.job_id)["requeues"] == 1

            # A second doomed worker takes the final attempt and also
            # goes silent; the next sweep declares the job failed.
            job = service.queue.lease("ghost-worker")
            assert job is not None and job.attempts == 2
            time.sleep(1.2)  # real clock: let the 1s lease lapse
            service.queue.requeue_expired()
            record = client.status(spec.job_id)
            assert record["state"] == "failed"
            assert record["failure"]["error_type"] == "LeaseExpired"
            assert record["failure"]["category"] == "capability"
