"""Tests for the benchmark service: jobs, queue, scheduler, API, e2e.

The end-to-end class is the PR's acceptance test: >= 50 deduplicated
submissions over real HTTP against a 4-worker service, one injected
worker SIGKILL, and every result byte-identical to the same config run
through the one-shot CLI (``repro submit --inline``).
"""

import json
import os
import sqlite3
import threading
import time

import pytest

from repro.cli import main
from repro.repository.store import busy_retry, connect, is_busy_error
from repro.resilience.failures import TransientError
from repro.service import (
    BenchService,
    JobQueue,
    JobSpec,
    JobStateError,
    QueueDraining,
    QueueFull,
    SchedulerPolicy,
    ServiceClient,
    ServiceError,
    UnknownJobError,
    canonical_result_text,
    execute_job,
    strip_timing,
)
from repro.service.jobs import execute_job_payload
from repro.service.scheduler import fair_share_counts
from repro.service.workers import ServiceWorker


def _spec(seed=0, dataset="Nasa", rows=60, detectors=("MVD",)):
    return JobSpec(
        kind="detect", dataset=dataset, rows=rows, seed=seed,
        options={"detectors": list(detectors)},
    )


class FakeClock:
    def __init__(self, start=100.0):
        self.now = start

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


# ----------------------------------------------------------------------
# Job specs
# ----------------------------------------------------------------------
class TestJobSpec:
    def test_content_addressed_identity(self):
        assert _spec(seed=1).job_id == _spec(seed=1).job_id
        assert _spec(seed=1).job_id != _spec(seed=2).job_id
        # Option *content* matters, not dict ordering.
        a = JobSpec(kind="detect", dataset="Nasa",
                    options={"detectors": ["MVD"], "block_rows": 32})
        b = JobSpec(kind="detect", dataset="Nasa",
                    options={"block_rows": 32, "detectors": ["MVD"]})
        assert a.job_id == b.job_id

    def test_payload_round_trip(self):
        spec = _spec(seed=3)
        again = JobSpec.from_payload(spec.to_payload())
        assert again == spec and again.job_id == spec.job_id

    @pytest.mark.parametrize("payload, fragment", [
        ({"kind": "mine", "dataset": "Nasa"}, "kind"),
        ({"kind": "detect", "dataset": "NoSuch"}, "dataset"),
        ({"kind": "detect", "dataset": "Nasa", "rows": 0}, "rows"),
        ({"kind": "detect", "dataset": "Nasa",
          "options": {"nope": 1}}, "unknown option"),
        ({"kind": "detect", "dataset": "Nasa",
          "options": {"detectors": ["NoSuch"]}}, "detectors"),
        ({"kind": "model", "dataset": "Soccer"}, "task"),
        ({"kind": "detect", "dataset": "Nasa", "extra": 1}, "field"),
        ({"kind": "model", "dataset": "Nasa",
          "options": {"model": "Ghost"}}, "model"),
        ({"kind": "detect", "dataset": "Nasa", "rows": True}, "rows"),
        ({"kind": "detect", "dataset": "Nasa", "seed": False}, "seed"),
        ({"kind": "detect", "dataset": "Nasa",
          "options": {"block_rows": True}}, "block_rows"),
        ({"kind": "model", "dataset": "Nasa",
          "options": {"n_seeds": True}}, "n_seeds"),
    ])
    def test_malformed_configs_rejected(self, payload, fragment):
        with pytest.raises(ValueError, match=fragment):
            JobSpec.from_payload(payload)

    def test_unknown_model_submission_is_a_bad_request(self):
        from repro.service.api import BadRequest, Request, submit_job

        body = {"kind": "model", "dataset": "Nasa",
                "options": {"model": "Ghost"}}
        with pytest.raises(BadRequest, match="malformed job config") as info:
            submit_job(None, Request(params={}, body=body))
        assert info.value.status == 400

    def test_strip_timing_zeroes_wall_clock_fields(self):
        payload = {
            "runs": [{"runtime_seconds": 1.23,
                      "failure": {"elapsed_seconds": 4.5}}],
            "runtime_seconds": 9.0,
        }
        stripped = strip_timing(payload)
        assert stripped["runtime_seconds"] is None
        assert stripped["runs"][0]["runtime_seconds"] is None
        assert stripped["runs"][0]["failure"]["elapsed_seconds"] == 0.0

    def test_execute_job_result_is_deterministic(self):
        spec = _spec(seed=5)
        first = canonical_result_text(execute_job(spec))
        second = canonical_result_text(execute_job(spec))
        assert first == second


# ----------------------------------------------------------------------
# Scheduler policy
# ----------------------------------------------------------------------
class TestSchedulerPolicy:
    def test_priority_classes(self):
        policy = SchedulerPolicy()
        assert policy.priority_for("interactive") < policy.priority_for("bulk")
        with pytest.raises(ValueError, match="unknown priority"):
            policy.priority_for("vip")
        assert policy.class_name(policy.priority_for("batch")) == "batch"

    def test_admission_bounds_depth_and_submitter(self):
        policy = SchedulerPolicy(max_depth=2, max_pending_per_submitter=1)
        policy.admit(1, 0, "a")
        with pytest.raises(QueueFull, match="capacity"):
            policy.admit(2, 0, "a")
        with pytest.raises(QueueFull, match="pending"):
            policy.admit(0, 1, "a")

    def test_queue_full_carries_retry_hint(self):
        policy = SchedulerPolicy(max_depth=1, retry_after_seconds=2.5)
        with pytest.raises(QueueFull) as info:
            policy.admit(1, 0, "a")
        assert info.value.retry_after_seconds == 2.5

    def test_fair_share_counts(self):
        counts = fair_share_counts((
            ("a", "leased"), ("a", "running"), ("b", "queued"),
            ("b", "leased"),
        ))
        assert counts == {"a": 2, "b": 1}

    def test_invalid_policies_rejected(self):
        with pytest.raises(ValueError):
            SchedulerPolicy(max_depth=0)
        with pytest.raises(ValueError):
            SchedulerPolicy(default_class="vip")


# ----------------------------------------------------------------------
# Queue
# ----------------------------------------------------------------------
class TestJobQueue:
    def _queue(self, tmp_path, clock, **policy):
        policy.setdefault("lease_seconds", 10.0)
        return JobQueue(
            str(tmp_path / "q.sqlite"),
            policy=SchedulerPolicy(**policy), clock=clock,
        )

    def test_submit_dedup_and_lifecycle(self, tmp_path):
        clock = FakeClock()
        queue = self._queue(tmp_path, clock)
        receipt = queue.submit(_spec(seed=1))
        assert not receipt.deduplicated and receipt.state == "queued"
        dup = queue.submit(_spec(seed=1), submitter="else")
        assert dup.deduplicated and dup.job_id == receipt.job_id

        job = queue.lease("w0")
        assert job.job_id == receipt.job_id and job.attempts == 1
        assert queue.mark_running(job.job_id, "w0")
        assert queue.complete(job.job_id, "w0", {"answer": 42})
        record = queue.get(job.job_id)
        assert record["state"] == "done" and record["latency_seconds"] >= 0
        assert queue.result(job.job_id) == {"answer": 42}
        # Completed jobs deduplicate too: results are served, not re-run.
        assert queue.submit(_spec(seed=1)).deduplicated

    def test_lease_expiry_requeues_exactly_once(self, tmp_path):
        clock = FakeClock()
        queue = self._queue(tmp_path, clock, lease_seconds=5.0)
        queue.submit(_spec(seed=1))
        job = queue.lease("w0")
        # Heartbeats keep the lease alive across the nominal expiry.
        clock.advance(4.0)
        assert queue.heartbeat(job.job_id, "w0")
        clock.advance(4.0)
        assert queue.requeue_expired() == []
        # Silence past the lease forfeits the job -- exactly one requeue.
        clock.advance(6.0)
        assert queue.requeue_expired() == [job.job_id]
        record = queue.get(job.job_id)
        assert record["state"] == "queued" and record["requeues"] == 1
        # The dead worker's stale result is rejected...
        assert not queue.complete(job.job_id, "w0", {"stale": True})
        # ...and the re-leased worker's result wins.
        retry = queue.lease("w1")
        assert retry.attempts == 2
        assert queue.complete(retry.job_id, "w1", {"fresh": True})
        assert queue.result(job.job_id) == {"fresh": True}
        assert queue.stats()["counters"]["jobs.stale_results_dropped"] == 1

    def test_expiry_exhausts_attempts_into_failed(self, tmp_path):
        clock = FakeClock()
        queue = self._queue(tmp_path, clock, lease_seconds=1.0,
                            max_attempts=2)
        queue.submit(_spec(seed=1))
        for _ in range(2):
            assert queue.lease(f"w{_}") is not None
            clock.advance(2.0)
        assert queue.lease("w9") is None  # sweep ran; nothing left
        record = queue.get(_spec(seed=1).job_id)
        assert record["state"] == "failed"
        assert record["failure"]["error_type"] == "LeaseExpired"
        assert record["failure"]["category"] == "capability"

    def test_transient_failures_retry_data_failures_do_not(self, tmp_path):
        clock = FakeClock()
        queue = self._queue(tmp_path, clock, max_attempts=3)
        queue.submit(_spec(seed=1))
        job = queue.lease("w0")
        assert queue.fail(
            job.job_id, "w0", {"category": "transient"}, retryable=True
        ) == "queued"
        job = queue.lease("w0")
        assert queue.fail(
            job.job_id, "w0", {"category": "data", "message": "bad"},
            retryable=False,
        ) == "failed"
        assert queue.get(job.job_id)["failure"]["category"] == "data"

    def test_priority_and_fair_share_ordering(self, tmp_path):
        clock = FakeClock()
        queue = self._queue(tmp_path, clock)
        bulk = queue.submit(_spec(seed=1), priority="bulk", submitter="a")
        queue.submit(_spec(seed=2), priority="batch", submitter="a")
        queue.submit(_spec(seed=3), priority="batch", submitter="b")
        interactive = queue.submit(
            _spec(seed=4), priority="interactive", submitter="a"
        )
        # Interactive beats everything regardless of submission order.
        first = queue.lease("w0")
        assert first.job_id == interactive.job_id
        # Within 'batch': submitter a already has one in flight, so
        # fair share hands the next lease to b despite a's earlier seq.
        assert queue.lease("w1").job_id == _spec(seed=3).job_id
        assert queue.lease("w2").job_id == _spec(seed=2).job_id
        assert queue.lease("w3").job_id == bulk.job_id

    def test_admission_control_and_revival(self, tmp_path):
        clock = FakeClock()
        queue = self._queue(tmp_path, clock, max_depth=2)
        queue.submit(_spec(seed=1))
        queue.submit(_spec(seed=2))
        with pytest.raises(QueueFull):
            queue.submit(_spec(seed=3))
        # Dedup of a known job bypasses the full queue (adds no work).
        assert queue.submit(_spec(seed=1)).deduplicated

        # Cancel, then revive under the same id with attempts reset.
        cancelled = queue.cancel(_spec(seed=2).job_id)
        assert cancelled == "cancelled"
        revived = queue.submit(_spec(seed=2))
        assert not revived.deduplicated
        assert queue.get(revived.job_id)["state"] == "queued"

    def test_cancel_rules(self, tmp_path):
        clock = FakeClock()
        queue = self._queue(tmp_path, clock)
        with pytest.raises(UnknownJobError):
            queue.cancel("absent")
        queue.submit(_spec(seed=1))
        job = queue.lease("w0")
        with pytest.raises(JobStateError, match="leased"):
            queue.cancel(job.job_id)

    def test_draining_blocks_submissions_and_leases(self, tmp_path):
        clock = FakeClock()
        queue = self._queue(tmp_path, clock)
        queue.submit(_spec(seed=1))
        queue.set_draining(True)
        with pytest.raises(QueueDraining):
            queue.submit(_spec(seed=2))
        assert queue.submit(_spec(seed=1)).deduplicated  # dedup still ok
        assert queue.lease("w0") is None
        # Another connection to the same file observes the flag.
        other = JobQueue(queue.path, policy=queue.policy, clock=clock)
        assert other.draining()
        other.close()
        queue.set_draining(False)
        assert queue.lease("w0") is not None

    def test_cross_process_comparable_clock(self, tmp_path):
        # The lease math relies on time.monotonic being system-wide;
        # a fresh default-clock queue must see leases from another
        # default-clock connection as live.
        queue = JobQueue(
            str(tmp_path / "q.sqlite"),
            policy=SchedulerPolicy(lease_seconds=30.0),
        )
        queue.submit(_spec(seed=1))
        assert queue.lease("w0") is not None
        other = JobQueue(queue.path, policy=queue.policy)
        assert other.requeue_expired() == []
        other.close()
        queue.close()


# ----------------------------------------------------------------------
# Repository store concurrency hardening (WAL + busy retry satellite)
# ----------------------------------------------------------------------
class TestStoreConcurrency:
    def test_connect_enables_wal_and_busy_timeout(self, tmp_path):
        connection = connect(str(tmp_path / "s.sqlite"))
        (mode,) = connection.execute("PRAGMA journal_mode").fetchone()
        assert mode == "wal"
        (timeout,) = connection.execute("PRAGMA busy_timeout").fetchone()
        assert timeout == 5000
        connection.close()

    def test_is_busy_error_classification(self):
        assert is_busy_error(sqlite3.OperationalError("database is locked"))
        assert not is_busy_error(sqlite3.OperationalError("no such table"))
        assert not is_busy_error(ValueError("database is locked"))

    def test_busy_retry_retries_then_succeeds(self):
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise sqlite3.OperationalError("database is locked")
            return "ok"

        assert busy_retry(flaky, sleep=lambda s: None) == "ok"
        assert calls["n"] == 3

    def test_busy_retry_surfaces_as_transient(self):
        def always_locked():
            raise sqlite3.OperationalError("database is locked")

        with pytest.raises(TransientError, match="locked"):
            busy_retry(always_locked, max_attempts=2, sleep=lambda s: None)

    def test_busy_retry_passes_other_errors_through(self):
        def broken():
            raise sqlite3.OperationalError("no such table: nope")

        with pytest.raises(sqlite3.OperationalError, match="no such table"):
            busy_retry(broken, sleep=lambda s: None)

    def test_writers_in_two_connections_interleave(self, tmp_path):
        # WAL + busy timeout: two connections to one store can both
        # write without "database is locked" surfacing to the caller.
        path = str(tmp_path / "w.sqlite")
        first = connect(path, check_same_thread=False)
        second = connect(path, check_same_thread=False)
        first.execute("CREATE TABLE t (v INTEGER)")
        first.commit()
        errors = []

        def writer(connection, value):
            try:
                for _ in range(20):
                    connection.execute("INSERT INTO t VALUES (?)", (value,))
                    connection.commit()
            except sqlite3.OperationalError as exc:  # pragma: no cover
                errors.append(exc)

        threads = [
            threading.Thread(target=writer, args=(c, i))
            for i, c in enumerate((first, second))
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        (count,) = first.execute("SELECT COUNT(*) FROM t").fetchone()
        assert count == 40
        first.close()
        second.close()


# ----------------------------------------------------------------------
# HTTP API against a live (sleepy-execute) service
# ----------------------------------------------------------------------
@pytest.fixture
def sleepy_service(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_SERVICE_SLEEP_SECONDS", "0.02")
    service = BenchService(
        str(tmp_path / "q.sqlite"),
        n_workers=2,
        policy=SchedulerPolicy(lease_seconds=10.0),
        execute_ref="service_doubles:sleepy_execute",
        events_path=str(tmp_path / "events.jsonl"),
    )
    with service:
        yield service


class TestHttpApi:
    def test_submit_status_result_cancel_stats(self, sleepy_service):
        client = ServiceClient(sleepy_service.address, timeout=10.0)
        assert client.health()["status"] == "ok"

        receipt = client.submit(_spec(seed=1).to_payload(), submitter="t")
        assert receipt["state"] == "queued" and not receipt["deduplicated"]
        assert client.submit(_spec(seed=1).to_payload())["deduplicated"]

        record = client.wait(receipt["job_id"], deadline_seconds=30.0)
        assert record["state"] == "done"
        result = client.result(receipt["job_id"])
        assert result["kind"] == "sleepy"
        assert result["job_id"] == receipt["job_id"]

        stats = client.stats()
        assert stats["states"]["done"] >= 1
        assert stats["counters"]["jobs.deduplicated"] == 1
        metrics = client.metrics()
        assert metrics["workers"]["configured"] == 2

        listed = client.jobs()
        assert any(r["job_id"] == receipt["job_id"] for r in listed)

    def test_error_statuses(self, sleepy_service):
        client = ServiceClient(sleepy_service.address, timeout=10.0)
        with pytest.raises(ServiceError) as not_found:
            client.status("absent")
        assert not_found.value.status == 404

        with pytest.raises(ServiceError) as bad:
            client.submit({"kind": "detect", "dataset": "NoSuch"})
        assert bad.value.status == 400
        assert "malformed job config" in str(bad.value)

        receipt = client.submit(_spec(seed=2).to_payload())
        client.wait(receipt["job_id"], deadline_seconds=30.0)
        with pytest.raises(ServiceError) as conflict:
            client.cancel(receipt["job_id"])
        assert conflict.value.status == 409

        # Result for a queued/unknown job: 409 / 404, not a hang.
        with pytest.raises(ServiceError) as missing:
            client.result("absent")
        assert missing.value.status == 404

    def test_failed_job_maps_failure_category_to_status(
        self, tmp_path, monkeypatch
    ):
        service = BenchService(
            str(tmp_path / "qf.sqlite"), n_workers=1,
            execute_ref="service_doubles:failing_execute",
        )
        with service:
            client = ServiceClient(service.address, timeout=10.0)
            receipt = client.submit(_spec(seed=3).to_payload())
            with pytest.raises(ServiceError):
                client.wait(receipt["job_id"], deadline_seconds=30.0)
            record = client.status(receipt["job_id"])
            assert record["state"] == "failed"
            assert record["failure"]["category"] == "data"
            with pytest.raises(ServiceError) as info:
                client.result_text(receipt["job_id"])
            assert info.value.status == 422  # data -> unprocessable

    def test_transient_worker_failures_retry_to_success(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_SERVICE_TEST_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_SERVICE_SLEEP_SECONDS", "0.01")
        service = BenchService(
            str(tmp_path / "qr.sqlite"), n_workers=1,
            execute_ref="service_doubles:flaky_execute",
        )
        with service:
            client = ServiceClient(service.address, timeout=10.0)
            receipt = client.submit(_spec(seed=4).to_payload())
            record = client.wait(receipt["job_id"], deadline_seconds=30.0)
        assert record["state"] == "done"
        assert record["attempts"] == 2  # transient flake, then success

    def test_backpressure_returns_429_with_retry_after(self, tmp_path):
        # No workers polling: jobs stay queued, so depth 1 fills it.
        queue = JobQueue(
            str(tmp_path / "qb.sqlite"),
            policy=SchedulerPolicy(max_depth=1, retry_after_seconds=2.0),
        )

        class StubService:
            def __init__(self, queue):
                self.queue = queue

            def metrics_snapshot(self):
                return {}

            def note_request_error(self, exc, status):
                pass

        from repro.service.api import start_api_server

        server, thread = start_api_server(StubService(queue))
        try:
            host, port = server.server_address[:2]
            client = ServiceClient(f"http://{host}:{port}", timeout=5.0)
            client.submit(_spec(seed=1).to_payload())
            from repro.service import RetryLater

            with pytest.raises(RetryLater) as info:
                client.submit(_spec(seed=2).to_payload())
            assert info.value.status == 429
            assert info.value.retry_after_seconds == 2.0
        finally:
            server.shutdown()
            server.server_close()
            queue.close()

    def test_draining_service_rejects_new_work(self, sleepy_service):
        client = ServiceClient(sleepy_service.address, timeout=10.0)
        sleepy_service.queue.set_draining(True)
        try:
            from repro.service import RetryLater

            with pytest.raises(RetryLater) as info:
                client.submit(_spec(seed=9).to_payload())
            assert info.value.status == 503
            assert client.health()["status"] == "draining"
        finally:
            sleepy_service.queue.set_draining(False)

    def test_worker_ledger_shards_tag_job_ids(self, sleepy_service):
        client = ServiceClient(sleepy_service.address, timeout=10.0)
        receipt = client.submit(_spec(seed=11).to_payload())
        client.wait(receipt["job_id"], deadline_seconds=30.0)
        sleepy_service.drain()
        events_root = os.path.dirname(sleepy_service.queue_path)
        shards = [
            os.path.join(events_root, name)
            for name in os.listdir(events_root)
            if ".jsonl.worker-" in name
        ]
        assert shards
        events = []
        for shard in shards:
            with open(shard, encoding="utf-8") as handle:
                events.extend(json.loads(line) for line in handle)
        started = [e for e in events if e["event"] == "job_started"]
        finished = [e for e in events if e["event"] == "job_finished"]
        assert any(e["job_id"] == receipt["job_id"] for e in started)
        assert any(
            e["job_id"] == receipt["job_id"] and e["status"] == "done"
            for e in finished
        )
        spans = [e for e in events if e["event"] == "span"]
        assert any(
            e["span"].get("attrs", {}).get("job_id") == receipt["job_id"]
            for e in spans
        )


# ----------------------------------------------------------------------
# One job pool per service worker
# ----------------------------------------------------------------------
class TestJobPool:
    def _serve_two_jobs(self, tmp_path, job_workers):
        """Run two real detection jobs on one in-process worker; return
        their result texts and the pool each job ran on."""
        queue = JobQueue(
            str(tmp_path / f"q{job_workers}.sqlite"),
            policy=SchedulerPolicy(lease_seconds=60.0),
        )
        pools = []

        def execute(spec_payload, **context):
            result = execute_job_payload(spec_payload, **context)
            executor = context["executor"]
            if executor is not None:
                pool = executor._pool
                pools.append((pool, {p.pid for p in pool._pool}))
            return result

        worker = ServiceWorker(
            queue, "w0", execute=execute, job_workers=job_workers
        )
        specs = [_spec(seed=s, detectors=("MVD", "SD")) for s in (1, 2)]
        try:
            for spec in specs:
                queue.submit(spec)
            assert worker.run_once() and worker.run_once()
            texts = [queue.result_text(spec.job_id) for spec in specs]
            workers = list(pools[0][0]._pool) if pools else []
            worker.close()
            worker.close()  # idempotent
            assert all(process.exitcode is not None for process in workers)
        finally:
            worker.close()
            queue.close()
        return texts, pools

    def test_two_jobs_share_one_pool(self, tmp_path):
        serial, _ = self._serve_two_jobs(tmp_path, job_workers=1)
        texts, pools = self._serve_two_jobs(tmp_path, job_workers=2)
        assert len(pools) == 2
        (first, first_pids), (second, second_pids) = pools
        assert first is second
        assert first_pids == second_pids
        assert texts == serial and None not in texts


# ----------------------------------------------------------------------
# Graceful drain
# ----------------------------------------------------------------------
class TestDrain:
    def test_drain_finishes_in_flight_and_keeps_queue_durable(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_SERVICE_SLEEP_SECONDS", "0.2")
        service = BenchService(
            str(tmp_path / "q.sqlite"), n_workers=1,
            policy=SchedulerPolicy(lease_seconds=10.0),
            execute_ref="service_doubles:sleepy_execute",
        )
        specs = [_spec(seed=s) for s in range(4)]
        with service:
            client = ServiceClient(service.address, timeout=10.0)
            for spec in specs:
                client.submit(spec.to_payload())
            # Let the single worker pick up the first job, then drain.
            deadline = time.monotonic() + 10.0
            while (
                service.queue.in_flight() == 0
                and time.monotonic() < deadline
            ):
                time.sleep(0.01)
            assert service.drain(timeout=30.0)

        # In-flight work finished; nothing was abandoned mid-execution.
        queue = JobQueue(str(tmp_path / "q.sqlite"))
        states = queue.stats()["states"]
        assert states["leased"] == 0 and states["running"] == 0
        assert states["done"] >= 1
        # Undrained jobs survive, still queued, for the next service.
        assert states["done"] + states["queued"] == len(specs)
        queue.close()

        # A restarted service picks the queued remainder up.
        monkeypatch.setenv("REPRO_SERVICE_SLEEP_SECONDS", "0.01")
        revived = BenchService(
            str(tmp_path / "q.sqlite"), n_workers=2,
            execute_ref="service_doubles:sleepy_execute",
        )
        with revived:
            client = ServiceClient(revived.address, timeout=10.0)
            client.wait_all(
                [spec.job_id for spec in specs], deadline_seconds=60.0
            )


# ----------------------------------------------------------------------
# End-to-end acceptance
# ----------------------------------------------------------------------
class TestEndToEnd:
    N_UNIQUE = 10
    SUBMITS_PER_SPEC = 5  # 50 submissions total, 40 deduplicated

    def _specs(self):
        datasets = ("Nasa", "SmartFactory")
        return [
            _spec(
                seed=i, dataset=datasets[i % 2], rows=60,
                detectors=("MVD", "SD"),
            )
            for i in range(self.N_UNIQUE)
        ]

    def test_fifty_deduplicated_jobs_survive_worker_kill(
        self, tmp_path, capsys
    ):
        specs = self._specs()
        service = BenchService(
            str(tmp_path / "q.sqlite"),
            n_workers=4,
            policy=SchedulerPolicy(lease_seconds=5.0),
            store_path=str(tmp_path / "store.sqlite"),
            events_path=str(tmp_path / "events.jsonl"),
        )
        with service:
            client = ServiceClient(service.address, timeout=30.0)
            receipts = []
            for round_number in range(self.SUBMITS_PER_SPEC):
                for index, spec in enumerate(specs):
                    receipts.append(client.submit(
                        spec.to_payload(),
                        submitter=f"user-{index % 3}",
                    ))
            assert len(receipts) == 50
            unique_ids = {r["job_id"] for r in receipts}
            assert len(unique_ids) == self.N_UNIQUE
            deduplicated = sum(1 for r in receipts if r["deduplicated"])
            assert deduplicated == 50 - self.N_UNIQUE

            # Chaos: SIGKILL one of the four workers mid-stream.
            assert service.pool.alive_count() == 4
            service.pool.kill(0)
            assert service.pool.alive_count() == 3

            client.wait_all(sorted(unique_ids), deadline_seconds=300.0)
            service_results = {
                spec.job_id: client.result_text(spec.job_id)
                for spec in specs
            }
            stats = client.stats()
            assert stats["states"]["done"] == self.N_UNIQUE
            assert stats["states"]["failed"] == 0

        # Byte-identity: every service result equals the one-shot CLI's
        # canonical stdout for the same config.
        for spec in specs:
            capsys.readouterr()
            assert main([
                "submit", spec.dataset, "--kind", "detect",
                "--rows", str(spec.rows), "--seed", str(spec.seed),
                "--options", json.dumps(dict(spec.options)),
                "--inline", "--quiet",
            ]) == 0
            inline_text = capsys.readouterr().out
            assert inline_text == service_results[spec.job_id] + "\n"
