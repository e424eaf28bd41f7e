"""Benchmark-as-a-service: durable queue, fair-share scheduler, HTTP API.

REIN-style benchmarking is a standing workload, not a one-shot script:
many configurations, many users, long-running sweeps.  This package
turns the existing execution engines (resilience guards, parallel
engine, artifact cache, block-sharded out-of-core paths) into a small
multi-tenant service:

- :mod:`repro.service.jobs` -- the canonical, content-addressed job
  spec and the one-shot execution path shared by workers and the CLI;
- :mod:`repro.service.queue` -- a durable SQLite job queue with worker
  leases, heartbeat expiry, and exactly-once results;
- :mod:`repro.service.scheduler` -- priority classes, per-submitter
  fair share, and typed admission control;
- :mod:`repro.service.workers` -- the worker pool (real processes,
  SIGTERM-drainable, SIGKILL-survivable);
- :mod:`repro.service.api` -- the JSON HTTP API;
- :mod:`repro.service.daemon` -- :class:`BenchService`, the assembled
  deployment with graceful drain;
- :mod:`repro.service.client` -- a urllib client with typed errors.

Execution doubles for tests and benchmarks live outside the package,
in ``tests/service_doubles.py``; workers resolve them by their
``execute_ref`` (``"service_doubles:sleepy_execute"``).
"""

from repro.service.client import (
    JobFailed,
    RetryLater,
    ServiceClient,
    ServiceError,
    ServiceUnavailable,
)
from repro.service.daemon import BenchService
from repro.service.jobs import (
    JOB_KINDS,
    JOB_SCHEMA_VERSION,
    JobSpec,
    canonical_result_text,
    execute_job,
    execute_job_payload,
    strip_timing,
)
from repro.service.queue import (
    ACTIVE_STATES,
    CANCELLED,
    DONE,
    FAILED,
    JobQueue,
    JobStateError,
    LeasedJob,
    QUEUED,
    RUNNING,
    STATES,
    SubmitReceipt,
    UnknownJobError,
)
from repro.service.scheduler import (
    DEFAULT_PRIORITY_CLASSES,
    QueueDraining,
    QueueFull,
    SchedulerPolicy,
)
from repro.service.workers import (
    DEFAULT_EXECUTE_REF,
    ServiceWorker,
    WorkerPool,
    worker_main,
)

__all__ = [
    "ACTIVE_STATES",
    "BenchService",
    "CANCELLED",
    "DEFAULT_EXECUTE_REF",
    "DEFAULT_PRIORITY_CLASSES",
    "DONE",
    "FAILED",
    "JOB_KINDS",
    "JOB_SCHEMA_VERSION",
    "JobFailed",
    "JobQueue",
    "JobSpec",
    "JobStateError",
    "LeasedJob",
    "QUEUED",
    "QueueDraining",
    "QueueFull",
    "RUNNING",
    "RetryLater",
    "STATES",
    "SchedulerPolicy",
    "ServiceClient",
    "ServiceError",
    "ServiceUnavailable",
    "ServiceWorker",
    "SubmitReceipt",
    "UnknownJobError",
    "WorkerPool",
    "canonical_result_text",
    "execute_job",
    "execute_job_payload",
    "strip_timing",
    "worker_main",
]
