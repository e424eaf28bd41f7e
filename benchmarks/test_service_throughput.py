"""Service throughput: the worker pool scales job drain rate.

The service's value proposition over `repro submit --inline` is the
worker pool: N workers drain the queue ~N times faster when jobs are
bound by the tools rather than the harness.  This benchmark submits a
batch of wait-bound jobs (``sleepy_execute`` holds the interpreter for
a fixed interval, so the measurement does not depend on core count)
over real HTTP at 1, 4 and 8 workers, and records jobs/second plus the
p50/p99 submit-to-finish latency the queue's own timestamps report.

Acceptance bar: >= 3x throughput at 4 workers over 1 -- conservative
against the 4x ideal to absorb fork and HTTP overhead.
"""

import os
import time

from conftest import emit

from repro.observability import write_bench_snapshot
from repro.reporting import render_table
from repro.service import BenchService, JobSpec, SchedulerPolicy, ServiceClient

#: Machine-readable perf snapshot, committed at the repo root so the
#: numbers are diffable PR over PR.
BENCH_SNAPSHOT = os.path.join(
    os.path.dirname(__file__), os.pardir, "BENCH_service.json"
)

#: Per-job wall-clock cost and batch width.  40 x 0.05s of serial work
#: leaves generous headroom over the 3x bar at 4 workers.
SLEEP_SECONDS = 0.05
N_JOBS = 40
WORKER_COUNTS = (1, 4, 8)


def _specs():
    return [
        JobSpec(
            kind="detect", dataset="Nasa", rows=60, seed=seed,
            options={"detectors": ["MVD"]},
        )
        for seed in range(N_JOBS)
    ]


def _percentile(sorted_values, q):
    index = min(len(sorted_values) - 1, int(round(q * (len(sorted_values) - 1))))
    return sorted_values[index]


def _run_batch(tmp_path, n_workers):
    """Submit N_JOBS over HTTP, drain with n_workers, measure."""
    root = tmp_path / f"w{n_workers}"
    root.mkdir()
    os.environ["REPRO_SERVICE_SLEEP_SECONDS"] = str(SLEEP_SECONDS)
    service = BenchService(
        str(root / "queue.sqlite"),
        n_workers=n_workers,
        policy=SchedulerPolicy(max_depth=N_JOBS * 2),
        execute_ref="service_doubles:sleepy_execute",
        poll_seconds=0.005,
    )
    with service:
        client = ServiceClient(service.address, timeout=30.0)
        specs = _specs()
        started = time.perf_counter()
        for spec in specs:
            client.submit(spec.to_payload())
        records = client.wait_all(
            [spec.job_id for spec in specs],
            deadline_seconds=120.0,
            poll_seconds=0.01,
        )
        wall_seconds = time.perf_counter() - started
    latencies = sorted(r["latency_seconds"] for r in records.values())
    assert len(latencies) == N_JOBS
    return {
        "workers": n_workers,
        "wall_seconds": wall_seconds,
        "jobs_per_second": N_JOBS / wall_seconds,
        "p50_latency_seconds": _percentile(latencies, 0.50),
        "p99_latency_seconds": _percentile(latencies, 0.99),
    }


def test_four_workers_triple_single_worker_throughput(tmp_path):
    measurements = [_run_batch(tmp_path, n) for n in WORKER_COUNTS]
    by_workers = {m["workers"]: m for m in measurements}
    scaling = (
        by_workers[4]["jobs_per_second"] / by_workers[1]["jobs_per_second"]
    )

    emit(
        "service_throughput",
        render_table(
            ["workers", "wall_s", "jobs_per_s", "p50_ms", "p99_ms"],
            [
                [
                    m["workers"],
                    round(m["wall_seconds"], 3),
                    round(m["jobs_per_second"], 1),
                    round(m["p50_latency_seconds"] * 1000, 1),
                    round(m["p99_latency_seconds"] * 1000, 1),
                ]
                for m in measurements
            ],
            title=(
                f"{N_JOBS} wait-bound jobs x {SLEEP_SECONDS}s over HTTP: "
                "worker pool scaling"
            ),
        ),
    )
    write_bench_snapshot(
        BENCH_SNAPSHOT,
        "service_throughput",
        numbers={
            f"jobs_per_second_{m['workers']}w": round(m["jobs_per_second"], 2)
            for m in measurements
        }
        | {
            f"p50_latency_seconds_{m['workers']}w": round(
                m["p50_latency_seconds"], 4
            )
            for m in measurements
        }
        | {
            f"p99_latency_seconds_{m['workers']}w": round(
                m["p99_latency_seconds"], 4
            )
            for m in measurements
        }
        | {"scaling_4w_over_1w": round(scaling, 3)},
        context={
            "n_jobs": N_JOBS,
            "job_sleep_seconds": SLEEP_SECONDS,
            "worker_counts": list(WORKER_COUNTS),
            "transport": "http",
        },
    )
    assert scaling >= 3.0, (
        f"expected >= 3x throughput at 4 workers, got {scaling:.2f}x "
        f"({by_workers[1]['jobs_per_second']:.1f} -> "
        f"{by_workers[4]['jobs_per_second']:.1f} jobs/s)"
    )
