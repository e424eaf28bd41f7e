"""The four end-to-end workloads, each run in a fresh interpreter.

``run.py`` starts ``python3 workloads.py CONFIG.json SPAWN_CLOCK`` once
per timed or traced run, so imports, process-level memos and the peak RSS
never carry over between runs.  The child writes one JSON result next to
its config.  A config with ``setup_only`` stops at the first stage call
or submit, so ``run.py`` can sample ``setup_s`` more often than it can
afford full runs.

Timed runs install no telemetry.  A traced run installs a
:class:`~repro.observability.telemetry.Telemetry` through the public
``telemetry_scope`` before anything else, plus the benchmark-side layer
spans of :mod:`spans`, and returns every span it collected.

Clock: ``time.perf_counter`` (``CLOCK_MONOTONIC`` on Linux, shared by
every process on the host), so ``setup_s`` can be measured from the
moment ``run.py`` spawned this process.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sqlite3
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from time import perf_counter as clock
from typing import Any, Dict, List, Optional

#: What each workload runs (why each was chosen: ``BENCHMARK.json`` and
#: the README).  ``smoke`` overrides give the toy sizes of ``--smoke``.
WORKLOADS: Dict[str, Dict[str, Any]] = {
    "beers-serial-cold": {
        "kind": "pipeline", "dataset": "Beers", "rows": 240, "workers": 1,
        "smoke": {"rows": 40, "n_seeds": 1, "tune_trials": 2, "tune_seeds": 1},
    },
    "adult-pooled-warm": {
        "kind": "pipeline", "dataset": "Adult", "rows": 780, "workers": 2,
        "warm": True,
        "smoke": {"rows": 60, "n_seeds": 1, "tune_trials": 2, "tune_seeds": 1},
    },
    "soccer-detect-blocked": {
        "kind": "detect", "dataset": "Soccer", "rows": 5300, "workers": 2,
        "block_rows": 1060,
        "smoke": {"rows": 400, "block_rows": 100},
    },
    "service-jobs-store": {
        "kind": "service", "dataset": "Nasa", "rows": 56, "workers": 2,
        "jobs": 40, "clients": 2,
        "smoke": {"rows": 30, "jobs": 6},
    },
}

#: Pipeline constants shared by the pipeline workloads.
SCENARIOS = ("S1", "S2", "S3", "S4", "S5")
TUNED_MODELS = ("DT", "KNN", "Logit")
TUNED_SCENARIOS = ("S1", "S4")
PIPELINE_DEFAULTS = {"n_seeds": 3, "tune_trials": 8, "tune_seeds": 2}
RUN_ID = "e2e"
#: Idle poll of service workers and clients; well under one job's time.
SERVICE_POLL_S = 0.02


def workload_config(name: str, smoke: bool) -> Dict[str, Any]:
    """The full parameter set of one workload."""
    spec = WORKLOADS[name]
    config = dict(PIPELINE_DEFAULTS) if spec["kind"] == "pipeline" else {}
    config.update({k: v for k, v in spec.items() if k != "smoke"})
    if smoke:
        config.update(spec["smoke"])
    config["workload"] = name
    return config


# ----------------------------------------------------------------------
# Store inspection (shared by every workload)
# ----------------------------------------------------------------------
def inspect_store(path: Path) -> Dict[str, Any]:
    """Digest, unit count and failure records of a checkpoint store.

    The digest is SHA-256 over ``run_id``, ``unit`` and the
    ``strip_timing``-ed payload of every row, ordered by run and unit, so
    it is identical for any two runs that computed the same results.
    """
    from repro.service.jobs import strip_timing

    digest = hashlib.sha256()
    units = failed = 0
    bugs: List[str] = []
    connection = sqlite3.connect(str(path))
    try:
        rows = connection.execute(
            "SELECT run_id, unit, payload_json FROM checkpoints "
            "ORDER BY run_id, unit"
        ).fetchall()
    finally:
        connection.close()
    for run_id, unit, text in rows:
        payload = strip_timing(json.loads(text))
        digest.update(f"{run_id}\n{unit}\n".encode())
        digest.update(json.dumps(payload, sort_keys=True).encode() + b"\n")
        units += 1
        record = payload.get("failure_record")
        if record is not None:
            failed += 1
            if record.get("category") == "bug":
                bugs.append(unit)
    size = sum(
        p.stat().st_size for p in path.parent.glob(path.name + "*") if p.is_file()
    )
    return {
        "store_digest": digest.hexdigest(),
        "units": units,
        "failed_units": failed,
        "bug_units": bugs,
        "store_bytes": size,
    }


def peak_rss_mb(who: int) -> float:
    """``ru_maxrss`` of this process or its largest reaped child, in MB
    (Linux reports KiB)."""
    return resource.getrusage(who).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# Pipeline and detection workloads
# ----------------------------------------------------------------------
def run_pipeline(config: Dict[str, Any], work: Path) -> Dict[str, Any]:
    from repro import datagen
    from repro.benchmark import runner
    from repro.benchmark.controller import BenchmarkController
    from repro.cache.store import ArtifactCache, cache_scope
    from repro.parallel import make_executor
    from repro.repair.base import RepairMethod
    from repro.resilience.checkpoint import SuiteCheckpoint, unit_key
    from repro.resilience.guards import CircuitBreaker

    dataset = datagen.generate(
        config["dataset"], n_rows=config["rows"], seed=config["seed"]
    )
    store = work / "store.sqlite"
    checkpoint = SuiteCheckpoint.open(str(store), RUN_ID, resume=False)
    cache = ArtifactCache(config["cache_dir"])
    executor = make_executor(config["workers"], start_method="fork")
    breaker = CircuitBreaker(3)
    controller = BenchmarkController()
    guards = {"checkpoint": checkpoint, "executor": executor}
    walls = {"detect": 0.0, "repair": 0.0, "model": 0.0, "tune": 0.0}
    checks: List[str] = []
    if config.get("setup_only"):
        checkpoint.close()
        return {"window": [clock()] * 2}
    with cache_scope(cache):
        start = mark = clock()
        detection = runner.run_detection_suite(
            dataset,
            controller.applicable_detectors(dataset),
            breaker=breaker,
            block_rows=config.get("block_rows"),
            **guards,
        )
        walls["detect"] = clock() - mark
        if config["kind"] == "pipeline":
            top = sorted(
                (r for r in detection if not r.failed and r.result.n_detected),
                key=lambda r: (-r.scores.f1, r.detector),
            )[:2]
            repairs = [
                m for m in controller.applicable_repairs(dataset)
                if isinstance(m, RepairMethod)
            ]
            mark = clock()
            repaired = runner.run_repair_suite(
                dataset,
                {r.detector: set(r.result.cells) for r in top},
                repairs,
                breaker=breaker,
                **guards,
            )
            walls["repair"] = clock() - mark
            checks += check_ground_truth_repairs(repaired)
            variants = [(dataset.dirty, "dirty")] + [
                (r.result.repaired, r.strategy)
                for r in repaired
                if not r.failed and r.result.repaired.n_rows == dataset.clean.n_rows
            ]
            mark = clock()
            for table, name in variants:
                runner.evaluate_scenarios(
                    dataset, table, name, "DT",
                    scenario_names=SCENARIOS, n_seeds=config["n_seeds"], **guards,
                )
            walls["model"] = clock() - mark
            mark = clock()
            for model in TUNED_MODELS:
                for scenario in TUNED_SCENARIOS:
                    for seed in range(config["tune_seeds"]):
                        value = runner.run_scenario(
                            scenario, dataset.dirty, dataset, model,
                            seed=seed, tune_trials=config["tune_trials"],
                        )
                        checkpoint.put(
                            unit_key("tune", dataset.name, model=model,
                                     scenario=scenario, seed=seed),
                            {"value": value},
                        )
            checkpoint.flush()
            walls["tune"] = clock() - mark
        end = clock()
    checkpoint.close()
    return {"window": [start, end], "stages": walls, "checks": checks,
            **inspect_store(store)}


def check_ground_truth_repairs(runs) -> List[str]:
    """GT writes clean values into detected cells, so every categorical
    change it makes must be right: precision exactly 1 where defined."""
    problems = []
    for run in runs:
        if run.repair == "GT" and not run.failed:
            precision = run.categorical_precision
            if precision == precision and precision != 1.0:
                problems.append(f"{run.strategy} categorical precision {precision}")
    return problems


# ----------------------------------------------------------------------
# Service workload
# ----------------------------------------------------------------------
def job_payload(config: Dict[str, Any], index: int) -> Dict[str, Any]:
    """Job ``index`` of the rotation detect / repair / model; its seed
    ``1000 * seed + index`` keeps every job distinct (no dedup)."""
    kind = ("detect", "repair", "model")[index % 3]
    options = {
        "detect": {},
        "repair": {"detectors": ["MVD", "SD"],
                   "repairs": ["GT", "Impute-Mean", "MISS-Mix"]},
        "model": {"model": "DT", "scenarios": ["S1", "S4"], "n_seeds": 3},
    }[kind]
    return {"kind": kind, "dataset": config["dataset"], "rows": config["rows"],
            "seed": 1000 * config["seed"] + index, "options": options}


def run_service(config: Dict[str, Any], work: Path, traced: bool) -> Dict[str, Any]:
    from repro.service import BenchService, JobFailed, SchedulerPolicy, ServiceClient

    n_jobs = config["jobs"]
    payloads = [job_payload(config, i) for i in range(n_jobs)]
    events = work / "events.jsonl"
    service = BenchService(
        str(work / "queue.sqlite"),
        n_workers=config["workers"],
        job_workers=1,
        policy=SchedulerPolicy(max_depth=max(256, 2 * n_jobs)),
        store_path=str(work / "store.sqlite"),
        events_path=str(events) if traced else None,
        poll_seconds=SERVICE_POLL_S,
    )
    service.start()
    if config.get("setup_only"):
        ready = clock()
        service.drain()
        return {"window": [ready] * 2}
    jobs: List[Optional[Dict[str, Any]]] = [None] * n_jobs
    try:
        client = ServiceClient(service.address, timeout=60.0)
        lock = threading.Lock()
        cursor = iter(range(n_jobs))

        def closed_loop_client() -> None:
            while True:
                with lock:
                    index = next(cursor, None)
                if index is None:
                    return
                submitted = clock()
                receipt = client.submit(payloads[index])
                acknowledged = clock()
                try:
                    record = client.wait(
                        receipt["job_id"], deadline_seconds=120.0,
                        poll_seconds=SERVICE_POLL_S,
                    )
                except JobFailed as exc:
                    record = exc.payload
                jobs[index] = {
                    "job_id": receipt["job_id"],
                    "state": record.get("state"),
                    "submitted": submitted,
                    "submit_s": acknowledged - submitted,
                    "latency_s": clock() - submitted,
                    "queue_latency_s": record.get("latency_seconds"),
                }

        with ThreadPoolExecutor(max_workers=config["clients"]) as pool:
            for future in [pool.submit(closed_loop_client)
                           for _ in range(config["clients"])]:
                future.result()
        start = min(j["submitted"] for j in jobs)
        end = max(j["submitted"] + j["latency_s"] for j in jobs)
        results = hashlib.sha256()
        for job in jobs:
            if job["state"] == "done":
                results.update(client.result_text(job["job_id"]).encode() + b"\n")
    finally:
        service.drain()
    outcome = {"window": [start, end], "stages": {}, "checks": [], "jobs": jobs,
               "result_digest": results.hexdigest(),
               **inspect_store(work / "store.sqlite")}
    if traced:
        outcome.update(read_shards(events))
    return outcome


def read_shards(events: Path) -> Dict[str, Any]:
    """Spans and summed counters from the service workers' ledger shards.

    Service workers record with an unlabeled tracer, so each shard's span
    ids and process label are namespaced by the shard's worker name.
    """
    from repro.observability.ledger import read_ledger

    spans: List[Dict[str, Any]] = []
    counters: Dict[str, float] = {}
    labels = []
    for shard in sorted(events.parent.glob(events.name + ".*.jsonl")):
        label = shard.name[len(events.name) + 1:-len(".jsonl")]
        labels.append(label)
        for record in read_ledger(shard, event="span"):
            span = dict(record["span"])
            span["span_id"] = f"{label}/{span['span_id']}"
            if span["parent_id"] is not None:
                span["parent_id"] = f"{label}/{span['parent_id']}"
            span["worker"] = span["worker"] or label
            spans.append(span)
        for record in read_ledger(shard, event="metrics"):
            for name, value in record["metrics"].get("counters", {}).items():
                counters[name] = counters.get(name, 0) + value
    return {"worker_spans": spans, "worker_counters": counters,
            "timelines": labels}


# ----------------------------------------------------------------------
# Child entry point
# ----------------------------------------------------------------------
def main(config_path: str, t0: float) -> None:
    config = json.loads(Path(config_path).read_text())
    work = Path(config_path).parent
    traced = config["traced"]
    telemetry = None
    if traced:
        from repro.observability.telemetry import Telemetry

        from spans import LayerSpans

        LayerSpans().install()
        telemetry = Telemetry()
    from repro.dataplane.segments import live_segments
    from repro.observability.telemetry import telemetry_scope

    with telemetry_scope(telemetry):
        if config["kind"] == "service":
            outcome = run_service(config, work, traced)
        else:
            outcome = run_pipeline(config, work)
    # Checked before exit: the resource tracker would unlink leftovers then.
    outcome["segments"] = live_segments()
    outcome["setup_s"] = outcome["window"][0] - t0
    outcome["run_s"] = outcome["window"][1] - outcome["window"][0]
    # Kept apart: the largest worker is one unit's data-dependent peak
    # (on Adult a BARAN score matrix, 76-174 MB across seeds), while
    # this process's own peak repeats within 2 %.
    outcome["peak_rss_mb"] = peak_rss_mb(resource.RUSAGE_SELF)
    outcome["worker_peak_rss_mb"] = peak_rss_mb(resource.RUSAGE_CHILDREN)
    if traced:
        outcome["spans"] = telemetry.tracer.to_payloads() + outcome.pop(
            "worker_spans", []
        )
        counters = dict(telemetry.metrics.snapshot()["counters"])
        for name, value in outcome.pop("worker_counters", {}).items():
            counters[name] = counters.get(name, 0) + value
        outcome["counters"] = counters
        outcome.setdefault("timelines", [""])
    (work / "result.json").write_text(json.dumps(outcome))


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit("usage: workloads.py CONFIG.json SPAWN_CLOCK")
    os.chdir(Path(sys.argv[1]).parent)
    main(sys.argv[1], float(sys.argv[2]))
