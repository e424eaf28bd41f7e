"""One end-to-end REIN benchmark: four workloads, per-layer rollup.

Usage (from the repository root)::

    python3 benchmarks/e2e/run.py [--workloads a,b] [--seed S] [--repeats N]
                                  [--seconds T] [--trace [0|1]] [--smoke]
                                  [--out FILE]

Every timed run is a fresh ``workloads.py`` interpreter with telemetry
off; ``--repeats`` timed runs are made (default 1), and with
``--seconds`` more are added while another one still fits in T seconds.  ``setup_s`` is the median of at least ``SETUP_SAMPLES``
set-ups, topped up by children that stop where the run would start.
``--trace`` adds one traced run per workload, whose spans give the
per-layer metrics (:mod:`rollup`).  ``--smoke`` runs toy sizes, traced.

Each metric prints as ``<workload>.<metric> <value> <unit>``; lines
starting with ``#`` carry digests, sample counts and failure counts.
The last line is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics`` -- the end-to-end metrics, or with ``--trace`` the
per-layer ones (prefixed by workload when several run).  The exit code
is non-zero when any correctness check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter as clock
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

#: End-to-end metrics (every timed run): name -> unit.
END_TO_END = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}

#: Per-layer metrics (traced run, plus the stage walls and service
#: latencies every timed run records): name -> unit.
PER_LAYER = {
    "benchmark.detect_s": "s",
    "benchmark.repair_s": "s",
    "benchmark.model_s": "s",
    "benchmark.tune_s": "s",
    "benchmark.units": "count",
    "benchmark.unit_p50_s": "s",
    "benchmark.unit_tail_s": "s",
    "datagen.generate_s": "s",
    "errors.inject_s": "s",
    "detectors.busy_s": "s",
    "detectors.kernel_s": "s",
    "repair.busy_s": "s",
    "dataset.encode_s": "s",
    "dataset.encode_calls": "count",
    "ml.fit_s": "s",
    "ml.predict_s": "s",
    "ml.fit_calls": "count",
    "tuning.tune_s": "s",
    "tuning.trials": "count",
    "cache.get_s": "s",
    "cache.put_s": "s",
    "cache.hit_ratio": "ratio",
    "cache.bytes_read": "B",
    "cache.bytes_written": "B",
    "resilience.checkpoint_s": "s",
    "resilience.store_bytes": "B",
    "parallel.pool_starts": "count",
    "parallel.pool_start_s": "s",
    "parallel.worker_busy_frac": "ratio",
    "parallel.worker_peak_rss_mb": "MB",
    "dataplane.ship_s": "s",
    "dataplane.attach_s": "s",
    "dataplane.bytes_shipped": "B",
    "dataplane.bytes_shared": "B",
    "service.jobs_per_s": "1/s",
    "service.job_latency_p50_s": "s",
    "service.job_latency_p75_s": "s",
    "service.submit_s": "s",
    "service.exec_s": "s",
    "service.wait_s": "s",
    "trace.unattributed_frac": "ratio",
    "trace.overhead_frac": "ratio",
}

#: One workload (prefill, timed, set-up and traced runs) must finish
#: within this many seconds, so a one-workload invocation ends within 180 s.
WORKLOAD_DEADLINE_S = 170.0
#: ``setup_s`` is the median of at least this many set-ups: those of the
#: timed runs, topped up by set-up-only children.
SETUP_SAMPLES = 3
#: Client-side latency may undercut the queue's own by clock granularity.
LATENCY_SLACK_S = 0.005


class ChildFailed(RuntimeError):
    """A workload child exited non-zero or timed out."""


def median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def spawn(
    config: Dict[str, Any], run_dir: Path, deadline: float, leaks: List[str]
) -> Dict[str, Any]:
    """Run one workload child to completion and return its result.

    The child runs in its own session so a timeout can kill the whole
    process tree (pool and service workers included).
    """
    from repro.dataplane.segments import live_segments

    run_dir.mkdir(parents=True, exist_ok=True)
    config_path = run_dir / "config.json"
    config_path.write_text(json.dumps(config))
    env = dict(
        os.environ,
        PYTHONPATH=str(ROOT / "src"),
        PYTHONWARNINGS="ignore",
        PYTHONHASHSEED="0",
        TMPDIR=str(run_dir),
    )
    before = set(live_segments())
    with open(run_dir / "child.log", "wb") as log:
        t0 = clock()
        process = subprocess.Popen(
            [sys.executable, str(HERE / "workloads.py"), str(config_path), repr(t0)],
            stdout=log, stderr=subprocess.STDOUT, env=env, cwd=run_dir,
            start_new_session=True,
        )
        try:
            code = process.wait(timeout=max(1.0, deadline - clock()))
        except subprocess.TimeoutExpired:
            os.killpg(process.pid, signal.SIGKILL)
            process.wait()
            raise ChildFailed(f"{run_dir.name}: timed out")
        finally:
            if process.poll() is None:
                os.killpg(process.pid, signal.SIGKILL)
                process.wait()
    if code != 0:
        tail = (run_dir / "child.log").read_text(errors="replace")[-2000:]
        raise ChildFailed(f"{run_dir.name}: exit {code}\n{tail}")
    result = json.loads((run_dir / "result.json").read_text())
    leaks.extend(sorted(set(result["segments"] + live_segments()) - before))
    return result


def run_workload(
    name: str, args: argparse.Namespace, work: Path, deadline: float
) -> Dict[str, Any]:
    """Prefill (warm workloads), timed runs, optional traced run."""
    from workloads import workload_config

    config = dict(workload_config(name, args.smoke), seed=args.seed)
    leaks: List[str] = []
    pristine = work / "cache"
    prefill = None
    if config.get("warm"):
        prefill = spawn(
            dict(config, traced=False, cache_dir=str(pristine)),
            work / "prefill", deadline, leaks,
        )

    def one(label: str, traced: bool) -> Dict[str, Any]:
        run_dir = work / label
        cache = run_dir / "cache"
        if prefill is not None:
            shutil.copytree(pristine, cache)
        return spawn(dict(config, traced=traced, cache_dir=str(cache)),
                     run_dir, deadline, leaks)

    timed: List[Dict[str, Any]] = []
    window = clock()
    while len(timed) < args.repeats or (
        args.seconds
        and clock() - window + max(r["run_s"] + r["setup_s"] for r in timed)
        <= args.seconds
    ):
        timed.append(one(f"timed-{len(timed)}", False))
    setups = [r["setup_s"] for r in timed] + [
        spawn(dict(config, traced=False, setup_only=True,
                   cache_dir=str(work / f"setup-{i}" / "cache")),
              work / f"setup-{i}", deadline, leaks)["setup_s"]
        for i in range(SETUP_SAMPLES - len(timed))
    ]
    traced = one("traced", True) if args.trace else None
    return {"config": config, "prefill": prefill, "timed": timed,
            "setups": setups, "traced": traced, "leaks": leaks}


def service_latencies(run: Dict[str, Any]) -> Tuple[float, float, float]:
    """(jobs/s, p50, p75) of one service run's client-side job latency."""
    from rollup import percentile

    latencies = [job["latency_s"] for job in run["jobs"]]
    return (len(latencies) / run["run_s"], percentile(latencies, 50.0),
            percentile(latencies, 75.0))


def layer_report(outcome: Dict[str, Any]) -> Tuple[Dict[str, float], List[str]]:
    """Per-layer metrics of one workload plus ``#`` notes."""
    from rollup import layer_metrics

    timed, traced = outcome["timed"], outcome["traced"]
    metrics, units = layer_metrics(
        traced["spans"], traced["counters"], tuple(traced["window"]),
        traced["timelines"],
    )
    for stage in ("detect", "repair", "model", "tune"):
        metrics[f"benchmark.{stage}_s"] = median(
            [r["stages"].get(stage, 0.0) for r in timed]
        )
    metrics["resilience.store_bytes"] = float(traced["store_bytes"])
    metrics["parallel.worker_peak_rss_mb"] = median(
        [r["worker_peak_rss_mb"] for r in timed]
    )
    service = {key: 0.0 for key in PER_LAYER if key.startswith("service.")}
    notes = [f"unit latency: p50 and p{units['tail_p'] or 'max'} "
             f"of n={units['n']} unit spans"]
    if "jobs" in traced:
        rates = [service_latencies(r) for r in timed]
        exec_by_job = {
            s["attrs"].get("job_id"): s["end"] - s["start"]
            for s in traced["spans"]
            if s["category"] == "job" and s["end"] is not None
        }
        jobs = traced["jobs"]
        service.update({
            "service.jobs_per_s": median([r[0] for r in rates]),
            "service.job_latency_p50_s": median([r[1] for r in rates]),
            "service.job_latency_p75_s": median([r[2] for r in rates]),
            "service.submit_s": median([j["submit_s"] for j in jobs]),
            "service.exec_s": median(list(exec_by_job.values())),
            "service.wait_s": median(
                [j["latency_s"] - exec_by_job[j["job_id"]]
                 for j in jobs if j["job_id"] in exec_by_job]),
        })
        notes.append(f"job latency: p50 and p75 of n={len(jobs)} jobs, "
                     f"median of {len(timed)} timed runs")
    metrics.update(service)
    metrics["trace.overhead_frac"] = (
        traced["run_s"] / median([r["run_s"] for r in timed]) - 1.0
    )
    return metrics, notes


def check(outcome: Dict[str, Any]) -> List[str]:
    """The correctness gate; returns the problems found."""
    runs = [r for r in [outcome["prefill"], *outcome["timed"], outcome["traced"]]
            if r is not None]
    problems = [f"leaked shared-memory segment {s}" for s in outcome["leaks"]]
    if len({r["store_digest"] for r in runs}) != 1:
        problems.append("store digests differ between runs")
    for run in runs:
        problems += run["checks"]
        problems += [f"failure of category bug in unit {u}" for u in run["bug_units"]]
        if run["units"] == 0:
            problems.append("checkpoint store is empty")
        for job in run.get("jobs", []):
            if job["state"] != "done":
                problems.append(f"job {job['job_id']} ended {job['state']}")
            elif job["latency_s"] + LATENCY_SLACK_S < job["queue_latency_s"]:
                problems.append(f"job {job['job_id']}: client latency below queue's")
    if "result_digest" in runs[0] and len({r["result_digest"] for r in runs}) != 1:
        problems.append("service result digests differ between runs")
    return list(dict.fromkeys(problems))


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", "--workloads", dest="workloads",
                        default=",".join(WORKLOADS),
                        help="comma-separated workload names (default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--repeats", type=int, default=1,
                        help="timed runs per workload (default 1)")
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="add timed runs while one more fits in this time")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="add one traced run per workload")
    parser.add_argument("--smoke", action="store_true",
                        help="toy sizes, traced run included")
    parser.add_argument("--out", help="write the full report as JSON here")
    args = parser.parse_args(argv)
    args.workloads = [w for w in args.workloads.split(",") if w]
    unknown = [w for w in args.workloads if w not in WORKLOADS]
    if unknown:
        parser.error(f"unknown workload(s) {unknown}; known: {list(WORKLOADS)}")
    if args.smoke:
        args.trace = 1
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")
    return args


def summarize_workload(
    name: str, outcome: Dict[str, Any], args: argparse.Namespace
) -> Dict[str, Any]:
    """Metrics, ``#`` notes, counts and problems of one workload."""
    first = outcome["timed"][0]
    e2e = {key: median([r[key] for r in outcome["timed"]]) for key in END_TO_END}
    e2e["setup_s"] = median(outcome["setups"])
    printed = [(key, e2e[key], unit) for key, unit in END_TO_END.items()]
    layers: Dict[str, float] = {}
    notes = [f"store_digest {first['store_digest']}"]
    if "result_digest" in first:
        notes.append(f"result_digest {first['result_digest']}")
        attempted = len(first["jobs"])
        failed = sum(job["state"] != "done" for job in first["jobs"])
    else:
        attempted, failed = first["units"], first["failed_units"]
    notes.append(f"attempted {attempted} failed {failed} "
                 f"failed_frac {failed / max(1, attempted)!r}")
    notes.append(f"timed runs {len(outcome['timed'])}, "
                 f"set-ups {len(outcome['setups'])}")
    if outcome["prefill"] is not None:
        notes.append(f"untimed cold prefill: setup_s {outcome['prefill']['setup_s']!r}"
                     f" run_s {outcome['prefill']['run_s']!r}")
    if outcome["traced"] is not None:
        layers, layer_notes = layer_report(outcome)
        notes += layer_notes
        printed += [(key, layers[key], unit) for key, unit in PER_LAYER.items()]
    problems = check(outcome)
    notes += [f"INCORRECT: {problem}" for problem in problems]
    chosen, units = (layers, PER_LAYER) if args.trace else (e2e, END_TO_END)
    return {
        "lines": [f"# {name} {note}" for note in notes]
        + [f"{name}.{key} {value!r} {unit}" for key, value, unit in printed],
        "result": {key: {"value": chosen[key], "unit": unit}
                   for key, unit in units.items()},
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "report": {"config": outcome["config"], "end_to_end": e2e,
                   "per_layer": layers, "problems": problems,
                   "setups": outcome["setups"],
                   "timed": [{k: r[k] for k in ("setup_s", "run_s", "peak_rss_mb",
                                                "worker_peak_rss_mb", "stages",
                                                "store_digest")}
                             for r in outcome["timed"]]},
    }


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    work_root = ROOT / ".e2e_work" / str(os.getpid())
    summaries = {}
    try:
        for name in args.workloads:
            outcome = run_workload(
                name, args, work_root / name, clock() + WORKLOAD_DEADLINE_S
            )
            summaries[name] = summarize_workload(name, outcome, args)
            print("\n".join(summaries[name]["lines"]), flush=True)
    except ChildFailed as exc:
        print(f"workload child failed: {exc}", file=sys.stderr)
        print(f"run directories kept under {work_root}", file=sys.stderr)
        return 1
    shutil.rmtree(work_root, ignore_errors=True)
    if args.out:
        report = {"seed": args.seed,
                  "workloads": {n: s["report"] for n, s in summaries.items()}}
        Path(args.out).write_text(json.dumps(report, indent=2, sort_keys=True))
    prefix = len(summaries) > 1
    correct = not any(s["problems"] for s in summaries.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(s["attempted"] for s in summaries.values()),
        "failed": sum(s["failed"] for s in summaries.values()),
        "metrics": {
            (f"{name}.{key}" if prefix else key): value
            for name, summary in summaries.items()
            for key, value in summary["result"].items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
