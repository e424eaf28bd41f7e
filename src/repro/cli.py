"""Command-line entry point: run the benchmark stages on one dataset.

Usage::

    python -m repro detect  <dataset> [--rows N] [--seed S] [resilience]
    python -m repro repair  <dataset> [--rows N] [--seed S] [resilience]
    python -m repro model   <dataset> [--rows N] [--seed S] [--model NAME]
    python -m repro list
    python -m repro trace   <ledger.jsonl> [--out trace.json]
    python -m repro serve   --queue q.sqlite [--workers N] [--port P]
    python -m repro submit  <dataset> [--kind K] (--inline | --url URL)
    python -m repro jobs    --url URL [--stats]

``detect`` prints the Figure 2-style accuracy/IoU/runtime panels, ``repair``
the Figure 4/5-style detector x repair grid, and ``model`` the Figure
7-style S1-vs-S4 comparison with the Wilcoxon decision.

Resilience flags (available on every stage command):

- ``--budget SECONDS``: per-method wall-clock deadline, cooperatively
  enforced; a tool that exceeds it is booked as a capability failure.
- ``--store PATH``: SQLite checkpoint database; every completed
  (dataset, method, scenario, seed) unit is persisted there.
- ``--resume``: skip units already completed in ``--store`` (an
  interrupted run continues where it stopped); without it the run's
  prior checkpoints are cleared first.
- ``--retries N``: attempts for transient failures (default 1 = none).
- ``--workers N``: shard the stage's unit grid across N worker
  processes; output is byte-identical to the serial run for any N.
- ``--start-method {fork,spawn,forkserver}``: multiprocessing start
  method for the worker pool.  The shared-memory data plane ships the
  stage context as named segments plus a small pickled shell, so even
  ``spawn`` (which cannot inherit memory) dispatches without copying
  tables per worker; results are byte-identical for every method.
- ``--block-rows N`` (``detect`` only): stream block-capable detectors
  over N-row zero-copy blocks instead of materializing whole-table
  intermediates; cells and scores are byte-identical to the unblocked
  run for any N, and peak memory stays bounded by the block size.
- ``--cache-dir PATH``: content-addressed artifact cache; encoded
  feature matrices and detector features are memoized on disk, keyed by
  table content + configuration, so re-runs (and repeated table
  versions inside one run) skip re-featurization.  Results are
  byte-identical with or without the cache, at any worker count.
- ``--no-cache``: force the cache off even when ``--cache-dir`` is set.

Observability flags (global, on every command):

- ``--events PATH``: append the run's observability ledger (JSONL
  events: spans, metrics, failures, breaker trips) to PATH; replay it
  with ``repro trace PATH`` to get a Chrome trace-event JSON timeline.
- ``--verbose``/``-v``: print the telemetry counters and histograms
  after the stage report.
- ``--quiet``/``-q``: suppress the stdout report (exit codes and
  ``--events`` output are unaffected).

Exit codes are stable and distinct so scripts can branch on failure
class: 0 success, 1 runtime failure, 2 usage error (argparse), 3
malformed benchmark config, 4 missing/unopenable path (checkpoint
store, events ledger, cache directory, queue database), 5 benchmark
service unreachable.
"""

from __future__ import annotations

import argparse
import json
import sqlite3
import sys
from contextlib import ExitStack, contextmanager
from typing import Any, Dict, Iterator, Optional, Sequence

from repro.benchmark import detection_iou
from repro.benchmark.config import run_stages, validate_options
from repro.cache import ArtifactCache, cache_scope
from repro.datagen import DATASET_NAMES, dataset_spec, generate
from repro.observability import (
    RunLedger,
    Telemetry,
    chrome_trace_from_ledger,
    render_metrics_summary,
    telemetry_scope,
)
from repro.observability.ledger import RUN_FINISHED, RUN_STARTED
from repro.observability.trace import SUITE
from repro.parallel import make_executor
from repro.reporting import render_matrix, render_runtime_panel, render_table
from repro.resilience import (
    CircuitBreaker,
    RetryPolicy,
    SuiteCheckpoint,
    run_id_for,
)

# Stable, distinct exit codes (documented in the module docstring).
EXIT_USAGE = 2
EXIT_BAD_CONFIG = 3
EXIT_MISSING_PATH = 4
EXIT_SERVICE_UNREACHABLE = 5


class CliError(Exception):
    """A user-facing CLI failure with its one-line message and exit code."""

    def __init__(self, message: str, code: int) -> None:
        super().__init__(message)
        self.code = code


def _positive_seconds(text: str) -> float:
    value = float(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(
            f"budget must be a positive number of seconds, got {text!r}"
        )
    return value


_positive_seconds.__name__ = "seconds"  # argparse uses this in error text


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {text!r}"
        )
    return value


_positive_int.__name__ = "int"  # argparse uses this in error text


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--events", default=None, metavar="PATH",
        help="append the observability ledger (JSONL events) to PATH",
    )
    volume = common.add_mutually_exclusive_group()
    volume.add_argument(
        "-v", "--verbose", action="store_true",
        help="print telemetry counters/histograms after the report",
    )
    volume.add_argument(
        "-q", "--quiet", action="store_true",
        help="suppress the stdout report (exit codes are unchanged)",
    )
    parser = argparse.ArgumentParser(
        prog="repro",
        description="REIN reproduction: data cleaning benchmark stages",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command in ("detect", "repair", "model"):
        stage = sub.add_parser(command, parents=[common])
        stage.add_argument("dataset", choices=sorted(DATASET_NAMES))
        stage.add_argument("--rows", type=int, default=400)
        stage.add_argument("--seed", type=int, default=0)
        stage.add_argument(
            "--budget", type=_positive_seconds, default=None,
            metavar="SECONDS",
            help="per-method wall-clock deadline (capability failure "
                 "when exceeded)",
        )
        stage.add_argument(
            "--store", default=None, metavar="PATH",
            help="SQLite checkpoint database for resumable runs",
        )
        stage.add_argument(
            "--resume", action="store_true",
            help="skip units already completed in --store",
        )
        stage.add_argument(
            "--retries", type=int, default=1, metavar="N",
            help="attempts for transient failures (default 1 = no retry)",
        )
        stage.add_argument(
            "--workers", type=int, default=1, metavar="N",
            help="worker processes for the unit grid (default 1 = serial; "
                 "results are identical for any N)",
        )
        stage.add_argument(
            "--start-method", default=None,
            choices=("fork", "spawn", "forkserver"),
            help="multiprocessing start method for --workers > 1 "
                 "(default: platform default; results are byte-identical "
                 "either way)",
        )
        stage.add_argument(
            "--cache-dir", default=None, metavar="PATH",
            help="content-addressed artifact cache directory; encoded "
                 "matrices and detector features are memoized there "
                 "(results are identical with or without it)",
        )
        stage.add_argument(
            "--no-cache", action="store_true",
            help="disable the artifact cache even when --cache-dir is set",
        )
        if command == "detect":
            stage.add_argument(
                "--block-rows", type=_positive_int, default=None, metavar="N",
                help="row-block size for out-of-core detection; "
                     "block-capable detectors stream over N-row blocks "
                     "with byte-identical results",
            )
        if command == "model":
            stage.add_argument("--model", default="DT")
            stage.add_argument("--seeds", type=int, default=4)
    sub.add_parser("list", parents=[common])
    trace = sub.add_parser("trace", parents=[common])
    trace.add_argument("ledger", metavar="LEDGER",
                       help="observability ledger written with --events")
    trace.add_argument(
        "--out", default=None, metavar="PATH",
        help="write the Chrome trace JSON here instead of stdout",
    )

    serve = sub.add_parser(
        "serve", parents=[common],
        help="run the benchmark service (queue + worker pool + HTTP API)",
    )
    serve.add_argument(
        "--queue", required=True, metavar="PATH",
        help="SQLite job-queue database (created if absent)",
    )
    serve.add_argument(
        "--workers", type=_positive_int, default=2, metavar="N",
        help="worker processes executing leased jobs (default 2)",
    )
    serve.add_argument(
        "--job-workers", type=_positive_int, default=1, metavar="N",
        help="nested process pool size each job executes with "
             "(default 1 = serial; N > 1 shards a job's unit grid over "
             "the shared-memory data plane, results unchanged)",
    )
    serve.add_argument(
        "--store", default=None, metavar="PATH",
        help="checkpoint store jobs resume from after a worker kill",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8321,
        help="API port (0 picks an ephemeral port; default 8321)",
    )
    serve.add_argument(
        "--lease-seconds", type=_positive_seconds, default=30.0,
        metavar="SECONDS",
        help="worker lease duration; a silent worker forfeits its job "
             "after this long (default 30)",
    )
    serve.add_argument(
        "--max-depth", type=_positive_int, default=256, metavar="N",
        help="queued-job admission bound before HTTP 429 backpressure",
    )
    serve.add_argument(
        "--max-attempts", type=_positive_int, default=3, metavar="N",
        help="executions per job before it fails terminally (default 3)",
    )

    submit = sub.add_parser(
        "submit", parents=[common],
        help="submit one benchmark job (to a service, or run inline)",
    )
    submit.add_argument("dataset", choices=sorted(DATASET_NAMES))
    submit.add_argument(
        "--kind", choices=("detect", "repair", "model"), default="detect",
    )
    submit.add_argument("--rows", type=_positive_int, default=400)
    submit.add_argument("--seed", type=int, default=0)
    submit.add_argument(
        "--options", default=None, metavar="JSON",
        help="job options as a JSON object (detectors, repairs, model, "
             "scenarios, n_seeds, sample_rows, block_rows)",
    )
    submit.add_argument(
        "--url", default=None, metavar="URL",
        help="service base URL (e.g. http://127.0.0.1:8321)",
    )
    submit.add_argument(
        "--inline", action="store_true",
        help="execute the job locally and print its canonical result "
             "(byte-identical to the service's result endpoint)",
    )
    submit.add_argument(
        "--store", default=None, metavar="PATH",
        help="checkpoint store for --inline execution",
    )
    submit.add_argument("--priority", default=None, metavar="CLASS",
                        help="priority class (interactive/batch/bulk)")
    submit.add_argument("--submitter", default=None, metavar="NAME")
    submit.add_argument(
        "--wait", action="store_true",
        help="block until the submitted job finishes, then print its "
             "canonical result",
    )
    submit.add_argument(
        "--timeout", type=_positive_seconds, default=300.0,
        metavar="SECONDS", help="--wait deadline (default 300)",
    )

    jobs = sub.add_parser(
        "jobs", parents=[common],
        help="list a service's jobs or queue statistics",
    )
    jobs.add_argument("--url", required=True, metavar="URL")
    jobs.add_argument(
        "--stats", action="store_true",
        help="print queue statistics JSON instead of the job table",
    )
    return parser


def _open_checkpoint(
    path: str, run_id: str, resume: bool
) -> SuiteCheckpoint:
    """Open a checkpoint view; an unopenable store is exit code 4."""
    try:
        return SuiteCheckpoint.open(path, run_id, resume=resume)
    except sqlite3.OperationalError as exc:
        raise CliError(
            f"cannot open checkpoint store {path!r}: {exc}",
            EXIT_MISSING_PATH,
        ) from exc


def _make_telemetry(args: argparse.Namespace) -> Optional[Telemetry]:
    """Telemetry for this invocation, or None (the zero-cost default)."""
    if args.events is None and not args.verbose:
        return None
    try:
        ledger = RunLedger(args.events) if args.events is not None else None
    except OSError as exc:
        raise CliError(
            f"cannot open events ledger {args.events!r}: {exc}",
            EXIT_MISSING_PATH,
        ) from exc
    return Telemetry(ledger=ledger)


@contextmanager
def _telemetry_session(
    args: argparse.Namespace,
) -> Iterator[Optional[Telemetry]]:
    """Install telemetry for one CLI run and bracket it in the ledger."""
    telemetry = _make_telemetry(args)
    if telemetry is None:
        yield None
        return
    with telemetry_scope(telemetry):
        telemetry.event(
            RUN_STARTED,
            command=args.command,
            dataset=args.dataset,
            rows=args.rows,
            seed=args.seed,
            workers=getattr(args, "workers", 1),
        )
        status = "error"
        try:
            with telemetry.span(
                f"{args.command}:{args.dataset}", SUITE, command=args.command
            ):
                yield telemetry
            status = "ok"
        finally:
            telemetry.event(RUN_FINISHED, status=status)
            telemetry.flush_to_ledger()
            if telemetry.ledger is not None:
                telemetry.ledger.close()


@contextmanager
def _cache_session(
    args: argparse.Namespace, telemetry: Optional[Telemetry]
) -> Iterator[Optional[ArtifactCache]]:
    """Install the artifact cache for one CLI run (when requested).

    On exit the run's cache counters are emitted as a ``cache_summary``
    ledger event, so a run's cache behaviour is auditable next to its
    spans and failures.  They are read from the telemetry's ``cache.*``
    counters, into which pool workers merge their own: a pooled run
    books every process's reads and writes, not only the driver's.
    """
    if args.no_cache or args.cache_dir is None:
        yield None
        return
    try:
        cache = ArtifactCache(args.cache_dir)
    except OSError as exc:
        raise CliError(
            f"cannot open cache directory {args.cache_dir!r}: {exc}",
            EXIT_MISSING_PATH,
        ) from exc
    with cache_scope(cache):
        try:
            yield cache
        finally:
            if telemetry is not None:
                counters = telemetry.metrics.snapshot()["counters"]
                telemetry.event("cache_summary", root=cache.root, **{
                    name: counters.get(f"cache.{name}", 0)
                    for name in cache.stats()
                })


def _print_telemetry(args: argparse.Namespace, telemetry) -> None:
    if telemetry is not None and args.verbose:
        print()
        print(render_metrics_summary(telemetry.metrics))


def _print_failures(runs) -> None:
    failed = [r for r in runs if r.failed]
    if failed:
        lines = []
        for run in failed:
            record = run.failure_record
            label = run.detector if not hasattr(run, "repair") else run.strategy
            category = record.category if record is not None else "?"
            lines.append(f"  {label} [{category}] {run.failure}")
        print("\nfailures:\n" + "\n".join(lines))


def _cmd_list(args: argparse.Namespace) -> int:
    if args.quiet:
        return 0
    rows = []
    for name in DATASET_NAMES:
        spec = dataset_spec(name)
        rows.append(
            [name, spec.table4_rows, spec.error_rate, spec.errors,
             spec.domain, spec.task or "-"]
        )
    print(render_table(
        ["dataset", "paper_rows", "error_rate", "errors", "domain", "task"],
        rows, title="Available dataset analogues (Table 4)"))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    try:
        trace = chrome_trace_from_ledger(args.ledger)
    except (OSError, ValueError) as exc:
        raise CliError(
            f"cannot read ledger {args.ledger!r}: {exc}", EXIT_MISSING_PATH
        ) from exc
    text = json.dumps(trace, sort_keys=True, indent=2, allow_nan=False)
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        if not args.quiet:
            print(f"wrote Chrome trace to {args.out}")
    else:
        # The trace JSON is the deliverable, not a report: --quiet does
        # not suppress it (use --out to keep stdout clean instead).
        print(text)
    return 0


def _detection_runtimes(runs):
    """Per-detector honest seconds + failure categories for the panel."""
    runtimes, failures = {}, {}
    for run in runs:
        if run.failed:
            record = run.failure_record
            failures[run.detector] = (
                record.category if record is not None else "?"
            )
            runtimes[run.detector] = (
                record.elapsed_seconds if record is not None else 0.0
            )
        else:
            runtimes[run.detector] = run.result.runtime_seconds
    return runtimes, failures


def _run_stage_command(args: argparse.Namespace, options: Dict[str, Any]):
    """Run one stage command's ``(kind, options)`` through the stage table.

    The guards and the telemetry/cache sessions share one exit stack, so
    whichever of them fails to open, the ones already open are closed.
    Returns ``(dataset, stage results, telemetry)``.
    """
    try:
        validate_options(args.command, args.dataset, options)
    except ValueError as exc:
        raise CliError(
            f"malformed benchmark config: {exc}", EXIT_BAD_CONFIG
        ) from exc
    dataset = generate(args.dataset, n_rows=args.rows, seed=args.seed)
    with ExitStack() as stack:
        checkpoint = None
        if args.store is not None:
            run_id = run_id_for(
                args.command, args.dataset, args.rows, args.seed
            )
            checkpoint = stack.enter_context(
                _open_checkpoint(args.store, run_id, args.resume)
            )
        executor = make_executor(args.workers, start_method=args.start_method)
        if executor is not None:
            stack.enter_context(executor)
        telemetry = stack.enter_context(_telemetry_session(args))
        stack.enter_context(_cache_session(args, telemetry))
        results = run_stages(
            dataset, args.command, options, seed=args.seed,
            deadline_seconds=args.budget,
            retry=(
                RetryPolicy(max_attempts=args.retries)
                if args.retries > 1
                else None
            ),
            breaker=CircuitBreaker(threshold=3),
            checkpoint=checkpoint,
            executor=executor,
        )
    return dataset, results, telemetry


def _cmd_detect(args: argparse.Namespace) -> int:
    options = {}
    if args.block_rows is not None:
        options["block_rows"] = args.block_rows
    dataset, (runs, _, _), telemetry = _run_stage_command(args, options)
    if args.quiet:
        return 0
    active = [r for r in runs if not r.failed and r.result.n_detected > 0]
    rows = [
        [r.detector, r.result.n_detected, r.scores.precision,
         r.scores.recall, r.scores.f1]
        for r in sorted(active, key=lambda r: -r.scores.f1)
    ]
    print(render_table(
        ["detector", "detected", "precision", "recall", "f1"],
        rows,
        title=f"{dataset.name}: detection "
              f"({len(dataset.error_cells)} erroneous cells)"))
    names, matrix = detection_iou(active, dataset)
    print()
    print(render_matrix(names, matrix, title="IoU over true positives"))
    runtimes, failures = _detection_runtimes(runs)
    print()
    print(render_runtime_panel(
        runtimes, failures=failures, title="runtime seconds per detector"))
    _print_failures(runs)
    _print_telemetry(args, telemetry)
    return 0


def _cmd_repair(args: argparse.Namespace) -> int:
    options = {
        "detectors": ["MVD", "MaxEntropy"],
        "repairs": ["GT", "Impute-Mean", "MISS-Mix"],
    }
    dataset, (_, repair_runs, _), telemetry = _run_stage_command(
        args, options
    )
    if args.quiet:
        return 0
    rows = []
    for run in repair_runs:
        if run.failed:
            category = (
                run.failure_record.category
                if run.failure_record is not None
                else "?"
            )
            rows.append([run.strategy, None, None, f"FAILED ({category})"])
        else:
            rows.append(
                [run.strategy, run.categorical_f1, run.numerical_rmse, ""]
            )
    print(render_table(
        ["strategy", "categorical_f1", "numerical_rmse", "note"], rows,
        title=f"{dataset.name}: repair grid"))
    _print_failures(repair_runs)
    _print_telemetry(args, telemetry)
    return 0


def _cmd_model(args: argparse.Namespace) -> int:
    if dataset_spec(args.dataset).task is None:
        print(f"{args.dataset} has no associated ML task", file=sys.stderr)
        return 2
    options = {
        "model": args.model, "scenarios": ["S1", "S4"], "n_seeds": args.seeds,
    }
    dataset, (_, _, [evaluation]), telemetry = _run_stage_command(
        args, options
    )
    if args.quiet:
        return 0
    ab = evaluation.ab_test("S1", "S4")
    print(render_table(
        ["scenario", "mean", "std"],
        [
            ["S1 (dirty)", evaluation.mean("S1"), evaluation.std("S1")],
            ["S4 (ground truth)", evaluation.mean("S4"), evaluation.std("S4")],
        ],
        title=f"{dataset.name}: {args.model} under S1 vs S4 "
              f"({dataset.task})"))
    verdict = "DIFFERENT" if ab.reject_null() else "equivalent"
    print(f"\nWilcoxon signed-rank p={ab.p_value:.4f} -> scenarios {verdict}")
    failure_lines = evaluation.failure_summary()
    if failure_lines:
        print("\nmissing scores explained:")
        for line in failure_lines:
            print(f"  {line}")
    _print_telemetry(args, telemetry)
    return 0


# ----------------------------------------------------------------------
# Service commands
# ----------------------------------------------------------------------
def _parse_job_spec(args: argparse.Namespace):
    """Build the JobSpec the submit flags describe (exit 3 when bad)."""
    from repro.service import JobSpec

    options = {}
    if args.options is not None:
        try:
            options = json.loads(args.options)
        except json.JSONDecodeError as exc:
            raise CliError(
                f"--options is not valid JSON: {exc}", EXIT_BAD_CONFIG
            ) from exc
        if not isinstance(options, dict):
            raise CliError(
                "--options must be a JSON object", EXIT_BAD_CONFIG
            )
    try:
        return JobSpec(
            kind=args.kind, dataset=args.dataset, rows=args.rows,
            seed=args.seed, options=options,
        )
    except ValueError as exc:
        raise CliError(
            f"malformed job config: {exc}", EXIT_BAD_CONFIG
        ) from exc


def _service_client(url: str, timeout: float = 30.0):
    from repro.service import ServiceClient

    return ServiceClient(url, timeout=timeout)


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service import BenchService, SchedulerPolicy
    from repro.service.workers import DEFAULT_EXECUTE_REF

    policy = SchedulerPolicy(
        max_depth=args.max_depth,
        lease_seconds=args.lease_seconds,
        max_attempts=args.max_attempts,
    )
    service = BenchService(
        args.queue,
        n_workers=args.workers,
        policy=policy,
        execute_ref=DEFAULT_EXECUTE_REF,
        store_path=args.store,
        events_path=args.events,
        host=args.host,
        port=args.port,
        job_workers=args.job_workers,
    )
    try:
        service.start()
    except (sqlite3.OperationalError, OSError) as exc:
        raise CliError(
            f"cannot start service (queue {args.queue!r}, "
            f"http {args.host}:{args.port}): {exc}",
            EXIT_MISSING_PATH,
        ) from exc
    try:
        if not args.quiet:
            print(
                f"serving {args.workers} worker(s) on {service.address} "
                f"(queue {args.queue}); SIGTERM/SIGINT drains",
                flush=True,
            )
        clean = service.serve_until_signalled()
    finally:
        service.drain()
    return 0 if clean else 1


def _cmd_submit(args: argparse.Namespace) -> int:
    from repro.service import (
        RetryLater,
        ServiceError,
        ServiceUnavailable,
        canonical_result_text,
        execute_job,
    )

    spec = _parse_job_spec(args)
    if args.inline:
        if args.store is not None:
            # Probe the store path now for the distinct exit code; the
            # job itself opens its own per-job-id checkpoint view.
            _open_checkpoint(args.store, spec.job_id, resume=True).close()
        with _telemetry_session(args) as telemetry:
            result = execute_job(
                spec, store_path=args.store, telemetry=telemetry
            )
        # The canonical text is the deliverable (the bytes the service's
        # result endpoint serves for this config); --quiet never hides it.
        print(canonical_result_text(result))
        return 0
    if args.url is None:
        raise CliError(
            "submit needs --inline or --url URL", EXIT_USAGE
        )
    client = _service_client(args.url, timeout=min(args.timeout, 30.0))
    try:
        receipt = client.submit_with_backoff(
            spec.to_payload(), priority=args.priority,
            submitter=args.submitter, deadline_seconds=args.timeout,
        )
        if not args.quiet:
            dedup = " (deduplicated)" if receipt.get("deduplicated") else ""
            print(f"job {receipt['job_id']} {receipt['state']}{dedup}")
        if args.wait:
            client.wait(
                receipt["job_id"], deadline_seconds=args.timeout
            )
            print(client.result_text(receipt["job_id"]))
    except ServiceUnavailable as exc:
        raise CliError(str(exc), EXIT_SERVICE_UNREACHABLE) from exc
    except TimeoutError as exc:
        raise CliError(str(exc), 1) from exc
    except RetryLater as exc:
        raise CliError(
            f"service is saturated: {exc} "
            f"(retry after {exc.retry_after_seconds:g}s)", 1
        ) from exc
    except ServiceError as exc:
        raise CliError(f"submission rejected: {exc}", 1) from exc
    return 0


def _cmd_jobs(args: argparse.Namespace) -> int:
    from repro.service import ServiceUnavailable

    client = _service_client(args.url)
    try:
        if args.stats:
            stats = client.stats()
            if not args.quiet:
                print(json.dumps(stats, sort_keys=True, indent=2))
            return 0
        records = client.jobs()
    except ServiceUnavailable as exc:
        raise CliError(str(exc), EXIT_SERVICE_UNREACHABLE) from exc
    if args.quiet:
        return 0
    rows = [
        [
            record["job_id"],
            record["spec"].get("kind", "?"),
            record["spec"].get("dataset", "?"),
            record["state"],
            record["priority"],
            record["attempts"],
            record["requeues"],
            record["submitter"],
        ]
        for record in records
    ]
    print(render_table(
        ["job", "kind", "dataset", "state", "priority", "attempts",
         "requeues", "submitter"],
        rows, title=f"jobs at {args.url}"))
    return 0


_COMMANDS = {
    "list": _cmd_list,
    "trace": _cmd_trace,
    "detect": _cmd_detect,
    "repair": _cmd_repair,
    "model": _cmd_model,
    "serve": _cmd_serve,
    "submit": _cmd_submit,
    "jobs": _cmd_jobs,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except CliError as exc:
        print(f"repro {args.command}: {exc}", file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    raise SystemExit(main())
