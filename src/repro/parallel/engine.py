"""Executors and the deterministic plan driver.

The contract every executor honours: given the plan's *pending* units
(those not already checkpointed), produce ``(index, run)`` pairs in any
completion order.  :func:`execute_plan` then merges them back in the
plan's canonical order, replaying circuit-breaker bookkeeping unit by
unit -- so the merged output is identical to a serial run regardless of
worker count or completion order.

Memo hits never reach an executor: :func:`execute_plan` reads each
unit's memo entry in the driver, next to its checkpoint load, and only
misses are dispatched.

Two executors:

- :class:`SerialExecutor` -- in-process, canonical order; the reference
  implementation and the default everywhere.
- :class:`ProcessPoolExecutor` -- shards units across N worker
  processes via :mod:`multiprocessing`; each unit's checkpoint text
  travels back over the pool's result queue and the parent -- the
  single writer -- drains it, finalizing units in canonical order and
  batching checkpoint commits.

A :class:`ProcessPoolExecutor` keeps one pool from its first plan until
``close()``, so a run of many stage calls pays one pool start; each
plan reaches the workers in a small task header.  ``fork`` workers fork
at the first plan, so a monkeypatch made after that does not reach them.

The pool dispatches through the shared-memory data plane
(:mod:`repro.dataplane`): the stage's ``shared`` context is packed once
per plan into named segments plus a small pickled shell (tables are
*not* pickled per worker), workers attach the segments read-only, and
results come back as frames that are the units' checkpoint text
(:func:`~repro.repository.store.encode_payload`, encoded once, in the
worker; the driver decodes each as a resume would and stores it as it
is), batched in chunks sized by
:func:`adaptive_chunk_size`.  Segments belong to the plan, not the
pool: a ``finally`` around dispatch closes and unlinks every segment on
normal teardown, interrupts, and worker crashes alike (a SIGKILLed
worker is detected mid-plan and surfaces as :class:`WorkerCrashError`;
resume from the checkpoint store re-runs only what was lost).

Determinism notes for ``ProcessPoolExecutor``: unit *results* are
deterministic because every unit re-derives its randomness from explicit
seeds; wall-clock runtimes inside payloads are only reproducible when an
injectable clock (e.g. the chaos suite's step clock) is threaded through
the suite, exactly as in serial runs.  The plan's adapter, its
``shared`` context and every ``clock`` / ``sleep`` callable must be
picklable, for every start method (an unpicklable context raises
:class:`TypeError` before any worker is used); the default ``fork``
start method additionally preserves the parent's string-hash seed so
set iteration order inside tools matches the parent process (suite
payloads canonicalize their collections, so ``spawn`` runs are
byte-identical too -- tier-1 asserts it across both start methods).
"""

from __future__ import annotations

import itertools
import multiprocessing
import multiprocessing.pool
import os
import pickle
import signal
from dataclasses import replace
from typing import Any, Callable, Dict, Iterator, List, Optional, Set, Tuple

from repro.cache.store import ArtifactCache, current_cache, install_cache
from repro.dataplane.segments import SegmentManager
from repro.dataplane.ship import attach_shipment, pack_shared, release_attached
from repro.observability.telemetry import (
    Telemetry,
    current_telemetry,
    install_telemetry,
)
from repro.observability.trace import DATAPLANE, Tracer
from repro.parallel.plan import ExecutionPlan, UnitSpec
from repro.repository.store import decode_payload, encode_payload


def null_sleep(seconds: float) -> None:
    """A picklable no-op sleep for deterministic (and parallel) tests."""


class WorkerCrashError(RuntimeError):
    """A pool worker died (SIGKILL, OOM, ...) with results outstanding.

    ``multiprocessing.Pool`` silently replaces dead workers but never
    re-runs the tasks they held, so the dispatch round would hang; the
    driver detects the replacement, aborts the round, and flushes the
    checkpoint store -- resuming the run re-executes only the lost
    units.
    """


# ----------------------------------------------------------------------
# Worker-process plumbing (module-level so everything pickles by name)
# ----------------------------------------------------------------------
_WORKER_STATE: Dict[str, Any] = {}


def _init_worker() -> None:
    """Pool initializer: per-process set-up only.

    Everything plan-scoped arrives later, in the task header
    (:func:`_enter_plan`).  Here the worker resets SIGTERM to the
    default action: ``fork`` children inherit whatever handler the
    dispatching process installed (the service worker's graceful-drain
    handler swallows SIGTERM), and ``Pool.terminate()`` relies on
    SIGTERM actually terminating the children -- it holds the
    task-queue lock while joining them, so a child that shrugs the
    signal off deadlocks the teardown.
    """
    signal.signal(signal.SIGTERM, signal.SIG_DFL)


def _enter_plan(token: int, header: bytes) -> None:
    """Switch this worker to the plan ``header`` describes.

    Runs on the first task of each plan a worker serves.  The header is
    ``(adapter, shipment, traced, cache_spec)``, pickled once by the
    driver.  The previous plan's attach memo is dropped (its segments
    are already unlinked) and the new context is rebuilt by attaching
    its segments read-only (see :mod:`repro.dataplane.ship`); workers
    never unlink.  Telemetry and the artifact cache are reset to match
    the driver's, so one pool serves any mix of plans exactly like fresh
    pools would: a traced plan gets a ledger-less :class:`Telemetry`
    that :func:`_run_unit_in_worker` drains after every unit, and a
    ``cache_spec`` rebuilds the driver's cache (its atomic same-content
    writes make sharing it safe; see :mod:`repro.cache.store`).
    """
    adapter, shipment, traced, cache_spec = pickle.loads(header)
    _WORKER_STATE.clear()
    release_attached()
    telemetry = (
        Telemetry(tracer=Tracer(worker=f"worker-{os.getpid()}"))
        if traced else None
    )
    install_telemetry(telemetry)
    install_cache(
        ArtifactCache.from_spec(cache_spec) if cache_spec is not None else None
    )
    if telemetry is not None:
        with telemetry.span(
            "dataplane:attach", DATAPLANE, segments=len(shipment.handles)
        ):
            shared = attach_shipment(shipment)
        telemetry.count("dataplane_segments_attached", len(shipment.handles))
    else:
        shared = attach_shipment(shipment)
    _WORKER_STATE.update(
        token=token, adapter=adapter, shared=shared, telemetry=telemetry
    )


def _run_unit_in_worker(
    spec: UnitSpec,
) -> Tuple[int, str, Optional[Dict[str, Any]]]:
    """Execute one unit in a worker; ship its frame back, plus the
    telemetry recorded while executing it (``None`` when nothing was
    recorded, so idle spans cost no per-unit IPC).

    The frame is the unit's checkpoint text (:func:`encode_payload`):
    the driver decodes it as a resume would and stores it as it is, so
    the store's bytes cannot depend on the transport.
    """
    adapter = _WORKER_STATE["adapter"]
    run = adapter.execute(_WORKER_STATE["shared"], spec)
    telemetry = _WORKER_STATE.get("telemetry")
    transport = telemetry.drain_transport() if telemetry is not None else None
    return spec.index, encode_payload(adapter.to_payload(run)), transport


def _run_chunk_in_worker(
    task: Tuple[int, bytes, List[UnitSpec]],
) -> List[Tuple[int, str, Optional[Dict[str, Any]]]]:
    """Execute one dispatch chunk; frames come back batched per chunk.

    A task is ``(plan token, plan header, specs)``; the header is only
    unpickled when the token differs from the plan this worker served
    last, so later chunks of a plan cost one integer comparison.

    The chunking lives here, not in ``imap_unordered``'s ``chunksize``,
    because with ``chunksize > 1`` the stdlib returns a flattening
    *generator* over the iterator -- losing the ``next(timeout=)`` the
    driver's crash polling depends on.  Each unit keeps its own
    telemetry drain (``None`` when empty) so span adoption stays
    per-unit deterministic; only the IPC round trips are batched.
    """
    token, header, specs = task
    if _WORKER_STATE.get("token") != token:
        _enter_plan(token, header)
    return [_run_unit_in_worker(spec) for spec in specs]


# ----------------------------------------------------------------------
# Executors
# ----------------------------------------------------------------------
class SerialExecutor:
    """In-process execution in canonical order (the reference)."""

    name = "serial"

    def run(
        self,
        plan: ExecutionPlan,
        pending: List[UnitSpec],
        should_execute: Callable[[UnitSpec], bool],
    ) -> Iterator[Tuple[int, Any]]:
        for spec in pending:
            # Checked lazily, one unit at a time, so quarantines tripped
            # by earlier units in this very plan skip later work exactly
            # like the historical inline loop did.
            if not should_execute(spec):
                continue
            yield spec.index, plan.adapter.execute(plan.shared, spec)


def adaptive_chunk_size(n_units: int, n_workers: int) -> int:
    """Auto chunk size: ~4 chunks per worker, clamped to [1, 32].

    Small grids keep chunk 1 (every worker busy immediately, results
    stream for prompt merging); large blocked grids batch dozens of
    sub-units per IPC round trip so the result queue stops being the
    bottleneck.  The cap bounds both tail latency and the work lost
    when a worker crashes mid-chunk.
    """
    chunk, extra = divmod(n_units, n_workers * 4)
    if extra:
        chunk += 1
    return max(1, min(chunk, 32))


class ProcessPoolExecutor:
    """Shard pending units across ``workers`` OS processes.

    Units are dispatched unordered (``imap_unordered``) so fast units
    never wait behind slow ones; the driver re-establishes canonical
    order at merge time.

    The executor owns **one** ``multiprocessing.Pool`` for its lifetime:
    it starts on the first plan that reaches :meth:`run` and is released
    by :meth:`close` / ``__exit__`` (idempotent; a later plan would start
    a new pool).  Each plan travels in a task header -- a plan token,
    the adapter, the packed shipment, whether the driver traces and the
    installed cache's spec -- that workers unpickle once per plan
    (:func:`_enter_plan`).  ``fork`` workers fork at the first plan, so
    monkeypatches made after that do not reach them; owners (the CLI,
    ``run_experiment``'s caller, each service worker) close their
    executors.

    ``plan.shared`` is packed once per plan through the data plane, into
    segments owned by that plan; ``share_tables=False`` keeps tables
    inline in the pickled shell (the legacy behavior the speed benchmark
    measures against).  Dispatch chunks are sized by
    :func:`adaptive_chunk_size`.

    The driver polls the result stream (``poll_seconds``) so a worker
    killed mid-plan raises :class:`WorkerCrashError` instead of hanging
    the run; that, an interrupt, or a consumer that stops iterating
    early discards the pool, terminating its workers.  A worker that
    died *between* plans lost no unit: the next plan just gets a fresh
    pool.
    """

    name = "process-pool"

    def __init__(
        self,
        workers: int,
        start_method: Optional[str] = None,
        share_tables: bool = True,
        poll_seconds: float = 0.1,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers
        self.start_method = start_method
        self.share_tables = share_tables
        self.poll_seconds = poll_seconds
        self._pool: Any = None
        self._pids: Set[Optional[int]] = set()
        self._plans = itertools.count()

    def _context(self):
        if self.start_method is not None:
            return multiprocessing.get_context(self.start_method)
        methods = multiprocessing.get_all_start_methods()
        return multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn"
        )

    def _workers_lost(self) -> bool:
        """True when any worker of the pool died since it started.

        ``Pool`` replaces dead workers without re-queuing their tasks,
        so a changed pid set (or a not-yet-reaped corpse) means results
        we are waiting for will never arrive.
        """
        workers = list(self._pool._pool)
        return {process.pid for process in workers} != self._pids or any(
            not process.is_alive() for process in workers
        )

    @staticmethod
    def _free_task_lock(pool) -> None:
        """Make a pool that lost a worker terminable.

        An idle worker waits for its next task holding the task queue's
        read lock, so a worker killed between tasks dies holding it and
        ``Pool.terminate()`` would wait for that lock forever.  Stop the
        pool replacing workers, kill the rest, then free the lock (a
        semaphore, which any process may release).
        """
        pool._worker_handler._state = multiprocessing.pool.TERMINATE
        for process in list(pool._pool):
            process.kill()
            process.join(timeout=5.0)
        lock = pool._inqueue._rlock
        lock.acquire(False)
        lock.release()

    def _ensure_pool(self, context) -> Any:
        if self._pool is not None and self._workers_lost():
            self.close()
        if self._pool is None:
            self._pool = context.Pool(
                processes=self.workers, initializer=_init_worker
            )
            self._pids = {process.pid for process in self._pool._pool}
        return self._pool

    def close(self) -> None:
        """Terminate and reap the pool's workers (no-op without a pool)."""
        if self._pool is None:
            return
        pool = self._pool
        if self._workers_lost():
            self._free_task_lock(pool)
        self._pool = None
        pool.terminate()
        pool.join()

    def __enter__(self) -> "ProcessPoolExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def run(
        self,
        plan: ExecutionPlan,
        pending: List[UnitSpec],
        should_execute: Callable[[UnitSpec], bool],
    ) -> Iterator[Tuple[int, Any]]:
        dispatched = [spec for spec in pending if should_execute(spec)]
        if not dispatched:
            return
        n_workers = min(self.workers, len(dispatched))
        chunk = adaptive_chunk_size(len(dispatched), n_workers)
        context = self._context()
        start_method = getattr(context, "_name", self.start_method)
        telemetry = current_telemetry()
        cache = current_cache()
        cache_spec = cache.spec() if cache is not None else None
        manager = SegmentManager()
        shipped_bytes = 0
        frame_bytes = 0
        results = None
        finished = False
        try:
            if telemetry is not None:
                with telemetry.span(
                    "dataplane:ship",
                    DATAPLANE,
                    workers=n_workers,
                    start_method=start_method,
                ):
                    shipment = pack_shared(
                        plan.shared, manager, self.share_tables
                    )
            else:
                shipment = pack_shared(plan.shared, manager, self.share_tables)
            header = pickle.dumps(
                (plan.adapter, shipment, telemetry is not None, cache_spec),
                protocol=pickle.HIGHEST_PROTOCOL,
            )
            token = next(self._plans)
            tasks = [
                (token, header, dispatched[start:start + chunk])
                for start in range(0, len(dispatched), chunk)
            ]
            # The header rides every task; segments are shared.
            shipped_bytes = len(header) * len(tasks)
            if telemetry is not None:
                telemetry.count("dataplane_bytes_shipped", shipped_bytes)
                telemetry.count(
                    "dataplane_bytes_shared", shipment.shared_bytes
                )
            pool = self._ensure_pool(context)
            results = pool.imap_unordered(
                _run_chunk_in_worker, tasks, chunksize=1
            )
            remaining = len(tasks)
            while remaining:
                try:
                    batch = results.next(timeout=self.poll_seconds)
                except multiprocessing.TimeoutError:
                    if self._workers_lost():
                        raise WorkerCrashError(
                            "a pool worker died mid-dispatch; its pending "
                            "units were lost (checkpointed units are safe "
                            "-- resume to re-run the rest)"
                        ) from None
                    continue
                remaining -= 1
                for index, frame, transport in batch:
                    frame_bytes += len(frame)
                    yield (
                        index,
                        plan.adapter.from_payload(decode_payload(frame)),
                        transport,
                        frame,
                    )
            finished = True
        finally:
            if results is not None and not finished:
                # Workers may still hold this plan's tasks (a crash, an
                # interrupt, an abandoned stream): never reuse them.
                self.close()
            segments = len(manager.names)
            shared_bytes = manager.total_bytes
            manager.destroy()
            if telemetry is not None:
                telemetry.count("dataplane_bytes_shipped", frame_bytes)
                telemetry.event(
                    "dataplane_summary",
                    stage=plan.adapter.stage,
                    workers=n_workers,
                    start_method=start_method,
                    chunk_size=chunk,
                    segments=segments,
                    bytes_shared=shared_bytes,
                    bytes_shipped=shipped_bytes + frame_bytes,
                )


def make_executor(workers: Optional[int], start_method: Optional[str] = None):
    """Executor for a worker count: None/1 -> serial (None), N -> pool.

    ``start_method`` passes straight through to
    :class:`ProcessPoolExecutor` (``None`` = platform default).  The
    caller owns a returned pool executor and closes it when done.
    """
    if workers is None or workers == 1:
        return None
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    return ProcessPoolExecutor(workers, start_method=start_method)


# ----------------------------------------------------------------------
# (unit x row-block) sharding
# ----------------------------------------------------------------------
def block_spans(n_rows: int, block_rows: int) -> List[Tuple[int, int]]:
    """Canonical ``[start, stop)`` row spans tiling ``n_rows`` rows.

    Every span except possibly the last covers exactly ``block_rows``
    rows.  An empty table yields one empty span so a blocked unit still
    produces exactly one run to merge.
    """
    if block_rows < 1:
        raise ValueError(f"block_rows must be >= 1, got {block_rows}")
    if n_rows < 0:
        raise ValueError(f"n_rows must be >= 0, got {n_rows}")
    if n_rows == 0:
        return [(0, 0)]
    return [
        (start, min(start + block_rows, n_rows))
        for start in range(0, n_rows, block_rows)
    ]


def block_unit_key(key: str, start: int, stop: int) -> str:
    """Checkpoint key of one row-block sub-unit of a blocked unit."""
    return f"{key}@rows{start}-{stop}"


def _sub_units(spec: UnitSpec, first: int) -> List[UnitSpec]:
    """The sub-units one unit executes as, indexed from ``first``.

    A unit without row spans is its own single sub-unit under its
    original key; a blocked unit becomes one sub-unit per span, keyed
    ``<key>@rows<start>-<stop>`` with the span in ``params["block"]``.
    """
    if not spec.blocks:
        return [replace(spec, index=first)]
    return [
        UnitSpec(
            first + offset,
            block_unit_key(spec.key, start, stop),
            spec.method,
            {**spec.params, "block": (start, stop)},
        )
        for offset, (start, stop) in enumerate(spec.blocks)
    ]


# ----------------------------------------------------------------------
# The driver: deterministic merge + breaker replay + single-writer
# checkpointing
# ----------------------------------------------------------------------
def execute_plan(
    plan: ExecutionPlan,
    executor: Any = None,
    checkpoint: Any = None,
    breaker: Any = None,
    progress: Optional[Callable[[UnitSpec, Any], None]] = None,
    telemetry: Any = None,
) -> List[Any]:
    """Run a plan under any executor; return runs in canonical order.

    Each unit executes as its sub-units (:func:`_sub_units`): itself, or
    one per row span when it carries ``blocks``.  Executors see only
    sub-units; the driver owns everything that must be deterministic and
    single-threaded:

    - **checkpoint reads**: a unit whose original key is stored is loaded
      and never expanded (whether an earlier run was blocked or not);
      stored sub-units of a blocked unit are loaded too (intra-unit
      resume).  Nothing loaded is dispatched -- workers never touch the
      store;
    - **memo reads**: every other unit whose method is not quarantined
      is looked up once through the adapter's ``lookup`` hook, before a
      blocked unit expands (blocked and unblocked runs share entries).
      A hit is put among the executed runs as one sub-unit, so it is
      finalized exactly like a run a worker returned; its decoded
      payload is what gets checkpointed.  Only misses are dispatched,
      each carrying the key its run is stored under (``spec.memo``) --
      workers never read memo entries, and a plan without misses
      packs nothing and starts no pool;
    - **finalization order**: executed sub-units buffer until their
      canonical turn, so sub-unit ``i`` is always finalized before
      ``i+1``;
    - **circuit-breaker replay**: success/failure bookkeeping is applied
      per sub-unit at finalization, in canonical order -- a method whose
      breaker trips at sub-unit ``i`` yields the exact quarantine-skip
      records a serial run would produce for every later sub-unit of
      that method, even if a worker already executed (and therefore
      wastes) one of them.  One poisoned block counts one failure, which
      only makes quarantine trip earlier than a whole-unit run;
    - **block folding**: once a blocked unit's last sub-unit finalizes,
      ``adapter.merge_blocks`` folds its span runs (canonical span order)
      and the merged run is checkpointed under the unit's *original*
      key, so later blocked or unblocked resumes reuse it;
    - **checkpoint writes**: the driver is the single writer draining the
      executor's result stream; ``put`` batches inside the store and the
      driver flushes once at the end (and on interruption);
    - **telemetry merge**: worker span/metric buffers ride the result
      stream and are absorbed at finalization, in canonical order -- so
      the merged trace is complete and structurally identical for any
      worker count.  Buffers of units a worker wastefully executed after
      their method's breaker opened are *dropped*, keeping merged totals
      equal to the serial run's.  ``telemetry`` defaults to the installed
      :func:`~repro.observability.current_telemetry` (None = off; the
      run's outputs are byte-identical either way).

    ``progress`` is invoked once per finalized *original* unit, in
    canonical order (an exception it raises aborts the run like an
    interrupt, which the chaos suite uses to simulate kills at exact unit
    boundaries).
    """
    executor = executor or SerialExecutor()
    telemetry = telemetry if telemetry is not None else current_telemetry()
    adapter = plan.adapter
    # A blocked plan's ledger speaks of sub-units: a unit loaded whole
    # from the store scheduled none, so it books no unit_finalized event.
    blocked = any(spec.blocks for spec in plan.units)
    results: List[Any] = [None] * len(plan.units)
    subunits: List[UnitSpec] = []
    sub_runs: List[Any] = []
    # (unit, first sub-unit, stop); first == stop -> loaded from the store.
    groups: List[Tuple[UnitSpec, int, int]] = []

    executed: Dict[int, Any] = {}
    # What executed runs are checkpointed as, when the driver has it
    # already: a memo hit's decoded payload, a worker frame's text.
    stored: Dict[int, Any] = {}
    transports: Dict[int, Any] = {}
    received_at: Dict[int, float] = {}
    state = {"next": 0, "group": 0}

    def load(key: str) -> Any:
        payload = checkpoint.get(key) if checkpoint is not None else None
        return adapter.from_payload(payload) if payload is not None else None

    def should_execute(spec: UnitSpec) -> bool:
        return not (
            breaker is not None
            and spec.method
            and breaker.is_quarantined(spec.method)
        )

    for spec in plan.units:
        first = len(subunits)
        results[spec.index] = load(spec.key)
        if results[spec.index] is not None:
            groups.append((spec, first, first))
            continue
        read = None
        if adapter.lookup is not None and should_execute(spec):
            read = adapter.lookup(plan.shared, spec)
        if read is not None:
            spec = replace(spec, memo=read.key)
            if read.run is not None:
                # A hit is the whole unit's run: one sub-unit, already
                # executed, finalized like any other.
                spec = replace(spec, blocks=())
                executed[first] = read.run
                stored[first] = read.payload
        for sub in _sub_units(spec, first):
            subunits.append(sub)
            sub_runs.append(load(sub.key) if spec.blocks else None)
        groups.append((spec, first, len(subunits)))
    n = len(subunits)
    cached = [run is not None for run in sub_runs]
    pending = [
        sub for sub in subunits
        if not cached[sub.index] and sub.index not in executed
    ]

    def checkpoint_put(spec: UnitSpec, run: Any, payload: Any = None) -> None:
        checkpoint.put(
            spec.key, adapter.to_payload(run) if payload is None else payload
        )
        if telemetry is not None:
            telemetry.count("checkpoint.puts")

    def book_finalized(spec: UnitSpec, run: Any, status: str) -> None:
        """Ledger + metrics for one finalized unit (telemetry on only)."""
        record = adapter.failure_of(run)
        if record is not None and status == "executed":
            telemetry.record_failure(record)
        telemetry.event(
            "unit_finalized",
            unit=spec.key,
            method=spec.method,
            stage=adapter.stage,
            status=status,
            ok=record is None,
            runtime_seconds=getattr(run, "runtime_seconds", None),
        )

    def finalize_sub_unit(index: int) -> bool:
        """Finalize sub-unit ``index``; False while it is still running."""
        spec = subunits[index]
        status = "executed"
        if cached[index]:
            run = sub_runs[index]
            status = "cached"
            if telemetry is not None:
                telemetry.count("units.cached")
        elif (
            breaker is not None
            and spec.method
            and breaker.is_quarantined(spec.method)
        ):
            executed.pop(index, None)  # a worker may have raced ahead
            transports.pop(index, None)  # ...its telemetry is wasted too
            stored.pop(index, None)
            run = adapter.quarantine_skip(
                plan.shared, spec, breaker.reason(spec.method)
            )
            status = "quarantine_skip"
            if telemetry is not None:
                telemetry.count("units.quarantine_skips")
            if checkpoint is not None:
                checkpoint_put(spec, run)
        elif index in executed:
            run = executed.pop(index)
            if telemetry is not None:
                telemetry.absorb_transport(transports.pop(index, None))
                telemetry.count("units.executed")
                if index in received_at:
                    telemetry.observe(
                        "unit.merge_wait_seconds",
                        telemetry.tracer.clock() - received_at.pop(index),
                    )
            if breaker is not None and spec.method:
                record = adapter.failure_of(run)
                if record is None:
                    breaker.record_success(spec.method)
                else:
                    was_open = breaker.is_quarantined(spec.method)
                    breaker.record_failure(spec.method, record.describe())
                    if (
                        telemetry is not None
                        and not was_open
                        and breaker.is_quarantined(spec.method)
                    ):
                        telemetry.record_breaker_open(
                            spec.method, breaker.reason(spec.method)
                        )
            if checkpoint is not None:
                checkpoint_put(spec, run, stored.pop(index, None))
        else:
            return False  # waiting on an out-of-order completion
        sub_runs[index] = run
        if telemetry is not None:
            book_finalized(spec, run, status)
        return True

    def finalize_unit(spec: UnitSpec, first: int, stop: int) -> Any:
        """The unit's run once all its sub-units have finalized."""
        if first == stop:
            if telemetry is not None:
                telemetry.count("units.cached")
                if not blocked:
                    book_finalized(spec, results[spec.index], "cached")
            return results[spec.index]
        if not spec.blocks:
            return sub_runs[first]
        run = adapter.merge_blocks(plan.shared, spec, sub_runs[first:stop])
        if checkpoint is not None:
            checkpoint.put(spec.key, adapter.to_payload(run))
        if telemetry is not None:
            telemetry.count("units.block_merged")
            telemetry.event(
                "unit_block_merged",
                unit=spec.key,
                method=spec.method,
                stage=adapter.stage,
                n_blocks=stop - first,
            )
        return run

    def finalize_ready() -> None:
        while state["group"] < len(groups):
            spec, first, stop = groups[state["group"]]
            while state["next"] < stop:
                if not finalize_sub_unit(state["next"]):
                    return
                state["next"] += 1
            run = results[spec.index] = finalize_unit(spec, first, stop)
            state["group"] += 1
            if progress is not None:
                progress(spec, run)

    try:
        finalize_ready()
        for item in executor.run(plan, pending, should_execute):
            index, run = item[0], item[1]
            executed[index] = run
            if len(item) > 3:
                stored[index] = item[3]
            if telemetry is not None:
                if len(item) > 2 and item[2]:
                    transports[index] = item[2]
                received_at[index] = telemetry.tracer.clock()
            finalize_ready()
        finalize_ready()
    finally:
        if checkpoint is not None:
            checkpoint.flush()
            if telemetry is not None:
                telemetry.count("checkpoint.commits")
                telemetry.event("checkpoint_commit", stage=adapter.stage)
    if state["group"] != len(groups):
        missing = [subunits[i].key for i in range(n) if sub_runs[i] is None]
        raise RuntimeError(
            f"executor finished but {len(missing)} unit(s) never completed: "
            f"{missing[:5]}"
        )
    return results
