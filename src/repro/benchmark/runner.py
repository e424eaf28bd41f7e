"""Experiment runner: the evaluation module of Figure 1.

Provides the three experiment stages as composable functions --

- :func:`run_detection_suite`: every applicable detector on a dataset,
  scored with P/R/F1 + IoU + runtime (Figure 2);
- :func:`run_repair_suite`: detector x repair grid producing repaired
  versions scored with categorical P/R/F1 and numerical RMSE (Figures 4-5);
- :func:`evaluate_scenarios`: ML models trained/tested on the version
  pairs of Table 3's scenarios, repeated over seeds, with the Wilcoxon
  A/B decision between any two scenarios (Figure 7).

Each suite is expressed as an :class:`~repro.parallel.ExecutionPlan` over
independent units (the same units the checkpoint layer keys by) and run
through :func:`~repro.parallel.execute_plan` -- serially by default, or
sharded across worker processes when an ``executor`` is supplied.  The
driver merges completed units in canonical order and replays
circuit-breaker bookkeeping there, so results are identical for any
executor and any completion order.

The three stages share one guarded unit pattern, written once here:
each stage's shared context (a :class:`_StageShared` subclass) says what
a unit attempts, how a success and a failure become its run, and which
context its failure records carry; :func:`_execute_unit` and
:func:`_quarantine_unit` wrap that in deadline, retry and quarantine
handling for every stage alike.

Under an installed artifact cache, whole units are memoized: each
detection, repair and scenario unit's entry holds its checkpoint
payload (:data:`DETECTION_UNIT_KIND`, :data:`REPAIR_UNIT_KIND`,
:data:`SCENARIO_UNIT_KIND`), keyed by everything its run is computed
from.  The driver reads them: each adapter's ``lookup`` hook
(:func:`_lookup_unit`) runs inside :func:`~repro.parallel.execute_plan`,
next to the checkpoint loads, and a hit is finalized like an executed
unit -- no tool runs, nothing is validated and nothing is rescored.
Workers never read memo entries: only misses reach
:func:`_execute_unit`, which stores a successful run under the key the
driver looked up.  A direct :func:`run_scenario` call is a one-unit
evaluation: it reads and writes the entry the model stage's unit with
the same arguments would.
"""

from __future__ import annotations

import json
import math
import time
import zlib
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import (
    Any,
    Callable,
    ClassVar,
    Dict,
    FrozenSet,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

import numpy as np

from repro.cache.keys import (
    artifact_key,
    canonical_config,
    config_fingerprint,
    table_identity,
)
from repro.cache.store import current_cache
from repro.context import CleaningContext
from repro.datagen.benchmark_dataset import BenchmarkDataset
from repro.dataset.encoding import TableEncoder, encode_supervised
from repro.dataset.splits import train_test_split
from repro.dataset.table import Cell, Table
from repro.detectors.base import BlockwiseDetector, DetectionResult, Detector
from repro.metrics.detection import DetectionScores, detection_scores, iou_matrix
from repro.metrics.model import f1_score, rmse, silhouette_score
from repro.metrics.repair import repair_rmse, repair_scores_categorical
from repro.metrics.stats import WilcoxonResult, wilcoxon_signed_rank
from repro.benchmark.scenarios import Scenario, scenario as get_scenario
from repro.ml.base import fit_predict
from repro.ml.model_zoo import build_model, get_spec
from repro.observability.telemetry import current_telemetry, telemetry_scope
from repro.observability.trace import UNIT
from repro.parallel.engine import block_spans, execute_plan
from repro.parallel.plan import ExecutionPlan, MemoRead, StageAdapter, UnitSpec
from repro.repair.base import RepairMethod, RepairResult
from repro.repository.store import decode_payload, encode_payload, nan_guard
from repro.resilience.checkpoint import (
    SuiteCheckpoint,
    scores_from_payload,
    scores_to_payload,
    table_from_payload,
    table_to_payload,
    unit_key,
)
from repro.resilience.deadline import Deadline
from repro.resilience.failures import FailureRecord
from repro.resilience.guards import (
    CircuitBreaker,
    RetryPolicy,
    guarded_call,
    unit_span_attrs,
)
from repro.resilience.validation import validate_repair_result


def _run_staged_plan(
    plan: ExecutionPlan,
    telemetry,
    executor,
    checkpoint,
    breaker,
    **stage_attrs: Any,
) -> List[Any]:
    """Drive one stage plan, bracketed by a telemetry stage span.

    ``telemetry=None`` falls back to the installed current telemetry; if
    none is installed either, this is exactly the bare
    :func:`execute_plan` call (zero observability cost).  The scope is
    re-entrant, so callers that already installed the same telemetry
    (the CLI's suite span) compose cleanly.
    """
    telemetry = telemetry if telemetry is not None else current_telemetry()
    guards = dict(executor=executor, checkpoint=checkpoint, breaker=breaker)
    if telemetry is None:
        return execute_plan(plan, **guards)
    with telemetry_scope(telemetry):
        with telemetry.stage(
            plan.adapter.stage, units=len(plan.units), **stage_attrs
        ):
            return execute_plan(plan, telemetry=telemetry, **guards)


# ----------------------------------------------------------------------
# The guarded unit, written once for every stage
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _StageShared:
    """Per-suite context shipped to every unit of one stage (picklable).

    Holds the guard fields all stages share; subclasses add their own
    context and the per-stage hooks below.
    """

    stage: ClassVar[str]
    #: Cache kind of the stage's memoized units and the run type its
    #: entries hold; None: units are never memoized.
    memo_kind: ClassVar[Optional[str]] = None
    run_type: ClassVar[Any] = None

    dataset: BenchmarkDataset
    deadline_seconds: Optional[float]
    retry: Optional[RetryPolicy]
    clock: Optional[Callable[[], float]]
    sleep: Callable[[float], None]
    #: The part of every unit memo key that all units of the plan share
    #: (:func:`_suite_memo_key`, :meth:`_ScenarioShared.evaluation_key`);
    #: None when no cache is installed or it has no exact form.
    memo_suite: Optional[str] = field(default=None, kw_only=True)

    def provenance(self, spec: UnitSpec) -> Optional[Dict[str, Any]]:
        """Per-unit part of the unit's memo key: what, besides the
        shared part, its run is computed from.  None: never memoized."""
        return None

    def failure_context(self, spec: UnitSpec) -> Dict[str, Any]:
        """Context kwargs of the unit's failure records and unit span;
        always carries the unit's ``seed``, which seeds its cleaning
        context too."""
        raise NotImplementedError

    def attempt(self, spec: UnitSpec, context: CleaningContext) -> Any:
        """One attempt at the unit's work (may raise; the guard books it)."""
        raise NotImplementedError

    def succeeded(self, spec: UnitSpec, value: Any) -> Any:
        """The unit's run from a successful attempt's value."""
        raise NotImplementedError

    def failed(self, spec: UnitSpec, record: FailureRecord) -> Any:
        """The unit's run from a failure record (guard failure or
        quarantine skip)."""
        raise NotImplementedError

    def within_budget(self, run: Any) -> bool:
        budget = self.deadline_seconds
        return budget is None or run.runtime_seconds <= budget

    def read_memo(self, spec: UnitSpec) -> Optional[MemoRead]:
        """The unit's memo key and, on a hit, its stored run (None: the
        unit is not memoized).

        The entry's one array is the payload text the checkpoint store
        would write for the run, zlib-compressed.  A stored run slower
        than the unit's deadline reads as a miss: the budget decides,
        not the cache.
        """
        cache = current_cache()
        key = None if cache is None else _unit_memo_key(self, spec)
        if key is None:
            return None
        entry = cache.get(key)
        if entry is None or "payload" not in entry.arrays:
            return MemoRead(key)
        try:
            text = zlib.decompress(entry.arrays["payload"].tobytes())
            payload = decode_payload(text.decode("utf-8"))
            run = self.run_type.from_payload(payload)
        except (zlib.error, ValueError, KeyError, TypeError):
            return MemoRead(key)
        if not self.within_budget(run):
            return MemoRead(key)
        return MemoRead(key, run, payload)

    def remember(self, key: str, run: Any) -> None:
        """Store a run under its memo key; failed runs never are."""
        cache = current_cache()
        if cache is None or run.failed or not self.within_budget(run):
            return
        # Level 1 shrinks a repaired table's JSON about fourfold for a
        # few milliseconds: a warm run reads a quarter of the bytes.
        blob = zlib.compress(encode_payload(run.to_payload()).encode(), 1)
        cache.put(key, {"payload": np.frombuffer(blob, dtype=np.uint8)})


#: Cache kinds of one detection, repair and scenario unit's run: its
#: checkpoint payload, keyed by everything the run is computed from.
DETECTION_UNIT_KIND = "benchmark/detection_unit@v1"
REPAIR_UNIT_KIND = "benchmark/repair_unit@v1"
SCENARIO_UNIT_KIND = "benchmark/scenario_unit@v2"


def _suite_memo_key(dataset: BenchmarkDataset) -> Optional[str]:
    """The suite part of every unit memo key, or None (no memo).

    It names the exact identity of the dirty and clean tables (exact,
    not the fingerprint: ``None``, NaN and ``"NA"`` cells survive into
    repaired payloads), the sorted error cells, the cleaning signals,
    the target and the task.
    """
    tables = [table_identity(dataset.dirty), table_identity(dataset.clean)]
    signals = canonical_config([
        dataset.constraints, dataset.fds, dataset.patterns,
        dataset.knowledge_base, dataset.key_columns,
    ])
    if None in tables or signals is None:
        return None
    return config_fingerprint({
        "tables": tables,
        "errors": _cell_list(sorted(dataset.error_cells)),
        "signals": signals,
        "target": dataset.target,
        "task": dataset.task,
    })


def _cell_list(cells: Sequence[Cell]) -> List[List[Any]]:
    return [[int(row), str(column)] for row, column in cells]


def _cells_digest(cells: Sequence[Cell]) -> str:
    """Digest of a sorted cell tuple (a repair unit's detections)."""
    return config_fingerprint({"cells": _cell_list(cells)})


def _unit_memo_key(shared: _StageShared, spec: UnitSpec) -> Optional[str]:
    """The unit's memo key: its stage's kind, the shared part and the
    unit's provenance; None when the unit is not memoized."""
    if shared.memo_suite is None:
        return None
    provenance = shared.provenance(spec)
    if provenance is None:
        return None
    return artifact_key(shared.memo_kind, [shared.memo_suite], provenance)


def _lookup_unit(shared: _StageShared, spec: UnitSpec) -> Optional[MemoRead]:
    """Every stage adapter's ``lookup``: the driver's memo read.

    A hit books the ``unit`` span an executed unit books (same name and
    attributes, plus ``memo="hit"``), so the ledger still shows every
    unit of the plan.
    """
    telemetry = current_telemetry()
    if telemetry is None:
        return shared.read_memo(spec)
    tracer = telemetry.tracer
    started = tracer.clock()
    read = shared.read_memo(spec)
    if read is not None and read.run is not None:
        context = shared.failure_context(spec)
        span = tracer.record(
            f"{shared.stage}:{spec.method}", UNIT, started,
            **unit_span_attrs(shared.stage, spec.method, context),
            outcome="ok", memo="hit",
        )
        telemetry.count("units.ok")
        telemetry.observe("unit.compute_seconds", span.duration_seconds)
    return read


def _execute_unit(shared: _StageShared, spec: UnitSpec) -> Any:
    """Run one unit under a fresh per-unit deadline and the suite's
    retry policy; every stage adapter's ``execute``.

    Memo hits never get here (the driver resolved them through
    :func:`_lookup_unit`); a successful run is stored under the key the
    driver looked it up under (``spec.memo``).
    """
    failure_context = shared.failure_context(spec)
    deadline = None
    if shared.deadline_seconds is not None:
        deadline = Deadline(
            shared.deadline_seconds, clock=shared.clock or time.monotonic
        )
    context = shared.dataset.context(
        seed=failure_context["seed"], deadline=deadline, clock=shared.clock
    )
    guarded = guarded_call(
        lambda: shared.attempt(spec, context),
        method=spec.method,
        stage=shared.stage,
        deadline=deadline,
        retry=shared.retry,
        clock=shared.clock,
        sleep=shared.sleep,
        **failure_context,
    )
    if not guarded.ok:
        return shared.failed(spec, guarded.failure)
    run = shared.succeeded(spec, guarded.value)
    if spec.memo is not None:
        shared.remember(spec.memo, run)
    return run


def _quarantine_unit(shared: _StageShared, spec: UnitSpec, reason: str) -> Any:
    """The run a unit records when its method is quarantined; every
    stage adapter's ``quarantine_skip``."""
    record = FailureRecord.quarantine_skip(
        spec.method, shared.stage, reason, **shared.failure_context(spec)
    )
    return shared.failed(spec, record)


def _record_to_payload(record: Optional[FailureRecord]) -> Optional[Dict]:
    return record.to_payload() if record is not None else None


def _record_from_payload(payload: Optional[Dict]) -> Optional[FailureRecord]:
    return FailureRecord.from_payload(payload) if payload is not None else None


# ----------------------------------------------------------------------
# Detection stage
# ----------------------------------------------------------------------
@dataclass
class DetectionRun:
    """One detector's output and its scores on one dataset.

    ``failure_record`` carries the structured taxonomy entry for failed
    runs; ``failed``/``failure`` keep the legacy flag/string view of it.
    """

    detector: str
    result: DetectionResult
    scores: DetectionScores
    failure_record: Optional[FailureRecord] = None

    @property
    def failed(self) -> bool:
        return self.failure_record is not None

    @property
    def failure(self) -> str:
        return self.failure_record.describe() if self.failed else ""

    @property
    def runtime_seconds(self) -> float:
        """Honest per-unit runtime (failed runs carry guard elapsed time)."""
        return self.result.runtime_seconds

    def to_payload(self) -> Dict[str, Any]:
        """Canonical JSON payload for checkpointing."""
        return {
            "detector": self.detector,
            "cells": sorted([int(r), str(c)] for r, c in self.result.cells),
            "runtime_seconds": self.result.runtime_seconds,
            "scores": scores_to_payload(self.scores),
            "failure_record": _record_to_payload(self.failure_record),
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "DetectionRun":
        result = DetectionResult(
            payload["detector"],
            frozenset((int(r), str(c)) for r, c in payload["cells"]),
            payload["runtime_seconds"],
        )
        return cls(
            payload["detector"],
            result,
            scores_from_payload(payload["scores"]),
            failure_record=_record_from_payload(payload["failure_record"]),
        )


@dataclass(frozen=True)
class _DetectionShared(_StageShared):
    """Detection context.

    ``profiles``/``profile_seconds`` are populated only for blocked runs:
    position-aligned whole-table fit results (and their fit times) for
    blockwise detectors, ``None``/``0.0`` elsewhere.
    """

    stage: ClassVar[str] = "detection"
    memo_kind: ClassVar[Optional[str]] = DETECTION_UNIT_KIND
    run_type: ClassVar[Any] = DetectionRun

    detectors: Tuple[Detector, ...]
    seed: int
    profiles: Tuple[Any, ...] = ()
    profile_seconds: Tuple[float, ...] = ()

    def provenance(self, spec: UnitSpec) -> Optional[Dict[str, Any]]:
        if "block" in spec.params:  # a partial view, never a whole run
            return None
        method = canonical_config(self.detectors[spec.params["position"]])
        if method is None:
            return None
        return {"detector": spec.method, "method": method, "seed": self.seed}

    def failure_context(self, spec: UnitSpec) -> Dict[str, Any]:
        return {"dataset": self.dataset.name, "seed": self.seed}

    def attempt(self, spec: UnitSpec, context: CleaningContext) -> Any:
        position = spec.params["position"]
        detector = self.detectors[position]
        span = spec.params.get("block")
        if span is None:
            return detector.detect(context)
        # A blocked sub-unit: cells carry global row indices; the scores
        # are the block's partial view (the merged run rescores the union).
        start, stop = int(span[0]), int(span[1])
        block = context.dirty.block_view(start, stop)
        return detector.detect_block(
            context, self.profiles[position], block, start
        )

    def succeeded(
        self, spec: UnitSpec, result: DetectionResult
    ) -> DetectionRun:
        return self.scored(spec, result)

    def failed(self, spec: UnitSpec, record: FailureRecord) -> DetectionRun:
        # The guard's elapsed time (up to and including the failing
        # attempt) is the honest runtime of a crashed tool.
        runtime = record.elapsed_seconds
        empty = DetectionResult(spec.method, frozenset(), runtime)
        return self.scored(spec, empty, record)

    def scored(
        self,
        spec: UnitSpec,
        result: DetectionResult,
        record: Optional[FailureRecord] = None,
    ) -> DetectionRun:
        return DetectionRun(
            spec.method,
            result,
            detection_scores(result.cells, self.dataset.error_cells),
            failure_record=record,
        )


def _merge_detection_blocks(
    shared: _DetectionShared, spec: UnitSpec, runs: List[DetectionRun]
) -> DetectionRun:
    """Fold one blocked unit's block runs into the whole-unit run.

    Cells are the union of block cells (disjoint by construction) and
    scores are recomputed from that union, so the merged run's cells and
    scores are byte-identical to the unblocked run's.  Runtime is the
    honest total: profile fit seconds plus the sum of block detect
    seconds.  A failed block fails the unit with the first (canonical
    block order) failure record, mirroring how a whole-table run dies on
    the first block it would have reached.
    """
    runtime = shared.profile_seconds[spec.params["position"]] + sum(
        run.result.runtime_seconds for run in runs
    )
    record = next(
        (run.failure_record for run in runs if run.failed), None
    )
    cells: FrozenSet[Cell] = frozenset()
    if record is None:
        cells = cells.union(*(run.result.cells for run in runs))
    run = shared.scored(
        spec, DetectionResult(spec.method, cells, runtime), record
    )
    if spec.memo is not None:
        shared.remember(spec.memo, run)
    return run


_DETECTION_ADAPTER = StageAdapter(
    stage=_DetectionShared.stage,
    execute=_execute_unit,
    to_payload=DetectionRun.to_payload,
    from_payload=DetectionRun.from_payload,
    quarantine_skip=_quarantine_unit,
    merge_blocks=_merge_detection_blocks,
    lookup=_lookup_unit,
)


def run_detection_suite(
    dataset: BenchmarkDataset,
    detectors: Sequence[Detector],
    seed: int = 0,
    deadline_seconds: Optional[float] = None,
    retry: Optional[RetryPolicy] = None,
    breaker: Optional[CircuitBreaker] = None,
    checkpoint: Optional[SuiteCheckpoint] = None,
    clock: Optional[Callable[[], float]] = None,
    sleep: Callable[[float], None] = time.sleep,
    executor=None,
    telemetry=None,
    block_rows: Optional[int] = None,
) -> List[DetectionRun]:
    """Run each detector on the dataset; failures are recorded, not fatal.

    Detectors that crash (e.g. Picket's memory boundary) appear in the
    output flagged ``failed`` with a categorized ``failure_record`` --
    the paper likewise reports tools that "stopped working" at certain
    sizes rather than hiding them.  Each detector runs under
    :func:`~repro.resilience.guards.guarded_call` with an optional
    per-detector wall-clock ``deadline_seconds`` budget, transient-retry
    policy, and circuit ``breaker`` whose quarantined methods are skipped
    with a recorded reason.  With a ``checkpoint``, completed detectors
    are loaded from the store instead of re-executed.  ``executor``
    selects the execution engine (None = serial reference; see
    :mod:`repro.parallel` for the process-pool engine) -- results are
    identical either way.  ``telemetry`` (or an installed telemetry
    scope) records a stage span, per-unit spans/metrics, and ledger
    events without perturbing any result.

    ``block_rows`` turns on ``(unit x row-block)`` sharding for the
    detectors that support it (:class:`BlockwiseDetector`): their
    whole-table profiles are fitted once up front, inference streams
    over zero-copy row blocks, and the per-unit cells and scores are
    byte-identical to the unblocked run.  Detectors without blockwise
    support run whole-table in the same plan.  A blockwise detector
    whose profile fit fails falls back to whole-table execution, where
    the guard records the failure through the ordinary taxonomy.
    """
    detectors = tuple(detectors)
    blocks: List[Tuple[Tuple[int, int], ...]] = [()] * len(detectors)
    profiles: List[Any] = []
    profile_seconds: List[float] = []
    if block_rows is not None:
        if block_rows < 1:
            raise ValueError(f"block_rows must be >= 1, got {block_rows}")
        profiles = [None] * len(detectors)
        profile_seconds = [0.0] * len(detectors)
        fit_clock = clock or time.perf_counter
        fit_context = dataset.context(seed=seed, clock=clock)
        spans = tuple(block_spans(dataset.dirty.n_rows, block_rows))
        for index, detector in enumerate(detectors):
            if not isinstance(detector, BlockwiseDetector):
                continue
            started = fit_clock()
            guarded = guarded_call(
                lambda d=detector: d.fit_profile(fit_context),
                method=detector.name,
                stage="detection",
                retry=retry,
                clock=clock,
                sleep=sleep,
                dataset=dataset.name,
                seed=seed,
            )
            profile_seconds[index] = fit_clock() - started
            if guarded.ok:
                profiles[index] = guarded.value
                blocks[index] = spans
    shared = _DetectionShared(
        dataset=dataset,
        deadline_seconds=deadline_seconds,
        retry=retry,
        clock=clock,
        sleep=sleep,
        detectors=detectors,
        seed=seed,
        profiles=tuple(profiles),
        profile_seconds=tuple(profile_seconds),
        memo_suite=(
            _suite_memo_key(dataset) if current_cache() is not None else None
        ),
    )
    units = [
        UnitSpec(
            index,
            unit_key(
                "detection", dataset.name, detector=detector.name, seed=seed
            ),
            detector.name,
            {"position": index},
            blocks=blocks[index],
        )
        for index, detector in enumerate(detectors)
    ]
    plan = ExecutionPlan(_DETECTION_ADAPTER, shared, units)
    stage_attrs: Dict[str, Any] = {"dataset": dataset.name}
    if block_rows is not None:
        stage_attrs["block_rows"] = block_rows
    return _run_staged_plan(
        plan, telemetry, executor, checkpoint, breaker, **stage_attrs
    )


def detection_iou(
    runs: Sequence[DetectionRun], dataset: BenchmarkDataset
) -> Tuple[List[str], List[List[float]]]:
    """Pairwise IoU over true positives (Figures 2b/2e/...)."""
    detections = {
        run.detector: set(run.result.cells) for run in runs if not run.failed
    }
    return iou_matrix(detections, dataset.error_cells)


# ----------------------------------------------------------------------
# Repair stage
# ----------------------------------------------------------------------
@dataclass
class RepairRun:
    """One (detector, repair) combination's scores."""

    detector: str
    repair: str
    result: Optional[RepairResult]
    categorical_f1: float = math.nan
    categorical_precision: float = math.nan
    categorical_recall: float = math.nan
    numerical_rmse: float = math.nan
    failure_record: Optional[FailureRecord] = None

    @property
    def strategy(self) -> str:
        return f"{self.detector}+{self.repair}"

    @property
    def failed(self) -> bool:
        return self.failure_record is not None

    @property
    def failure(self) -> str:
        return self.failure_record.describe() if self.failed else ""

    @property
    def runtime_seconds(self) -> Optional[float]:
        """Repair runtime; failed units report the guard's elapsed time."""
        if self.result is not None:
            return self.result.runtime_seconds
        if self.failure_record is not None:
            return self.failure_record.elapsed_seconds
        return None

    def to_payload(self) -> Dict[str, Any]:
        """Canonical JSON payload for checkpointing."""
        result_payload = None
        if self.result is not None:
            result_payload = {
                "method": self.result.method,
                "repaired": table_to_payload(self.result.repaired),
                "runtime_seconds": self.result.runtime_seconds,
                "metadata": _jsonable_metadata(self.result.metadata),
            }
        return {
            "detector": self.detector,
            "repair": self.repair,
            "result": result_payload,
            "categorical_f1": self.categorical_f1,
            "categorical_precision": self.categorical_precision,
            "categorical_recall": self.categorical_recall,
            "numerical_rmse": self.numerical_rmse,
            "failure_record": _record_to_payload(self.failure_record),
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "RepairRun":
        result = None
        if payload["result"] is not None:
            result = RepairResult(
                payload["result"]["method"],
                table_from_payload(payload["result"]["repaired"]),
                payload["result"]["runtime_seconds"],
                payload["result"]["metadata"],
            )
        return cls(
            payload["detector"],
            payload["repair"],
            result,
            categorical_f1=nan_guard(payload["categorical_f1"]),
            categorical_precision=nan_guard(payload["categorical_precision"]),
            categorical_recall=nan_guard(payload["categorical_recall"]),
            numerical_rmse=nan_guard(payload["numerical_rmse"]),
            failure_record=_record_from_payload(payload["failure_record"]),
        )


def _jsonable_metadata(metadata: Dict[str, Any]) -> Dict[str, Any]:
    """Keep only JSON-round-trippable metadata entries (checkpointing)."""
    kept: Dict[str, Any] = {}
    for key, value in metadata.items():
        try:
            json.dumps(value)
        except (TypeError, ValueError):
            continue
        kept[key] = value
    return kept


def _score_repair_run(run: RepairRun, dataset: BenchmarkDataset) -> None:
    """Fill in the categorical / numerical repair scores in place."""
    assert run.result is not None
    repaired = run.result.repaired
    if repaired.n_rows == dataset.clean.n_rows:
        if dataset.clean.schema.categorical_names:
            scores = repair_scores_categorical(
                dataset.dirty, repaired, dataset.clean, dataset.error_cells
            )
            run.categorical_f1 = scores.f1
            run.categorical_precision = scores.precision
            run.categorical_recall = scores.recall
        if dataset.clean.schema.numerical_names:
            run.numerical_rmse = repair_rmse(repaired, dataset.clean)


@dataclass(frozen=True)
class _RepairShared(_StageShared):
    """Repair context.

    ``detections`` maps detector name -> *sorted tuple* of flagged cells;
    tuples keep pickling cheap and give every worker process the same
    canonical iteration order regardless of hash seed.
    """

    stage: ClassVar[str] = "repair"
    memo_kind: ClassVar[Optional[str]] = REPAIR_UNIT_KIND
    run_type: ClassVar[Any] = RepairRun

    repairs: Tuple[RepairMethod, ...]
    detections: Dict[str, Tuple[Cell, ...]]
    seed: int

    def provenance(self, spec: UnitSpec) -> Optional[Dict[str, Any]]:
        method = canonical_config(self.repairs[spec.params["position"]])
        if method is None:
            return None
        detector = spec.params["detector"]
        return {
            "detector": detector,
            "repair": spec.method,
            "method": method,
            "seed": self.seed,
            "detections": self.detection_digests[detector],
        }

    @cached_property
    def detection_digests(self) -> Dict[str, str]:
        """One digest per detection set, shared by its repair units."""
        return {
            name: _cells_digest(cells)
            for name, cells in self.detections.items()
        }

    def failure_context(self, spec: UnitSpec) -> Dict[str, Any]:
        return {
            "dataset": self.dataset.name,
            "detector": spec.params["detector"],
            "seed": self.seed,
        }

    def attempt(
        self, spec: UnitSpec, context: CleaningContext
    ) -> RepairResult:
        # Rebuilt by sorted insertion so iteration order is canonical in
        # every worker process.
        cells: Set[Cell] = set(self.detections[spec.params["detector"]])
        result = self.repairs[spec.params["position"]].repair(context, cells)
        validate_repair_result(result, self.dataset.dirty, cells)
        return result

    def succeeded(self, spec: UnitSpec, result: RepairResult) -> RepairRun:
        run = RepairRun(spec.params["detector"], spec.method, result)
        _score_repair_run(run, self.dataset)
        return run

    def failed(self, spec: UnitSpec, record: FailureRecord) -> RepairRun:
        return RepairRun(
            spec.params["detector"], spec.method, None, failure_record=record
        )


_REPAIR_ADAPTER = StageAdapter(
    stage=_RepairShared.stage,
    execute=_execute_unit,
    to_payload=RepairRun.to_payload,
    from_payload=RepairRun.from_payload,
    quarantine_skip=_quarantine_unit,
    lookup=_lookup_unit,
)


def run_repair_suite(
    dataset: BenchmarkDataset,
    detections_by_detector: Dict[str, Set[Cell]],
    repairs: Sequence[RepairMethod],
    seed: int = 0,
    deadline_seconds: Optional[float] = None,
    retry: Optional[RetryPolicy] = None,
    breaker: Optional[CircuitBreaker] = None,
    checkpoint: Optional[SuiteCheckpoint] = None,
    clock: Optional[Callable[[], float]] = None,
    sleep: Callable[[float], None] = time.sleep,
    executor=None,
    telemetry=None,
) -> List[RepairRun]:
    """Score every (detector, repair) combination on the dataset.

    Each combination runs under the same guards as the detection suite
    (deadline / retry / quarantine / checkpoint).  Repair outputs are
    additionally structure-validated: a misaligned or NaN-flooded table
    books a ``data``-category failure instead of being scored.
    ``executor`` selects the execution engine (None = serial reference);
    ``telemetry`` observes the stage without perturbing results.
    """
    repairs = tuple(repairs)
    shared = _RepairShared(
        dataset=dataset,
        deadline_seconds=deadline_seconds,
        retry=retry,
        clock=clock,
        sleep=sleep,
        repairs=repairs,
        detections={
            name: tuple(sorted(cells))
            for name, cells in detections_by_detector.items()
        },
        seed=seed,
        memo_suite=(
            _suite_memo_key(dataset) if current_cache() is not None else None
        ),
    )
    units = []
    for detector_name in sorted(detections_by_detector):
        for position, method in enumerate(repairs):
            units.append(
                UnitSpec(
                    len(units),
                    unit_key(
                        "repair",
                        dataset.name,
                        detector=detector_name,
                        repair=method.name,
                        seed=seed,
                    ),
                    method.name,
                    {"detector": detector_name, "position": position},
                )
            )
    plan = ExecutionPlan(_REPAIR_ADAPTER, shared, units)
    return _run_staged_plan(
        plan, telemetry, executor, checkpoint, breaker, dataset=dataset.name
    )


# ----------------------------------------------------------------------
# Modeling stage (scenarios)
# ----------------------------------------------------------------------
def estimate_n_clusters(
    features: np.ndarray, k_max: int = 8, seed: int = 0
) -> int:
    """Pick k by the Silhouette index (Section 6.1's clustering setup)."""
    from repro.ml.cluster import KMeans

    best_k, best_score = 2, -np.inf
    for k in range(2, min(k_max, len(features) - 1) + 1):
        model = KMeans(n_clusters=k, n_init=1, seed=seed)
        labels = model.fit_predict(features)
        score = silhouette_score(features, labels)
        if score > best_score:
            best_k, best_score = k, score
    return best_k


def _aligned_rows(
    variant: Table, clean: Table, kept_rows: Optional[Sequence[int]]
) -> Optional[Dict[int, int]]:
    """Map original row index -> variant row index, or None if unaligned."""
    if variant.n_rows == clean.n_rows:
        return {i: i for i in range(clean.n_rows)}
    if kept_rows is not None and len(kept_rows) == variant.n_rows:
        return {int(original): k for k, original in enumerate(kept_rows)}
    return None


def run_scenario(
    scenario: Union[str, Scenario],
    variant_table: Table,
    dataset: BenchmarkDataset,
    model_name: str,
    seed: int = 0,
    test_fraction: float = 0.25,
    kept_rows: Optional[Sequence[int]] = None,
    model_params: Optional[Dict[str, object]] = None,
    sample_rows: Optional[int] = None,
    tune_trials: Optional[int] = None,
) -> float:
    """Train/test one model under one scenario; return its metric.

    Returns macro-F1 (classification), RMSE (regression), or the Silhouette
    index (clustering).  ``kept_rows`` maps a shorter variant (Delete
    repair) back to the aligned ground-truth indices so train/test splits
    stay leakage-free.  ``sample_rows`` optionally subsamples for speed.
    ``tune_trials`` enables the paper's per-model hyperparameter search
    (the Optuna analogue) over an inner holdout of the training data
    before the final fit; None uses the zoo defaults.

    The call is a one-unit evaluation: under an installed artifact cache
    it reads and writes the entry (:data:`SCENARIO_UNIT_KIND`) that the
    model stage's unit with the same arguments would, and a hit returns
    the stored metric without splitting, encoding, tuning or fitting.
    """
    shared = _scenario_shared(
        dataset=dataset,
        deadline_seconds=None,
        retry=None,
        clock=None,
        sleep=time.sleep,
        variant_table=variant_table,
        model_name=model_name,
        kept_rows=kept_rows,
        sample_rows=sample_rows,
        test_fraction=test_fraction,
        model_params=model_params,
        tune_trials=tune_trials,
    )
    spec = UnitSpec(0, "", "", {"scenario": scenario, "seed": seed})
    read = shared.read_memo(spec)
    if read is not None and read.run is not None:
        return read.run.value
    run = ScenarioRun(shared.attempt(spec, None))
    if read is not None:
        shared.remember(read.key, run)
    return run.value


def _scenario_metric(
    shared: _ScenarioShared, scenario: Union[str, Scenario], seed: int
) -> float:
    """One (scenario, seed) unit's metric, computed (see
    :func:`run_scenario`)."""
    scenario = _as_scenario(scenario)
    dataset, variant_table = shared.dataset, shared.variant_table
    model_name, model_params = shared.model_name, shared.model_params
    sample_rows, tune_trials = shared.sample_rows, shared.tune_trials
    task = dataset.task
    if task is None:
        raise ValueError(f"dataset {dataset.name} has no associated ML task")
    clean = dataset.clean
    rng = np.random.default_rng(seed)
    if task == "clustering":
        train_table, _ = scenario.versions(variant_table, clean)
        encoder = TableEncoder()
        features = encoder.fit_transform(train_table)
        if sample_rows is not None and len(features) > sample_rows:
            picks = rng.choice(len(features), size=sample_rows, replace=False)
            features = features[picks]
        if tune_trials is not None and tune_trials > 0:
            raise ValueError(
                "tune_trials is not supported for clustering models; "
                "the cluster count is chosen by the Silhouette sweep"
            )
        spec = get_spec("clustering", model_name)
        params = dict(model_params or {})
        cluster_dims = [
            dim
            for dim in ("n_clusters", "n_components")
            if dim in spec.space.dimensions and dim not in params
        ]
        if cluster_dims:
            # One Silhouette sweep feeds every cluster-count dimension --
            # specs declaring both n_clusters and n_components used to pay
            # for the identical sweep twice.
            estimated = estimate_n_clusters(features, seed=seed)
            for dim in cluster_dims:
                params[dim] = estimated
        model = spec.build(**params)
        labels = model.fit_predict(features)
        return silhouette_score(features, labels)

    target = dataset.target
    assert target is not None
    mapping = _aligned_rows(variant_table, clean, shared.kept_rows)
    stratify = None
    if task == "classification":
        stratify = [str(v) for v in clean.column(target)]
    train_idx, test_idx = train_test_split(
        clean.n_rows, shared.test_fraction, rng=rng, stratify=stratify
    )
    if sample_rows is not None and len(train_idx) > sample_rows:
        train_idx = rng.choice(train_idx, size=sample_rows, replace=False)

    def resolve(table: Table, indices: np.ndarray) -> Table:
        if table is clean:
            return clean.select_rows(indices)
        if mapping is None:
            # Unaligned variant without kept_rows: fall back to its own rows.
            own = [i for i in indices if i < table.n_rows]
            return table.select_rows(own)
        rows = [mapping[int(i)] for i in indices if int(i) in mapping]
        return table.select_rows(rows)

    train_version, test_version = scenario.versions(variant_table, clean)
    train_table = resolve(train_version, train_idx)
    test_table = resolve(test_version, test_idx)
    if train_table.n_rows < 5 or test_table.n_rows < 2:
        return math.nan
    x_train, y_train, x_test, y_test, _ = encode_supervised(
        train_table, test_table, target, task
    )
    if tune_trials is not None and tune_trials > 0:
        model = _tuned_model(
            task, model_name, x_train, y_train, tune_trials, seed
        )
    else:
        model = build_model(task, model_name, **(model_params or {}))
    predictions = fit_predict(model, x_train, y_train, x_test)
    return _supervised_score(task, y_test, predictions)


def _as_scenario(scenario: Union[str, Scenario]) -> Scenario:
    """A scenario given by name or as itself (unknown name: KeyError)."""
    return get_scenario(scenario) if isinstance(scenario, str) else scenario


def _supervised_score(task: str, y_test: np.ndarray, predictions: Any) -> float:
    """Macro-F1 (classification) or RMSE (regression) of predictions."""
    if task == "classification":
        return f1_score(y_test, predictions)
    return rmse(y_test, predictions)


def _tuned_model(
    task: str,
    model_name: str,
    x_train: np.ndarray,
    y_train: np.ndarray,
    n_trials: int,
    seed: int,
):
    """Hyperparameter-tune a zoo model on an inner holdout.

    Returns the winning configuration *unfitted*; the caller fits it on
    the full training split.

    This is where REIN plugs Optuna in (Section 4); we use the TPE-style
    study of :mod:`repro.tuning` with the model's declared search space.
    """
    from repro.tuning.search import tune_estimator

    spec = get_spec(task, model_name)
    inner_train, inner_valid = train_test_split(
        len(x_train), 0.25, seed=seed
    )
    # spec.build drops placeholder "_"-prefixed dimensions, so the
    # returned winner is ready to fit.
    model, _ = tune_estimator(
        spec.build,
        spec.space,
        x_train[inner_train],
        y_train[inner_train],
        x_train[inner_valid],
        y_train[inner_valid],
        n_trials=n_trials,
        seed=seed,
    )
    return model


@dataclass
class ScenarioEvaluation:
    """Per-scenario score lists for one (variant, model) pair.

    ``failures`` explains every NaN score: it maps scenario name to
    ``{seed: FailureRecord}`` for the seeds whose run raised, so reports
    can say *why* a score is missing instead of showing an anonymous NaN.
    """

    dataset: str
    variant: str
    model: str
    scores: Dict[str, List[float]] = field(default_factory=dict)
    failures: Dict[str, Dict[int, FailureRecord]] = field(default_factory=dict)

    def mean(self, scenario_name: str) -> float:
        values = [v for v in self.scores.get(scenario_name, []) if not math.isnan(v)]
        return float(np.mean(values)) if values else math.nan

    def std(self, scenario_name: str) -> float:
        values = [v for v in self.scores.get(scenario_name, []) if not math.isnan(v)]
        return float(np.std(values)) if values else math.nan

    def ab_test(self, first: str = "S1", second: str = "S4") -> WilcoxonResult:
        """Wilcoxon signed-rank A/B test between two scenarios.

        Seeds where either run failed (NaN score) are dropped pairwise --
        one crashed S4 seed must not poison the whole statistic -- and the
        returned ``n_effective`` counts surviving pairs only.  Unknown
        scenario names raise :class:`ValueError` naming the evaluated
        scenarios, as does a comparison with no complete pairs left.
        """
        for name in (first, second):
            if name not in self.scores:
                known = ", ".join(sorted(self.scores)) or "none"
                raise ValueError(
                    f"unknown scenario {name!r}; evaluated scenarios: {known}"
                )
        pairs = [
            (a, b)
            for a, b in zip(self.scores[first], self.scores[second])
            if not (math.isnan(a) or math.isnan(b))
        ]
        if not pairs:
            raise ValueError(
                f"no complete score pairs between {first!r} and {second!r}: "
                "every seed failed in at least one of the two scenarios"
            )
        return wilcoxon_signed_rank(
            [a for a, _ in pairs], [b for _, b in pairs]
        )

    def record_failure(
        self, scenario_name: str, seed: int, record: FailureRecord
    ) -> None:
        self.failures.setdefault(scenario_name, {})[seed] = record

    def failure_reason(self, scenario_name: str, seed: int) -> str:
        """Human-readable reason a (scenario, seed) score is missing."""
        record = self.failures.get(scenario_name, {}).get(seed)
        return record.describe() if record is not None else ""

    def failure_summary(self) -> List[str]:
        """One line per failed (scenario, seed) run, sorted."""
        lines = []
        for name in sorted(self.failures):
            for seed in sorted(self.failures[name]):
                record = self.failures[name][seed]
                lines.append(
                    f"{name} seed={seed}: [{record.category}] "
                    f"{record.describe()}"
                )
        return lines


@dataclass
class ScenarioRun:
    """One (scenario, seed) unit's metric (NaN when the run failed)."""

    value: float
    failure_record: Optional[FailureRecord] = None

    @property
    def failed(self) -> bool:
        return self.failure_record is not None

    def to_payload(self) -> Dict[str, Any]:
        """Canonical JSON payload for checkpointing."""
        return {
            "value": self.value,
            "failure_record": _record_to_payload(self.failure_record),
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "ScenarioRun":
        return cls(
            nan_guard(payload["value"]),
            _record_from_payload(payload["failure_record"]),
        )


@dataclass(frozen=True)
class _ScenarioShared(_StageShared):
    """Per-evaluation context shipped to every (scenario, seed) unit."""

    stage: ClassVar[str] = "model"
    memo_kind: ClassVar[Optional[str]] = SCENARIO_UNIT_KIND
    run_type: ClassVar[Any] = ScenarioRun

    variant_table: Table
    model_name: str
    kept_rows: Optional[Tuple[int, ...]]
    sample_rows: Optional[int]
    test_fraction: float = 0.25
    model_params: Optional[Dict[str, object]] = None
    tune_trials: Optional[int] = None

    def evaluation_key(self) -> Optional[str]:
        """The memo key part every unit of the evaluation shares, or
        None (not memoized).

        It names the exact identity of the clean and variant tables, the
        target and task, the split spec, the zoo model name (it picks
        the tuning search space too), the model parameters (none when
        tuned) and ``tune_trials``.  Everything else a unit computes
        from is code, which every key names.  A unit reads neither the
        dirty table nor the error cells, so their digests stay out.
        """
        tuned = self.tune_trials is not None and self.tune_trials > 0
        tables = [
            table_identity(self.dataset.clean),
            table_identity(self.variant_table),
        ]
        evaluation = canonical_config([
            self.dataset.target,
            self.dataset.task,
            self.test_fraction,
            self.kept_rows,
            self.sample_rows,
            self.model_name,
            None if tuned else dict(self.model_params or {}),
            self.tune_trials if tuned else None,
        ])
        if None in tables or evaluation is None:
            return None
        return config_fingerprint({"tables": tables, "evaluation": evaluation})

    def provenance(self, spec: UnitSpec) -> Optional[Dict[str, Any]]:
        try:
            scenario = _as_scenario(spec.params["scenario"])
        except KeyError:
            return None  # the attempt raises it again, under the guard
        return {
            "scenario": [scenario.name, scenario.train, scenario.test],
            "seed": spec.params["seed"],
        }

    def within_budget(self, run: ScenarioRun) -> bool:
        """Always: a scenario run records no runtime to hold against a
        deadline."""
        return True

    def failure_context(self, spec: UnitSpec) -> Dict[str, Any]:
        return {
            "dataset": self.dataset.name,
            "scenario": spec.params["scenario"],
            "seed": spec.params["seed"],
        }

    def attempt(self, spec: UnitSpec, context: CleaningContext) -> float:
        return _scenario_metric(
            self, spec.params["scenario"], seed=spec.params["seed"]
        )

    def succeeded(self, spec: UnitSpec, value: float) -> ScenarioRun:
        return ScenarioRun(value)

    def failed(self, spec: UnitSpec, record: FailureRecord) -> ScenarioRun:
        return ScenarioRun(math.nan, record)


def _scenario_shared(
    kept_rows: Optional[Sequence[int]], **fields: Any
) -> _ScenarioShared:
    """An evaluation's shared context, with its memo key part built once
    when a cache is installed."""
    shared = _ScenarioShared(
        kept_rows=(
            None if kept_rows is None else tuple(int(i) for i in kept_rows)
        ),
        **fields,
    )
    if current_cache() is None:
        return shared
    return replace(shared, memo_suite=shared.evaluation_key())


_SCENARIO_ADAPTER = StageAdapter(
    stage=_ScenarioShared.stage,
    execute=_execute_unit,
    to_payload=ScenarioRun.to_payload,
    from_payload=ScenarioRun.from_payload,
    quarantine_skip=_quarantine_unit,
    lookup=_lookup_unit,
)


def evaluate_scenarios(
    dataset: BenchmarkDataset,
    variant_table: Table,
    variant_name: str,
    model_name: str,
    scenario_names: Sequence[str] = ("S1", "S4"),
    n_seeds: int = 5,
    kept_rows: Optional[Sequence[int]] = None,
    sample_rows: Optional[int] = None,
    deadline_seconds: Optional[float] = None,
    retry: Optional[RetryPolicy] = None,
    checkpoint: Optional[SuiteCheckpoint] = None,
    clock: Optional[Callable[[], float]] = None,
    sleep: Callable[[float], None] = time.sleep,
    executor=None,
    telemetry=None,
) -> ScenarioEvaluation:
    """Repeat scenario runs over seeds (the paper repeats 10x).

    A crashed (scenario, seed) run still contributes NaN to the score
    list -- but the reason is recorded as a categorized
    :class:`FailureRecord` in ``evaluation.failures`` instead of being
    silently swallowed.  With a ``checkpoint``, completed (scenario,
    seed) units are loaded from the store instead of re-executed.
    ``executor`` selects the execution engine (None = serial reference);
    ``telemetry`` observes the stage without perturbing results.
    """
    shared = _scenario_shared(
        dataset=dataset,
        deadline_seconds=deadline_seconds,
        retry=retry,
        clock=clock,
        sleep=sleep,
        variant_table=variant_table,
        model_name=model_name,
        kept_rows=kept_rows,
        sample_rows=sample_rows,
    )
    units = []
    for name in scenario_names:
        for seed in range(n_seeds):
            units.append(
                UnitSpec(
                    len(units),
                    unit_key(
                        "model",
                        dataset.name,
                        repair=variant_name,
                        model=model_name,
                        scenario=name,
                        seed=seed,
                    ),
                    f"{variant_name}:{model_name}",
                    {"scenario": name, "seed": seed},
                )
            )
    plan = ExecutionPlan(_SCENARIO_ADAPTER, shared, units)
    runs = _run_staged_plan(
        plan,
        telemetry,
        executor,
        checkpoint,
        None,
        dataset=dataset.name,
        variant=variant_name,
        model=model_name,
    )
    evaluation = ScenarioEvaluation(dataset.name, variant_name, model_name)
    for name in scenario_names:
        evaluation.scores[name] = []
    for spec, run in zip(units, runs):
        name = spec.params["scenario"]
        evaluation.scores[name].append(run.value)
        if run.failure_record is not None:
            evaluation.record_failure(
                name, spec.params["seed"], run.failure_record
            )
    return evaluation
