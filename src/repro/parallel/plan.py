"""Execution plans: the unit grid one suite stage is about to run.

A suite stage (detection, repair, scenario modeling) is a list of
independent *units* -- the same (dataset, stage, detector, repair, model,
scenario, seed) combinations the checkpoint layer keys by.  An
:class:`ExecutionPlan` captures that list declaratively:

- each :class:`UnitSpec` is a small, picklable description of one unit
  (its checkpoint key, the circuit-breaker method it belongs to, and the
  stage-specific parameters needed to execute it);
- the :class:`StageAdapter` supplies the stage's behaviour as
  module-level functions (execute a unit, serialize/deserialize its run
  object, build a quarantine-skip run, fold row-block runs, read the
  unit's memo entry), so the whole plan can cross a process boundary;
- ``shared`` carries the per-suite context every unit needs (the
  dataset, the tool pool, guard parameters) exactly once.

Executors in :mod:`repro.parallel.engine` consume plans; the driver
:func:`~repro.parallel.engine.execute_plan` merges completed units back
into canonical order so results are identical regardless of worker count
or completion order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple


@dataclass(frozen=True)
class UnitSpec:
    """One independent unit of suite work.

    Attributes:
        index: position in the plan's canonical (serial) order.
        key: the checkpoint unit key
            (:func:`repro.resilience.checkpoint.unit_key`).
        method: circuit-breaker method name this unit counts against;
            empty string opts the unit out of breaker bookkeeping.
        params: picklable stage-specific parameters (e.g. which detector
            slot to run, which (scenario, seed) pair to evaluate).
        blocks: ``[start, stop)`` row spans to shard the unit over
            (:func:`~repro.parallel.engine.block_spans`); empty runs the
            unit whole.  Each span executes as a sub-unit whose params
            carry ``"block": (start, stop)``, and the adapter's
            ``merge_blocks`` folds the span runs back into the unit's run.
        memo: the memo key the driver looked the unit up under (set by
            :func:`~repro.parallel.engine.execute_plan` from the
            adapter's ``lookup``); a miss stores its run there.
    """

    index: int
    key: str
    method: str
    params: Dict[str, Any] = field(default_factory=dict)
    blocks: Tuple[Tuple[int, int], ...] = ()
    memo: Optional[str] = None


@dataclass(frozen=True)
class MemoRead:
    """What a stage adapter's ``lookup`` found for one unit: its memo
    ``key`` and, on a hit, the stored ``run`` with the checkpoint
    ``payload`` it was decoded from (None on a miss)."""

    key: str
    run: Any = None
    payload: Optional[Dict[str, Any]] = None


def run_failure(run: Any) -> Optional[Any]:
    """The default ``failure_of``: the run's ``failure_record``."""
    return run.failure_record


@dataclass(frozen=True)
class StageAdapter:
    """A stage's unit-level behaviour, as picklable function references.

    Every callable must be a module-level function (or classmethod) so
    the adapter can be shipped to worker processes by reference.

    Attributes:
        stage: stage name ('detection' | 'repair' | 'model').
        execute: ``(shared, spec) -> run`` -- execute one unit and return
            its native run object.  Must never raise for tool failures
            (route them through ``guarded_call``); an exception here is a
            harness bug and aborts the suite, exactly like serial code.
        to_payload: ``(run) -> dict`` -- canonical JSON payload, the same
            one the checkpoint layer stores.
        from_payload: ``(dict) -> run`` -- inverse of ``to_payload``.
        quarantine_skip: ``(shared, spec, reason) -> run`` -- build the
            run object a serial suite would record when the unit's method
            is quarantined at the moment the unit is reached.
        failure_of: ``(run) -> Optional[FailureRecord]`` -- the failure
            record driving circuit-breaker bookkeeping (None = success);
            defaults to the run's ``failure_record`` attribute.
        merge_blocks: ``(shared, spec, runs) -> run`` -- fold the runs of
            a blocked unit's row spans (canonical span order) into the
            whole-unit run; required only when units carry ``blocks``.
        lookup: ``(shared, spec) -> Optional[MemoRead]`` -- read the
            unit's memo entry (None: the unit is not memoized).  Only
            :func:`~repro.parallel.engine.execute_plan` calls it, in the
            driver, so a hit is never dispatched to a worker.

    A run that exposes ``runtime_seconds`` reports it as the unit's
    honest elapsed time in the observability ledger's ``unit_finalized``
    events (and the runtime panels built from them).
    """

    stage: str
    execute: Callable[[Any, UnitSpec], Any]
    to_payload: Callable[[Any], Dict[str, Any]]
    from_payload: Callable[[Dict[str, Any]], Any]
    quarantine_skip: Callable[[Any, UnitSpec, str], Any]
    failure_of: Callable[[Any], Optional[Any]] = run_failure
    merge_blocks: Optional[Callable[[Any, UnitSpec, List[Any]], Any]] = None
    lookup: Optional[Callable[[Any, UnitSpec], Optional[MemoRead]]] = None


@dataclass(frozen=True)
class ExecutionPlan:
    """A stage adapter, its shared context, and the ordered unit grid."""

    adapter: StageAdapter
    shared: Any
    units: List[UnitSpec]

    def __post_init__(self) -> None:
        for position, spec in enumerate(self.units):
            if spec.index != position:
                raise ValueError(
                    f"unit at position {position} has index {spec.index}; "
                    "plan units must be listed in canonical order"
                )

    def __len__(self) -> int:
        return len(self.units)
