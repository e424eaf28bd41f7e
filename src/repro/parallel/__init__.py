"""Parallel execution engine for the benchmark unit grid.

REIN's evaluation is a Cartesian grid -- datasets x detectors x repairs
x models x scenarios x seeds -- whose units are independent given their
seeds.  This package shards that grid across worker processes and merges
the results deterministically: a run with ``--workers N`` produces
payloads identical to the serial run, for any N and any completion
order.

Layers:

- :mod:`repro.parallel.plan` -- :class:`UnitSpec` / :class:`StageAdapter`
  / :class:`ExecutionPlan`: the declarative, picklable description of one
  suite stage's unit grid;
- :mod:`repro.parallel.engine` -- :class:`SerialExecutor` (reference and
  default), :class:`ProcessPoolExecutor` (N workers over a result
  queue), and
  :func:`execute_plan`, the single-writer driver that expands blocked
  units into row-span sub-units and folds them back, replays
  circuit-breaker bookkeeping in canonical order and batches checkpoint
  commits.

The benchmark runner (:mod:`repro.benchmark.runner`) builds the plans;
callers opt into parallelism by passing ``executor=`` to the suite
functions or ``--workers N`` on the CLI.
"""

from repro.parallel.engine import (
    ProcessPoolExecutor,
    SerialExecutor,
    WorkerCrashError,
    adaptive_chunk_size,
    block_spans,
    block_unit_key,
    execute_plan,
    make_executor,
    null_sleep,
)
from repro.parallel.plan import ExecutionPlan, StageAdapter, UnitSpec

__all__ = [
    "ExecutionPlan",
    "ProcessPoolExecutor",
    "SerialExecutor",
    "StageAdapter",
    "UnitSpec",
    "WorkerCrashError",
    "adaptive_chunk_size",
    "block_spans",
    "block_unit_key",
    "execute_plan",
    "make_executor",
    "null_sleep",
]
