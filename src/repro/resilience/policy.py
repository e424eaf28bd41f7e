"""The suite-level resilience policy: one object to thread everywhere.

Bundles the knobs of the resilience layer (per-stage deadline budget,
retry policy, circuit-breaker threshold, checkpoint store location and
resume behaviour) so :func:`repro.benchmark.config.run_experiment` and
the CLI can accept a single argument instead of six.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.parallel.engine import make_executor
from repro.resilience.checkpoint import SuiteCheckpoint, run_id_for
from repro.resilience.guards import CircuitBreaker, RetryPolicy


@dataclass
class ResiliencePolicy:
    """Configuration for guarded, checkpointed suite execution.

    Attributes:
        deadline_seconds: per-stage wall-clock budget (None = unlimited).
        retry: retry policy for transient failures (None = no retries).
        breaker_threshold: consecutive failures before a method is
            quarantined for the rest of the run (None = never).
        store_path: SQLite checkpoint database (None = no checkpointing).
        resume: keep existing checkpoints for this run id and skip the
            completed units; False wipes them for a fresh start.
        run_id: explicit run id; None derives one from the experiment
            configuration (same config -> same run).
        workers: worker processes for the execution engine (1 = serial
            reference; N > 1 shards the unit grid across N processes
            with results identical to serial).
        clock / sleep: injectable time sources so chaos tests can drive
            deterministic timing.
    """

    deadline_seconds: Optional[float] = None
    retry: Optional[RetryPolicy] = None
    breaker_threshold: Optional[int] = None
    store_path: Optional[str] = None
    resume: bool = False
    run_id: Optional[str] = None
    workers: int = 1
    clock: Optional[Callable[[], float]] = None
    sleep: Callable[[float], None] = field(default=time.sleep)

    def make_breaker(self) -> Optional[CircuitBreaker]:
        if self.breaker_threshold is None:
            return None
        return CircuitBreaker(threshold=self.breaker_threshold)

    def make_executor(self):
        """Executor implied by ``workers`` (None = serial reference)."""
        return make_executor(self.workers)

    def open_checkpoint(self, *run_id_parts: object) -> Optional[SuiteCheckpoint]:
        """Open this policy's checkpoint view, or None when disabled."""
        if self.store_path is None:
            return None
        run_id = self.run_id or run_id_for(*run_id_parts)
        return SuiteCheckpoint.open(
            self.store_path, run_id, resume=self.resume
        )
