"""Worker frames are checkpoint text.

A pool worker encodes each unit's run once, with the checkpoint
layer's ``encode_payload``; the driver decodes that text as a resume
would and stores it as it is.  These tests pin what that means for the
payload values JSON cannot hold as they are: NaN scores and metadata
come back as a resumed run has them (scores through ``nan_guard``,
metadata as ``None``), ``±inf`` survives, and the pooled store text
equals the serial one under fork and spawn.
"""

import json
import math
import sqlite3

import pytest

from repro.benchmark.runner import DetectionRun, RepairRun, ScenarioRun
from repro.dataset import CATEGORICAL, NUMERICAL, Schema, Table
from repro.detectors.base import DetectionResult
from repro.metrics.detection import DetectionScores
from repro.parallel import (
    ExecutionPlan,
    ProcessPoolExecutor,
    StageAdapter,
    UnitSpec,
    execute_plan,
)
from repro.repair.base import RepairResult
from repro.resilience import SuiteCheckpoint

NAN, INF = math.nan, math.inf


def _detection_run(i):
    return DetectionRun(
        f"d{i}",
        DetectionResult(f"d{i}", frozenset({(i, "a"), (0, "b")}), 0.25),
        DetectionScores(NAN, INF, -INF, i, 0, 2),
    )


def _repair_run(i):
    schema = Schema.from_pairs([("a", NUMERICAL), ("b", CATEGORICAL)])
    table = Table(schema, {"a": [1.5, None, INF], "b": ["x", "NA", None]})
    metadata = {"nan": NAN, "inf": INF, "listed": [1.0, NAN], "n": i}
    return RepairRun(
        "d", f"r{i}", RepairResult(f"r{i}", table, 0.5, metadata),
        categorical_f1=NAN, numerical_rmse=INF,
    )


def _scenario_run(i):
    return ScenarioRun(NAN if i % 2 else -INF)


_RUNS = {"detection": _detection_run, "repair": _repair_run,
         "scenario": _scenario_run}


def _execute(shared, spec):
    return _RUNS[spec.params["kind"]](spec.params["i"])


def _to_payload(run):
    return run.to_payload()


def _from_payload(payload):
    if "cells" in payload:
        return DetectionRun.from_payload(payload)
    if "repair" in payload:
        return RepairRun.from_payload(payload)
    return ScenarioRun.from_payload(payload)


def _quarantine(shared, spec, reason):
    raise AssertionError("no unit is quarantined here")


_ADAPTER = StageAdapter(
    stage="detection",
    execute=_execute,
    to_payload=_to_payload,
    from_payload=_from_payload,
    quarantine_skip=_quarantine,
)


def _plan():
    units = [
        UnitSpec(n, f"frames/{kind}/{i}", f"{kind}{i}",
                 {"kind": kind, "i": i})
        for n, (kind, i) in enumerate(
            (kind, i) for kind in _RUNS for i in range(3)
        )
    ]
    return ExecutionPlan(_ADAPTER, {}, units)


def _exact(run):
    """The run's payload as JSON that tells NaN from None."""
    return json.dumps(run.to_payload(), sort_keys=True)


def _store_text(path):
    with sqlite3.connect(path) as connection:
        return connection.execute(
            "SELECT unit, payload_json FROM checkpoints ORDER BY unit"
        ).fetchall()


def _run(path, executor=None):
    with SuiteCheckpoint.open(str(path), "run", resume=True) as checkpoint:
        return execute_plan(_plan(), executor=executor, checkpoint=checkpoint)


@pytest.mark.parametrize("start_method", ["fork", "spawn"])
def test_pooled_runs_equal_resumed_runs_and_serial_store(
    tmp_path, start_method
):
    serial = _run(tmp_path / "serial.sqlite")
    with ProcessPoolExecutor(2, start_method=start_method) as executor:
        pooled = _run(tmp_path / "pooled.sqlite", executor)
    resumed = _run(tmp_path / "pooled.sqlite")

    assert [_exact(run) for run in pooled] == [_exact(run) for run in resumed]
    assert _store_text(tmp_path / "pooled.sqlite") == _store_text(
        tmp_path / "serial.sqlite"
    )
    assert [_exact(run) for run in _run(tmp_path / "serial.sqlite")] == [
        _exact(run) for run in resumed
    ]
    assert len(serial) == len(pooled) == 9

    detection, repair, scenario = pooled[0], pooled[3], pooled[7]
    assert math.isnan(detection.scores.precision)
    assert detection.scores.recall == INF and detection.scores.f1 == -INF
    metadata = repair.result.metadata
    assert metadata["nan"] is None and metadata["listed"] == [1.0, None]
    assert metadata["inf"] == INF
    assert math.isnan(repair.categorical_f1) and repair.numerical_rmse == INF
    assert math.isnan(scenario.value)
    assert pooled[6].value == -INF
