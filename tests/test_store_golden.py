"""Cross-version golden digests of canonical checkpoint stores.

Every other identity test compares two execution modes within one
version of the code (serial vs pooled, blocked vs unblocked, reference
vs vectorized kernels).  This one pins the bytes themselves: each suite
runs at a fixed small size, its checkpoint store is canonicalized (rows
ordered by unit key, payloads passed through
:func:`repro.service.jobs.strip_timing` so wall-clock fields drop out),
and the SHA-256 of that text must equal a recorded constant.

A refactor of the engine or the stage runners that changes any stored
byte -- a payload field, a failure record, a quarantine-skip record, a
``@rows`` sub-unit row or a merged blocked row -- fails here even if it
changes every mode the same way.  When a change to stored bytes is
intended, recompute the digests and say so in the change description.
"""

import hashlib
import json
import sqlite3

import pytest

from repro.benchmark import (
    evaluate_scenarios,
    run_detection_suite,
    run_repair_suite,
)
from repro.datagen import generate
from repro.detectors import (
    IQRDetector,
    MaxEntropyDetector,
    MVDetector,
    SDDetector,
)
from repro.parallel import ProcessPoolExecutor, null_sleep
from repro.repair import GroundTruthRepair, MeanModeImputeRepair
from repro.resilience import (
    CircuitBreaker,
    CorruptingRepair,
    CrashingDetector,
    SuiteCheckpoint,
)
from repro.service.jobs import strip_timing

#: Digests recorded from the canonical stores; see the module docstring.
GOLDEN = {
    "detection": (
        "927e4abdb4409393e716f5bdc71506fad81eca7a6666a663980feceba90599be"
    ),
    "detection-blocked": (
        "5f105e3b36b9a094229907cc64ebf41bd0824c1fff496116383eed7d044133f5"
    ),
    "repair": (
        "20c2c90d7383c90f9de422007619f2b9fe92130cbc620cca55d237424b3b5c0d"
    ),
    "model": (
        "a0d4421ed726bd5516d80b0fa8d184c0620401ba97f6df411a3b1b41f679848a"
    ),
}

#: 120 rows in blocks of 37 -> four blocks per blockwise detector.
BLOCK_ROWS = 37


def _dataset():
    return generate("SmartFactory", n_rows=120, seed=3)


def _store_digest(path: str) -> str:
    connection = sqlite3.connect(path)
    try:
        rows = connection.execute(
            "SELECT unit, payload_json FROM checkpoints ORDER BY unit"
        ).fetchall()
    finally:
        connection.close()
    canonical = [[unit, strip_timing(json.loads(text))] for unit, text in rows]
    text = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _detectors():
    return [
        MVDetector(),
        CrashingDetector(MemoryError, "boom"),
        SDDetector(3.0),
        IQRDetector(),
        MaxEntropyDetector(),
    ]


def _detection(checkpoint, executor, block_rows=None):
    run_detection_suite(
        _dataset(),
        _detectors(),
        sleep=null_sleep,
        breaker=CircuitBreaker(threshold=3),
        checkpoint=checkpoint,
        executor=executor,
        block_rows=block_rows,
    )


def _detection_blocked(checkpoint, executor):
    _detection(checkpoint, executor, block_rows=BLOCK_ROWS)


def _repair(checkpoint, executor):
    dataset = _dataset()
    detections = {
        name: detector._detect(dataset.context(seed=0))
        for name, detector in (
            ("MV", MVDetector()),
            ("SD", SDDetector(3.0)),
            ("IQR", IQRDetector()),
        )
    }
    run_repair_suite(
        dataset,
        detections,
        [
            CorruptingRepair(MeanModeImputeRepair(), mode="misalign"),
            GroundTruthRepair(),
        ],
        sleep=null_sleep,
        breaker=CircuitBreaker(threshold=2),
        checkpoint=checkpoint,
        executor=executor,
    )


def _model(checkpoint, executor):
    dataset = _dataset()
    evaluate_scenarios(
        dataset,
        dataset.dirty,
        "dirty",
        "DT",
        scenario_names=("S1", "S4"),
        n_seeds=2,
        sample_rows=60,
        sleep=null_sleep,
        checkpoint=checkpoint,
        executor=executor,
    )


SUITES = {
    "detection": _detection,
    "detection-blocked": _detection_blocked,
    "repair": _repair,
    "model": _model,
}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("suite", sorted(SUITES))
def test_store_matches_golden_digest(tmp_path, suite, workers):
    executor = (
        ProcessPoolExecutor(workers, start_method="fork")
        if workers > 1
        else None
    )
    path = str(tmp_path / f"{suite}-{workers}.sqlite")
    with SuiteCheckpoint.open(path, "golden", resume=False) as checkpoint:
        SUITES[suite](checkpoint, executor)
    assert _store_digest(path) == GOLDEN[suite]
