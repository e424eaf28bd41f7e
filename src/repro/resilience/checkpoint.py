"""Checkpointed, resumable benchmark runs.

Every unit of suite work -- one (dataset, stage, detector, repair,
model, scenario, seed) combination -- gets a canonical string key and a
JSON payload stored in the SQLite
:class:`~repro.repository.store.CheckpointStore`.  A suite launched with
the same run id skips completed units by loading their payloads, so an
interrupted run resumes exactly where it stopped and reproduces the
uninterrupted results.

Run ids are content-addressed (:func:`run_id_for` hashes the experiment
configuration), which makes "same config -> same run" automatic and
guards against resuming into a different experiment's checkpoints.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, List, Optional

from repro.dataset.schema import Schema
from repro.dataset.table import Table
from repro.metrics.detection import DetectionScores
from repro.repository.store import CheckpointStore, encode_cell_value, nan_guard


def unit_key(
    stage: str,
    dataset: str,
    detector: str = "",
    repair: str = "",
    model: str = "",
    scenario: str = "",
    seed: int = 0,
) -> str:
    """Canonical key for one unit of suite work."""
    parts = (stage, dataset, detector, repair, model, scenario, str(seed))
    for part in parts:
        if "/" in part:
            raise ValueError(f"unit key component may not contain '/': {part!r}")
    return "/".join(parts)


def _canonical_structure(value: Any) -> Any:
    """Reduce a configuration value to a JSON-stable canonical form.

    Strings, numbers, bools and None pass through (so ``"1"`` and ``1``
    stay distinct); dicts canonicalize recursively with string keys
    (``json.dumps(sort_keys=True)`` then fixes the ordering); lists and
    tuples keep their element structure instead of collapsing to
    ``str(...)``; sets are sorted for determinism.  Anything else is
    tagged with its type name so distinct objects with equal reprs do
    not collide.
    """
    if isinstance(value, dict):
        return {str(k): _canonical_structure(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical_structure(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted((_canonical_structure(v) for v in value), key=repr)
    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    return f"{type(value).__name__}:{value!r}"


def run_id_for(*parts: Any) -> str:
    """Content-addressed run id from the canonical JSON of the parts.

    Hashing the *structure* (not ``str(part)``) keeps distinct
    configurations distinct: ``run_id_for(["a", "b"])`` no longer
    collides with ``run_id_for("['a', 'b']")``, and dicts hash the same
    regardless of insertion order -- two different experiment configs can
    never silently share checkpoints.
    """
    text = json.dumps(
        [_canonical_structure(p) for p in parts],
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# ----------------------------------------------------------------------
# Table / scores payload helpers (shared by the runner's serializers)
# ----------------------------------------------------------------------
def table_to_payload(table: Table) -> Dict[str, Any]:
    return {
        "schema": [[c.name, c.kind] for c in table.schema.columns],
        "rows": [
            [encode_cell_value(v) for v in table.row(i)]
            for i in range(table.n_rows)
        ],
    }


def table_from_payload(payload: Dict[str, Any]) -> Table:
    schema = Schema.from_pairs([tuple(pair) for pair in payload["schema"]])
    return Table.from_rows(schema, payload["rows"])


def scores_to_payload(scores: DetectionScores) -> Dict[str, Any]:
    return {
        "precision": scores.precision,
        "recall": scores.recall,
        "f1": scores.f1,
        "true_positives": scores.true_positives,
        "false_positives": scores.false_positives,
        "false_negatives": scores.false_negatives,
    }


def scores_from_payload(payload: Dict[str, Any]) -> DetectionScores:
    # Float fields may come back as null when a NaN score was stored
    # (standard-JSON payload hygiene); restore them explicitly.
    restored = dict(payload)
    for name in ("precision", "recall", "f1"):
        restored[name] = nan_guard(restored[name])
    return DetectionScores(**restored)


class SuiteCheckpoint:
    """One run's view over a :class:`CheckpointStore`.

    The runner asks :meth:`get` before executing a unit and :meth:`put`
    after; everything else (connection lifetime, fresh-vs-resume) is the
    caller's policy.
    """

    def __init__(self, store: CheckpointStore, run_id: str) -> None:
        self.store = store
        self.run_id = run_id

    @classmethod
    def open(
        cls, path: str, run_id: str, resume: bool = True
    ) -> "SuiteCheckpoint":
        """Open (and on ``resume=False`` reset) a run's checkpoints."""
        store = CheckpointStore(path)
        if not resume:
            store.clear_run(run_id)
        return cls(store, run_id)

    def get(self, unit: str) -> Optional[Dict[str, Any]]:
        return self.store.get(self.run_id, unit)

    def put(self, unit: str, payload: Dict[str, Any]) -> None:
        self.store.put(self.run_id, unit, payload)

    def flush(self) -> None:
        """Commit the store's batched writes (suite sync points)."""
        self.store.commit()

    def completed_units(self) -> List[str]:
        return self.store.units(self.run_id)

    def close(self) -> None:
        self.store.close()

    def __enter__(self) -> "SuiteCheckpoint":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
