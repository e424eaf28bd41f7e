"""The SQLite checkpoint store plus the connection and JSON helpers
that the service queue and the event ledger share with it."""

from __future__ import annotations

import json
import math
import sqlite3
import time
from typing import Any, Callable, Dict, List, Optional, Set, Tuple, TypeVar, Union

import numpy as np

from repro.dataset.table import is_missing

#: Default time one connection waits for another's write lock before
#: surfacing SQLITE_BUSY.  Service workers hammer one queue/checkpoint
#: database concurrently, so the window is generous; one-shot CLI runs
#: never notice it.
BUSY_TIMEOUT_SECONDS = 5.0

_T = TypeVar("_T")


def connect(
    path: str,
    busy_timeout_seconds: float = BUSY_TIMEOUT_SECONDS,
    check_same_thread: bool = True,
) -> sqlite3.Connection:
    """Open one concurrency-hardened SQLite connection.

    Every store in the repository (and the service job queue built on
    top of it) goes through here so they share the same survival kit:
    WAL journal mode (readers never block the writer, a killed process
    leaves a recoverable log instead of a corrupt file), a
    ``busy_timeout`` so concurrent writers queue behind the lock instead
    of dying instantly with "database is locked", and ``synchronous
    NORMAL`` (durable at checkpoint boundaries, no fsync per statement).
    In-memory databases ignore the WAL pragma, which is harmless.
    """
    connection = sqlite3.connect(
        path, timeout=busy_timeout_seconds, check_same_thread=check_same_thread
    )
    connection.execute(
        f"PRAGMA busy_timeout={int(busy_timeout_seconds * 1000)}"
    )
    connection.execute("PRAGMA journal_mode=WAL")
    connection.execute("PRAGMA synchronous=NORMAL")
    return connection


def is_busy_error(exc: BaseException) -> bool:
    """True for SQLITE_BUSY / SQLITE_LOCKED shaped operational errors."""
    if not isinstance(exc, sqlite3.OperationalError):
        return False
    text = str(exc).lower()
    return "locked" in text or "busy" in text


def busy_retry(
    operation: Callable[[], _T],
    key: str = "sqlite",
    max_attempts: int = 4,
    sleep: Callable[[float], None] = time.sleep,
) -> _T:
    """Run one store operation, retrying SQLITE_BUSY contention.

    The busy timeout handles the common case; this guard covers the
    residue (lock acquired and released repeatedly under heavy worker
    concurrency).  Backoff delays come from the resilience layer's
    deterministic :class:`~repro.resilience.guards.RetryPolicy` schedule,
    and exhaustion re-raises as a taxonomy ``transient`` failure so
    callers under ``guarded_call`` classify (and may retry) it correctly.
    """
    # Imported lazily: repro.resilience.checkpoint imports this module,
    # so a module-level import here would be circular.
    from repro.resilience.failures import TransientError
    from repro.resilience.guards import RetryPolicy

    policy = RetryPolicy(max_attempts=max_attempts, base_delay=0.02)
    last: Optional[BaseException] = None
    for attempt in range(1, max_attempts + 1):
        try:
            return operation()
        except sqlite3.OperationalError as exc:
            if not is_busy_error(exc):
                raise
            last = exc
            if attempt < max_attempts:
                sleep(policy.delay(key, attempt))
    raise TransientError(
        f"database busy after {max_attempts} attempts: {last}"
    ) from last


def encode_cell_value(value: Any) -> Any:
    """Canonical JSON encoding of one table cell.

    Numpy scalars must map to their builtin equivalents -- ``np.int64``
    falling through to ``str`` used to round-trip integer cells as
    strings, silently corrupting reloaded numerical columns.
    """
    if is_missing(value):
        return None
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, (bool, int, float)):
        return value
    return str(value)


def sanitize_payload(value: Any) -> Any:
    """Replace NaN floats with None so payload JSON stays standard.

    ``json.dumps`` writes NaN as the non-standard ``NaN`` token, which
    external JSON tools reject.  Consumers restore missing scores with
    :func:`nan_guard`; legacy rows containing the literal token still
    parse (Python's reader accepts it), so both forms load.
    """
    if isinstance(value, float) and math.isnan(value):
        return None
    if isinstance(value, dict):
        return {key: sanitize_payload(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [sanitize_payload(item) for item in value]
    return value


def nan_guard(value: Optional[float]) -> float:
    """Restore a possibly-null JSON score to its in-memory NaN form."""
    return math.nan if value is None else value


#: Key of the one-entry JSON object that stands in for ``±inf`` in a
#: checkpoint payload; standard JSON has no infinity token.
_INFINITY_KEY = "$float"


def _tag_infinities(value: Any) -> Any:
    """Replace ``±inf`` floats by ``{"$float": "inf"}`` / ``"-inf"``."""
    if isinstance(value, float) and math.isinf(value):
        return {_INFINITY_KEY: repr(float(value))}
    if isinstance(value, dict):
        return {key: _tag_infinities(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_tag_infinities(item) for item in value]
    return value


def _untag_infinity(obj: Dict[str, Any]) -> Any:
    """``json.loads`` object hook reversing :func:`_tag_infinities`."""
    if len(obj) == 1 and _INFINITY_KEY in obj:
        return float(obj[_INFINITY_KEY])
    return obj


def encode_payload(payload: Dict[str, Any]) -> str:
    """A unit payload's stored JSON text (see :meth:`CheckpointStore.put`).

    Most payloads hold no NaN and no infinity and encode as they are;
    only one that fails ``allow_nan=False`` pays for the sanitizing walk
    over every value (a repaired table's cells included), which leaves
    NaN-free payloads unchanged, so the text is the same either way.
    """
    try:
        return json.dumps(payload, sort_keys=True, allow_nan=False)
    except ValueError:  # a NaN or an infinity
        pass
    clean = sanitize_payload(payload)
    try:
        return json.dumps(clean, sort_keys=True, allow_nan=False)
    except ValueError:  # an infinity: tag it and encode again
        return json.dumps(
            _tag_infinities(clean), sort_keys=True, allow_nan=False
        )


def decode_payload(text: str) -> Dict[str, Any]:
    """The payload :func:`encode_payload` wrote, infinities restored."""
    return json.loads(text, object_hook=_untag_infinity)


class CheckpointStore:
    """Per-unit experiment checkpoints enabling resumable suite runs.

    Each completed unit of work -- one (dataset, stage, detector, repair,
    scenario, seed) combination -- is stored as a canonical JSON payload
    keyed by ``(run_id, unit)``.  An interrupted suite re-run with the
    same run id loads finished units from here and executes only the
    remainder, reproducing the uninterrupted results exactly.

    The database runs in WAL mode (readers never block the writer) and
    may be shared by several writers, e.g. the service workers of
    ``repro serve --store``.  :meth:`put` only adds the serialized
    payload to an in-memory batch; :meth:`commit` writes the batch in
    one short transaction -- every ``commit_interval`` pending units,
    plus an explicit :meth:`commit` / :meth:`close` flush -- instead of
    paying one fsync per unit.  SQLite's single write lock is therefore
    held only for the length of a commit, never while units compute.
    Reads see pending rows, so ``get``/``units``/``count`` stay
    consistent mid-batch; rows not yet committed are lost if the
    process is killed.
    """

    def __init__(
        self, path: str = ":memory:", commit_interval: int = 64
    ) -> None:
        if commit_interval < 1:
            raise ValueError("commit_interval must be >= 1")
        self.commit_interval = commit_interval
        self._batch: Dict[Tuple[str, str], str] = {}
        self._connection = connect(path)
        self._connection.execute(
            """
            CREATE TABLE IF NOT EXISTS checkpoints (
                run_id TEXT NOT NULL,
                unit TEXT NOT NULL,
                payload_json TEXT NOT NULL,
                PRIMARY KEY (run_id, unit)
            )
            """
        )
        self._connection.commit()

    def _transaction(self, sql: str, rows: List[Tuple[str, ...]]) -> None:
        with self._connection:
            self._connection.executemany(sql, rows)

    def commit(self) -> None:
        """Write the pending batch to durable storage in one transaction.

        The write lock is taken and released inside this call.  Commits
        contend with concurrent service workers sharing one checkpoint
        database, so SQLITE_BUSY is retried before being surfaced as a
        transient failure; a failed attempt rolls back and keeps the
        batch, so the retry (or the next commit) writes the same rows.
        """
        rows = [(run, unit, text) for (run, unit), text in self._batch.items()]
        busy_retry(
            lambda: self._transaction(
                "INSERT OR REPLACE INTO checkpoints VALUES (?, ?, ?)", rows
            ),
            key="checkpoint-commit",
        )
        self._batch.clear()

    def close(self) -> None:
        try:
            if self._batch:
                self.commit()
        finally:
            self._connection.close()

    def __enter__(self) -> "CheckpointStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def put(
        self, run_id: str, unit: str, payload: Union[Dict[str, Any], str]
    ) -> None:
        """Insert or replace one completed unit's payload, or the text
        :func:`encode_payload` made of it (stored as it is).

        NaN scores are encoded as ``null`` (:func:`sanitize_payload`) and
        ``±inf`` values -- an infinite dirty cell a repair left alone, or
        the score computed from it -- as ``{"$float": "inf"}`` objects
        that :meth:`get` turns back into floats, so the stored text is
        standard JSON; ``allow_nan=False`` guarantees no non-standard
        token ever reaches disk, and a bad payload fails here rather
        than at commit.  A payload without an infinity encodes on the
        first attempt, untagged, so its stored bytes do not depend on
        this fallback.
        The text joins the in-memory batch (a later put of the same unit
        replaces it) and becomes durable at the next :meth:`commit`
        (automatic every ``commit_interval`` pending units).
        """
        self._batch[(run_id, unit)] = (
            payload if isinstance(payload, str) else encode_payload(payload)
        )
        if len(self._batch) >= self.commit_interval:
            self.commit()

    def get(self, run_id: str, unit: str) -> Optional[Dict[str, Any]]:
        """The stored payload for one unit, or None when not yet done."""
        text = self._batch.get((run_id, unit))
        if text is None:
            row = self._connection.execute(
                "SELECT payload_json FROM checkpoints "
                "WHERE run_id = ? AND unit = ?",
                (run_id, unit),
            ).fetchone()
            if row is None:
                return None
            text = row[0]
        return decode_payload(text)

    def _keys(self, run_id: Optional[str]) -> Set[Tuple[str, str]]:
        """Committed and pending ``(run_id, unit)`` keys of one or all runs."""
        if run_id is None:
            cursor = self._connection.execute(
                "SELECT run_id, unit FROM checkpoints"
            )
        else:
            cursor = self._connection.execute(
                "SELECT run_id, unit FROM checkpoints WHERE run_id = ?",
                (run_id,),
            )
        keys = set(cursor.fetchall())
        keys.update(k for k in self._batch if run_id in (None, k[0]))
        return keys

    def units(self, run_id: str) -> List[str]:
        """All completed unit keys for one run, sorted."""
        return sorted(unit for _, unit in self._keys(run_id))

    def clear_run(self, run_id: str) -> None:
        """Drop every checkpoint of one run (fresh, non-resumed start)."""
        self._batch = {k: t for k, t in self._batch.items() if k[0] != run_id}
        busy_retry(
            lambda: self._transaction(
                "DELETE FROM checkpoints WHERE run_id = ?", [(run_id,)]
            ),
            key="checkpoint-clear",
        )

    def count(self, run_id: Optional[str] = None) -> int:
        return len(self._keys(run_id))
