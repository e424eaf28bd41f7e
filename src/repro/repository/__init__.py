"""Data repository: persistent storage for suite results.

Figure 1's architecture keeps the ground truth, the dirty data, and every
generated repaired version in a PostgreSQL repository that the evaluation
module also logs its results into.  Here one SQLite component fills that
role: the :class:`CheckpointStore` holds every repaired version (inside
each repair unit's payload) and every score.  The ground truth and the
dirty data are not stored, because ``repro.datagen.generate(name, rows,
seed)`` rebuilds both deterministically.
"""

from repro.repository.store import (
    BUSY_TIMEOUT_SECONDS,
    CheckpointStore,
    busy_retry,
    connect,
    is_busy_error,
)

__all__ = [
    "BUSY_TIMEOUT_SECONDS",
    "CheckpointStore",
    "busy_retry",
    "connect",
    "is_busy_error",
]
