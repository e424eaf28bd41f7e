"""Per-cell reference for :func:`repro.cache.keys.table_fingerprint`.

The production fingerprint hashes each column in one typed pass.  This
is the per-cell definition it must agree with: every cell reduced by
:func:`repro.cache.keys.canonical_cell`, each column written as one JSON
list.  Two tables share a production fingerprint exactly when this
reference gives them equal digests.  Infinite floats are the one
exception: JSON has no spelling for them, so the reference raises
``ValueError`` where production hashes their bits.
"""

from __future__ import annotations

import hashlib
import json

from repro.cache.keys import canonical_cell
from repro.dataset.table import Table


def reference_table_fingerprint(table: Table) -> str:
    """SHA-256 over the schema header and each column's canonical JSON."""
    digest = hashlib.sha256()
    header = {
        "schema": [[c.name, c.kind] for c in table.schema.columns],
        "n_rows": table.n_rows,
    }
    digest.update(
        json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    )
    for name in table.schema.names:
        cells = [canonical_cell(v) for v in table.column(name)]
        digest.update(
            json.dumps(cells, separators=(",", ":"), allow_nan=False).encode()
        )
    return digest.hexdigest()
