"""Content-addressed cache keys: table and configuration fingerprints.

The benchmark grid re-encodes the same table versions dozens of times
per suite (every scenario x seed x model unit re-featurizes its train
and test splits from scratch).  To memoize those artifacts safely, each
cache entry is keyed by *content*, never by identity: a SHA-256 over the
table's schema and canonicalized cell payloads, combined with a SHA-256
over the producing configuration (encoder settings, target column,
feature-family version).  Same content -> same key -> safe reuse; any
cell or config change -> a different key -> a clean miss.

:func:`canonical_cell` defines each cell's canonical form.  Every
explicit missing marker (``None``, NaN of any float type, ``"NA"`` ...)
maps to ``None``.  That is deliberate -- the encoding and featurization
paths treat all missing markers identically (``is_missing`` /
``coerce_float`` / one-hot key ``None``), so tables that differ only in
*which* missing marker they carry produce byte-identical artifacts and
may share a cache entry.

:func:`table_fingerprint` does not call it once per cell.  It reads each
column's memoized :class:`~repro.dataset.columnar.ColumnView` and
coarsens it: the view's kinds map to a ``uint8`` fingerprint tag lane
(missing, bool, int, float, str; big ints are ints), float cells hash as
their raw ``float64`` bytes, bools as bytes, ints as JSON text (exact at
any size) and strings with their lengths, each part length-framed.  The
missing-token check runs once per distinct string, and only "other"
cells (numpy scalars, arbitrary objects) go through
:func:`canonical_cell`.  Two tables share a fingerprint exactly when
their cells' canonical JSON is equal (``tests/oracles/cache.py`` is that
per-cell reference); unlike JSON, ``inf`` and ``-inf`` cells hash too.
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import Any, Iterator, Mapping, Sequence

import numpy as np

from repro.dataset.columnar import KIND_OTHER, KIND_TEXT, ColumnView
from repro.dataset.table import Table, is_missing

#: Bump when the key layout or canonical encodings change incompatibly.
CACHE_SCHEMA_VERSION = 2


def canonical_cell(value: Any) -> Any:
    """Reduce one cell payload to a JSON-stable canonical form.

    Missing markers collapse to ``None`` (see module docstring); ints,
    floats and numpy numbers map to exact builtin ``int``/``float``;
    anything else is stringified, matching how the encoders consume it.
    """
    if is_missing(value):
        return None
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        value = float(value)
        return None if math.isnan(value) else value
    return str(value)


_MISSING, _BOOL, _INT, _FLOAT, _STR, _OTHER = range(6)

#: Fingerprint tag of each column-view kind, in ``KIND_*`` order (none,
#: float, int, bool, text, big int, other): big ints are ints.
_TAG_OF_KIND = np.array(
    [_MISSING, _FLOAT, _INT, _BOOL, _STR, _INT, _OTHER], dtype=np.uint8
)


def _column_parts(view: ColumnView) -> Iterator[bytes]:
    """The byte parts that identify one column's canonical cells.

    The tag lane says which lane each cell's payload sits in, so the
    lanes need no per-cell framing: floats are fixed-width, ints are
    comma-joined JSON text and strings come with their lengths in code
    points.
    """
    text = np.flatnonzero(view.tags == KIND_TEXT)
    missing = np.array([is_missing(s) for s in view.strings], dtype=bool)
    blank = text[missing[view.bits[text]]]
    # Canonical forms of other cells are final: an object whose str()
    # is "NA" is not a missing marker, so they skip the check above.
    other = np.flatnonzero(view.tags == KIND_OTHER)
    if other.size:
        cells = view.cells.copy()
        cells[other] = np.fromiter(
            map(canonical_cell, cells[other]), dtype=object, count=other.size
        )
        view = ColumnView(cells)
    tags = _TAG_OF_KIND[view.tags]
    tags[blank] = _MISSING
    floats = np.flatnonzero(tags == _FLOAT)
    values = view.lane[floats]
    nan = np.isnan(values)
    if nan.any():
        tags[floats[nan]] = _MISSING
        values = values[~nan]
    texts = view.cells[tags == _STR].tolist()
    yield tags.tobytes()
    yield values.astype("<f8").tobytes()
    yield view.lane.view(np.int64)[tags == _BOOL].astype(np.bool_).tobytes()
    yield ",".join(map(str, view.cells[tags == _INT])).encode()
    yield np.fromiter(map(len, texts), "<i8", len(texts)).tobytes()
    yield "".join(texts).encode("utf-8", "surrogatepass")


def table_fingerprint(table: Table) -> str:
    """SHA-256 hex digest of a table's schema and cell contents.

    Column-by-column streaming keeps peak memory at one column's parts;
    the digest covers column names, declared kinds, row count, and every
    canonicalized cell in order (see module docstring).

    The digest is memoized on the table against its mutation counter
    (every ``set_cell`` bumps it), so re-fingerprinting an unchanged
    table between artifact lookups is O(1).
    """
    token = getattr(table, "_mutation_count", None)
    memo = table.__dict__.get("_fingerprint_memo")
    if memo is not None and token is not None and memo[0] == token:
        return memo[1]
    digest = hashlib.sha256()
    header = {
        "schema": [[c.name, c.kind] for c in table.schema.columns],
        "n_rows": table.n_rows,
    }
    digest.update(
        json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    )
    for name in table.schema.names:
        for part in _column_parts(table.column_view(name)):
            digest.update(len(part).to_bytes(8, "little"))
            digest.update(part)
    result = digest.hexdigest()
    if token is not None:
        table.__dict__["_fingerprint_memo"] = (token, result)
    return result


def table_block_fingerprint(table: Table, start: int, stop: int) -> str:
    """Content fingerprint of the row block ``[start, stop)`` of a table.

    The digest equals :func:`table_fingerprint` of the corresponding
    :meth:`~repro.dataset.table.Table.block_view`, so two blocks with
    identical schema and cell payloads share a fingerprint regardless of
    their row offsets or parent tables -- the property block-granular
    cache entries need.

    Memoization reuses the parent table's mutation counter: all block
    digests computed since the last ``set_cell`` are kept in a per-table
    memo dict keyed by ``(start, stop)`` and dropped wholesale when the
    counter moves, mirroring the whole-table ``_fingerprint_memo``.
    """
    token = getattr(table, "_mutation_count", None)
    memo = table.__dict__.get("_block_fingerprint_memo")
    if token is not None and memo is not None and memo[0] == token:
        cached = memo[1].get((start, stop))
        if cached is not None:
            return cached
    block = table.block_view(start, stop)
    result = table_fingerprint(block)
    if token is not None:
        if memo is None or memo[0] != token:
            memo = (token, {})
            table.__dict__["_block_fingerprint_memo"] = memo
        memo[1][(start, stop)] = result
    return result


def array_fingerprint(array: np.ndarray) -> str:
    """SHA-256 hex digest of an array's dtype, shape and raw bytes.

    Equality is bit equality: ``-0.0`` and ``0.0`` differ, NaNs with
    different payloads differ, and an ``int64`` array never matches the
    ``float64`` array of equal values.  A non-contiguous view hashes like
    its contiguous copy.  Object arrays hold pointers, not values, and
    are rejected with ``ValueError``.
    """
    array = np.asarray(array)
    if array.dtype.hasobject:
        raise ValueError("cannot fingerprint an object-dtype array")
    digest = hashlib.sha256()
    header = {
        "dtype": np.lib.format.dtype_to_descr(array.dtype),
        "shape": list(array.shape),
    }
    digest.update(json.dumps(header, sort_keys=True).encode())
    digest.update(np.ascontiguousarray(array).data)
    return digest.hexdigest()


def config_fingerprint(config: Mapping[str, Any]) -> str:
    """SHA-256 hex digest of a JSON-serializable configuration mapping."""
    text = json.dumps(
        {str(k): config[k] for k in config},
        sort_keys=True,
        separators=(",", ":"),
        allow_nan=False,
    )
    return hashlib.sha256(text.encode()).hexdigest()


def artifact_key(
    kind: str,
    tables: Sequence[str],
    config: Mapping[str, Any],
) -> str:
    """Canonical cache key for one artifact.

    ``kind`` names the artifact family (and should embed a version so
    kernel changes invalidate cleanly); ``tables`` are the input tables'
    :func:`table_fingerprint` digests in positional order; ``config`` is
    the producing configuration.
    """
    payload = json.dumps(
        {
            "schema": CACHE_SCHEMA_VERSION,
            "kind": kind,
            "tables": list(tables),
            "config": config_fingerprint(config),
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode()).hexdigest()
