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

:func:`table_fingerprint` does not call it once per cell.  It hashes
each column in one typed pass: a ``uint8`` tag lane (missing, bool,
int, float, str), the float cells' raw ``float64`` bytes, the bools,
the ints as JSON text (exact at any size) and the strings with their
lengths, each part length-framed.  Only cells of other types (numpy
scalars, arbitrary objects) go through :func:`canonical_cell` first.
Two tables share a fingerprint exactly when their cells' canonical JSON
is equal (``tests/oracles/cache.py`` is that per-cell reference); unlike
JSON, ``inf`` and ``-inf`` cells hash too.
"""

from __future__ import annotations

import hashlib
import json
import math
from itertools import repeat
from typing import Any, Iterator, Mapping, Sequence

import numpy as np

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

#: Tag of each builtin type whose cells skip :func:`canonical_cell`.
_TAGS = {type(None): _MISSING, bool: _BOOL, int: _INT, float: _FLOAT, str: _STR}


def _tag_lane(cells: Sequence[Any]) -> np.ndarray:
    return np.fromiter(
        map(_TAGS.get, map(type, cells), repeat(_OTHER)),
        dtype=np.uint8,
        count=len(cells),
    )


def _column_parts(column: np.ndarray) -> Iterator[bytes]:
    """The byte parts that identify one column's canonical cells.

    The tag lane says which lane each cell's payload sits in, so the
    lanes need no per-cell framing: floats are fixed-width, ints are
    comma-joined JSON text and strings come with their lengths in code
    points.
    """
    tags = _tag_lane(column)
    strings = np.flatnonzero(tags == _STR)
    if strings.size:
        values = column[strings].tolist()
        missing = {s: is_missing(s) for s in set(values)}
        if any(missing.values()):
            flags = np.fromiter(map(missing.__getitem__, values), bool, len(values))
            tags[strings[flags]] = _MISSING
    # Canonical strings of other cells are final: an object whose str()
    # is "NA" is not a missing marker, so they skip the check above.
    other = np.flatnonzero(tags == _OTHER)
    if other.size:
        canonical = [canonical_cell(v) for v in column[other]]
        column = column.copy()
        column[other] = canonical
        tags[other] = _tag_lane(canonical)
    floats = np.flatnonzero(tags == _FLOAT)
    values = column[floats].astype("<f8")
    nan = np.isnan(values)
    if nan.any():
        tags[floats[nan]] = _MISSING
        values = values[~nan]
    texts = column[tags == _STR].tolist()
    yield tags.tobytes()
    yield values.tobytes()
    yield column[tags == _BOOL].astype(np.bool_).tobytes()
    yield ",".join(map(str, column[tags == _INT])).encode()
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
        for part in _column_parts(table.column(name)):
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
