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

Keys that must name *exactly* what a computation read use the finer
forms below: :func:`table_identity` (a table's type tags and raw bits,
so missing markers stay apart) and :func:`canonical_config` (a method's
class and configuration, equal in every process).

Every key names the code that computed its entry: :func:`artifact_key`
hashes :func:`source_digest` (the package's own sources) and numpy's
version into each one, so an edit to any ``repro`` source retires
every entry of every kind.  Nothing else in the package names them.
"""

from __future__ import annotations

import enum
import functools
import hashlib
import json
import math
import types
from pathlib import Path
from typing import (
    Any,
    Iterable,
    Iterator,
    Mapping,
    Optional,
    Sequence,
)

import numpy as np

from repro.dataset.columnar import KIND_OTHER, KIND_TEXT, ColumnView
from repro.dataset.table import Table, is_missing


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
        _framed(digest, _column_parts(table.column_view(name)))
    result = digest.hexdigest()
    if token is not None:
        table.__dict__["_fingerprint_memo"] = (token, result)
    return result


def _framed(digest: "hashlib._Hash", parts: Iterable[bytes]) -> None:
    """Feed each part to ``digest`` behind its 8-byte length."""
    for part in parts:
        digest.update(len(part).to_bytes(8, "little"))
        digest.update(part)


def _identity_parts(view: ColumnView) -> Iterator[bytes]:
    """A column's exact cells: tags, raw 8-byte lane, strings."""
    strings = view.strings
    yield view.tags.tobytes()
    yield view.bits.astype("<i8").tobytes()
    yield np.fromiter(map(len, strings), "<i8", len(strings)).tobytes()
    yield "".join(strings).encode("utf-8", "surrogatepass")


def table_identity(table: Table) -> Optional[str]:
    """Exact SHA-256 identity of a table's schema and cells, or None.

    Finer than :func:`table_fingerprint`: it hashes each column view as
    it is -- type tags, the 8-byte lane (raw float bits, int and bool
    values, string indices) and the distinct strings -- so ``None``,
    NaN and ``"NA"`` differ, as do ``-0.0`` and ``0.0``, ``1`` and
    ``True``, and NaN payloads.  That is the identity a tool's output
    can depend on.  Other cells (numpy scalars, arbitrary objects) have
    no exact byte form: a table holding one has no identity.  Memoized
    on the table like the fingerprint.
    """
    token = getattr(table, "_mutation_count", None)
    memo = table.__dict__.get("_identity_memo")
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
    result: Optional[str] = None
    views = [table.column_view(name) for name in table.schema.names]
    if not any((view.tags == KIND_OTHER).any() for view in views):
        for view in views:
            _framed(digest, _identity_parts(view))
        result = digest.hexdigest()
    if token is not None:
        table.__dict__["_identity_memo"] = (token, result)
    return result


#: The package whose sources :func:`source_digest` covers.
_PACKAGE_ROOT = Path(__file__).resolve().parent.parent


@functools.lru_cache(maxsize=None)
def source_digest() -> str:
    """SHA-256 over every Python source of the ``repro`` package (its
    relative paths and bytes), computed once per process.

    :func:`artifact_key` names it in every key, so a cache entry can
    never outlive the code that computed it.
    """
    digest = hashlib.sha256()
    paths = sorted(
        (path.relative_to(_PACKAGE_ROOT).as_posix(), path)
        for path in _PACKAGE_ROOT.rglob("*.py")
    )
    for relative, path in paths:
        _framed(digest, (relative.encode(), path.read_bytes()))
    return digest.hexdigest()


class _NotCanonical(Exception):
    """A value with no canonical configuration form."""


def _qualified(obj: Any) -> str:
    """``module:qualname`` of a package-level class or function."""
    module = getattr(obj, "__module__", None) or ""
    qualname = getattr(obj, "__qualname__", "")
    if not (module == "repro" or module.startswith("repro.")):
        raise _NotCanonical(obj)
    if "<" in qualname:  # <lambda>, <locals>: not importable by name
        raise _NotCanonical(obj)
    return f"{module}:{qualname}"


def _canonical(value: Any) -> Any:
    kind = type(value)
    if value is None or kind in (bool, int, str):
        return value
    if kind is float:
        return value if math.isfinite(value) else ["float", repr(value)]
    if kind in (list, tuple):
        return [kind.__name__, [_canonical(v) for v in value]]
    if kind in (set, frozenset):
        items = [_canonical(v) for v in value]
        return [kind.__name__, sorted(items, key=_json_text)]
    if kind is dict:
        items = [[_canonical(k), _canonical(v)] for k, v in value.items()]
        return ["dict", sorted(items, key=lambda kv: _json_text(kv[0]))]
    if kind is functools.partial:
        return [
            "partial",
            _canonical(value.func),
            _canonical(value.args),
            _canonical(value.keywords),
        ]
    if isinstance(value, type):
        return ["class", _qualified(value)]
    if kind is types.FunctionType:
        return ["function", _qualified(value)]
    if isinstance(value, enum.Enum):
        return ["enum", _qualified(kind), value.name]
    state = getattr(value, "__dict__", None)
    if state is None:
        raise _NotCanonical(value)
    # Trailing-underscore attributes are fitted state (the sklearn
    # convention): a run overwrites them, they configure nothing.
    config = {k: v for k, v in state.items() if not k.endswith("_")}
    return ["object", _qualified(kind), _canonical(config)]


def _json_text(value: Any) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def canonical_config(value: Any) -> Optional[Any]:
    """A JSON form naming exactly what configures ``value``, or None.

    Scalars stay themselves (non-finite floats become tagged strings);
    containers become ``[type, items]`` with sets and dicts sorted by
    the canonical text of their items; a class or function is its
    ``module:qualname``; a ``functools.partial`` its function and
    arguments; any other object its class plus the canonical form of
    its instance attributes (fitted, ``_``-suffixed ones excluded) --
    which recurses into nested detectors and factories.  Classes and
    functions must be importable from the ``repro`` package, whose
    sources :func:`source_digest` covers: a lambda, a ``<locals>``
    function, anything defined elsewhere, or an object without
    attributes (a numpy generator, say) has no canonical form.  No
    address or hash-seed-dependent order enters it, so it is equal in
    every process.
    """
    try:
        return _canonical(value)
    except (_NotCanonical, RecursionError):  # RecursionError: a cycle
        return None


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

    ``kind`` names the artifact family and the layout of its entries
    (``@vN``: bump it when the arrays or meta an entry holds change);
    ``tables`` are the input tables' digests in positional order;
    ``config`` is the producing configuration.  The key also names
    :func:`source_digest` and numpy's version, so no entry outlives the
    code that computed it: that is the one invalidation rule, and no
    kind needs a bump when its output changes.
    """
    payload = json.dumps(
        {
            "kind": kind,
            "tables": list(tables),
            "config": config_fingerprint(config),
            "source": source_digest(),
            "numpy": np.__version__,
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode()).hexdigest()
