"""Columnar buffer codec: pack a Table into flat, shareable buffers.

The :class:`~repro.dataset.table.Table` substrate stores every column
as a numpy ``object`` array so dirty cells can hold anything a CSV can.
Object arrays cannot live in shared memory (they are arrays of heap
pointers), so crossing a process boundary without pickling requires a
*columnar* re-encoding into flat typed buffers:

- a ``uint8`` **kind tag** per cell (None / float / int / bool / text /
  big-int / other);
- one 8-byte **bit lane** per cell of a numeric-bearing column: float
  cells store their raw IEEE-754 bits (NaN payloads, ``inf`` and
  ``-0.0`` survive exactly), int and bool cells store int64 bits in the
  same lane via a dtype view -- so a column costs at most 9 bytes/cell
  regardless of how its types are mixed;
- an **interned UTF-8 string pool** shared by every column of the
  table: each distinct text payload is stored once in a blob, addressed
  by ``(offsets, code)`` -- repeated categorical values (the common case
  in REIN datasets) cost 8 bytes per occurrence; ints outside the int64
  range ride the pool as decimal text;
- a per-column **pickle fallback blob** for exotic payloads (numpy
  scalars, nested containers) so the codec is total over anything a
  generator or repair can produce.

The tags, the numeric lane and each column's distinct strings come from
the table's memoized :class:`~repro.dataset.columnar.ColumnView`, so
encoding packs lanes that are already built: it only merges each
column's distinct strings into the table pool, O(distinct) per column.
Decoding is vectorized (dtype views, ``tolist`` on the lanes,
object-array fancy indexing into the decoded pool) so workers do no
per-cell Python work on the hot path.
Decoded columns materialize lazily per column name, reading straight
out of the attached buffer -- the buffer views themselves are zero-copy
and ``writeable=False``, and the decoded table is read-only
(``set_cell`` raises), which is what makes sharing one segment between
many workers safe.

Round-trips are cell-for-cell *type- and bit-identical* (the property
suite in ``tests/test_dataplane.py`` proves it over adversarial
tables), so a suite run through the data plane sees exactly the cells a
serial run sees.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

import numpy as np

from repro.dataset.columnar import (
    KIND_BIGINT,
    KIND_BOOL,
    KIND_FLOAT,
    KIND_INT,
    KIND_OTHER,
    KIND_TEXT,
)
from repro.dataset.schema import Schema
from repro.dataset.table import Table

_CODEC_VERSION = 1


def _align8(offset: int) -> int:
    return (offset + 7) & ~7


@dataclass
class EncodedTable:
    """A packed table: a JSON-able layout plus the typed buffers.

    ``meta`` describes the layout (schema, per-column buffer indices,
    and each buffer's dtype/count/offset within one flat allocation);
    ``buffers`` are ordinary heap arrays positioned by
    :meth:`write_into` -- into a shared-memory segment, a ``bytearray``,
    an ``mmap``, anything exposing a writable buffer.
    """

    meta: Dict[str, Any]
    buffers: List[np.ndarray]

    @property
    def nbytes(self) -> int:
        return int(self.meta["nbytes"])

    def write_into(self, buf) -> None:
        """Copy every buffer to its packed offset inside ``buf``."""
        for arr, desc in zip(self.buffers, self.meta["buffers"]):
            if arr.nbytes == 0:
                continue
            flat = np.frombuffer(
                buf, dtype=np.uint8, count=arr.nbytes, offset=desc["offset"]
            )
            flat[:] = np.ascontiguousarray(arr).view(np.uint8)
            # Release the export before the caller closes the buffer.
            del flat


class _BufferRegistry:
    """Accumulates buffers and assigns 8-byte-aligned pack offsets."""

    def __init__(self) -> None:
        self.buffers: List[np.ndarray] = []
        self.descriptors: List[Dict[str, Any]] = []
        self._offset = 0

    def add(self, arr: np.ndarray) -> int:
        index = len(self.buffers)
        self._offset = _align8(self._offset)
        self.descriptors.append(
            {
                "dtype": arr.dtype.name,
                "count": int(arr.shape[0]),
                "offset": self._offset,
            }
        )
        self.buffers.append(arr)
        self._offset += arr.nbytes
        return index

    @property
    def nbytes(self) -> int:
        return self._offset


def encode_table(table: Table) -> EncodedTable:
    """Pack ``table`` into flat buffers (see the module docstring)."""
    registry = _BufferRegistry()
    # Text -> pool code, in first-occurrence order (dicts keep it).
    intern: Dict[str, int] = {}
    columns_meta: List[Dict[str, Any]] = []
    for name in table.schema.names:
        view = table.column_view(name)
        kinds = view.tags
        meta_col: Dict[str, Any] = {
            "name": name,
            "kinds": registry.add(kinds),
            "lane": None,
            "codes": None,
            "other": None,
        }
        numeric = (kinds >= KIND_FLOAT) & (kinds <= KIND_BOOL)
        if numeric.any():
            lane = view.lane.copy()
            lane.view(np.int64)[~numeric] = 0  # the view keeps codes there
            meta_col["lane"] = registry.add(lane)
        m_text = (kinds == KIND_TEXT) | (kinds == KIND_BIGINT)
        if m_text.any():
            pool_codes = np.fromiter(
                (intern.setdefault(text, len(intern)) for text in view.strings),
                dtype=np.int64,
                count=len(view.strings),
            )
            meta_col["codes"] = registry.add(pool_codes[view.bits[m_text]])
        m_other = kinds == KIND_OTHER
        if m_other.any():
            blob = pickle.dumps(
                view.cells[m_other].tolist(), protocol=pickle.HIGHEST_PROTOCOL
            )
            meta_col["other"] = registry.add(
                np.frombuffer(blob, dtype=np.uint8)
            )
        columns_meta.append(meta_col)
    uniques = list(intern)
    # surrogatepass: lone surrogates are legal str cells, not valid UTF-8.
    encoded_uniques = [
        text.encode("utf-8", "surrogatepass") for text in uniques
    ]
    pool_offsets = np.zeros(len(uniques) + 1, dtype=np.int64)
    if uniques:
        np.cumsum(
            [len(piece) for piece in encoded_uniques], out=pool_offsets[1:]
        )
    pool_blob = np.frombuffer(b"".join(encoded_uniques), dtype=np.uint8)
    meta: Dict[str, Any] = {
        "version": _CODEC_VERSION,
        "schema": [[c.name, c.kind] for c in table.schema.columns],
        "n_rows": table.n_rows,
        "columns": columns_meta,
        "pool": {
            "blob": registry.add(pool_blob),
            "offsets": registry.add(pool_offsets),
            "count": len(uniques),
        },
        "buffers": registry.descriptors,
        "nbytes": max(1, registry.nbytes),
    }
    return EncodedTable(meta=meta, buffers=registry.buffers)


class _LazyColumns(dict):
    """Column dict that decodes a column on first access.

    :class:`~repro.dataset.table.Table` reaches its columns by name
    (``self._data[name]``); unknown names raise ``KeyError`` exactly
    like a plain dict so ``Table.column`` keeps its error message.
    """

    def __init__(self, decode) -> None:
        super().__init__()
        self._decode = decode

    def __missing__(self, name: str) -> np.ndarray:
        arr = self._decode(name)
        self[name] = arr
        return arr


class _PoolDecoder:
    """Decodes the interned string pool once, on first text column."""

    def __init__(self, buffers: List[np.ndarray], pool_meta: Dict[str, Any]):
        self._buffers = buffers
        self._meta = pool_meta
        self._strings: Optional[np.ndarray] = None

    def strings(self) -> np.ndarray:
        if self._strings is None:
            blob = self._buffers[self._meta["blob"]]
            offsets = self._buffers[self._meta["offsets"]]
            data = blob.tobytes()
            decoded = np.empty(self._meta["count"], dtype=object)
            for k in range(self._meta["count"]):
                decoded[k] = data[offsets[k] : offsets[k + 1]].decode(
                    "utf-8", "surrogatepass"
                )
            self._strings = decoded
        return self._strings


def decode_table(meta: Dict[str, Any], buf, keepalive: Any = None) -> Table:
    """Attach packed buffers as a read-only table.

    ``buf`` is any object exposing the buffer protocol over the bytes
    :meth:`EncodedTable.write_into` produced -- typically a
    shared-memory segment's ``.buf``.  The typed buffer views are
    zero-copy and ``writeable=False``; object columns materialize
    lazily, per column, straight out of those views.  ``keepalive`` is
    pinned on the returned table so a memory-mapped ``buf`` outlives
    every view (see :mod:`repro.dataplane.segments`).
    """
    if meta["version"] != _CODEC_VERSION:
        raise ValueError(
            f"unsupported dataplane codec version {meta['version']!r}"
        )
    buffers: List[np.ndarray] = []
    for desc in meta["buffers"]:
        view = np.frombuffer(
            buf,
            dtype=np.dtype(desc["dtype"]),
            count=desc["count"],
            offset=desc["offset"],
        )
        view.flags.writeable = False
        buffers.append(view)
    pool = _PoolDecoder(buffers, meta["pool"])
    n = int(meta["n_rows"])
    by_name = {col["name"]: col for col in meta["columns"]}

    def decode_column(name: str) -> np.ndarray:
        meta_col = by_name[name]  # KeyError for unknown names, as Table expects
        kinds = buffers[meta_col["kinds"]]
        out = np.empty(n, dtype=object)  # object cells default to None
        if meta_col["lane"] is not None:
            lane = buffers[meta_col["lane"]]
            lane_bits = lane.view(np.int64)
            mask = kinds == KIND_FLOAT
            if mask.any():
                out[mask] = lane[mask].tolist()
            mask = kinds == KIND_INT
            if mask.any():
                out[mask] = lane_bits[mask].tolist()
            mask = kinds == KIND_BOOL
            if mask.any():
                out[mask] = lane_bits[mask].astype(bool).tolist()
        mask = (kinds == KIND_TEXT) | (kinds == KIND_BIGINT)
        if mask.any():
            codes = buffers[meta_col["codes"]]
            out[mask] = pool.strings()[codes]
            big = np.flatnonzero(kinds == KIND_BIGINT)
            for i in big:
                out[i] = int(out[i])
        mask = kinds == KIND_OTHER
        if mask.any():
            values = pickle.loads(buffers[meta_col["other"]].tobytes())
            cells = np.empty(len(values), dtype=object)
            cells[:] = values
            out[mask] = cells
        out.flags.writeable = False
        return out

    schema = Schema.from_pairs(meta["schema"])
    table = Table._wrap_arrays(
        schema, _LazyColumns(decode_column), n, readonly=True
    )
    if keepalive is not None:
        table._dataplane_keepalive = keepalive
    return table
