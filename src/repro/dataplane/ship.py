"""Shipping a stage's shared context across process boundaries.

A stage's ``plan.shared`` is an arbitrary picklable object (frozen
dataclasses like the runner's ``_DetectionShared``) whose bulk is the
:class:`~repro.dataset.table.Table` instances buried inside it.  The
data plane splits the two concerns:

- :func:`pack_shared` pickles the context into a small **shell**, but a
  custom ``persistent_id`` hook swaps every ``Table`` it meets for a
  reference -- the table itself is packed once (deduplicated by
  identity, so ``dataset.dirty`` reused as a scenario's
  ``variant_table`` ships a single segment) through the columnar codec
  into a shared-memory segment owned by the caller's
  :class:`~repro.dataplane.segments.SegmentManager`.
- :func:`attach_shipment` unpickles the shell in a worker, resolving
  each reference by attaching the named segment read-only and decoding
  it lazily (``persistent_load``).  Attaches are memoized per process,
  so every unit a worker runs -- and every *column* access inside a
  unit -- reads the same mapped bytes.  A long-lived worker moving on
  to the next plan calls :func:`release_attached`, so the previous
  plan's (already unlinked) mappings can be reclaimed.

The context must pickle: a :class:`SharedShipment` is bytes, and it
crosses into pool workers that already exist, for every start method.
An unpicklable context raises :class:`TypeError` at pack time.

``pack_shared(..., share_tables=False)`` keeps tables inline in the
shell (the legacy whole-pickle behavior); the speed benchmark uses it
as its baseline, and it documents exactly what the data plane removes
from the dispatch path.
"""

from __future__ import annotations

import io
import pickle
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from repro.dataplane.codec import decode_table, encode_table
from repro.dataplane.segments import SegmentManager, attach_buffer
from repro.dataset.table import Table

#: Tag inside pickle persistent ids, so a stray persistent id from
#: anything else fails loudly instead of resolving to a wrong table.
_PERSISTENT_TAG = "repro.dataplane:table"


@dataclass(frozen=True)
class TableHandle:
    """One packed table: the segment holding it plus its codec layout."""

    segment: str
    meta: Dict[str, Any]

    @property
    def nbytes(self) -> int:
        return int(self.meta["nbytes"])


@dataclass(frozen=True)
class SharedShipment:
    """What actually crosses the process boundary for ``plan.shared``.

    ``shell`` is the pickled context with tables swapped for handle
    references; ``handles`` are the packed tables in reference order.
    ``pickle.dumps(shipment)`` is the per-worker shipping cost, which is
    why the shipment carries bytes accounting for the telemetry
    counters.
    """

    shell: bytes
    handles: Tuple[TableHandle, ...] = field(default_factory=tuple)

    @property
    def shipped_bytes(self) -> int:
        """Bytes pickled per worker (the shell + tiny handle metas)."""
        return len(self.shell) + sum(
            len(pickle.dumps(handle, protocol=pickle.HIGHEST_PROTOCOL))
            for handle in self.handles
        )

    @property
    def shared_bytes(self) -> int:
        """Bytes placed in shared segments, paid once for all workers."""
        return sum(handle.nbytes for handle in self.handles)


class _TableSwappingPickler(pickle.Pickler):
    """Pickler that spills every Table into a segment, dedup by id."""

    def __init__(self, file, manager: SegmentManager) -> None:
        super().__init__(file, protocol=pickle.HIGHEST_PROTOCOL)
        self._manager = manager
        self._index_by_id: Dict[int, int] = {}
        self.tables: list[Table] = []  # also keeps ids stable while packing
        self.handles: list[TableHandle] = []

    def persistent_id(self, obj: Any) -> Optional[Tuple[str, int]]:
        if not isinstance(obj, Table):
            return None
        index = self._index_by_id.get(id(obj))
        if index is None:
            index = len(self.tables)
            self._index_by_id[id(obj)] = index
            self.tables.append(obj)
            encoded = encode_table(obj)
            segment = self._manager.create(encoded.nbytes)
            encoded.write_into(segment.buf)
            self.handles.append(
                TableHandle(segment=segment.name, meta=encoded.meta)
            )
        return (_PERSISTENT_TAG, index)


def pack_shared(
    shared: Any,
    manager: SegmentManager,
    share_tables: bool = True,
) -> SharedShipment:
    """Pack a stage context for dispatch; segments go on ``manager``.

    Raises :class:`TypeError` (its message names what does not pickle)
    when the context cannot pickle; segments spilled before the failure
    are released first.  The caller
    still owns ``manager`` cleanup (``destroy()`` in a ``finally``; it
    is idempotent).
    """
    try:
        if not share_tables:
            return SharedShipment(
                shell=pickle.dumps(shared, protocol=pickle.HIGHEST_PROTOCOL)
            )
        buffer = io.BytesIO()
        pickler = _TableSwappingPickler(buffer, manager)
        pickler.dump(shared)
    except (pickle.PicklingError, TypeError, AttributeError) as exc:
        manager.destroy()
        raise TypeError(
            f"stage context cannot be shipped to pool workers: {exc}"
        ) from exc
    return SharedShipment(
        shell=buffer.getvalue(), handles=tuple(pickler.handles)
    )


class _TableAttachingUnpickler(pickle.Unpickler):
    def __init__(self, file, tables: Tuple[Table, ...]) -> None:
        super().__init__(file)
        self._tables = tables

    def persistent_load(self, pid: Any) -> Table:
        if (
            not isinstance(pid, tuple)
            or len(pid) != 2
            or pid[0] != _PERSISTENT_TAG
        ):
            raise pickle.UnpicklingError(
                f"unknown persistent id in shipment shell: {pid!r}"
            )
        return self._tables[pid[1]]


#: Per-process attach memo: a worker serving many units (or a shipment
#: naming one segment twice) maps and decodes each segment exactly once.
_ATTACHED: Dict[str, Table] = {}


def release_attached() -> None:
    """Forget every attached table (a worker moving to the next plan).

    The names are already unlinked by their driver; dropping the memo
    lets the mappings go once the old context's views are gone.
    """
    _ATTACHED.clear()


def attach_table(handle: TableHandle) -> Table:
    """Attach one packed table read-only (memoized per process)."""
    table = _ATTACHED.get(handle.segment)
    if table is None:
        buf = attach_buffer(handle.segment)
        table = decode_table(handle.meta, buf, keepalive=buf)
        _ATTACHED[handle.segment] = table
    return table


def attach_shipment(shipment: SharedShipment) -> Any:
    """Rebuild a stage context from its shipment (worker side)."""
    tables = tuple(attach_table(handle) for handle in shipment.handles)
    return _TableAttachingUnpickler(
        io.BytesIO(shipment.shell), tables
    ).load()
