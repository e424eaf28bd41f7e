"""Cell-addressable mixed-type table.

This is the substrate every REIN component works on.  A :class:`Table` stores
each column as a numpy ``object`` array so that dirty data can hold anything a
real-world CSV can: numbers, strings, typos that turned a number into text,
empty strings, and explicit ``None``/NaN missing values.  The declared
:class:`~repro.dataset.schema.Schema` records the *intended* kind of each
column; the actual cell payload may disagree on a dirty version (which is
exactly what detectors like FAHES look for).

Cells are addressed as ``(row_index, column_name)`` tuples, matching REIN's
cell-level detection and repair granularity.
"""

from __future__ import annotations

import csv
import math
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

from repro.dataset.columnar import (
    KIND_BOOL,
    KIND_FLOAT,
    KIND_INT,
    KIND_NONE,
    ColumnView,
    normalized_column,
    same_entries,
)
from repro.dataset.schema import CATEGORICAL, NUMERICAL, Column, Schema

Cell = Tuple[int, str]

_MISSING_TOKENS = {"", "na", "n/a", "nan", "null", "none", "?"}


def is_missing(value: Any) -> bool:
    """Return True when *value* is an explicit missing marker.

    ``None``, float NaN, and the usual CSV null tokens (case-insensitive
    ``""``, ``"NA"``, ``"NaN"``, ``"NULL"``, ``"?"`` ...) all count.  Disguised
    missing values such as ``"99999"`` deliberately do not -- detecting those
    is FAHES's job.
    """
    if value is None:
        return True
    if isinstance(value, float) and math.isnan(value):
        return True
    if isinstance(value, str) and value.strip().lower() in _MISSING_TOKENS:
        return True
    return False


def coerce_float(value: Any) -> float:
    """Best-effort conversion of a cell payload to float (NaN on failure).

    Non-finite parses (e.g. the typo ``"9e999"`` overflowing to inf) count
    as unparseable: downstream statistics assume finite numeric views.
    """
    if is_missing(value):
        return math.nan
    if isinstance(value, (int, float, np.integer, np.floating)):
        result = float(value)
        return result if math.isfinite(result) else math.nan
    if isinstance(value, str):
        try:
            result = float(value.strip())
        except ValueError:
            return math.nan
        return result if math.isfinite(result) else math.nan
    return math.nan


def text_key(value: Any) -> Optional[str]:
    """A cell's stripped text, or ``None`` when it is missing: the key
    categorical cells are counted, encoded and compared by."""
    return None if is_missing(value) else str(value).strip()


def values_equal(a: Any, b: Any) -> bool:
    """Cell equality that treats missing markers as mutually equal.

    Numeric payloads compare numerically (``"3.0"`` equals ``3.0``), so a
    repair that restores a number as a string still counts as correct.
    """
    a_missing, b_missing = is_missing(a), is_missing(b)
    if a_missing or b_missing:
        return a_missing and b_missing
    fa, fb = coerce_float(a), coerce_float(b)
    if not math.isnan(fa) and not math.isnan(fb):
        return fa == fb or math.isclose(fa, fb, rel_tol=1e-12, abs_tol=1e-12)
    if math.isnan(fa) != math.isnan(fb):
        return False
    return str(a).strip() == str(b).strip()


class Table:
    """An immutable-schema, mutable-content table of mixed-type columns."""

    def __init__(self, schema: Schema, columns: Mapping[str, Sequence[Any]]):
        if set(columns) != set(schema.names):
            raise ValueError(
                "column data does not match schema: "
                f"schema={sorted(schema.names)} data={sorted(columns)}"
            )
        self._schema = schema
        self._data: Dict[str, np.ndarray] = {}
        n_rows: Optional[int] = None
        for name in schema.names:
            arr = np.empty(len(columns[name]), dtype=object)
            arr[:] = list(columns[name])
            if n_rows is None:
                n_rows = len(arr)
            elif len(arr) != n_rows:
                raise ValueError(
                    f"column {name!r} has {len(arr)} rows, expected {n_rows}"
                )
            self._data[name] = arr
        self._n_rows = n_rows if n_rows is not None else 0
        # Bumped by every in-place cell write; content-keyed memos (column
        # views, fingerprints) use it to detect staleness.  Block views
        # share the one-element list, so a write to the parent
        # invalidates their memos too.
        self._mutations = [0]
        # Block views are read-only: their writes would bypass the parent.
        self._readonly = False

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_rows(
        cls, schema: Schema, rows: Iterable[Sequence[Any]]
    ) -> "Table":
        """Build a table from an iterable of row tuples (schema order)."""
        materialized = [tuple(r) for r in rows]
        for i, row in enumerate(materialized):
            if len(row) != len(schema):
                raise ValueError(
                    f"row {i} has {len(row)} fields, expected {len(schema)}"
                )
        columns = {
            name: [row[j] for row in materialized]
            for j, name in enumerate(schema.names)
        }
        return cls(schema, columns)

    @classmethod
    def empty(cls, schema: Schema) -> "Table":
        return cls(schema, {name: [] for name in schema.names})

    @classmethod
    def _wrap_arrays(
        cls,
        schema: Schema,
        data: Dict[str, np.ndarray],
        n_rows: int,
        readonly: bool = False,
        mutations: Optional[List[int]] = None,
    ) -> "Table":
        """Internal no-copy constructor wrapping existing column arrays.

        Used by :meth:`block_view` to build zero-copy views; callers own
        the aliasing consequences, which is why this stays private.  A
        view passes its parent's ``mutations`` counter.
        """
        table = cls.__new__(cls)
        table._schema = schema
        table._data = data
        table._n_rows = n_rows
        table._mutations = [0] if mutations is None else mutations
        table._readonly = readonly
        return table

    def __getstate__(self) -> Dict[str, Any]:
        # Column views are a rebuildable memo; keep them out of pickles.
        state = self.__dict__.copy()
        state.pop("_column_views", None)
        return state

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def schema(self) -> Schema:
        return self._schema

    @property
    def n_rows(self) -> int:
        return self._n_rows

    @property
    def n_columns(self) -> int:
        return len(self._schema)

    @property
    def shape(self) -> Tuple[int, int]:
        return (self._n_rows, len(self._schema))

    @property
    def column_names(self) -> List[str]:
        return self._schema.names

    def column(self, name: str) -> np.ndarray:
        """Return the raw object array for a column (a live view)."""
        try:
            return self._data[name]
        except KeyError:
            raise KeyError(f"no column named {name!r}") from None

    def row(self, index: int) -> Tuple[Any, ...]:
        """Return row *index* as a tuple in schema order."""
        self._check_row(index)
        return tuple(self._data[name][index] for name in self._schema.names)

    def get_cell(self, row: int, column: str) -> Any:
        self._check_row(row)
        return self.column(column)[row]

    def set_cell(self, row: int, column: str, value: Any) -> None:
        if self._readonly:
            raise TypeError(
                "block views are read-only; write through the parent table"
            )
        self._check_row(row)
        self.column(column)[row] = value
        self._mutations[0] += 1

    @property
    def _mutation_count(self) -> int:
        """Writes so far to this table or, for a block view, its parent."""
        return self._mutations[0]

    def column_view(self, name: str) -> ColumnView:
        """The typed :class:`ColumnView` of a column, memoized until the
        next :meth:`set_cell`."""
        token = self._mutations[0]
        memo = self.__dict__.get("_column_views")
        if memo is None or memo[0] != token:
            memo = self._column_views = (token, {})
        view = memo[1].get(name)
        if view is None:
            view = memo[1][name] = ColumnView(self.column(name))
        return view

    def _check_row(self, index: int) -> None:
        if not 0 <= index < self._n_rows:
            raise IndexError(
                f"row index {index} out of range [0, {self._n_rows})"
            )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Table):
            return NotImplemented
        if self._schema != other._schema or self._n_rows != other._n_rows:
            return False
        return not self.diff_cells(other)

    def __hash__(self) -> int:  # Tables are mutable containers.
        raise TypeError("Table is unhashable")

    def __repr__(self) -> str:
        return f"Table({self._n_rows} rows x {len(self._schema)} columns)"

    # ------------------------------------------------------------------
    # Numeric views and missing masks
    # ------------------------------------------------------------------
    def as_float(self, name: str) -> np.ndarray:
        """Column as float64 with NaN for missing or non-numeric payloads
        (:func:`coerce_float` of every cell)."""
        view = self.column_view(name)
        out = view.lane.copy()
        exact = (view.tags == KIND_INT) | (view.tags == KIND_BOOL)
        out[exact] = view.bits[exact]
        out[~np.isfinite(out) | (view.tags == KIND_NONE)] = np.nan
        return view.fill(out, coerce_float)

    def numeric_matrix(self, names: Optional[Sequence[str]] = None) -> np.ndarray:
        """Stack numeric views of columns into an ``(n_rows, k)`` matrix."""
        if names is None:
            names = self._schema.numerical_names
        if not names:
            return np.empty((self._n_rows, 0), dtype=np.float64)
        return np.column_stack([self.as_float(n) for n in names])

    def missing_mask(self, name: str) -> np.ndarray:
        """Boolean array marking explicitly missing cells of a column."""
        view = self.column_view(name)
        out = (view.tags == KIND_NONE) | (
            (view.tags == KIND_FLOAT) & np.isnan(view.lane)
        )
        return view.fill(out, is_missing)

    def text_keys(self, name: str) -> List[Optional[str]]:
        """:func:`text_key` of every cell of a column."""
        return normalized_column(self.column_view(name), text_key)

    def missing_cells(self) -> Set[Cell]:
        """All explicitly missing cells in the table."""
        cells: Set[Cell] = set()
        for name in self._schema.names:
            for i in np.flatnonzero(self.missing_mask(name)):
                cells.add((int(i), name))
        return cells

    # ------------------------------------------------------------------
    # Row-block views (zero-copy out-of-core substrate)
    # ------------------------------------------------------------------
    def block_view(self, start: int, stop: int) -> "Table":
        """Return a zero-copy, read-only view of rows ``[start, stop)``.

        The view shares the parent's column arrays through numpy basic
        slicing: no cell payloads are copied, and later in-place writes to
        the parent (via :meth:`set_cell`) remain visible through the view.
        Writes *through* the view are rejected: the view shares the
        parent's mutation counter, so only parent writes invalidate the
        memos (column views, fingerprints) of parent and views alike.
        """
        if not 0 <= start <= stop <= self._n_rows:
            raise IndexError(
                f"block [{start}, {stop}) out of range [0, {self._n_rows}]"
            )
        data: Dict[str, np.ndarray] = {}
        for name in self._schema.names:
            view = self._data[name][start:stop]
            view.flags.writeable = False
            data[name] = view
        return Table._wrap_arrays(
            self._schema, data, stop - start, readonly=True,
            mutations=self._mutations,
        )

    def iter_blocks(
        self, block_rows: int
    ) -> Iterable[Tuple[int, "Table"]]:
        """Yield ``(start_row, block_view)`` pairs covering all rows.

        Every block except possibly the last spans exactly ``block_rows``
        rows; blocks are yielded in row order and tile the table exactly
        once, so streaming consumers can reassemble whole-table results
        with plain ``out[start:start + block.n_rows]`` writes.
        """
        if block_rows < 1:
            raise ValueError(f"block_rows must be >= 1, got {block_rows}")
        for start in range(0, self._n_rows, block_rows):
            stop = min(start + block_rows, self._n_rows)
            yield start, self.block_view(start, stop)

    # ------------------------------------------------------------------
    # Structural operations (all return new tables)
    # ------------------------------------------------------------------
    def copy(self) -> "Table":
        return Table(
            self._schema,
            {name: self._data[name].copy() for name in self._schema.names},
        )

    def select_rows(self, indices: Sequence[int]) -> "Table":
        idx = np.asarray(indices, dtype=int)
        if len(idx) and (idx.min() < 0 or idx.max() >= self._n_rows):
            raise IndexError("row index out of range in select_rows")
        return Table(
            self._schema,
            {name: self._data[name][idx] for name in self._schema.names},
        )

    def drop_rows(self, indices: Iterable[int]) -> "Table":
        drop = set(int(i) for i in indices)
        keep = [i for i in range(self._n_rows) if i not in drop]
        return self.select_rows(keep)

    def select_columns(self, names: Sequence[str]) -> "Table":
        sub_schema = Schema(self._schema[n] for n in names)
        return Table(sub_schema, {n: self._data[n].copy() for n in names})

    def drop_columns(self, names: Iterable[str]) -> "Table":
        dropped = set(names)
        keep = [n for n in self._schema.names if n not in dropped]
        return self.select_columns(keep)

    def with_column(self, column: Column, values: Sequence[Any]) -> "Table":
        """Return a copy with an extra column appended."""
        if column.name in self._schema:
            raise ValueError(f"column {column.name!r} already exists")
        if len(values) != self._n_rows:
            raise ValueError("new column length does not match table")
        new_schema = Schema(list(self._schema.columns) + [column])
        data = {n: self._data[n].copy() for n in self._schema.names}
        data[column.name] = list(values)
        return Table(new_schema, data)

    def append_rows(self, rows: Iterable[Sequence[Any]]) -> "Table":
        """Return a copy with extra rows appended (schema order)."""
        extra = [tuple(r) for r in rows]
        data = {}
        for j, name in enumerate(self._schema.names):
            data[name] = list(self._data[name]) + [row[j] for row in extra]
        return Table(self._schema, data)

    def map_column(self, name: str, fn: Callable[[Any], Any]) -> "Table":
        """Return a copy with *fn* applied to every cell of one column."""
        out = self.copy()
        col = out.column(name)
        for i in range(len(col)):
            col[i] = fn(col[i])
        return out

    # ------------------------------------------------------------------
    # Shared-memory buffer codec (the data plane's substrate)
    # ------------------------------------------------------------------
    def to_buffers(self):
        """Pack this table into flat typed buffers for shared memory.

        Returns an :class:`~repro.dataplane.codec.EncodedTable` whose
        ``meta`` describes the layout and whose ``write_into(buf)``
        places the buffers into any writable buffer (typically a
        ``multiprocessing.shared_memory`` segment).  The round-trip
        through :meth:`from_buffers` is cell-for-cell type- and
        bit-identical, including NaN payloads, ``inf`` and ``-0.0``.
        """
        from repro.dataplane.codec import encode_table

        return encode_table(self)

    @classmethod
    def from_buffers(cls, meta, buf) -> "Table":
        """Attach packed buffers as a read-only zero-copy table.

        Typed buffer views into ``buf`` are ``writeable=False`` and
        columns materialize lazily from them; the table is read-only
        (:meth:`set_cell` raises), because many processes may share the
        underlying bytes.
        """
        from repro.dataplane.codec import decode_table

        return decode_table(meta, buf)

    # ------------------------------------------------------------------
    # Comparison
    # ------------------------------------------------------------------
    def diff_cells(
        self, other: "Table", columns: Optional[Sequence[str]] = None
    ) -> Set[Cell]:
        """Cells whose values differ between two same-shape tables, in
        ``columns`` (default: all of them).

        This is how REIN derives the ground-truth error mask: the dirty
        version is diffed against the clean version.  Cells that are the
        same entry of both column views are equal (:func:`values_equal`
        is reflexive); only the others are compared, column-wise.  Cells
        enter the set column by column, rows ascending.
        """
        if self._schema.names != other._schema.names:
            raise ValueError("cannot diff tables with different columns")
        if self._n_rows != other._n_rows:
            raise ValueError(
                f"cannot diff tables with {self._n_rows} vs "
                f"{other._n_rows} rows"
            )
        cells: Set[Cell] = set()
        for name in self._schema.names if columns is None else columns:
            same = same_entries(self.column_view(name), other.column_view(name))
            mine, theirs = self._data[name], other._data[name]
            cells.update(
                (i, name)
                for i in np.flatnonzero(~same).tolist()
                if not values_equal(mine[i], theirs[i])
            )
        return cells

    # ------------------------------------------------------------------
    # CSV I/O
    # ------------------------------------------------------------------
    def to_csv(self, path: str) -> None:
        """Write the table to CSV with a header row."""
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(self._schema.names)
            for i in range(self._n_rows):
                writer.writerow(
                    ["" if is_missing(v) else v for v in self.row(i)]
                )

    @classmethod
    def from_csv(cls, path: str, schema: Schema) -> "Table":
        """Read a CSV written by :meth:`to_csv` back into a table.

        Numerical columns are parsed to float where possible; unparseable
        payloads are kept verbatim (they may be deliberate dirty values).
        """
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            if header != schema.names:
                raise ValueError(
                    f"CSV header {header} does not match schema {schema.names}"
                )
            rows = []
            for raw in reader:
                row: List[Any] = []
                for name, text in zip(schema.names, raw):
                    if text == "":
                        row.append(None)
                    elif schema.kind_of(name) == NUMERICAL:
                        value = coerce_float(text)
                        row.append(text if math.isnan(value) else value)
                    else:
                        row.append(text)
                rows.append(row)
        return cls.from_rows(schema, rows)


def infer_schema(columns: Mapping[str, Sequence[Any]]) -> Schema:
    """Infer a schema from raw column data.

    A column is numerical when every non-missing payload coerces to float.
    """
    cols = []
    for name, values in columns.items():
        non_missing = [v for v in values if not is_missing(v)]
        numeric = non_missing and all(
            not math.isnan(coerce_float(v)) for v in non_missing
        )
        cols.append(Column(name, NUMERICAL if numeric else CATEGORICAL))
    return Schema(cols)
