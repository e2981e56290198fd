"""Table schemas and typed values.

The engine is typed: every column declares one of the :class:`ColumnType`
members and values are validated on insert/update.  Types are deliberately
the small set the TeNDaX schema needs — integers, floats, strings, booleans,
bytes, timestamps, OIDs and JSON-ish blobs for user-defined properties.
"""

from __future__ import annotations

import enum
from collections.abc import ItemsView, Iterator, Mapping
from dataclasses import dataclass
from typing import Any, Iterable, Sequence

from ..errors import (
    NotNullViolation,
    SchemaError,
    TypeMismatchError,
    UnknownColumnError,
)
from ..ids import Oid


class ColumnType(enum.Enum):
    """Supported column types."""

    INT = "int"
    FLOAT = "float"
    STR = "str"
    BOOL = "bool"
    BYTES = "bytes"
    TIMESTAMP = "timestamp"
    OID = "oid"
    JSON = "json"

    def validate(self, value: Any) -> Any:
        """Validate (and lightly coerce) ``value`` for this type.

        Returns the stored representation.  Raises
        :class:`~repro.errors.TypeMismatchError` on mismatch.  ``None`` is
        handled by the caller (nullability is a column property).
        """
        if self is ColumnType.INT:
            if isinstance(value, bool) or not isinstance(value, int):
                raise TypeMismatchError(f"expected int, got {value!r}")
            return value
        if self is ColumnType.FLOAT:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise TypeMismatchError(f"expected float, got {value!r}")
            return float(value)
        if self is ColumnType.STR:
            if not isinstance(value, str):
                raise TypeMismatchError(f"expected str, got {value!r}")
            return value
        if self is ColumnType.BOOL:
            if not isinstance(value, bool):
                raise TypeMismatchError(f"expected bool, got {value!r}")
            return value
        if self is ColumnType.BYTES:
            if not isinstance(value, (bytes, bytearray)):
                raise TypeMismatchError(f"expected bytes, got {value!r}")
            return bytes(value)
        if self is ColumnType.TIMESTAMP:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise TypeMismatchError(f"expected timestamp, got {value!r}")
            return float(value)
        if self is ColumnType.OID:
            if isinstance(value, Oid):
                return value
            if isinstance(value, str):
                return Oid.parse(value)
            raise TypeMismatchError(f"expected Oid, got {value!r}")
        if self is ColumnType.JSON:
            _check_jsonish(value)
            return value
        raise AssertionError(f"unhandled type {self}")  # pragma: no cover


def _check_jsonish(value: Any, _depth: int = 0) -> None:
    """Ensure ``value`` is composed only of JSON-compatible pieces."""
    if _depth > 32:
        raise TypeMismatchError("json value nested too deeply")
    if value is None or isinstance(value, (bool, int, float, str)):
        return
    # An Oid is a tuple but not a JSON array: it falls through to the
    # error below (references belong in OID columns).
    if isinstance(value, (list, tuple)) and not isinstance(value, Oid):
        for item in value:
            _check_jsonish(item, _depth + 1)
        return
    if isinstance(value, dict):
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeMismatchError(f"json object keys must be str, got {key!r}")
            _check_jsonish(item, _depth + 1)
        return
    raise TypeMismatchError(f"not a json-compatible value: {value!r}")


#: The class a value of each type is stored as when it needs no
#: coercion: :meth:`ColumnType.validate` hands an instance of exactly
#: this class back untouched, which lets row builders skip the call.
#: (JSON has none: its values are checked to any depth.)
_STORED_AS = {
    ColumnType.INT: int, ColumnType.FLOAT: float, ColumnType.STR: str,
    ColumnType.BOOL: bool, ColumnType.BYTES: bytes,
    ColumnType.TIMESTAMP: float, ColumnType.OID: Oid,
}


@dataclass(frozen=True)
class Column:
    """One column of a table schema."""

    name: str
    type: ColumnType
    nullable: bool = False
    default: Any = None

    def __post_init__(self) -> None:
        if not self.name or not self.name.isidentifier():
            raise SchemaError(f"invalid column name: {self.name!r}")
        if self.default is not None:
            object.__setattr__(self, "default", self.type.validate(self.default))

    def validate(self, value: Any) -> Any:
        """Validate ``value`` for this column, applying default/null rules."""
        if value is None:
            if self.default is not None:
                return self.default
            if self.nullable:
                return None
            raise NotNullViolation(f"column {self.name!r} is not nullable")
        try:
            return self.type.validate(value)
        except TypeMismatchError as exc:
            raise TypeMismatchError(f"column {self.name!r}: {exc}") from None


class TableSchema:
    """An ordered collection of columns plus key/index declarations.

    Parameters
    ----------
    name:
        Table name (an identifier).
    columns:
        Column definitions in storage order.
    key:
        Name of the column serving as the (unique, non-null) logical key.
        Optional; tables always also have an engine-assigned integer row id.
    """

    def __init__(
        self,
        name: str,
        columns: Sequence[Column],
        key: str | None = None,
    ) -> None:
        if not name or not name.isidentifier():
            raise SchemaError(f"invalid table name: {name!r}")
        if not columns:
            raise SchemaError(f"table {name!r} needs at least one column")
        names = [col.name for col in columns]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate column names in table {name!r}")
        self.name = name
        self.columns: tuple[Column, ...] = tuple(columns)
        #: Column names in storage order (one shared tuple: full-image
        #: WAL records name their columns with this very object).
        self.names: tuple[str, ...] = tuple(names)
        self._nulls: tuple[None, ...] = (None,) * len(names)
        self._by_name: dict[str, int] = {c.name: i for i, c in enumerate(columns)}
        #: Per column: name, the class stored as is (see
        #: :data:`_STORED_AS`; None for JSON) and the column itself for
        #: every value that is not of exactly that class.
        self._stored_as: tuple[tuple[str, type | None, Column], ...] = tuple(
            (c.name, _STORED_AS.get(c.type), c) for c in columns)
        #: Storage positions of the OID-typed columns.
        self.oid_positions: tuple[int, ...] = tuple(
            i for i, c in enumerate(columns) if c.type is ColumnType.OID)
        if key is not None and key not in self._by_name:
            raise UnknownColumnError(f"key column {key!r} not in table {name!r}")
        self.key = key
        if key is not None and self.columns[self._by_name[key]].nullable:
            raise SchemaError(f"key column {key!r} must not be nullable")

    # -- introspection ------------------------------------------------------

    def column_names(self) -> tuple[str, ...]:
        """Column names in storage order."""
        return self.names

    def column_index(self, name: str) -> int:
        """Return the storage position of ``name`` or raise."""
        try:
            return self._by_name[name]
        except KeyError:
            raise UnknownColumnError(
                f"no column {name!r} in table {self.name!r}"
            ) from None

    def column(self, name: str) -> Column:
        """The :class:`Column` definition for ``name``."""
        return self.columns[self.column_index(name)]

    # -- value handling -----------------------------------------------------

    def make_row(self, values: Mapping[str, Any]) -> tuple:
        """Validate a mapping of column values into a storage tuple.

        Missing columns receive their default (or ``None`` if nullable);
        unknown keys raise.
        """
        for key in values:
            if key not in self._by_name:
                raise UnknownColumnError(
                    f"no column {key!r} in table {self.name!r}"
                )
        get = values.get
        row = []
        for name, stored_as, col in self._stored_as:
            value = get(name)
            row.append(value if value.__class__ is stored_as
                       else col.validate(value))
        return tuple(row)

    def load_row(self, values: Mapping[str, Any]) -> tuple:
        """A whole stored image (a logged INSERT or full-image UPDATE)
        back into a storage tuple, as stored.

        Unlike :meth:`make_row` it applies no default: the image already
        went through ``make_row`` / :meth:`merge_row` when it was
        written, so a ``None`` in it is a NULL a statement set.  Types
        and nullability are still checked, and every column must be
        named.
        """
        if len(values) != len(self.columns):
            missing = [name for name in self.names if name not in values]
            if missing:
                raise SchemaError(
                    f"image of table {self.name!r} lacks columns {missing}")
        return self.merge_row(self._nulls, values)

    def merge_row(self, row: tuple, updates: Mapping[str, Any]) -> tuple:
        """Return ``row`` with ``updates`` applied and validated."""
        out = list(row)
        for key, value in updates.items():
            idx = self.column_index(key)
            __, stored_as, col = self._stored_as[idx]
            if value.__class__ is stored_as:
                out[idx] = value
                continue
            if value is None and not col.nullable:
                raise NotNullViolation(f"column {key!r} is not nullable")
            out[idx] = None if value is None else col.type.validate(value)
        return tuple(out)

    def row_dict(self, row: tuple) -> dict[str, Any]:
        """Convert a storage tuple into a column-name mapping."""
        return dict(zip(self.names, row))

    def image(self, row: tuple) -> "RowImage":
        """``row`` read as a column mapping, without building one."""
        return RowImage(self._by_name, row)

    def key_of(self, row: tuple) -> Any:
        """Return the logical key value of ``row`` (requires ``key``)."""
        if self.key is None:
            raise SchemaError(f"table {self.name!r} has no key column")
        return row[self._by_name[self.key]]

    def project(self, row: tuple, names: Iterable[str]) -> tuple:
        """Return the values of ``names`` from ``row`` in the given order."""
        return tuple([row[self.column_index(n)] for n in names])

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        cols = ", ".join(f"{c.name}:{c.type.value}" for c in self.columns)
        return f"TableSchema({self.name!r}, [{cols}], key={self.key!r})"


def column(name: str, type_: ColumnType | str, *, nullable: bool = False,
           default: Any = None) -> Column:
    """Convenience factory accepting the type as a string (``"int"`` ...)."""
    if isinstance(type_, str):
        type_ = ColumnType(type_)
    return Column(name, type_, nullable=nullable, default=default)


class RowImage(Mapping):
    """A stored row tuple read as a read-only column mapping.

    It holds the tuple the table stores (immutable, so never copied) and
    the schema's shared name -> position map: two references, where a
    dict of the same row costs a hash table.  It is what a commit hands
    its consumers (``Change.row`` / ``Change.before``), what
    ``Transaction.update`` returns and what a wire client's replica
    holds per character (:func:`repro.net.protocol.merge_row`).  Item
    assignment raises ``TypeError``; ``dict(image)`` makes a real dict
    (for JSON, or to change it).  An image compares equal to a dict of
    the same items.
    """

    __slots__ = ("_positions", "_row")

    def __init__(self, positions: dict[str, int], row: tuple) -> None:
        self._positions = positions
        self._row = row

    def get(self, name: str, default: Any = None) -> Any:
        position = self._positions.get(name)
        return default if position is None else self._row[position]

    def __getitem__(self, name: str) -> Any:
        return self._row[self._positions[name]]

    def __contains__(self, name: object) -> bool:
        return name in self._positions

    def __iter__(self) -> Iterator[str]:
        return iter(self._positions)

    def __len__(self) -> int:
        return len(self._positions)

    def items(self) -> "_Items":
        return _Items(self)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}({dict(self.items())!r})"


class _Items(ItemsView):
    """A :class:`RowImage`'s items, zipped straight off its tuple."""

    __slots__ = ()

    def __iter__(self) -> Iterator[tuple[str, Any]]:
        image = self._mapping
        return zip(image._positions, image._row)
