"""Table schemas and typed values.

The engine is typed: every column declares one of the :class:`ColumnType`
members and values are validated on insert/update.  Types are deliberately
the small set the TeNDaX schema needs — integers, floats, strings, booleans,
bytes, timestamps, OIDs and JSON-ish blobs for user-defined properties.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Iterable, Mapping, Sequence

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

    def has_column(self, name: str) -> bool:
        """Whether the schema defines ``name``."""
        return name in self._by_name

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
