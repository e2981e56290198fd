"""Composable query predicates.

A predicate is a small expression tree over column values.  Besides
evaluating rows, predicates expose enough structure for the query planner to
recognise index-friendly shapes (equality and range conditions on a single
column) via :meth:`Predicate.index_hints`.

Use the :func:`col` factory for a fluent style::

    from repro.db.predicate import col

    pred = (col("author") == "ana") & (col("when") >= t0)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterator, Mapping, NamedTuple, Sequence


class IndexHint(NamedTuple):
    """A single-column condition usable for an index probe.

    ``op`` is one of ``"eq"``, ``"in"``, ``"range"``.  For ``eq`` the payload
    is ``value``; for ``in`` it is ``values`` (a tuple); for ``range`` it is
    ``(low, high, low_inclusive, high_inclusive)`` with ``None`` for an open
    bound.
    """

    column: str
    op: str
    value: Any = None
    values: tuple = ()
    low: Any = None
    high: Any = None
    low_inclusive: bool = True
    high_inclusive: bool = True


class Predicate:
    """Base class: evaluates a row mapping to bool, supports ``& | ~``."""

    def matches(self, row: Mapping[str, Any]) -> bool:
        """Evaluate this predicate against a row mapping."""
        raise NotImplementedError

    def index_hints(self) -> Iterator[IndexHint]:
        """Yield conditions that must *all* hold (conjunctive hints only).

        The planner may satisfy the query by probing an index on any one
        hint and re-checking the full predicate on the candidates.
        """
        return iter(())

    def __and__(self, other: "Predicate") -> "Predicate":
        return And((self, other))

    def __or__(self, other: "Predicate") -> "Predicate":
        return Or((self, other))

    def __invert__(self) -> "Predicate":
        return Not(self)


class TruePredicate(Predicate):
    """Matches every row; the default WHERE clause."""

    def matches(self, row: Mapping[str, Any]) -> bool:
        """Always true."""
        return True

    def __repr__(self) -> str:
        return "TRUE"


ALWAYS = TruePredicate()


@dataclass(frozen=True)
class Comparison(Predicate):
    """A binary comparison between a column and a constant."""

    column: str
    op: str  # eq, ne, lt, le, gt, ge
    value: Any

    _OPS: "dict[str, Callable[[Any, Any], bool]]" = None  # set below

    def matches(self, row: Mapping[str, Any]) -> bool:
        """Compare the row's column value against the constant."""
        have = row.get(self.column)
        if have is None:
            # SQL-ish semantics: NULL compares false to everything except
            # an explicit eq/ne against None.
            if self.op == "eq":
                return self.value is None
            if self.op == "ne":
                return self.value is not None
            return False
        if self.value is None:
            return self.op == "ne"
        return _COMPARATORS[self.op](have, self.value)

    def index_hints(self) -> Iterator[IndexHint]:
        """Equality/range hints an index probe can serve."""
        if self.value is None:
            return
        if self.op == "eq":
            yield IndexHint(self.column, "eq", value=self.value)
        elif self.op in ("lt", "le"):
            yield IndexHint(self.column, "range", high=self.value,
                            high_inclusive=self.op == "le")
        elif self.op in ("gt", "ge"):
            yield IndexHint(self.column, "range", low=self.value,
                            low_inclusive=self.op == "ge")

    def __repr__(self) -> str:
        return f"({self.column} {self.op} {self.value!r})"


_COMPARATORS: dict[str, Callable[[Any, Any], bool]] = {
    "eq": lambda a, b: a == b,
    "ne": lambda a, b: a != b,
    "lt": lambda a, b: a < b,
    "le": lambda a, b: a <= b,
    "gt": lambda a, b: a > b,
    "ge": lambda a, b: a >= b,
}


@dataclass(frozen=True)
class InSet(Predicate):
    """``column IN (values)``."""

    column: str
    values: frozenset

    def matches(self, row: Mapping[str, Any]) -> bool:
        """True when the column value is one of the set."""
        have = row.get(self.column)
        if have is None:
            return False
        try:
            return have in self.values
        except TypeError:
            return False

    def index_hints(self) -> Iterator[IndexHint]:
        """An ``in`` hint over the member values."""
        yield IndexHint(self.column, "in", values=tuple(self.values))

    def __repr__(self) -> str:
        return f"({self.column} in {sorted(map(repr, self.values))})"


@dataclass(frozen=True)
class Contains(Predicate):
    """Substring match on a string column (case-insensitive optional)."""

    column: str
    needle: str
    case_sensitive: bool = True

    def matches(self, row: Mapping[str, Any]) -> bool:
        """Substring test on a string column."""
        have = row.get(self.column)
        if not isinstance(have, str):
            return False
        if self.case_sensitive:
            return self.needle in have
        return self.needle.lower() in have.lower()

    def __repr__(self) -> str:
        return f"({self.column} contains {self.needle!r})"


@dataclass(frozen=True)
class Lambda(Predicate):
    """Escape hatch: an arbitrary row predicate (never index-assisted)."""

    fn: Callable[[Mapping[str, Any]], bool]
    label: str = "<lambda>"

    def matches(self, row: Mapping[str, Any]) -> bool:
        """Delegate to the wrapped callable."""
        return bool(self.fn(row))

    def __repr__(self) -> str:
        return f"({self.label})"


@dataclass(frozen=True)
class And(Predicate):
    """Conjunction of predicates."""

    parts: tuple

    def matches(self, row: Mapping[str, Any]) -> bool:
        """True when every part matches."""
        return all(p.matches(row) for p in self.parts)

    def index_hints(self) -> Iterator[IndexHint]:
        """Hints of all conjuncts (any one may be probed)."""
        for part in self.parts:
            yield from part.index_hints()

    def __repr__(self) -> str:
        return "(" + " AND ".join(map(repr, self.parts)) + ")"


@dataclass(frozen=True)
class Or(Predicate):
    """Disjunction of predicates.  Yields no hints (probe cannot cover it)."""

    parts: tuple

    def matches(self, row: Mapping[str, Any]) -> bool:
        """True when any part matches."""
        return any(p.matches(row) for p in self.parts)

    def __repr__(self) -> str:
        return "(" + " OR ".join(map(repr, self.parts)) + ")"


@dataclass(frozen=True)
class Not(Predicate):
    """Negation.  Yields no hints."""

    part: Predicate

    def matches(self, row: Mapping[str, Any]) -> bool:
        """Invert the wrapped predicate."""
        return not self.part.matches(row)

    def __repr__(self) -> str:
        return f"(NOT {self.part!r})"


class ColumnRef:
    """Fluent builder: ``col("x") == 3`` produces a :class:`Comparison`."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def __eq__(self, other: Any) -> Comparison:  # type: ignore[override]
        return Comparison(self.name, "eq", other)

    def __ne__(self, other: Any) -> Comparison:  # type: ignore[override]
        return Comparison(self.name, "ne", other)

    def __lt__(self, other: Any) -> Comparison:
        return Comparison(self.name, "lt", other)

    def __le__(self, other: Any) -> Comparison:
        return Comparison(self.name, "le", other)

    def __gt__(self, other: Any) -> Comparison:
        return Comparison(self.name, "gt", other)

    def __ge__(self, other: Any) -> Comparison:
        return Comparison(self.name, "ge", other)

    def isin(self, values: Sequence[Any]) -> InSet:
        """Build a ``column IN (values)`` predicate."""
        return InSet(self.name, frozenset(values))

    def contains(self, needle: str, *, case_sensitive: bool = True) -> Contains:
        """Build a substring-match predicate."""
        return Contains(self.name, needle, case_sensitive)

    def between(self, low: Any, high: Any) -> Predicate:
        """Inclusive range ``low <= column <= high``."""
        return And((Comparison(self.name, "ge", low),
                    Comparison(self.name, "le", high)))

    __hash__ = None  # type: ignore[assignment]


def col(name: str) -> ColumnRef:
    """Create a fluent column reference for building predicates."""
    return ColumnRef(name)
