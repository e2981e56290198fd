"""Query builder and executor.

A tiny single-table query engine: predicate filtering with automatic index
selection, ordering, projection and limits.  Queries run against committed
data; when bound to a transaction, that transaction's own pending writes are
overlaid so it reads its own uncommitted state (read-committed semantics).

Example::

    rows = (db.query("documents")
              .where((col("creator") == "ana") & (col("size") > 100))
              .order_by("created_at", desc=True)
              .limit(10)
              .run())
"""

from __future__ import annotations

import heapq
from collections.abc import Mapping
from typing import TYPE_CHECKING, Any, Iterable, Iterator

from .index import OrderedIndex
from .predicate import ALWAYS, Comparison, IndexHint, Predicate
from .schema import RowImage, TableSchema
from .table import TOMBSTONE, Table

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .engine import Database
    from .transaction import Transaction


class RowView(dict):
    """A query result row: column mapping plus the engine ``rowid``."""

    __slots__ = ("rowid",)

    def __init__(self, rowid: int,
                 values: "Mapping[str, Any] | Iterable[tuple[str, Any]]"
                 ) -> None:
        super().__init__(values)
        self.rowid = rowid

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"RowView(rowid={self.rowid}, {dict.__repr__(self)})"


class _StoredRow(RowImage):
    """A stored tuple read as a column mapping, without building one.

    What a predicate is evaluated against: the executor rebinds the
    tuple per candidate, so filtering allocates nothing and only the
    rows that match are ever turned into a real mapping.
    """

    __slots__ = ()

    def __init__(self, schema: TableSchema) -> None:
        super().__init__(schema._by_name, ())


def find(db: "Database", table_name: str, column: str, key: Any,
         txn: "Transaction | None" = None) -> "RowView | None":
    """The first row whose ``column`` equals ``key``, as ``txn`` sees it.

    What ``Query(db, table_name, txn).where(col(column) == key).first()``
    returns.  On a uniquely indexed column — every lookup of a row by
    its id — it is a *key read* (see :meth:`Query._matching`) made
    without building the query.
    """
    table = db.table(table_name)
    keyed = _read_key(table, column, key, txn)
    if keyed is None:
        return Query(db, table_name, txn).where(
            Comparison(column, "eq", key)).first()
    if not keyed:
        return None
    rowid, row = keyed[0]
    return RowView(rowid, zip(table.schema.names, row))


def _read_key(table: Table, column: str, key: Any,
              txn: "Transaction | None") -> list | None:
    """:meth:`Table.read_key` under ``txn``'s visibility mode (a finished
    transaction reads committed state, like no transaction at all), or
    ``None`` where a key read does not apply: NULL keys, columns without
    a unique index."""
    if key is None:
        return None
    if txn is None or not txn.is_active:
        return table.read_key(column, key)
    if txn.snapshot_lsn is None:
        return table.read_key(column, key, txn.txn_id)
    keyed = table.read_key(column, key, snapshot_lsn=txn.snapshot_lsn)
    if keyed is not None:
        txn._metrics.snapshot_reads.inc()
    return keyed


class QueryPlan:
    """Description of how a query will execute (for tests/benchmarks)."""

    def __init__(self, kind: str, index_name: str | None = None,
                 hint: IndexHint | None = None) -> None:
        self.kind = kind          # "scan" | "index"
        self.index_name = index_name
        self.hint = hint

    def __repr__(self) -> str:
        if self.kind == "scan":
            return "Plan(scan)"
        return f"Plan(index={self.index_name}, on={self.hint.column})"


class Query:
    """Immutable-ish fluent builder; each modifier returns ``self``."""

    def __init__(self, db: "Database", table_name: str,
                 txn: "Transaction | None" = None) -> None:
        self._db = db
        self._table_name = table_name
        self._txn = txn
        self._predicate: Predicate = ALWAYS
        self._order: tuple[str, bool] | None = None  # (column, desc)
        self._limit: int | None = None
        self._projection: tuple[str, ...] | None = None

    # -- builder methods ------------------------------------------------------

    def where(self, predicate: Predicate) -> "Query":
        """AND the predicate into the filter."""
        if self._predicate is ALWAYS:
            self._predicate = predicate
        else:
            self._predicate = self._predicate & predicate
        return self

    def order_by(self, column: str, *, desc: bool = False) -> "Query":
        """Sort results by ``column`` (``desc`` for descending)."""
        self._order = (column, desc)
        return self

    def limit(self, n: int) -> "Query":
        """Cap the number of returned rows."""
        if n < 0:
            raise ValueError("limit must be >= 0")
        self._limit = n
        return self

    def select(self, *columns: str) -> "Query":
        """Project the result rows to the given columns."""
        self._projection = columns
        return self

    # -- planning ---------------------------------------------------------------

    def plan(self) -> QueryPlan:
        """Choose an access path: a matching index probe, else a scan."""
        table = self._db.table(self._table_name)
        best: tuple[int, str, IndexHint] | None = None
        for hint in self._predicate.index_hints():
            need_range = hint.op == "range"
            index = table.index_on(hint.column, need_range=need_range)
            if index is None:
                continue
            # Prefer equality probes (rank 0) over ranges (rank 1).
            rank = 0 if hint.op in ("eq", "in") else 1
            if best is None or rank < best[0]:
                best = (rank, index.name, hint)
                if rank == 0:
                    break
        if best is None:
            return QueryPlan("scan")
        return QueryPlan("index", best[1], best[2])

    def explain(self) -> dict:
        """Describe how the query would execute (EXPLAIN).

        Returns the access path, the index (if any), an estimate of the
        candidate rows the path yields, and the post-filter/sort steps.
        """
        table = self._db.table(self._table_name)
        plan = self.plan()
        if plan.kind == "scan":
            estimate = table.row_count()
            access = {"path": "scan", "estimated_candidates": estimate}
        else:
            index = table.indexes()[plan.index_name]
            hint = plan.hint
            if hint.op == "eq":
                estimate = sum(1 for __ in index.probe_eq(hint.value))
            elif hint.op == "in":
                estimate = sum(1 for __ in index.probe_in(hint.values))
            else:
                estimate = sum(1 for __ in index.probe_range(
                    hint.low, hint.high,
                    low_inclusive=hint.low_inclusive,
                    high_inclusive=hint.high_inclusive))
            access = {
                "path": "index", "index": plan.index_name,
                "column": hint.column, "probe": hint.op,
                "estimated_candidates": estimate,
            }
        return {
            "table": self._table_name,
            "access": access,
            "filter": repr(self._predicate),
            "order_by": self._order,
            "limit": self._limit,
            "early_stop": self._order is None and self._limit is not None,
        }

    # -- execution ---------------------------------------------------------------

    def run(self) -> list[RowView]:
        """Execute and return materialised rows."""
        schema = self._db.table(self._table_name).schema
        names = schema.names
        out: list[RowView] = []
        # Without an ORDER BY, a LIMIT can stop candidate generation
        # early — `.limit(1)` existence probes cost O(1 match).
        stop_at = self._limit if self._order is None else None
        for rowid, row in self._matching():
            out.append(RowView(rowid, zip(names, row)))
            if stop_at is not None and len(out) >= stop_at:
                break
        # Sort.
        if self._order is not None:
            column, desc = self._order
            schema.column_index(column)  # validate
            out.sort(key=lambda r: _sort_key(r.get(column)), reverse=desc)
        # Limit.
        if self._limit is not None:
            out = out[: self._limit]
        # Project.
        if self._projection is not None:
            for name in self._projection:
                schema.column_index(name)
            out = [
                RowView(r.rowid, {k: r[k] for k in self._projection})
                for r in out
            ]
        return out

    def tuples(self) -> list[tuple]:
        """The matching rows as the table stores them: tuples in column
        order, shared with the table, no mapping built.  Order, limit
        and projection do not apply."""
        return [row for __, row in self._matching()]

    def first(self) -> RowView | None:
        """Return the first result or ``None``.

        The probe must not leak into the builder: the limit is applied
        only for this execution, so a query object reused for ``run()``
        afterwards still returns every match.
        """
        saved = self._limit
        if saved is None:
            self._limit = 1
        try:
            results = self.run()
        finally:
            self._limit = saved
        return results[0] if results else None

    def count(self) -> int:
        """Number of matching rows (projection/order ignored)."""
        return sum(1 for __ in self._matching())

    def _matching_values(self, column: str) -> Iterator[Any]:
        """Values of ``column`` over matching rows (NULLs skipped)."""
        pos = self._db.table(self._table_name).schema.column_index(column)
        for __, row in self._matching():
            value = row[pos]
            if value is not None:
                yield value

    def sum(self, column: str) -> Any:
        """SUM over matching non-null values (0 if none)."""
        return sum(self._matching_values(column))

    def min(self, column: str) -> Any:
        """MIN over matching non-null values (``None`` if none)."""
        return min(self._matching_values(column), default=None)

    def max(self, column: str) -> Any:
        """MAX over matching non-null values (``None`` if none)."""
        return max(self._matching_values(column), default=None)

    def avg(self, column: str) -> float | None:
        """AVG over matching non-null values (``None`` if none)."""
        total, count = 0.0, 0
        for value in self._matching_values(column):
            total += value
            count += 1
        return None if count == 0 else total / count

    def distinct(self, column: str) -> set:
        """Distinct non-null values of ``column`` over matching rows."""
        return set(self._matching_values(column))

    def group_count(self, column: str) -> dict:
        """``value -> matching row count`` for ``column`` (NULLs kept)."""
        pos = self._db.table(self._table_name).schema.column_index(column)
        counts: dict = {}
        for __, row in self._matching():
            counts[row[pos]] = counts.get(row[pos], 0) + 1
        return counts

    def __iter__(self) -> Iterator[RowView]:
        return iter(self.run())

    # -- candidate generation -----------------------------------------------------

    def _matching(self) -> Iterator[tuple[int, tuple]]:
        """``(rowid, stored row)`` of every row the predicate accepts.

        A lone equality on a uniquely indexed column is a *key read*: it
        resolves through the index and the table's pending-key claims or,
        in a snapshot, its grouped history overlay
        (:meth:`~repro.db.table.Table.read_key`) with no plan and no
        predicate to re-check.  Everything else
        is planned, and its predicate runs against the stored tuple
        before any mapping is built.
        """
        table = self._db.table(self._table_name)
        predicate = self._predicate
        if predicate.__class__ is Comparison and predicate.op == "eq":
            keyed = _read_key(table, predicate.column, predicate.value,
                              self._txn)
            if keyed is not None:
                return iter(keyed)
        candidates = self._candidates(table, self.plan())
        if predicate is ALWAYS:
            return candidates
        return self._filtered(table.schema, candidates)

    def _filtered(self, schema: TableSchema,
                  candidates: Iterator[tuple[int, tuple]]
                  ) -> Iterator[tuple[int, tuple]]:
        view = _StoredRow(schema)
        matches = self._predicate.matches
        for candidate in candidates:
            view._row = candidate[1]
            if matches(view):
                yield candidate

    def _probe(self, table: Table, plan: QueryPlan) -> Iterator[int]:
        """Rowids from the plan's index probe."""
        index = table.indexes()[plan.index_name]
        hint = plan.hint
        if hint.op == "eq":
            return index.probe_eq(hint.value)
        if hint.op == "in":
            return index.probe_in(hint.values)
        assert isinstance(index, OrderedIndex)
        return index.probe_range(
            hint.low, hint.high,
            low_inclusive=hint.low_inclusive,
            high_inclusive=hint.high_inclusive,
        )

    def _candidates(self, table: Table,
                    plan: QueryPlan) -> Iterator[tuple[int, tuple]]:
        """Yield (rowid, row) candidates under the txn's visibility mode.

        * snapshot txn: version-chain reads as of the pinned LSN — zero
          lock acquisitions;
        * write txn: committed reads with the txn's pending overlay;
        * no txn: plain committed reads.
        """
        txn = self._txn if (self._txn is not None
                            and self._txn.is_active) else None
        snapshot_lsn = getattr(txn, "snapshot_lsn", None)
        if snapshot_lsn is not None:
            txn._metrics.snapshot_reads.inc()
            yield from self._snapshot_candidates(table, plan, snapshot_lsn)
            return
        pending = table.pending_of(txn.txn_id) if txn is not None else {}
        if plan.kind == "index":
            emitted: set[int] = set()
            for rowid in self._probe(table, plan):
                if rowid in pending:
                    continue  # replaced below by the pending image
                row = table.read(rowid)
                if row is not None:
                    emitted.add(rowid)
                    yield rowid, row
            # Pending rows are not in committed indexes; check them all —
            # the full predicate re-check keeps this correct.
            for rowid, image in pending.items():
                if image is not TOMBSTONE and rowid not in emitted:
                    yield rowid, image
        else:
            for rowid, row in table.committed_items():
                if rowid not in pending:
                    yield rowid, row
            for rowid, image in pending.items():
                if image is not TOMBSTONE:
                    yield rowid, image

    def _snapshot_candidates(self, table: Table, plan: QueryPlan,
                             snapshot_lsn: int) -> Iterator[tuple[int, tuple]]:
        """Candidates as of ``snapshot_lsn`` (no locks, no pending).

        Index probes walk the *current* committed index, so rows whose
        visible version differs from their committed one (rows carrying
        a version chain) are resolved via an overlay and re-checked by
        the executor's predicate — the same discipline as pending
        overlays for writers.  A range probe takes the whole overlay;
        an equality probe only its rows under the probed values.
        """
        if plan.kind == "index":
            overlay = table.snapshot_history_rows(snapshot_lsn)
            for rowid in self._probe(table, plan):
                if rowid in overlay:
                    continue  # yielded below from the overlay
                row = table.snapshot_read(rowid, snapshot_lsn)
                if row is not None:
                    yield rowid, row
            hint = plan.hint
            if hint.op == "range":
                yield from overlay.items()
                return
            grouped = table.snapshot_history_by(
                snapshot_lsn, table.schema.column_index(hint.column))
            values = (hint.value,) if hint.op == "eq" else hint.values
            yield from heapq.merge(*(grouped.get(value, ())
                                     for value in values))
        else:
            yield from table.snapshot_items(snapshot_lsn)


class _SortKey:
    """Total order over heterogenous values: None first, then by type name."""

    __slots__ = ("value",)

    def __init__(self, value: Any) -> None:
        self.value = value

    def __lt__(self, other: "_SortKey") -> bool:
        a, b = self.value, other.value
        if a is None:
            return b is not None
        if b is None:
            return False
        try:
            return a < b
        except TypeError:
            return type(a).__name__ < type(b).__name__


def _sort_key(value: Any) -> _SortKey:
    return _SortKey(value)
