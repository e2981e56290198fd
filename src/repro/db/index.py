"""Secondary indexes.

Two kinds, both mapping a single column value to row ids:

* :class:`HashIndex` — dict-backed, O(1) equality probes.  This is what the
  TeNDaX schema uses for character-id and document-id lookups, the hot path
  of every keystroke transaction.
* :class:`OrderedIndex` — a blocked sorted list (see
  :mod:`repro.db.sortedlist`), supporting range probes (timestamps,
  sizes) and ordered iteration with ~O(√n) maintenance.

Indexes reflect *committed* data only; uncommitted changes are overlaid by
the query executor for the owning transaction (see :mod:`repro.db.query`).
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator

from ..errors import UniqueViolation


class Index:
    """Interface shared by both index kinds."""

    kind = "abstract"

    def __init__(self, name: str, column: str, *, unique: bool = False) -> None:
        self.name = name
        self.column = column
        self.unique = unique

    def add(self, key: Any, rowid: int) -> None:
        """Index ``rowid`` under ``key`` (``None`` keys are skipped)."""
        raise NotImplementedError

    def remove(self, key: Any, rowid: int) -> None:
        """Drop the ``(key, rowid)`` entry if present."""
        raise NotImplementedError

    def probe_eq(self, key: Any) -> Iterator[int]:
        """Row ids whose key equals ``key``."""
        raise NotImplementedError

    def probe_in(self, keys: Iterable[Any]) -> Iterator[int]:
        """Row ids whose key is any of ``keys`` (deduplicated)."""
        seen: set[int] = set()
        for key in keys:
            for rowid in self.probe_eq(key):
                if rowid not in seen:
                    seen.add(rowid)
                    yield rowid

    def find(self, key: Any) -> int | None:
        """The one row id a unique index holds under ``key``, if any."""
        return next(self.probe_eq(key), None)

    def supports_range(self) -> bool:
        """Whether :meth:`probe_range` is available."""
        return False

    def __len__(self) -> int:
        raise NotImplementedError


class HashIndex(Index):
    """Equality-only index: ``value -> row id(s)``.

    The bucket rule: a key with one row maps to the bare row id, and
    only a key with two or more rows maps to a ``set`` of them.  A key
    becomes a set when its second row arrives and goes back to a bare id
    when it is left with one.  Most keys hold one row — every character
    id on the keystroke path, every document name in an archive — so a
    one-element set (216 B) would be the largest thing the index holds.
    A *unique* index never holds a set.

    ``None`` keys are never indexed (NULL never matches an equality probe
    with a non-null constant, and explicit IS NULL queries fall back to a
    scan).
    """

    kind = "hash"

    def __init__(self, name: str, column: str, *, unique: bool = False) -> None:
        super().__init__(name, column, unique=unique)
        #: key -> rowid, or key -> set of two or more rowids.
        self._map: dict[Any, Any] = {}
        self._size = 0

    def add(self, key: Any, rowid: int) -> None:
        """Index ``rowid`` under ``key``; enforces uniqueness."""
        if key is None:
            return
        if self.unique:
            if self._map.setdefault(key, rowid) != rowid:
                raise UniqueViolation(
                    f"index {self.name!r}: duplicate key {key!r}"
                )
            self._size = len(self._map)
            return
        bucket = self._map.get(key)
        if bucket is None:
            self._map[key] = rowid
        elif type(bucket) is set:
            if rowid in bucket:
                return
            bucket.add(rowid)
        elif bucket == rowid:
            return
        else:
            self._map[key] = {bucket, rowid}
        self._size += 1

    def remove(self, key: Any, rowid: int) -> None:
        """Drop the entry if present (absent entries are a no-op)."""
        if key is None:
            return
        bucket = self._map.get(key)
        if type(bucket) is set:
            if rowid not in bucket:
                return
            bucket.remove(rowid)
            if len(bucket) == 1:
                (self._map[key],) = bucket
        elif bucket == rowid:
            del self._map[key]
        else:
            return
        self._size -= 1

    def probe_eq(self, key: Any) -> Iterator[int]:
        """Row ids stored under exactly ``key``."""
        bucket = self._map.get(key)
        if bucket is None:
            return iter(())
        return iter(bucket) if type(bucket) is set else iter((bucket,))

    def find(self, key: Any) -> int | None:
        """The one row id a unique index holds under ``key``, if any."""
        if self.unique:
            return self._map.get(key)
        return super().find(key)

    def keys(self) -> Iterator[Any]:
        """Iterate the distinct indexed keys."""
        return iter(self._map.keys())

    def __len__(self) -> int:
        return self._size


class OrderedIndex(Index):
    """Sorted index supporting range probes and ordered iteration.

    Entries are ``(key, rowid)`` pairs kept in a
    :class:`~repro.db.sortedlist.BlockedSortedList`, so inserts/removals
    cost ~O(√n) instead of the O(n) memmove of a flat sorted array — this
    matters because ordered indexes (e.g. on the access-log timestamp)
    are maintained on the keystroke path.  All keys of one index must be
    mutually comparable (the schema's typing guarantees this per column).
    """

    kind = "ordered"

    def __init__(self, name: str, column: str, *, unique: bool = False) -> None:
        super().__init__(name, column, unique=unique)
        from .sortedlist import BlockedSortedList
        self._entries = BlockedSortedList()

    def add(self, key: Any, rowid: int) -> None:
        """Index ``rowid`` under ``key``; enforces uniqueness."""
        if key is None:
            return
        if self.unique and next(self.probe_eq(key), None) is not None:
            raise UniqueViolation(
                f"index {self.name!r}: duplicate key {key!r}"
            )
        self._entries.add((key, rowid))

    def remove(self, key: Any, rowid: int) -> None:
        """Drop the ``(key, rowid)`` entry if present."""
        if key is None:
            return
        self._entries.remove((key, rowid))

    def probe_eq(self, key: Any) -> Iterator[int]:
        """Row ids whose key equals ``key``, in entry order."""
        if key is None:
            return
        for k, rowid in self._entries.irange(low=(key,)):
            if k != key:
                break
            yield rowid

    def probe_range(
        self,
        low: Any = None,
        high: Any = None,
        *,
        low_inclusive: bool = True,
        high_inclusive: bool = True,
    ) -> Iterator[int]:
        """Yield row ids whose key lies in the given (possibly open) range."""
        start = None if low is None else (low,)
        for k, rowid in self._entries.irange(low=start):
            if (low is not None and not low_inclusive and k == low):
                continue
            if high is not None:
                if high_inclusive:
                    if k > high:
                        break
                elif k >= high:
                    break
            yield rowid

    def supports_range(self) -> bool:
        """Ordered indexes answer range probes."""
        return True

    def iter_ordered(self, *, reverse: bool = False) -> Iterator[tuple[Any, int]]:
        """Iterate ``(key, rowid)`` in key order."""
        if reverse:
            return iter(reversed(self._entries))
        return iter(self._entries)

    def min_key(self) -> Any:
        """Smallest indexed key (``None`` when empty)."""
        entry = self._entries.min()
        return None if entry is None else entry[0]

    def max_key(self) -> Any:
        """Largest indexed key (``None`` when empty)."""
        entry = self._entries.max()
        return None if entry is None else entry[0]

    def __len__(self) -> int:
        return len(self._entries)
