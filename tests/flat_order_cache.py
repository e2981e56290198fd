"""The flat-list order cache: the oracle and the baseline arm.

``FlatOrderCache`` is the original editor-side order cache — one Python
list of visible OIDs, O(n) splices and O(n) index scans — kept out of
the package because the running system never builds one.  It presents
the interface of :class:`repro.text.ordercache.ChunkedOrderCache`, so
``tests/test_order_cache.py`` checks the chunked cache against it and
``benchmarks/bench_editing_transactions.py`` measures it as the O(n)
arm of the large-document splice benchmark.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.ids import Oid


class FlatOrderCache:
    """The original flat-list cache: O(n) splices, O(n) index scans.

    Kept as the measured baseline for the large-document cache
    benchmarks; presents the same interface as
    :class:`ChunkedOrderCache` (including the locality hint the seed
    implementation used for sequential typing).
    """

    def __init__(self, rows: Iterable[dict] = ()) -> None:
        self._order: list[Oid] = []
        self._chars: dict[Oid, str] = {}
        self._style: dict[Oid, Oid | None] = {}
        self._author: dict[Oid, str] = {}
        self._hint = 0
        self.rebuild(rows)

    def rebuild(self, rows: Iterable[dict]) -> None:
        self._order = []
        self._chars = {}
        self._style = {}
        self._author = {}
        self._hint = 0
        self.insert_run(0, rows)

    def insert(self, index: int, oid: Oid, ch: str, style: Oid | None,
               author: str) -> None:
        self.insert_run(index, ({"char": oid, "ch": ch, "style": style,
                                 "author": author},))

    def insert_run(self, index: int, rows: Iterable[dict]) -> None:
        if not 0 <= index <= len(self._order):
            raise IndexError(f"insert index {index} outside "
                             f"0..{len(self._order)}")
        oids = []
        for row in rows:
            oid = row["char"]
            oids.append(oid)
            self._chars[oid] = row["ch"]
            self._style[oid] = row["style"]
            self._author[oid] = row["author"]
        self._order[index:index] = oids
        self._hint = index

    def remove(self, oid: Oid) -> int:
        index = self.index_of(oid)
        del self._order[index]
        del self._chars[oid]
        del self._style[oid]
        del self._author[oid]
        self._hint = index
        return index

    def remove_run(self, oids: Iterable[Oid]) -> None:
        for oid in oids:
            self.remove(oid)

    def set_style(self, oid: Oid, style: Oid | None) -> bool:
        if oid not in self._chars:
            return False
        self._style[oid] = style
        return True

    def index_of(self, oid: Oid) -> int:
        if oid not in self._chars:
            raise KeyError(oid)
        order = self._order
        hint = self._hint
        for probe in (hint - 1, hint, hint + 1):
            if 0 <= probe < len(order) and order[probe] == oid:
                return probe
        return order.index(oid)

    def positions_of(self, oids: Iterable[Oid]) -> list[int | None]:
        return [self.index_of(oid) if oid in self._chars else None
                for oid in oids]

    def oid_at(self, index: int) -> Oid:
        if not 0 <= index < len(self._order):
            raise IndexError(f"index {index} outside document of "
                             f"length {len(self._order)}")
        return self._order[index]

    def oid_slice(self, start: int, stop: int) -> list[Oid]:
        return self._order[max(0, start):stop]

    def last_oid(self) -> Oid | None:
        return self._order[-1] if self._order else None

    def __contains__(self, oid: Oid) -> bool:
        return oid in self._chars

    def __len__(self) -> int:
        return len(self._order)

    def __iter__(self) -> Iterator[Oid]:
        return iter(self._order)

    def oids(self) -> list[Oid]:
        return list(self._order)

    def text_of(self, oids: Iterable[Oid]) -> str:
        chars = self._chars
        return "".join(chars[oid] for oid in oids if oid in chars)

    def style_of(self, oid: Oid) -> Oid | None:
        return self._style[oid]

    def author_of(self, oid: Oid) -> str:
        return self._author[oid]

    def text(self) -> str:
        chars = self._chars
        return "".join(chars[oid] for oid in self._order)

    def styled_runs(self) -> list[tuple[str, Oid | None]]:
        runs: list[tuple[str, Oid | None]] = []
        current: Oid | None = None
        buffer: list[str] = []
        for oid in self._order:
            s = self._style[oid]
            if buffer and s != current:
                runs.append(("".join(buffer), current))
                buffer = []
            current = s
            buffer.append(self._chars[oid])
        if buffer:
            runs.append(("".join(buffer), current))
        return runs

    def authors(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for oid in self._order:
            who = self._author[oid]
            counts[who] = counts.get(who, 0) + 1
        return counts

    def check(self) -> list[str]:
        problems: list[str] = []
        if set(self._order) != self._chars.keys():
            problems.append("order list out of sync with payload")
        for payload, label in ((self._style, "style"),
                               (self._author, "author")):
            if payload.keys() != self._chars.keys():
                problems.append(f"{label} payload out of sync")
        return problems

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"FlatOrderCache(len={len(self._order)})"
