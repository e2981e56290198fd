"""Order caches: the editor-side materialisation of the character chain.

A :class:`~repro.text.document.DocumentHandle` mirrors the database's
neighbour-linked characters as a sequence of visible OIDs.  The paper's
scalability claim ("very fast transactions for all editing tasks",
regardless of document size) only survives on the client if that mirror
is cheap to maintain: a flat Python list pays an O(n) ``list.insert``
memmove and an O(n) ``list.index`` scan on every remote splice — exactly
the offset-array behaviour the chain representation exists to avoid.

:class:`ChunkedOrderCache` is the production structure: an
order-statistic blocked list (in the spirit of
:class:`~repro.db.sortedlist.BlockedSortedList`, but positional rather
than sorted).  Visible characters live in bounded chunks; an oid→chunk
map gives O(1) membership, and positional queries walk the chunk
directory, so splices and index lookups cost ~O(√n).  Each chunk also
keeps its characters and a lazily-joined text segment, so ``text()`` /
``styled_runs()`` / ``authors()`` are served from the cache instead of
re-materialising the whole ``tx_chars`` table per call.

:class:`FlatOrderCache` preserves the original flat-list behaviour and
exists as the measured baseline for the large-document benchmarks
(``benchmarks/bench_editing_transactions.py``).

Both caches maintain, per visible character, the payload the rendering
paths need (character, style, author); style changes are O(1) updates.

:func:`splice_row` and :func:`position_after` are how a cache follows
the chain: which committed row splices in, out or only restyles, and
where "after this anchor" is when the anchor itself is hidden.  Both
replicas of a document use them — the in-process
:class:`~repro.text.document.DocumentHandle` and the wire client's
:class:`~repro.net.mirror.DocMirror` — differing only in how a
character's chain predecessor is looked up.

Complexity (n visible characters, chunk target B, so ~n/B chunks):

=================  ==================  =================
operation          ChunkedOrderCache   FlatOrderCache
=================  ==================  =================
``insert``         O(B + n/B)          O(n)
``remove``         O(B + n/B)          O(n)
``index_of``       O(B + n/B)          O(n) (hint: O(1))
``oid_at``         O(n/B)              O(1)
``text()``         O(dirty·B + n/B)    O(n)
``set_style``      O(1)                O(1)
membership         O(1)                O(1)
=================  ==================  =================

Invariants (checked by :meth:`ChunkedOrderCache.check`):

* every chunk is non-empty and no larger than ``2 * CHUNK``;
* the oid→chunk map contains exactly the oids of all chunks;
* per-chunk ``oids`` and ``chars`` stay parallel;
* a chunk's cached text, when present, equals ``"".join(chars)``.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator

from ..ids import Oid


class _Chunk:
    """One bounded run of consecutive visible characters."""

    __slots__ = ("oids", "chars", "joined")

    def __init__(self, oids: list[Oid], chars: list[str]) -> None:
        self.oids = oids
        self.chars = chars
        #: Lazily materialised "".join(chars); None when dirty.
        self.joined: str | None = None

    def text(self) -> str:
        if self.joined is None:
            self.joined = "".join(self.chars)
        return self.joined


class ChunkedOrderCache:
    """Blocked order-statistic sequence of visible characters."""

    #: Target chunk size; chunks split at 2x and merge below 1/4.
    CHUNK = 512

    def __init__(self, rows: Iterable[dict] = ()) -> None:
        self._chunks: list[_Chunk] = []
        self._where: dict[Oid, _Chunk] = {}
        self._style: dict[Oid, Oid | None] = {}
        self._author: dict[Oid, str] = {}
        self._len = 0
        self.rebuild(rows)

    # ------------------------------------------------------------------
    # Bulk (re)build
    # ------------------------------------------------------------------

    def rebuild(self, rows: Iterable[dict]) -> None:
        """Reset from character rows in document order (a chain walk)."""
        oids: list[Oid] = []
        chars: list[str] = []
        style: dict[Oid, Oid | None] = {}
        author: dict[Oid, str] = {}
        for row in rows:
            oid = row["char"]
            oids.append(oid)
            chars.append(row["ch"])
            style[oid] = row["style"]
            author[oid] = row["author"]
        self._chunks = []
        self._where = {}
        self._style = style
        self._author = author
        self._len = len(oids)
        for start in range(0, len(oids), self.CHUNK):
            chunk = _Chunk(oids[start:start + self.CHUNK],
                           chars[start:start + self.CHUNK])
            self._chunks.append(chunk)
            for oid in chunk.oids:
                self._where[oid] = chunk

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def insert(self, index: int, oid: Oid, ch: str, style: Oid | None,
               author: str) -> None:
        """Splice a visible character in at ``index``."""
        if not 0 <= index <= self._len:
            raise IndexError(f"insert index {index} outside 0..{self._len}")
        if not self._chunks:
            chunk = _Chunk([oid], [ch])
            self._chunks.append(chunk)
            self._where[oid] = chunk
        else:
            at, offset = self._locate(index)
            chunk = self._chunks[at]
            chunk.oids.insert(offset, oid)
            chunk.chars.insert(offset, ch)
            chunk.joined = None
            self._where[oid] = chunk
            if len(chunk.oids) > 2 * self.CHUNK:
                self._split(at)
        self._style[oid] = style
        self._author[oid] = author
        self._len += 1

    def remove(self, oid: Oid) -> int:
        """Splice a character out; returns its former index."""
        chunk = self._where.pop(oid)
        offset = chunk.oids.index(oid)
        at = self._chunk_index(chunk)
        index = sum(len(c.oids) for c in self._chunks[:at]) + offset
        del chunk.oids[offset]
        del chunk.chars[offset]
        chunk.joined = None
        del self._style[oid]
        del self._author[oid]
        self._len -= 1
        if not chunk.oids:
            del self._chunks[at]
        elif len(chunk.oids) < self.CHUNK // 4:
            self._maybe_merge(at)
        return index

    def set_style(self, oid: Oid, style: Oid | None) -> bool:
        """Record a style change for a visible character (O(1))."""
        if oid not in self._where:
            return False
        self._style[oid] = style
        return True

    def _split(self, at: int) -> None:
        chunk = self._chunks[at]
        half = len(chunk.oids) // 2
        right = _Chunk(chunk.oids[half:], chunk.chars[half:])
        del chunk.oids[half:]
        del chunk.chars[half:]
        chunk.joined = None
        self._chunks.insert(at + 1, right)
        for oid in right.oids:
            self._where[oid] = right

    def _maybe_merge(self, at: int) -> None:
        """Fold a small chunk into a neighbour if the pair stays bounded."""
        for neighbour in (at - 1, at + 1):
            if not 0 <= neighbour < len(self._chunks):
                continue
            combined = (len(self._chunks[at].oids)
                        + len(self._chunks[neighbour].oids))
            if combined <= self.CHUNK:
                lo, hi = sorted((at, neighbour))
                left, right = self._chunks[lo], self._chunks[hi]
                left.oids.extend(right.oids)
                left.chars.extend(right.chars)
                left.joined = None
                for oid in right.oids:
                    self._where[oid] = left
                del self._chunks[hi]
                return

    # ------------------------------------------------------------------
    # Positional lookup
    # ------------------------------------------------------------------

    def _locate(self, index: int) -> tuple[int, int]:
        """(chunk position, offset) for a sequence index (insert-friendly:
        ``index == len`` maps to appending at the last chunk's end)."""
        if index >= self._len:
            last = len(self._chunks) - 1
            return last, len(self._chunks[last].oids)
        for at, chunk in enumerate(self._chunks):
            n = len(chunk.oids)
            if index < n:
                return at, index
            index -= n
        raise IndexError("unreachable: index inside bounds")  # pragma: no cover

    def _chunk_index(self, chunk: _Chunk) -> int:
        for at, candidate in enumerate(self._chunks):
            if candidate is chunk:
                return at
        raise ValueError("chunk not in directory")  # pragma: no cover

    def index_of(self, oid: Oid) -> int:
        """Current position of a visible character (raises KeyError)."""
        chunk = self._where[oid]
        prefix = 0
        for candidate in self._chunks:
            if candidate is chunk:
                return prefix + chunk.oids.index(oid)
            prefix += len(candidate.oids)
        raise ValueError("chunk not in directory")  # pragma: no cover

    def oid_at(self, index: int) -> Oid:
        """The character OID at ``index`` (raises IndexError)."""
        if not 0 <= index < self._len:
            raise IndexError(f"index {index} outside document of "
                             f"length {self._len}")
        at, offset = self._locate(index)
        return self._chunks[at].oids[offset]

    def oid_slice(self, start: int, stop: int) -> list[Oid]:
        """OIDs of positions ``[start, stop)``, clamped like list slices."""
        start = max(0, start)
        stop = min(self._len, stop)
        if start >= stop:
            return []
        out: list[Oid] = []
        at, offset = self._locate(start)
        remaining = stop - start
        while remaining > 0:
            chunk = self._chunks[at]
            take = chunk.oids[offset:offset + remaining]
            out.extend(take)
            remaining -= len(take)
            at += 1
            offset = 0
        return out

    def last_oid(self) -> Oid | None:
        """The final visible character (the append fast path probe)."""
        if not self._chunks:
            return None
        return self._chunks[-1].oids[-1]

    # ------------------------------------------------------------------
    # Membership and payload
    # ------------------------------------------------------------------

    def __contains__(self, oid: Oid) -> bool:
        return oid in self._where

    def __len__(self) -> int:
        return self._len

    def __iter__(self) -> Iterator[Oid]:
        for chunk in self._chunks:
            yield from chunk.oids

    def oids(self) -> list[Oid]:
        """All visible OIDs in document order (copy)."""
        out: list[Oid] = []
        for chunk in self._chunks:
            out.extend(chunk.oids)
        return out

    def char_of(self, oid: Oid) -> str:
        """The character a visible OID renders as."""
        chunk = self._where[oid]
        return chunk.chars[chunk.oids.index(oid)]

    def style_of(self, oid: Oid) -> Oid | None:
        return self._style[oid]

    def author_of(self, oid: Oid) -> str:
        return self._author[oid]

    # ------------------------------------------------------------------
    # Rendering (no database access)
    # ------------------------------------------------------------------

    def text(self) -> str:
        """The visible text, from per-chunk segments (no table scan)."""
        return "".join(chunk.text() for chunk in self._chunks)

    def styled_runs(self) -> list[tuple[str, Oid | None]]:
        """Maximal runs of identically-styled characters."""
        runs: list[tuple[str, Oid | None]] = []
        current: Oid | None = None
        buffer: list[str] = []
        style = self._style
        for chunk in self._chunks:
            for oid, ch in zip(chunk.oids, chunk.chars):
                s = style[oid]
                if buffer and s != current:
                    runs.append(("".join(buffer), current))
                    buffer = []
                current = s
                buffer.append(ch)
        if buffer:
            runs.append(("".join(buffer), current))
        return runs

    def authors(self) -> dict[str, int]:
        """Visible character counts per author."""
        counts: dict[str, int] = {}
        author = self._author
        for chunk in self._chunks:
            for oid in chunk.oids:
                who = author[oid]
                counts[who] = counts.get(who, 0) + 1
        return counts

    # ------------------------------------------------------------------
    # Self-check (tests, debugging)
    # ------------------------------------------------------------------

    def check(self) -> list[str]:
        """Validate the structural invariants; empty list = healthy."""
        problems: list[str] = []
        seen: dict[Oid, _Chunk] = {}
        total = 0
        for at, chunk in enumerate(self._chunks):
            if not chunk.oids:
                problems.append(f"chunk {at} is empty")
            if len(chunk.oids) > 2 * self.CHUNK:
                problems.append(f"chunk {at} overflows: {len(chunk.oids)}")
            if len(chunk.oids) != len(chunk.chars):
                problems.append(f"chunk {at}: oids/chars not parallel")
            if chunk.joined is not None and chunk.joined != "".join(chunk.chars):
                problems.append(f"chunk {at}: stale cached text")
            for oid in chunk.oids:
                if oid in seen:
                    problems.append(f"{oid} appears in two chunks")
                seen[oid] = chunk
            total += len(chunk.oids)
        if total != self._len:
            problems.append(f"length {self._len} != chunk total {total}")
        if seen.keys() != self._where.keys():
            problems.append("oid->chunk map out of sync with chunks")
        else:
            for oid, chunk in seen.items():
                if self._where[oid] is not chunk:
                    problems.append(f"{oid} mapped to the wrong chunk")
                    break
        for payload, label in ((self._style, "style"),
                               (self._author, "author")):
            if payload.keys() != self._where.keys():
                problems.append(f"{label} payload out of sync")
        return problems

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"ChunkedOrderCache(len={self._len}, "
                f"chunks={len(self._chunks)})")


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
        for row in rows:
            oid = row["char"]
            self._order.append(oid)
            self._chars[oid] = row["ch"]
            self._style[oid] = row["style"]
            self._author[oid] = row["author"]

    def insert(self, index: int, oid: Oid, ch: str, style: Oid | None,
               author: str) -> None:
        if not 0 <= index <= len(self._order):
            raise IndexError(f"insert index {index} outside "
                             f"0..{len(self._order)}")
        self._order.insert(index, oid)
        self._chars[oid] = ch
        self._style[oid] = style
        self._author[oid] = author
        self._hint = index

    def remove(self, oid: Oid) -> int:
        index = self.index_of(oid)
        del self._order[index]
        del self._chars[oid]
        del self._style[oid]
        del self._author[oid]
        self._hint = index
        return index

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

    def char_of(self, oid: Oid) -> str:
        return self._chars[oid]

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


def position_after(cache, anchor: Oid | None, begin: Oid,
                   prev_of: Callable[[Oid], Oid | None]) -> int:
    """Cache position just after ``anchor``, skipping hidden predecessors.

    The cursor-anchor rule and the splice rule in one place: a position
    sits *after* its anchor, and an anchor that is not in ``cache``
    (logically deleted, or not spliced in yet) slides it left to the
    nearest character that is.  ``prev_of(oid)`` names a character's
    chain predecessor (``None`` if unknown) — a database lookup for a
    :class:`~repro.text.document.DocumentHandle`, a dict probe for a
    :class:`~repro.net.mirror.DocMirror`.

    The common cases are O(1): appending after the current last
    character (bulk loads, typing at the end), or an anchor that is
    visible (one oid→chunk probe).  Otherwise the walk may cross
    arbitrarily many deleted predecessors (far more than the cache
    holds visible characters), so the only stop conditions are reaching
    a visible character, reaching the BEGIN sentinel, or detecting a
    cycle (corrupt chain).
    """
    if anchor is not None and anchor == cache.last_oid():
        return len(cache)
    current = anchor
    seen: set[Oid] = set()
    while current is not None and current != begin:
        if current in cache:
            return cache.index_of(current) + 1
        if current in seen:
            break  # corrupt chain; fall back to the front
        seen.add(current)
        current = prev_of(current)
    return 0


def splice_row(cache, row: dict, begin: Oid,
               prev_of: Callable[[Oid], Oid | None]) -> bool:
    """Bring ``cache`` in line with one committed ``tx_chars`` row.

    A visible row the cache lacks (insert, undelete) is spliced in after
    its nearest cached predecessor; a deleted row the cache holds is
    spliced out; a row that is visible on both sides only refreshes the
    style payload.  Sentinels never enter the cache.  Returns whether
    the sequence changed.

    Rows of one commit may be applied in any order as long as
    ``prev_of`` already answers from the post-commit chain: each splice
    lands directly after the nearest predecessor *present in the cache*,
    so a later-applied character in between slots in before it.
    """
    if not row["ch"]:
        return False
    oid = row["char"]
    if oid in cache:
        if row["deleted"]:
            cache.remove(oid)
            return True
        cache.set_style(oid, row["style"])
        return False
    if row["deleted"]:
        return False
    cache.insert(position_after(cache, row["prev"], begin, prev_of),
                 oid, row["ch"], row["style"], row["author"])
    return True


#: Cache kinds selectable when opening a handle (benchmarks use "flat").
CACHE_KINDS = {
    "chunked": ChunkedOrderCache,
    "flat": FlatOrderCache,
}


def make_order_cache(kind: str, rows: Iterable[dict] = ()):
    """Build an order cache by kind name (``"chunked"`` | ``"flat"``)."""
    try:
        cls = CACHE_KINDS[kind]
    except KeyError:
        raise ValueError(
            f"unknown order-cache kind {kind!r}; "
            f"expected one of {sorted(CACHE_KINDS)}"
        ) from None
    return cls(rows)
