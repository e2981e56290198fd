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
map gives O(1) membership; every chunk knows its place in the chunk
directory, and a prefix-sum array over the chunk sizes — rebuilt lazily
after a mutation, searched with ``bisect`` — turns a position into a
chunk and a chunk into a position.  What is left per lookup is one
``list.index`` inside a single chunk, which compares
:class:`~repro.ids.Oid` tuples in C.  Each chunk also keeps its
characters and a lazily-joined text segment, so ``text()`` /
``styled_runs()`` / ``authors()`` are served from the cache instead of
re-materialising the whole ``tx_chars`` table per call.

Batch forms (``insert_run`` / ``remove_run`` / ``positions_of`` /
``text_of``) work chunk by chunk: k characters that sit side by side
cost one lookup and one slice operation per chunk they touch, not k
lookups and k ``list.insert`` calls.

The original flat-list cache survives outside the package, as
``FlatOrderCache`` in ``tests/flat_order_cache.py``: the reference
implementation ``tests/test_order_cache.py`` compares against and the
measured baseline of the large-document benchmarks
(``benchmarks/bench_editing_transactions.py``).

Both caches maintain, per visible character, the payload the rendering
paths need (character, style, author); style changes are O(1) updates.

:func:`splice_rows` and :func:`position_after` are how a cache follows
the chain: which committed rows splice in, out or only restyle, and
where "after this anchor" is when the anchor itself is hidden.  Both
replicas of a document use them — the in-process
:class:`~repro.text.document.DocumentHandle` and the wire client's
:class:`~repro.net.mirror.DocMirror` — differing only in how a
character's chain predecessor is looked up.

Complexity (n visible characters, chunk target B, so ~n/B chunks; k
characters in a batch touching c chunks; "dir" is the lazy directory
rebuild, one C-level pass over n/B chunk sizes, paid by the first
positional lookup after a mutation):

===================  ====================  =================
operation            ChunkedOrderCache     flat list
===================  ====================  =================
``insert``           O(B + log(n/B))+dir   O(n)
``index_of``         O(B) + dir            O(n) (hint: O(1))
``oid_at``           O(log(n/B)) + dir     O(1)
``insert_run``       O(k + B) + dir        O(n + k)
``remove_run``       O(k + c·B) + dir      O(k·n)
``positions_of``     O(k + c·B) + dir      O(k·n)
``text_of``          O(k + c·B)            O(k)
``text()``           O(dirty·B + n/B)      O(n)
``set_style``        O(1)                  O(1)
membership           O(1)                  O(1)
===================  ====================  =================

Every O(B) term is a C-level ``list.index`` / slice over one chunk.

Invariants (checked by :meth:`ChunkedOrderCache.check`):

* every chunk is non-empty and no larger than ``2 * CHUNK``;
* chunk ``i`` of the directory records ``at == i``;
* the prefix-sum array, when present, matches the chunk sizes;
* the oid→chunk map contains exactly the oids of all chunks;
* per-chunk ``oids`` and ``chars`` stay parallel;
* a chunk's cached text, when present, equals ``"".join(chars)``.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

from ..ids import Oid


class _Chunk:
    """One bounded run of consecutive visible characters."""

    __slots__ = ("oids", "chars", "joined", "at")

    def __init__(self, oids: list[Oid], chars: list[str]) -> None:
        self.oids = oids
        self.chars = chars
        #: Lazily materialised "".join(chars); None when dirty.
        self.joined: str | None = None
        #: This chunk's place in the owning cache's directory.
        self.at = 0

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
        #: ``_starts[i]`` = characters before chunk ``i``, for as many
        #: chunks as are known: a mutation of chunk ``i`` cuts the list
        #: after entry ``i`` (what lies before a chunk does not depend
        #: on it) and lookups extend it again only as far as they reach.
        #: Complete, it has one trailing entry holding the total.
        self._starts: list[int] = [0]
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
        self._chunks = []
        self._starts = [0]
        self._where = {}
        self._style = {}
        self._author = {}
        self._len = 0
        self.insert_run(0, rows)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def insert(self, index: int, oid: Oid, ch: str, style: Oid | None,
               author: str) -> None:
        """Splice a visible character in at ``index``."""
        self.insert_run(index, ({"char": oid, "ch": ch, "style": style,
                                 "author": author},))

    def insert_run(self, index: int, rows: Iterable[dict]) -> None:
        """Splice consecutive visible characters in at ``index``.

        ``rows`` are character rows in document order (the keys
        :meth:`rebuild` reads).  One directory lookup and one slice
        assignment, however long the run; a chunk that outgrows its
        bound is cut into even pieces.
        """
        if not 0 <= index <= self._len:
            raise IndexError(f"insert index {index} outside 0..{self._len}")
        oids: list[Oid] = []
        chars: list[str] = []
        style = self._style
        author = self._author
        for row in rows:
            oid = row["char"]
            oids.append(oid)
            chars.append(row["ch"])
            style[oid] = row["style"]
            author[oid] = row["author"]
        if not oids:
            return
        if self._chunks:
            at, offset = self._locate(index)
            chunk = self._chunks[at]
            chunk.oids[offset:offset] = oids
            chunk.chars[offset:offset] = chars
            chunk.joined = None
        else:
            chunk = _Chunk(oids, chars)
            self._chunks.append(chunk)
        self._where.update(dict.fromkeys(oids, chunk))
        self._len += len(oids)
        del self._starts[chunk.at + 1:]
        if len(chunk.oids) > 2 * self.CHUNK:
            self._split(chunk.at)

    def remove_run(self, oids: Iterable[Oid]) -> None:
        """Splice visible characters out (raises KeyError on a stranger).

        Characters that sit side by side leave with one lookup and one
        slice deletion per chunk they span.
        """
        oids = list(oids)
        done = 0
        for chunk, offset, count in self._spans(oids):
            if chunk is None:
                raise KeyError(oids[done])
            self._cut(chunk, offset, count)
            done += count

    def _cut(self, chunk: _Chunk, offset: int, count: int) -> None:
        """Drop ``count`` characters of ``chunk`` starting at ``offset``."""
        stop = offset + count
        where, style, author = self._where, self._style, self._author
        for oid in chunk.oids[offset:stop]:
            del where[oid]
            del style[oid]
            del author[oid]
        del chunk.oids[offset:stop]
        del chunk.chars[offset:stop]
        chunk.joined = None
        self._len -= count
        del self._starts[chunk.at + 1:]
        if not chunk.oids:
            del self._chunks[chunk.at]
            self._renumber(chunk.at)
        elif len(chunk.oids) < self.CHUNK // 4:
            self._maybe_merge(chunk.at)

    def set_style(self, oid: Oid, style: Oid | None) -> bool:
        """Record a style change for a visible character (O(1))."""
        if oid not in self._where:
            return False
        self._style[oid] = style
        return True

    def _split(self, at: int) -> None:
        """Cut an oversized chunk into even pieces of about ``CHUNK``."""
        chunk = self._chunks[at]
        size = len(chunk.oids)
        step = -(-size // (size // self.CHUNK))
        pieces = [_Chunk(chunk.oids[cut:cut + step],
                         chunk.chars[cut:cut + step])
                  for cut in range(step, size, step)]
        del chunk.oids[step:]
        del chunk.chars[step:]
        chunk.joined = None
        self._chunks[at + 1:at + 1] = pieces
        for piece in pieces:
            self._where.update(dict.fromkeys(piece.oids, piece))
        self._renumber(at + 1)

    def _maybe_merge(self, at: int) -> None:
        """Fold a small chunk into a neighbour if the pair stays bounded."""
        for neighbour in (at - 1, at + 1):
            if not 0 <= neighbour < len(self._chunks):
                continue
            combined = (len(self._chunks[at].oids)
                        + len(self._chunks[neighbour].oids))
            if combined <= self.CHUNK:
                lo, hi = sorted((at, neighbour))
                del self._starts[lo + 1:]
                left, right = self._chunks[lo], self._chunks[hi]
                left.oids.extend(right.oids)
                left.chars.extend(right.chars)
                left.joined = None
                self._where.update(dict.fromkeys(right.oids, left))
                del self._chunks[hi]
                self._renumber(hi)
                return

    def _renumber(self, start: int) -> None:
        """Re-record directory places after a chunk came or went."""
        chunks = self._chunks
        for at in range(start, len(chunks)):
            chunks[at].at = at

    # ------------------------------------------------------------------
    # Positional lookup
    # ------------------------------------------------------------------

    def _directory(self, through: int | None = None) -> list[int]:
        """Prefix sums of the chunk sizes, known at least up to entry
        ``through`` (default: all of them, total included): extended
        from where the last mutation cut them, never rebuilt."""
        starts = self._starts
        if through is None:
            through = len(self._chunks)
        if len(starts) <= through:
            chunks = self._chunks
            total = starts[-1]
            for at in range(len(starts) - 1, through):
                total += len(chunks[at].oids)
                starts.append(total)
        return starts

    def _locate(self, index: int) -> tuple[int, int]:
        """(chunk position, offset) for a sequence index (insert-friendly:
        ``index == len`` maps to appending at the last chunk's end)."""
        if index >= self._len:
            last = len(self._chunks) - 1
            return last, len(self._chunks[last].oids)
        starts = self._starts
        if starts[-1] <= index:
            # Extend just far enough: to the first chunk starting
            # beyond ``index``.
            chunks = self._chunks
            total = starts[-1]
            at = len(starts) - 1
            while total <= index:
                total += len(chunks[at].oids)
                starts.append(total)
                at += 1
        at = bisect_right(starts, index) - 1
        return at, index - starts[at]

    def _spans(self, oids: list[Oid]
               ) -> Iterator[tuple[_Chunk | None, int, int]]:
        """Cut ``oids`` into ``(chunk, offset, count)`` stretches that
        sit side by side inside one chunk, in input order; an oid that
        is not visible comes back alone as ``(None, 0, 1)``.

        Each stretch costs one ``list.index`` and one slice comparison.
        The caller may mutate the cache between stretches: nothing is
        carried over from one to the next.
        """
        where = self._where
        done, total = 0, len(oids)
        while done < total:
            chunk = where.get(oids[done])
            if chunk is None:
                yield None, 0, 1
                done += 1
                continue
            held = chunk.oids
            offset = held.index(oids[done])
            count = min(total - done, len(held) - offset)
            if held[offset:offset + count] != oids[done:done + count]:
                count = 1
                while held[offset + count] == oids[done + count]:
                    count += 1
            yield chunk, offset, count
            done += count

    def index_of(self, oid: Oid) -> int:
        """Current position of a visible character (raises KeyError)."""
        chunk = self._where[oid]
        return self._directory(chunk.at)[chunk.at] + chunk.oids.index(oid)

    def positions_of(self, oids: Iterable[Oid]) -> list[int | None]:
        """Positions parallel to ``oids``; None where one is not visible."""
        starts = self._directory()
        out: list[int | None] = []
        for chunk, offset, count in self._spans(list(oids)):
            if chunk is None:
                out.append(None)
            else:
                first = starts[chunk.at] + offset
                out.extend(range(first, first + count))
        return out

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

    def text_of(self, oids: Iterable[Oid]) -> str:
        """The text of the visible characters among ``oids``, in the
        order given."""
        out: list[str] = []
        for chunk, offset, count in self._spans(list(oids)):
            if chunk is not None:
                out.extend(chunk.chars[offset:offset + count])
        return "".join(out)

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
            if chunk.at != at:
                problems.append(f"chunk {at} believes it is chunk {chunk.at}")
            if at < len(self._starts) and self._starts[at] != total:
                problems.append(f"chunk {at}: stale directory entry")
            for oid in chunk.oids:
                if oid in seen:
                    problems.append(f"{oid} appears in two chunks")
                seen[oid] = chunk
            total += len(chunk.oids)
        if total != self._len:
            problems.append(f"length {self._len} != chunk total {total}")
        if not 1 <= len(self._starts) <= len(self._chunks) + 1 or (
                len(self._starts) == len(self._chunks) + 1
                and self._starts[-1] != total):
            problems.append("directory does not end at the total length")
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


def splice_rows(cache, rows: Sequence[Mapping[str, Any]], begin: Oid,
                prev_of: Callable[[Oid], Oid | None]) -> bool:
    """Bring ``cache`` in line with the committed ``tx_chars`` rows of
    one transaction, in the order given.

    The rule per row: a visible row the cache lacks (insert, undelete)
    is spliced in after its nearest cached predecessor; a deleted row
    the cache holds is spliced out; a row that is visible on both sides
    only refreshes the style payload.  Sentinels never enter the cache.
    Returns whether the sequence changed.

    Rows are applied run by run.  A *run* is a stretch of consecutive
    rows that splice the same way and are chain-adjacent — each row's
    ``prev`` is the row before it — which is what a paste, a range
    delete or its undo commits.  Chain-adjacent characters are adjacent
    in the cache too, so a run needs one :func:`position_after` and one
    ``insert_run`` (or one ``remove_run``) instead of one of each per
    character.  Any other row ends the run, which is applied before the
    row is looked at: the result is that of applying the rule row by
    row.

    Rows of one commit may come in any order as long as ``prev_of``
    already answers from the post-commit chain: each splice lands
    directly after the nearest predecessor *present in the cache*, so a
    later-applied character in between slots in before it.
    """
    changed = False
    run: list[Mapping[str, Any]] = []
    inserting = False
    for row in rows:
        if not row["ch"]:
            continue
        oid = row["char"]
        deleted = row["deleted"]
        if run:
            if (row["prev"] == run[-1]["char"] and deleted != inserting
                    and (oid in cache) != inserting):
                run.append(row)
                continue
            _apply_run(cache, run, inserting, begin, prev_of)
            run = []
        if oid in cache:
            if deleted:
                run = [row]
                inserting = False
                changed = True
            else:
                cache.set_style(oid, row["style"])
        elif not deleted:
            run = [row]
            inserting = True
            changed = True
    if run:
        _apply_run(cache, run, inserting, begin, prev_of)
    return changed


def _apply_run(cache, run: list[Mapping[str, Any]], inserting: bool,
               begin: Oid, prev_of: Callable[[Oid], Oid | None]) -> None:
    if inserting:
        cache.insert_run(
            position_after(cache, run[0]["prev"], begin, prev_of), run)
    else:
        cache.remove_run([row["char"] for row in run])
