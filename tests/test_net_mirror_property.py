"""DocMirror's order index against a reference chain walk.

The mirror answers every read from an incrementally spliced
:class:`~repro.text.ordercache.ChunkedOrderCache`; the reference kept
here answers the same reads by re-walking the ``prev``/``next`` chain
on every call (what the mirror itself did before it had an index).  A
hypothesis state machine plays a server — keystrokes, multi-row pastes
whose delta rows arrive shuffled, deletes, undeletes, style changes,
and the run-shaped commits (a long paste, a range delete, its undo, a
range restyle, in document order or shuffled) that the index applies
with one splice per run — and a lossy network — deltas delivered in order, out of order
(buffered), twice (stale) or never, snapshots loaded late with buffered
deltas on both sides of their ``rep_seq`` — and after every step the
two must agree on every read API, with the index's own invariants and
the mirror's integrity check clean.
"""

from __future__ import annotations

import copy

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro.ids import Oid
from repro.net.mirror import DocMirror
from repro.text.ordercache import ChunkedOrderCache

DOC = Oid("doc", 1)
BEGIN = Oid("char", 0)
END = Oid("char", 1)
STRANGER = Oid("char", 10**9)
AUTHORS = ("ana", "ben", "cy")
STYLES = (None, Oid("style", 1), Oid("style", 2))


def _row(oid, ch, prev, nxt, author="ana", style=None) -> dict:
    return {"char": oid, "doc": DOC, "ch": ch, "prev": prev, "next": nxt,
            "deleted": False, "style": style, "author": author}


class ChainWalk:
    """The reference replica: same deltas, every read a full walk."""

    def __init__(self, snapshot: dict) -> None:
        self.pending: dict[int, list] = {}
        self._take(snapshot)

    def _take(self, snapshot: dict) -> None:
        self.begin = snapshot["begin"]
        self.rows = {row["char"]: row for row in snapshot["rows"]}
        self.last_seq = snapshot["rep_seq"]

    def load(self, snapshot: dict) -> None:
        self._take(snapshot)
        self.pending = {s: r for s, r in self.pending.items()
                        if s > self.last_seq}
        self._drain()

    def apply(self, seq: int, rows: list) -> str:
        if seq <= self.last_seq:
            return "stale"
        if seq > self.last_seq + 1:
            self.pending[seq] = rows
            return "buffered"
        self._upsert(rows)
        self.last_seq = seq
        self._drain()
        return "applied"

    def _drain(self) -> None:
        while self.last_seq + 1 in self.pending:
            self.last_seq += 1
            self._upsert(self.pending.pop(self.last_seq))

    def _upsert(self, rows: list) -> None:
        for row in rows:
            self.rows[row["char"]] = row

    def visible(self) -> list[dict]:
        out = []
        current = self.begin
        while current is not None:
            row = self.rows[current]
            if row["ch"] and not row["deleted"]:
                out.append(row)
            current = row["next"]
        return out

    def position_after(self, anchor: Oid) -> int:
        positions = {row["char"]: i for i, row in enumerate(self.visible())}
        current = anchor
        while current is not None and current != self.begin:
            if current in positions:
                return positions[current] + 1
            row = self.rows.get(current)
            if row is None:
                return 0
            current = row["prev"]
        return 0

    def styled_runs(self) -> list[tuple]:
        runs: list[tuple] = []
        for row in self.visible():
            if runs and runs[-1][1] == row["style"]:
                runs[-1] = (runs[-1][0] + row["ch"], row["style"])
            else:
                runs.append((row["ch"], row["style"]))
        return runs


class MirrorMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        #: The server's chain: the truth deltas are cut from.
        self.chain = {
            BEGIN: _row(BEGIN, "", None, END),
            END: _row(END, "", BEGIN, None),
        }
        self.next_oid = 2
        self.rep_seq = 0
        #: Every delta ever committed; the network may deliver any of
        #: them at any time, any number of times, or never.
        self.log: dict[int, list] = {}
        #: Snapshots taken earlier and not yet loaded (slow resyncs).
        self.snapshots: list[dict] = []
        self.mirror = DocMirror.from_snapshot(self._snapshot())
        self.reference = ChainWalk(self._snapshot())

    def _snapshot(self) -> dict:
        return {"doc": DOC, "begin": BEGIN, "end": END,
                "rep_seq": self.rep_seq,
                "rows": copy.deepcopy(list(self.chain.values()))}

    def _commit(self, data, touched: list, *, ordered: bool = False) -> None:
        """Cut a delta from the touched rows: as listed when ``ordered``
        (document order, what the server sends for a range operation),
        else in an arbitrary order."""
        order = touched if ordered else data.draw(
            st.permutations(touched), label="delta order")
        self.rep_seq += 1
        self.log[self.rep_seq] = [dict(self.chain[oid]) for oid in order]

    def _chars(self, *, deleted: bool) -> list:
        return [oid for oid, row in self.chain.items()
                if row["ch"] and row["deleted"] == deleted]

    # -- the server ----------------------------------------------------

    @rule(data=st.data(), text=st.text("abcdef ", min_size=1, max_size=6),
          author=st.sampled_from(AUTHORS), style=st.sampled_from(STYLES))
    def insert(self, data, text, author, style):
        """A keystroke (one char) or a paste (several), after any row —
        a deleted one included — but END."""
        anchor = data.draw(st.sampled_from(
            [oid for oid in self.chain if oid != END]), label="anchor")
        successor = self.chain[anchor]["next"]
        oids = [Oid("char", self.next_oid + i) for i in range(len(text))]
        self.next_oid += len(text)
        for i, (oid, ch) in enumerate(zip(oids, text)):
            self.chain[oid] = _row(
                oid, ch, oids[i - 1] if i else anchor,
                oids[i + 1] if i + 1 < len(oids) else successor,
                author, style)
        self.chain[anchor]["next"] = oids[0]
        self.chain[successor]["prev"] = oids[-1]
        self._commit(data, [anchor, successor, *oids])

    @precondition(lambda self: self._chars(deleted=False))
    @rule(data=st.data())
    def delete(self, data):
        oids = data.draw(st.lists(
            st.sampled_from(self._chars(deleted=False)), min_size=1,
            max_size=5, unique=True), label="delete")
        for oid in oids:
            self.chain[oid]["deleted"] = True
        self._commit(data, oids)

    @precondition(lambda self: self._chars(deleted=True))
    @rule(data=st.data())
    def undelete(self, data):
        oids = data.draw(st.lists(
            st.sampled_from(self._chars(deleted=True)), min_size=1,
            max_size=5, unique=True), label="undelete")
        for oid in oids:
            self.chain[oid]["deleted"] = False
        self._commit(data, oids)

    @precondition(lambda self: self._chars(deleted=False))
    @rule(data=st.data(), style=st.sampled_from(STYLES))
    def restyle(self, data, style):
        oids = data.draw(st.lists(
            st.sampled_from(self._chars(deleted=False)), min_size=1,
            max_size=5, unique=True), label="restyle")
        for oid in oids:
            self.chain[oid]["style"] = style
        self._commit(data, oids)

    # -- run-shaped commits ---------------------------------------------

    def _stretch(self, data, *, deleted: bool) -> list:
        """Some chain-consecutive characters in the wanted state (rows
        in the other state in between are skipped, leaving holes)."""
        walk = []
        current = self.chain[BEGIN]["next"]
        while current != END:
            walk.append(current)
            current = self.chain[current]["next"]
        start = data.draw(st.integers(0, len(walk) - 1), label="start")
        count = data.draw(st.integers(2, 24), label="count")
        return [oid for oid in walk[start:start + count]
                if self.chain[oid]["deleted"] == deleted]

    @rule(data=st.data(), size=st.integers(7, 24), ordered=st.booleans(),
          author=st.sampled_from(AUTHORS))
    def paste(self, data, size, ordered, author):
        """A paste long enough to overflow a chunk and be cut in pieces."""
        anchor = data.draw(st.sampled_from(
            [oid for oid in self.chain if oid != END]), label="anchor")
        successor = self.chain[anchor]["next"]
        oids = [Oid("char", self.next_oid + i) for i in range(size)]
        self.next_oid += size
        for i, oid in enumerate(oids):
            self.chain[oid] = _row(
                oid, "pasted-text-"[i % 12], oids[i - 1] if i else anchor,
                oids[i + 1] if i + 1 < size else successor, author)
        self.chain[anchor]["next"] = oids[0]
        self.chain[successor]["prev"] = oids[-1]
        self._commit(data, [*oids, anchor, successor], ordered=ordered)

    @precondition(lambda self: self._chars(deleted=False))
    @rule(data=st.data(), ordered=st.booleans())
    def delete_range(self, data, ordered):
        oids = self._stretch(data, deleted=False)
        for oid in oids:
            self.chain[oid]["deleted"] = True
        self._commit(data, oids, ordered=ordered)

    @precondition(lambda self: self._chars(deleted=True))
    @rule(data=st.data(), ordered=st.booleans())
    def undelete_range(self, data, ordered):
        oids = self._stretch(data, deleted=True)
        for oid in oids:
            self.chain[oid]["deleted"] = False
        self._commit(data, oids, ordered=ordered)

    @precondition(lambda self: self._chars(deleted=False))
    @rule(data=st.data(), ordered=st.booleans(),
          style=st.sampled_from(STYLES))
    def restyle_range(self, data, ordered, style):
        oids = self._stretch(data, deleted=False)
        for oid in oids:
            self.chain[oid]["style"] = style
        self._commit(data, oids, ordered=ordered)

    # -- the network ---------------------------------------------------

    def _deliver(self, seq: int) -> None:
        got = self.mirror.apply(seq, copy.deepcopy(self.log[seq]))
        expected = self.reference.apply(seq, copy.deepcopy(self.log[seq]))
        assert got == expected

    @precondition(lambda self: self.mirror.last_seq + 1 in self.log)
    @rule()
    def deliver_next(self):
        self._deliver(self.mirror.last_seq + 1)

    @precondition(lambda self: self.log)
    @rule(data=st.data())
    def deliver_any(self, data):
        """Out of order (buffered), again (stale), or simply late."""
        self._deliver(data.draw(st.sampled_from(sorted(self.log)),
                                label="seq"))

    @rule()
    def take_snapshot(self):
        self.snapshots.append(self._snapshot())

    @precondition(lambda self: any(
        s["rep_seq"] >= self.mirror.last_seq for s in self.snapshots))
    @rule(data=st.data())
    def load_snapshot(self, data):
        """A resync reply lands — possibly long after it was cut, with
        deltas from before and after it sitting in the buffer."""
        snapshot = data.draw(st.sampled_from(
            [s for s in self.snapshots
             if s["rep_seq"] >= self.mirror.last_seq]), label="snapshot")
        self.snapshots.remove(snapshot)
        self.mirror.load(copy.deepcopy(snapshot))
        self.reference.load(copy.deepcopy(snapshot))

    # -- agreement -----------------------------------------------------

    @invariant()
    def replication_state_agrees(self):
        assert self.mirror.last_seq == self.reference.last_seq
        assert sorted(self.mirror.pending) == sorted(self.reference.pending)
        assert self.mirror.rows == self.reference.rows

    @invariant()
    def every_read_agrees(self):
        mirror, reference = self.mirror, self.reference
        visible = reference.visible()
        oids = [row["char"] for row in visible]
        text = "".join(row["ch"] for row in visible)
        n = len(oids)
        assert mirror.text() == text
        assert mirror.length() == n
        assert mirror.char_oids() == oids
        assert [mirror.oid_at(i) for i in range(n)] == oids
        for bad in (-1, n):
            with pytest.raises(IndexError):
                mirror.oid_at(bad)
        for start, stop in ((0, n), (0, 3), (n // 2, n + 5), (n, n + 1),
                            (2, 1)):
            assert mirror.oid_slice(start, stop) == oids[start:stop]
        position = {oid: i for i, oid in enumerate(oids)}
        for oid in (*reference.rows, STRANGER):
            assert mirror.position_of(oid) == position.get(oid)
            assert mirror.contains(oid) == (oid in position)
            assert mirror.visible_position_after(oid) == \
                reference.position_after(oid)
        mixed = [*reversed(reference.rows), STRANGER]
        assert mirror.text_of(mixed) == "".join(
            reference.rows[oid]["ch"] for oid in mixed if oid in position)
        assert mirror.text_of(oids) == text
        assert mirror.styled_runs() == reference.styled_runs()
        authors: dict[str, int] = {}
        for row in visible:
            authors[row["author"]] = authors.get(row["author"], 0) + 1
        assert mirror.authors() == authors

    @invariant()
    def index_is_sound(self):
        assert self.mirror._index.check() == []
        assert self.mirror.check_integrity() == []


def test_mirror_index_matches_a_chain_walk(monkeypatch):
    # Chunks of 4 (split at 9, merge below 1) make a 30-character
    # document exercise every split/merge path of the index.
    monkeypatch.setattr(ChunkedOrderCache, "CHUNK", 4)
    run_state_machine_as_test(
        MirrorMachine,
        settings=settings(max_examples=60, stateful_step_count=40,
                          deadline=None))


def test_check_integrity_catches_an_index_that_left_the_chain():
    rows = [
        _row(BEGIN, "", None, Oid("char", 2)),
        _row(Oid("char", 2), "a", BEGIN, Oid("char", 3)),
        _row(Oid("char", 3), "b", Oid("char", 2), END),
        _row(END, "", Oid("char", 3), None),
    ]
    mirror = DocMirror.from_snapshot({
        "doc": DOC, "begin": BEGIN, "end": END, "rep_seq": 0,
        "rows": rows})
    assert mirror.check_integrity() == []
    # The chain says "b" is gone; an index nobody told still shows it.
    mirror.rows[Oid("char", 3)]["deleted"] = True
    assert any("index" in problem for problem in mirror.check_integrity())
