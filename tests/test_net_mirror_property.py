"""DocMirror against two oracles: a chain walk, and the old full rows.

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

Since protocol 2 the mirror is fed *deltas* — whole images of new rows,
patches of changed ones (``wire_row`` / ``merge_row``) — while both
oracles keep receiving full rows and upserting them, which is what the
mirror itself did before.  The second half of this file drives a real
:class:`~repro.collab.CollaborationServer` with random editing scripts
and holds three things equal: a :class:`DocMirror` fed deltas, a
:class:`FullRowMirror` (the previous replication path, kept here) fed
full rows, and the server's own handle.
"""

from __future__ import annotations

import copy
import hashlib
import random

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

from repro.collab import CollaborationServer, EditorClient
from repro.errors import TendaxError
from repro.ids import Oid
from repro.net.mirror import DocMirror
from repro.net.protocol import BLANK_ROW, Delta, wire_row
from repro.text import chars as C
from repro.text import dbschema as S
from repro.text.ordercache import ChunkedOrderCache, splice_rows

DOC = Oid("doc", 1)
BEGIN = Oid("char", 0)
END = Oid("char", 1)
STRANGER = Oid("char", 10**9)
AUTHORS = ("ana", "ben", "cy")
STYLES = (None, Oid("style", 1), Oid("style", 2))


def _row(oid, ch, prev, nxt, author="ana", style=None) -> dict:
    return {**BLANK_ROW, "char": oid, "doc": DOC, "ch": ch, "prev": prev,
            "next": nxt, "style": style, "author": author}


def _wire(snapshot: dict) -> dict:
    """A full-row snapshot as the server sends it: whole images."""
    return {**snapshot, "rows": [wire_row(row) for row in snapshot["rows"]]}


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
        #: Every delta ever committed, as full rows (the reference's
        #: diet) and as the wire delta cut from them (the mirror's); the
        #: network may deliver any of them at any time, any number of
        #: times, or never.
        self.log: dict[int, list] = {}
        self.deltas: dict[int, Delta] = {}
        #: Each row as of the last commit that touched it: the ``before``
        #: image the next patch is cut against.
        self.committed = copy.deepcopy(self.chain)
        #: Snapshots taken earlier and not yet loaded (slow resyncs).
        self.snapshots: list[dict] = []
        self.mirror = DocMirror.from_snapshot(_wire(self._snapshot()))
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
        rows = [dict(self.chain[oid]) for oid in order]
        self.log[self.rep_seq] = rows
        self.deltas[self.rep_seq] = Delta(DOC, self.rep_seq, tuple(
            wire_row(row, self.committed.get(row["char"])) for row in rows))
        for row in rows:
            self.committed[row["char"]] = dict(row)

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
        got = self.mirror.apply(self.deltas[seq])
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
        self.mirror.load(_wire(snapshot))
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
    mirror = DocMirror.from_snapshot(_wire({
        "doc": DOC, "begin": BEGIN, "end": END, "rep_seq": 0,
        "rows": rows}))
    assert mirror.check_integrity() == []
    # The chain says "b" is gone; an index nobody told still shows it.
    mirror.rows[Oid("char", 3)]["deleted"] = True
    assert any("index" in problem for problem in mirror.check_integrity())


# ----------------------------------------------------------------------
# Deltas ≡ full rows ≡ the server, under real editing scripts
# ----------------------------------------------------------------------

class FullRowMirror(DocMirror):
    """The replication path of protocol 1, kept as the oracle: snapshots
    and deltas are full ``tx_chars`` rows, and a delta row replaces
    whatever the chain held.  Reads, buffering and the integrity check
    are the production :class:`DocMirror`'s."""

    def _adopt(self, snapshot: dict) -> None:
        self.rows = {row["char"]: row for row in snapshot["rows"]}
        self._index.rebuild(row for row in self._chain()
                            if row["ch"] and not row["deleted"])

    def _merge(self, delta) -> bool:
        chain = self.rows
        for row in delta.rows:
            chain[row["char"]] = row
        splice_rows(self._index, [chain[row["char"]] for row in delta.rows],
                    self.begin, self._prev_of)
        return True


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class Party:
    """Two in-process editors on one document of a real server, and a
    tap on its changefeed that cuts every commit both ways: the wire
    delta (``wire_row``) and the full rows protocol 1 sent."""

    def __init__(self, seed: int, chars: int = 0) -> None:
        self.rng = random.Random(seed)
        self.server = CollaborationServer()
        for user in ("ana", "ben"):
            self.server.register_user(user)
        self.sessions = [self.server.connect(u) for u in ("ana", "ben")]
        text = "".join(self.rng.choice("abcdefgh ") for _ in range(chars))
        self.handle = self.sessions[0].create_document("party", text=text)
        self.doc = self.handle.doc
        self.editors = [EditorClient(s, self.doc) for s in self.sessions]
        self.styles = [
            None,
            self.server.styles.define_style("bold", {"bold": True}, "ana"),
            self.server.styles.define_style("mono", {"font": "m"}, "ana"),
        ]
        self.rep_seq = 0
        #: rep_seq -> (wire delta, full-row delta)
        self.log: dict[int, tuple[Delta, Delta]] = {}
        self.server.db.changefeed().subscribe(
            "test-tap", self._tap, tables=frozenset((S.CHARS,)))

    def _tap(self, batch) -> None:
        changes = [c for c in batch.events
                   if c.row is not None and c.row["doc"] == self.doc]
        if not changes:
            return
        self.rep_seq += 1
        self.log[self.rep_seq] = (
            Delta(self.doc, self.rep_seq,
                  tuple(wire_row(c.row, c.before) for c in changes)),
            Delta(self.doc, self.rep_seq,
                  tuple(dict(c.row) for c in changes)))

    def snapshots(self) -> tuple[dict, dict]:
        """(wire snapshot, full-row snapshot) of the document now."""
        rows = list(C.doc_char_rows(self.server.db, self.doc).values())
        full = {"doc": self.doc, "begin": self.handle.begin_char,
                "end": self.handle.end_char, "rep_seq": self.rep_seq,
                "rows": [dict(row) for row in rows]}
        return _wire(full), full

    def mirrors(self) -> tuple[DocMirror, FullRowMirror]:
        wire, full = self.snapshots()
        return DocMirror.from_snapshot(wire), FullRowMirror.from_snapshot(full)

    def step(self) -> None:
        """One random editing action by one of the two editors."""
        rng = self.rng
        who = rng.randrange(2)
        editor, session = self.editors[who], self.sessions[who]
        length = self.handle.length()
        roll = rng.random()
        try:
            if roll < 0.30 or length < 8:
                editor.move_to(rng.randint(0, length))
                editor.type("".join(rng.choice("xyz ")
                                    for _ in range(rng.randint(1, 3))))
            elif roll < 0.45:
                editor.move_to(rng.randint(1, length))
                editor.backspace(rng.randint(1, 3))
            elif roll < 0.55:
                pos = rng.randrange(length)
                session.delete(self.doc, pos,
                               min(rng.randint(2, 12), length - pos))
            elif roll < 0.65:
                pos = rng.randrange(length)
                session.apply_style(self.doc, pos,
                                    min(rng.randint(1, 9), length - pos),
                                    rng.choice(self.styles))
            elif roll < 0.77:
                count = min(rng.randint(4, 24), length)
                session.copy(self.doc, rng.randint(0, length - count), count)
                session.paste(self.doc, rng.randint(0, length))
            elif roll < 0.89:
                verb = rng.choice(("undo", "undo", "undo_global"))
                getattr(session, verb)(self.doc)
                if rng.random() < 0.5:
                    getattr(session, verb.replace("un", "re"))(self.doc)
            else:
                editor.move_to(rng.randint(0, length))
                with editor.batch():
                    for _ in range(rng.randint(2, 5)):
                        editor.type(rng.choice("pqr"))
        except TendaxError:
            pass  # nothing to undo, a protected range: not this test's

    def assert_equal_to_server(self, *replicas) -> None:
        truth = self.handle
        for replica in replicas:
            assert _sha(replica.text()) == _sha(truth.text())
            assert replica.styled_runs() == truth.styled_runs()
            assert replica.authors() == truth.authors()
            assert replica.check_integrity() == []


@pytest.mark.parametrize("seed", range(6))
def test_deltas_equal_full_rows_equal_the_server(seed):
    party = Party(seed, chars=40)
    mirror, oracle = party.mirrors()
    delivered = party.rep_seq
    for _ in range(120):
        party.step()
        while delivered < party.rep_seq:
            delivered += 1
            wire, full = party.log[delivered]
            assert mirror.apply(wire) == oracle.apply(full) == "applied"
        party.assert_equal_to_server(mirror, oracle)
    assert mirror.rows == oracle.rows
    assert mirror.resyncs == mirror.missing_base == 0


@pytest.mark.parametrize("seed", range(6))
def test_deltas_equal_full_rows_under_drop_delay_reorder(seed):
    """A lossy lane: deltas are dropped, held back and released out of
    order; a replica that reports a gap (or buffers too much) resyncs
    from a snapshot cut at that moment.  Both paths heal the same way
    and end equal to the server."""
    party = Party(seed, chars=40)
    mirror, oracle = party.mirrors()
    net = random.Random(seed * 31 + 7)
    held: list[int] = []
    delivered = party.rep_seq

    def deliver(seq: int) -> None:
        wire, full = party.log[seq]
        assert mirror.apply(wire) == oracle.apply(full)

    for _ in range(120):
        party.step()
        while delivered < party.rep_seq:
            delivered += 1
            roll = net.random()
            if roll < 0.15:
                continue                      # dropped
            if roll < 0.40:
                held.append(delivered)        # delayed
                continue
            deliver(delivered)
        if held and net.random() < 0.5:
            net.shuffle(held)                 # reordered
            while held:
                deliver(held.pop())
        assert mirror.gap == oracle.gap
        if len(mirror.pending) > 2:
            wire, full = party.snapshots()
            mirror.load(wire)
            oracle.load(full)
    wire, full = party.snapshots()
    mirror.load(wire)
    oracle.load(full)
    party.assert_equal_to_server(mirror, oracle)
    assert mirror.rows == oracle.rows
    assert mirror.missing_base == 0


@pytest.mark.parametrize("chars", [0, 1, 513, 8000])
def test_mirror_opened_mid_burst(chars):
    """The snapshot form — whole images, no base — at a burst's middle:
    deltas cut before the snapshot are stale, the rest apply on top."""
    party = Party(chars, chars=chars)
    for _ in range(20):
        party.step()
    mirror, oracle = party.mirrors()
    assert mirror.length() == party.handle.length()
    opened_at = party.rep_seq
    for _ in range(20):
        party.step()
    for seq in sorted(party.log):
        wire, full = party.log[seq]
        status = mirror.apply(wire)
        assert status == oracle.apply(full)
        assert status == ("stale" if seq <= opened_at else "applied")
    party.assert_equal_to_server(mirror, oracle)
    assert mirror.rows == oracle.rows


def test_a_patch_without_its_base_is_a_gap_not_a_padded_row():
    party = Party(3, chars=12)
    mirror, _ = party.mirrors()
    victim = mirror.oid_at(5)
    del mirror.rows[victim]                   # history the replica lost
    party.editors[0].move_to(6)
    party.editors[0].type("!")                # patches victim's ``next``
    first, _ = party.log[party.rep_seq]
    assert any(row["char"] == victim and "ch" not in row
               for row in first.rows)
    before = dict(mirror.rows)
    assert mirror.apply(first) == "gap"
    assert mirror.missing_base == 1
    assert mirror.gap and mirror.last_seq == first.rep_seq - 1
    assert mirror.rows == before              # nothing half-applied
    party.editors[0].type("?")
    second, _ = party.log[party.rep_seq]
    assert mirror.apply(second) == "buffered"  # still behind the gap
    assert mirror.missing_base == 1
    wire, _ = party.snapshots()
    mirror.load(wire)
    assert not mirror.gap and mirror.resyncs == 1
    party.assert_equal_to_server(mirror)
