"""The access log at ``ACCESS_LOG_RESOLUTION``, against a per-keystroke oracle.

A user's edits of a document append one ``write`` entry per resolution
(one second of ``db.now()``), not one per keystroke.  The old behaviour —
an entry for every committed edit — is kept here as the oracle: over
seeded programmes of edits by several users on several documents, through
two ``DocumentStore`` objects on one database, with bursts, gaps shorter
and longer than the resolution, aborted edits and handles closed and
reopened, every reader of the log

* never misses what the oracle reports (a user who wrote at or after the
  cut is always found), and
* agrees with the oracle exactly whenever the cut is more than one
  resolution away from every write it could confuse.

``read`` and ``create`` entries are as they always were: one per open,
one per document.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clock import SimulatedClock
from repro.db import Database, col
from repro.folders.dynamic import AccessedBy, FolderContext
from repro.meta import MetadataCollector
from repro.text import DocumentStore
from repro.text import dbschema as S

RESOLUTION = S.ACCESS_LOG_RESOLUTION
USERS = ("ana", "ben", "cleo")
N_DOCS = 2

#: Time between steps: inside a burst, just under / at / over the
#: resolution, and long pauses.
GAPS = (0.0, 0.01, 0.4, 0.99, 1.0, 1.01, 1.5, 5.0)

steps = st.lists(
    st.tuples(st.sampled_from(GAPS),
              st.sampled_from(USERS),
              st.integers(0, N_DOCS - 1),          # document
              st.integers(0, 1),                   # which DocumentStore
              st.sampled_from(("type", "type", "type", "delete", "style",
                               "aborted", "reopen", "read"))),
    min_size=1, max_size=40)


class Boom(Exception):
    pass


class World:
    """Two stores on one database, a manual clock, and the oracle."""

    def __init__(self) -> None:
        self.clock = SimulatedClock(tick=0.0)
        self.db = Database("acl", clock=self.clock)
        self.stores = [DocumentStore(self.db), DocumentStore(self.db)]
        self.docs = [self.stores[0].create(f"doc{i}", "ana", text="seed").doc
                     for i in range(N_DOCS)]
        self.handles = {(s, d): self.stores[s].handle(self.docs[d])
                        for s in range(2) for d in range(N_DOCS)}
        #: The per-keystroke log: one (doc, user, at) per committed edit.
        self.writes: list = []
        self.reads = 0
        # create() typed the seed text: that was an edit by ana.
        for doc in self.docs:
            self.writes.append((doc, "ana", self.clock.peek()))

    def run(self, programme: list) -> None:
        for gap, user, d, s, verb in programme:
            self.clock.advance(gap)
            now = self.clock.peek()
            handle = self.handles[s, d]
            doc = self.docs[d]
            if verb == "reopen":
                handle.close()
                self.handles[s, d] = self.stores[s].handle(doc)
            elif verb == "read":
                self.stores[s].open(doc, user).close()
                self.reads += 1
            elif verb == "aborted":
                with pytest.raises(Boom):
                    with self.db.batch():
                        handle.insert_text(0, "!", user)
                        raise Boom
            elif verb == "type":
                handle.insert_text(handle.length(), "x", user)
                self.writes.append((doc, user, now))
            elif handle.length():
                if verb == "delete":
                    handle.delete_range(0, 1, user)
                else:
                    handle.apply_style(0, 1, None, user)
                self.writes.append((doc, user, now))

    def cuts(self) -> list:
        times = sorted({at for _, _, at in self.writes})
        return sorted({t + off for t in times
                       for off in (-1.25, -0.5, 0.0, 0.5, 1.25)})

    def entries(self, action: str) -> list:
        return self.db.query(S.ACCESS_LOG).where(
            col("action") == action).run()


def clear_of(cut: float, times) -> bool:
    """``cut`` is more than one resolution away from every time."""
    return all(abs(at - cut) > RESOLUTION for at in times)


class TestAgainstThePerKeystrokeLog:
    @settings(max_examples=60, deadline=None)
    @given(programme=steps)
    def test_readers_never_miss_and_agree_away_from_the_cut(self, programme):
        world = World()
        world.run(programme)
        collector = MetadataCollector(world.db)
        writes = world.writes

        # Far fewer entries than keystrokes, never more; each entry is a
        # real write of that user to that document.
        logged = [(r["doc"], r["user"], r["at"])
                  for r in world.entries("write")]
        assert set(logged) <= set(writes)
        assert len(logged) <= len(writes)

        for cut in world.cuts():
            for doc in world.docs:
                mine = [(u, at) for d, u, at in writes if d == doc]
                want = {u for u, at in mine if at >= cut}
                got = collector.writers_of(doc, since=cut)
                assert want <= got, (cut, doc)
                if clear_of(cut, [at for _, at in mine]):
                    assert got == want, (cut, doc)
            for user in USERS:
                mine = [(d, at) for d, u, at in writes if u == user]
                want = {d for d, at in mine if at >= cut}
                got = collector.documents_touched_by(
                    user, action="write", since=cut)
                assert want <= got, (cut, user)
                if clear_of(cut, [at for _, at in mine]):
                    assert got == want, (cut, user)

        for doc in world.docs:
            assert collector.writers_of(doc) \
                == {u for d, u, _ in writes if d == doc}

        now = world.clock.peek()
        ctx = FolderContext(world.db)
        for user in USERS:
            activity = collector.user_activity(user)
            assert activity["edited"] \
                == len({d for d, u, _ in writes if u == user})
            for doc in world.docs:
                mine = [at for d, u, at in writes
                        if d == doc and u == user]
                for within in (0.5, 1.0, 2.0, 10.0):
                    wrote = any(at >= now - within for at in mine)
                    folder = AccessedBy(user, "write", within=within)
                    if wrote:
                        assert folder.matches(ctx, doc)
                    elif clear_of(now - within, mine):
                        assert not folder.matches(ctx, doc)
                assert AccessedBy(user, "write").matches(ctx, doc) \
                    == bool(mine)

        # ``read`` and ``create`` entries are per event, as ever.
        assert len(world.entries("read")) == world.reads
        assert len(world.entries("create")) == N_DOCS


class TestResolution:
    def test_a_burst_is_one_entry_and_a_pause_starts_another(self):
        world = World()
        world.clock.advance(10.0)
        before = len(world.entries("write"))
        burst = [(0.01, "ben", 0, 0, "type")] * 50      # half a second
        world.run(burst)
        assert len(world.entries("write")) == before + 1
        world.run([(1.0, "ben", 0, 0, "type")])
        assert len(world.entries("write")) == before + 2
        world.run([(0.2, "cleo", 0, 0, "type"),          # another user
                   (0.2, "ben", 1, 0, "type")])           # another document
        assert len(world.entries("write")) == before + 4

    def test_an_aborted_entry_does_not_suppress_the_next(self):
        world = World()
        world.clock.advance(10.0)
        before = len(world.entries("write"))
        world.run([(0.0, "ben", 0, 0, "aborted"),
                   (0.1, "ben", 0, 0, "type")])
        entries = world.entries("write")
        assert len(entries) == before + 1
        assert entries[-1]["at"] == world.clock.peek()

    def test_stores_on_one_database_share_what_was_logged(self):
        world = World()
        world.clock.advance(10.0)
        before = len(world.entries("write"))
        world.run([(0.0, "ben", 0, 0, "type"),
                   (0.1, "ben", 0, 1, "type")])           # the other store
        assert len(world.entries("write")) == before + 1

    def test_last_modified_and_size_stay_exact_per_edit(self):
        world = World()
        world.clock.advance(10.0)
        for n in range(5):
            world.run([(0.05, "ben", 0, 0, "type")])
            meta = world.stores[0].meta(world.docs[0])
            assert meta["last_modified"] == world.clock.peek()
            assert meta["last_modified_by"] == "ben"
            assert meta["size"] == len("seed") + n + 1

    def test_the_resolution_is_a_constant(self):
        import inspect
        assert RESOLUTION == 1.0
        assert "resolution" not in str(
            inspect.signature(DocumentStore.__init__)).lower()
