"""The chunked order cache: unit, property, obs and recovery coverage.

The cache is the editor's only view of character order, so its contract
is absolute: after *any* interleaving of inserts, logical deletes and
undeletes — applied locally or observed via commit notifications — the
cached sequence must equal the database chain, and the structural
invariants (bounded chunks, consistent oid→chunk map) must hold.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    rule,
)

from repro.db import Database, recover_file
from repro.ids import Oid
from repro.text import DocumentStore
from repro.text import chars as C
from repro.text.ordercache import (
    ChunkedOrderCache,
    FlatOrderCache,
    splice_rows,
)


def _oid(i: int) -> Oid:
    return Oid("t", i)


def _row(i: int, ch: str = "x", style=None, author: str = "u") -> dict:
    return {"char": _oid(i), "ch": ch, "style": style, "author": author}


class TinyChunkCache(ChunkedOrderCache):
    """Chunk size 4 so a handful of edits exercises split and merge."""

    CHUNK = 4


# ---------------------------------------------------------------------------
# Unit: the chunked structure in isolation
# ---------------------------------------------------------------------------

class TestChunkedOrderCache:
    def test_rebuild_and_render(self):
        cache = TinyChunkCache(_row(i, ch=chr(97 + i)) for i in range(10))
        assert len(cache) == 10
        assert cache.text() == "abcdefghij"
        assert cache.oids() == [_oid(i) for i in range(10)]
        assert cache.check() == []

    def test_insert_splits_chunks(self):
        cache = TinyChunkCache()
        for i in range(40):
            cache.insert(i, _oid(i), "a", None, "u")
        assert len(cache) == 40
        assert cache.check() == []
        assert [cache.index_of(_oid(i)) for i in range(40)] == list(range(40))

    def test_remove_merges_chunks(self):
        cache = TinyChunkCache(_row(i) for i in range(32))
        for i in range(0, 32, 2):
            cache.remove(_oid(i))
        assert len(cache) == 16
        assert cache.check() == []
        assert cache.oids() == [_oid(i) for i in range(1, 32, 2)]

    def test_remove_returns_former_index(self):
        cache = TinyChunkCache(_row(i) for i in range(9))
        assert cache.remove(_oid(4)) == 4
        assert cache.remove(_oid(5)) == 4  # shifted left

    def test_remove_to_empty_and_reinsert(self):
        cache = TinyChunkCache(_row(i) for i in range(6))
        for i in range(6):
            cache.remove(_oid(i))
        assert len(cache) == 0
        assert cache.text() == ""
        assert cache.last_oid() is None
        cache.insert(0, _oid(99), "z", None, "u")
        assert cache.text() == "z"
        assert cache.check() == []

    def test_mid_insert_keeps_order(self):
        cache = TinyChunkCache(_row(i, ch=chr(97 + i)) for i in range(8))
        cache.insert(3, _oid(100), "X", None, "u")
        assert cache.text() == "abcXdefgh"
        assert cache.index_of(_oid(100)) == 3
        assert cache.oid_at(3) == _oid(100)
        assert cache.check() == []

    def test_oid_slice_spans_chunks(self):
        cache = TinyChunkCache(_row(i) for i in range(20))
        assert cache.oid_slice(2, 11) == [_oid(i) for i in range(2, 11)]
        assert cache.oid_slice(15, 99) == [_oid(i) for i in range(15, 20)]
        assert cache.oid_slice(7, 7) == []

    def test_set_style_feeds_styled_runs(self):
        cache = TinyChunkCache(_row(i, ch="a") for i in range(6))
        bold = Oid("style", 1)
        assert cache.set_style(_oid(2), bold)
        assert cache.set_style(_oid(3), bold)
        assert not cache.set_style(_oid(999), bold)
        assert cache.styled_runs() == [
            ("aa", None), ("aa", bold), ("aa", None),
        ]

    def test_authors_counts(self):
        cache = TinyChunkCache(
            _row(i, author="ana" if i % 3 else "ben") for i in range(9)
        )
        assert cache.authors() == {"ana": 6, "ben": 3}

    def test_out_of_bounds_raise(self):
        cache = TinyChunkCache(_row(i) for i in range(3))
        with pytest.raises(IndexError):
            cache.oid_at(3)
        with pytest.raises(IndexError):
            cache.insert(5, _oid(9), "a", None, "u")
        with pytest.raises(KeyError):
            cache.index_of(_oid(77))

    def test_cached_text_invalidated_by_every_mutation(self):
        cache = TinyChunkCache(_row(i, ch=chr(97 + i)) for i in range(8))
        assert cache.text() == "abcdefgh"    # populate per-chunk joins
        cache.insert(1, _oid(50), "Z", None, "u")
        assert cache.text() == "aZbcdefgh"
        cache.remove(_oid(3))
        assert cache.text() == "aZbcefgh"
        assert cache.check() == []


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 500)),
                max_size=60))
def test_chunked_matches_flat_reference(ops):
    """Random insert/remove/lookup programme: chunked == flat, always."""
    chunked, flat = TinyChunkCache(), FlatOrderCache()
    next_id = 0
    for kind, arg in ops:
        if kind == 0 or len(flat) == 0:   # insert
            index = arg % (len(flat) + 1)
            ch = chr(97 + next_id % 26)
            for cache in (chunked, flat):
                cache.insert(index, _oid(next_id), ch, None, "u")
            next_id += 1
        elif kind == 1:                   # remove
            victim = flat.oids()[arg % len(flat)]
            assert chunked.remove(victim) == flat.remove(victim)
        else:                             # lookup
            probe = flat.oids()[arg % len(flat)]
            assert chunked.index_of(probe) == flat.index_of(probe)
            assert chunked.oid_at(arg % len(flat)) == \
                flat.oid_at(arg % len(flat))
    assert chunked.text() == flat.text()
    assert chunked.oids() == flat.oids()
    assert chunked.last_oid() == flat.last_oid()
    assert chunked.check() == []
    assert flat.check() == []


class TestBatchForms:
    """Directed cases for the run/batch API (the state machine below
    covers the random ones)."""

    def test_insert_run_splits_into_even_bounded_chunks(self):
        cache = TinyChunkCache(_row(i) for i in range(6))
        cache.insert_run(3, [_row(100 + i, ch="y") for i in range(30)])
        assert cache.check() == []
        assert cache.oids() == (
            [_oid(i) for i in range(3)]
            + [_oid(100 + i) for i in range(30)]
            + [_oid(i) for i in range(3, 6)])
        assert cache.text() == "xxx" + "y" * 30 + "xxx"
        assert cache.positions_of([_oid(100), _oid(129), _oid(5)]) == \
            [3, 32, 35]

    def test_remove_run_spans_chunks_and_empties_them(self):
        cache = TinyChunkCache(_row(i) for i in range(24))
        cache.text()                      # populate the joined segments
        cache.remove_run([_oid(i) for i in range(2, 19)])
        assert cache.check() == []
        assert cache.oids() == [_oid(i) for i in (0, 1, 19, 20, 21, 22, 23)]
        assert cache.text() == "x" * 7
        with pytest.raises(KeyError):
            cache.remove_run([_oid(0), _oid(5)])

    def test_batch_lookups_tolerate_strangers_and_any_order(self):
        cache = TinyChunkCache(_row(i, ch=chr(97 + i)) for i in range(12))
        probe = [_oid(7), _oid(99), _oid(8), _oid(9), _oid(2), _oid(7)]
        assert cache.positions_of(probe) == [7, None, 8, 9, 2, 7]
        assert cache.text_of(probe) == "hijch"
        assert cache.positions_of([]) == []
        assert cache.text_of([]) == ""

    def test_directory_keeps_its_prefix_across_a_mutation(self):
        cache = TinyChunkCache(_row(i) for i in range(40))
        full = list(cache._directory())
        assert len(full) == len(cache._chunks) + 1 and full[-1] == 40
        at, _ = cache._locate(21)
        assert 0 < at < len(cache._chunks) - 2
        cache.insert(21, _oid(50), "a", None, "u")
        # Cut after the mutated chunk's own entry, not thrown away ...
        assert cache._starts == full[:at + 1]
        assert cache.index_of(_oid(3)) == 3         # ... before it: as is
        assert cache._starts == full[:at + 1]
        assert cache.check() == []
        # ... and extended only as far as a lookup reaches.
        assert cache.oid_at(22) == _oid(21)
        assert len(cache._starts) == at + 2
        assert cache.index_of(_oid(39)) == 40
        assert cache._starts[:at + 1] == full[:at + 1]
        assert cache.check() == []
        cache._starts[-1] += 1
        assert any("directory" in p for p in cache.check())


class OrderCacheMachine(RuleBasedStateMachine):
    """Three caches fed one random programme: ``runs`` through the batch
    forms, ``single`` through the per-oid methods, ``flat`` as the
    reference.  A chunk target of 4 makes splits, merges and emptied
    chunks routine."""

    def __init__(self):
        super().__init__()
        self.runs = TinyChunkCache()
        self.single = TinyChunkCache()
        self.flat = FlatOrderCache()
        self.next_id = 0
        self.chars: dict[Oid, str] = {}

    def _fresh(self, count: int) -> list[dict]:
        rows = [_row(self.next_id + i, ch=chr(97 + (self.next_id + i) % 26),
                     author="ana" if (self.next_id + i) % 3 else "ben")
                for i in range(count)]
        self.next_id += count
        self.chars.update((row["char"], row["ch"]) for row in rows)
        return rows

    @rule(where=st.integers(0, 10_000), count=st.integers(1, 25))
    def insert_run(self, where, count):
        index = where % (len(self.flat) + 1)
        rows = self._fresh(count)
        self.runs.insert_run(index, rows)
        for offset, row in enumerate(rows):
            for cache in (self.single, self.flat):
                cache.insert(index + offset, row["char"], row["ch"],
                             row["style"], row["author"])

    @rule(where=st.integers(0, 10_000), count=st.integers(1, 25))
    def remove_adjacent(self, where, count):
        if not len(self.flat):
            return
        start = where % len(self.flat)
        victims = self.flat.oid_slice(start, start + count)
        self.runs.remove_run(victims)
        for oid in victims:
            assert self.single.remove(oid) == self.flat.remove(oid)

    @rule(seed=st.integers(0, 10_000), count=st.integers(1, 12))
    def remove_scattered(self, seed, count):
        """Any subset, any order: stretches that happen to sit side by
        side leave together, the rest one by one."""
        order = self.flat.oids()
        if not order:
            return
        victims = random.Random(seed).sample(order, min(count, len(order)))
        self.runs.remove_run(victims)
        for oid in victims:
            assert self.single.remove(oid) == self.flat.remove(oid)

    @rule(where=st.integers(0, 10_000), count=st.integers(1, 9),
          style=st.sampled_from([None, Oid("style", 1), Oid("style", 2)]))
    def restyle(self, where, count, style):
        if not len(self.flat):
            return
        start = where % len(self.flat)
        for oid in self.flat.oid_slice(start, start + count):
            for cache in (self.runs, self.single, self.flat):
                assert cache.set_style(oid, style)

    @rule(seed=st.integers(0, 10_000), count=st.integers(0, 30))
    def batch_lookups(self, seed, count):
        rng = random.Random(seed)
        order = self.flat.oids()
        probe = [rng.choice(order) if order and rng.random() < 0.8
                 else _oid(rng.randrange(self.next_id + 5))
                 for _ in range(count)]
        if order and rng.random() < 0.5:    # a stretch in document order
            start = rng.randrange(len(order))
            probe[rng.randrange(len(probe) + 1):0] = \
                order[start:start + rng.randrange(1, 12)]
        expected = [self.flat.index_of(oid) if oid in self.flat else None
                    for oid in probe]
        text = "".join(self.chars[oid]
                       for oid in probe if oid in self.flat)
        for cache in (self.runs, self.single, self.flat):
            assert cache.positions_of(probe) == expected
            assert cache.positions_of(tuple(probe)) == expected
            assert cache.text_of(probe) == text
        assert [self.single.index_of(oid) for oid in probe
                if oid in self.single] == [p for p in expected
                                          if p is not None]

    @invariant()
    def caches_agree_and_are_sound(self):
        assert self.runs.check() == []
        assert self.single.check() == []
        assert self.flat.check() == []
        order = self.flat.oids()
        assert self.runs.oids() == order
        assert self.single.oids() == order
        assert self.runs.text() == self.single.text() == self.flat.text()
        assert self.runs.styled_runs() == self.flat.styled_runs()
        assert self.runs.authors() == self.flat.authors()
        assert self.runs.positions_of(order) == list(range(len(order)))
        assert self.runs.last_oid() == self.flat.last_oid()
        if order:
            mid = len(order) // 2
            assert self.runs.oid_at(mid) == order[mid]
            assert self.runs.oid_slice(mid - 3, mid + 6) == \
                order[max(0, mid - 3):mid + 6]


OrderCacheMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None)
TestOrderCacheMachine = OrderCacheMachine.TestCase


class _Chain:
    """A tiny neighbour-linked document: what ``splice_rows`` follows."""

    BEGIN = Oid("t", 0)

    def __init__(self):
        self.rows: dict[Oid, dict] = {}
        self.order: list[Oid] = []         # every character, deleted too
        self.next_id = 1

    def prev_of(self, oid):
        row = self.rows.get(oid)
        return None if row is None else row["prev"]

    def visible(self) -> list[Oid]:
        return [oid for oid in self.order if not self.rows[oid]["deleted"]]

    def insert_after(self, at: int, text: str) -> list[dict]:
        """Link ``text`` in after chain slot ``at`` (0 = after BEGIN);
        returns the commit's rows: the new run plus its relinked right
        neighbour."""
        anchor = self.BEGIN if at == 0 else self.order[at - 1]
        fresh = []
        for ch in text:
            oid = _oid(self.next_id)
            self.next_id += 1
            self.rows[oid] = {"char": oid, "ch": ch, "prev": anchor,
                              "deleted": False, "style": None,
                              "author": "u"}
            fresh.append(oid)
            anchor = oid
        self.order[at:at] = fresh
        touched = list(fresh)
        if at + len(fresh) < len(self.order):
            right = self.order[at + len(fresh)]
            self.rows[right] = dict(self.rows[right], prev=fresh[-1])
            touched.append(right)
        return [self.rows[oid] for oid in touched]

    def flip(self, start: int, count: int, **change) -> list[dict]:
        """Replace a stretch of rows (delete, undelete, restyle)."""
        touched = self.order[start:start + count]
        for oid in touched:
            self.rows[oid] = dict(self.rows[oid], **change)
        return [self.rows[oid] for oid in touched]


@settings(max_examples=80, deadline=None)
@given(st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 10_000),
              st.integers(1, 14), st.booleans(), st.integers(0, 10_000)),
    max_size=30))
def test_run_splice_equals_row_splice_equals_chain(programme):
    """Commits of chain-adjacent rows (paste, range delete, undelete,
    restyle), in document order or shuffled: the run form, the same
    rule applied row by row, and the flat reference all end up at the
    chain's visible sequence after every commit."""
    chain = _Chain()
    by_run, by_row, flat = TinyChunkCache(), TinyChunkCache(), FlatOrderCache()
    for kind, where, count, shuffled, seed in programme:
        if kind == 0 or not chain.order:
            rows = chain.insert_after(where % (len(chain.order) + 1),
                                      "abcdefghijklmn"[:count])
        else:
            start = where % len(chain.order)
            change = ({"deleted": True}, {"deleted": False},
                      {"style": Oid("style", seed % 3)})[kind - 1]
            rows = chain.flip(start, count, **change)
        if shuffled:
            random.Random(seed).shuffle(rows)
        splice_rows(by_run, rows, chain.BEGIN, chain.prev_of)
        for cache in (by_row, flat):
            for row in rows:
                splice_rows(cache, (row,), chain.BEGIN, chain.prev_of)
        visible = chain.visible()
        for cache in (by_run, by_row, flat):
            assert cache.oids() == visible
            assert cache.check() == []
            assert cache.text() == "".join(
                chain.rows[oid]["ch"] for oid in visible)
            assert [cache.style_of(oid) for oid in visible] == \
                [chain.rows[oid]["style"] for oid in visible]


def test_splice_rows_resolves_one_position_per_run():
    """A 50-character paste, its range delete and its undelete each
    ask the cache for one position and one batch splice."""
    chain = _Chain()
    calls = {"index_of": 0, "insert_run": 0, "remove_run": 0}

    class Counting(TinyChunkCache):
        def index_of(self, oid):
            calls["index_of"] += 1
            return super().index_of(oid)

        def insert_run(self, index, rows):
            calls["insert_run"] += 1
            return super().insert_run(index, rows)

        def remove_run(self, oids):
            calls["remove_run"] += 1
            return super().remove_run(oids)

    cache = Counting()
    splice_rows(cache, chain.insert_after(0, "x" * 20), chain.BEGIN,
                chain.prev_of)
    calls.update(index_of=0, insert_run=0, remove_run=0)
    assert splice_rows(cache, chain.insert_after(7, "y" * 50), chain.BEGIN,
                       chain.prev_of)
    assert calls == {"index_of": 1, "insert_run": 1, "remove_run": 0}
    assert splice_rows(cache, chain.flip(7, 50, deleted=True), chain.BEGIN,
                       chain.prev_of)
    assert calls == {"index_of": 1, "insert_run": 1, "remove_run": 1}
    assert splice_rows(cache, chain.flip(7, 50, deleted=False), chain.BEGIN,
                       chain.prev_of)
    assert calls == {"index_of": 2, "insert_run": 2, "remove_run": 1}
    assert not splice_rows(cache, chain.flip(7, 50, style=Oid("style", 1)),
                           chain.BEGIN, chain.prev_of)
    assert cache.oids() == chain.visible()
    assert cache.check() == []


# ---------------------------------------------------------------------------
# Property: cache order == chain order through the full editing stack
# ---------------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 500),
                  st.text(alphabet=st.characters(min_codepoint=32,
                                                 max_codepoint=126),
                          min_size=1, max_size=6)),
        max_size=25,
    )
)
def test_cache_order_matches_chain_after_interleaved_bursts(ops):
    """Seeded interleaved insert/delete/undelete bursts across two handles
    on two replicas, with the flat reference cache following the same
    feed: every cache equals the database chain."""
    db = Database("p")
    store = DocumentStore(db, log_reads=False, log_writes=False)
    h1 = store.create("d", "u1")
    h2 = DocumentStore(db, log_reads=False, log_writes=False).handle(h1.doc)
    flat = FlatOrderCache()

    def follow(batch):
        splice_rows(flat, [e.row for e in batch.events], h1.begin_char,
                    lambda oid: C.char_row(db, oid)[1]["prev"])

    db.changefeed().subscribe("flat-reference", follow, tables=("tx_chars",))
    deleted_batches: list[list] = []
    for kind, raw_pos, text in ops:
        handle = h1 if raw_pos % 2 == 0 else h2
        length = handle.length()
        if kind in (0, 1) or length == 0:       # insert burst
            handle.insert_text(raw_pos % (length + 1), text, "u")
        elif kind == 2:                          # delete burst
            pos = raw_pos % length
            count = min(1 + len(text), length - pos)
            deleted_batches.append(handle.delete_range(pos, count, "u"))
        elif deleted_batches:                    # undelete a prior burst
            handle.undelete_chars(
                deleted_batches.pop(raw_pos % len(deleted_batches)), "u"
            )
    chain = C.chain_text(db, h1.doc, h1.begin_char)
    assert h1.text() == chain
    assert h2.text() == chain
    assert h1._cache.check() == []
    assert h2._cache.check() == []
    assert h1.char_oids() == h2.char_oids() == flat.oids()
    assert flat.text() == chain
    # A freshly refreshed view agrees with the incrementally maintained one.
    h1.refresh()
    assert h1.text() == chain


# ---------------------------------------------------------------------------
# Obs: text() after a keystroke must not rescan the table
# ---------------------------------------------------------------------------

class TestCacheMetrics:
    def _full_scans(self, db) -> int:
        return db.metrics_snapshot()["doc.full_scans"]["value"]

    def test_text_after_keystroke_does_no_full_scan(self):
        db = Database("m")
        store = DocumentStore(db, log_reads=False, log_writes=False)
        handle = store.create("d", "ana", text="hello world")
        baseline = self._full_scans(db)
        handle.insert_text(5, "!", "ana")
        assert handle.text() == "hello! world"
        assert handle.styled_runs()[0][0] == "hello! world"
        assert handle.authors() == {"ana": 12}
        assert self._full_scans(db) == baseline, \
            "text()/styled_runs()/authors() after a keystroke must be " \
            "served from the cache, not a tx_chars scan"

    def test_refresh_and_open_count_as_full_scans(self):
        db = Database("m")
        store = DocumentStore(db, log_reads=False, log_writes=False)
        handle = store.create("d", "ana", text="abc")
        before = self._full_scans(db)
        handle.refresh()
        assert self._full_scans(db) == before + 1
        second = store.handle(handle.doc)  # shares the open replica
        assert self._full_scans(db) == before + 1
        second.close()
        handle.close()
        store.handle(handle.doc)           # first open again: one walk
        assert self._full_scans(db) == before + 2

    def test_splice_and_lookup_latencies_recorded(self):
        db = Database("m")
        store = DocumentStore(db, log_reads=False, log_writes=False)
        handle = store.create("d", "ana", text="abcdef")
        handle.insert_text(3, "x", "ana")
        handle.char_oid_at(2)
        handle.position_of(handle.char_oid_at(2))
        snap = db.metrics_snapshot()
        # One observation per commit that changed the sequence (the
        # six-character create is one run splice), not one per character.
        assert snap["doc.cache_splice_seconds"]["count"] == 2
        assert snap["doc.cache_lookup_seconds"]["count"] >= 3


# ---------------------------------------------------------------------------
# Crash torture: refresh() against a recovered engine
# ---------------------------------------------------------------------------

@pytest.mark.torture
class TestRefreshAfterRecovery:
    @pytest.mark.filterwarnings(
        "ignore:skipping torn trailing WAL record")
    def test_refresh_after_crash_recovery(self, tmp_path):
        """Crash seeded typist schedules, recover the WAL, and make sure a
        recovered handle's cache (built by open, then refresh()ed after
        further edits) equals the recovered chain."""
        from repro.faults import FaultPlan
        from tests.test_crash_torture import _run_typist_schedule

        for seed in (3, 11, 29):
            plan = FaultPlan.random(seed, with_delivery=True)
            run = _run_typist_schedule(
                seed, str(tmp_path / f"wal-{seed}.jsonl"), plan)
            run["server"].db.close()

            recovered = recover_file(run["wal_path"])
            store = DocumentStore(recovered)
            clone = store.handle(run["handle"].doc)
            chain = C.chain_text(recovered, clone.doc, clone.begin_char)
            assert clone.text() == chain, f"seed {seed}"
            assert clone._cache.check() == [], f"seed {seed}"

            # The recovered engine is live: edit, then refresh() must
            # converge on the incrementally maintained view.
            clone.insert_text(0, "post-recovery ", "phoenix")
            incremental = clone.text()
            clone.refresh()
            assert clone.text() == incremental, f"seed {seed}"
            assert clone.text().startswith("post-recovery "), f"seed {seed}"
