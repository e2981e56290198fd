"""Tests for the foundation modules: ids, clock, errors."""

import pytest

from repro.clock import SimulatedClock, SystemClock
from repro.errors import (
    AccessDenied,
    DatabaseError,
    SecurityError,
    TendaxError,
    TransactionAborted,
    UndoError,
)
from repro.ids import IdGenerator, IdNamespace, Oid


class TestOid:
    def test_str_and_parse_roundtrip(self):
        oid = Oid("db.char", 42)
        assert Oid.parse(str(oid)) == oid

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            Oid.parse("nonsense")
        with pytest.raises(ValueError):
            Oid.parse(":5")

    def test_ordering_within_node(self):
        assert Oid("n", 1) < Oid("n", 2)

    def test_equality_and_hash(self):
        assert Oid("n", 1) == Oid("n", 1)
        assert len({Oid("n", 1), Oid("n", 1), Oid("n", 2)}) == 2


class TestIdGenerator:
    def test_monotonic_unique(self):
        gen = IdGenerator("x")
        ids = [gen.next() for __ in range(100)]
        assert len(set(ids)) == 100
        assert ids == sorted(ids)

    def test_invalid_node(self):
        with pytest.raises(ValueError):
            IdGenerator("")
        with pytest.raises(ValueError):
            IdGenerator("a:b")

    def test_thread_safety(self):
        import threading
        gen = IdGenerator("x")
        seen = []

        def worker():
            for __ in range(500):
                seen.append(gen.next())

        threads = [threading.Thread(target=worker) for __ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(set(seen)) == 2000

    def test_namespace_kinds_isolated(self):
        ns = IdNamespace("db")
        doc = ns.next("doc")
        char = ns.next("char")
        assert doc.node == "db.doc"
        assert char.node == "db.char"
        assert ns.generator("doc") is ns.generator("doc")


class TestClocks:
    def test_system_clock_advances(self):
        clock = SystemClock()
        assert clock.now() <= clock.now()

    def test_simulated_clock_strictly_increasing(self):
        clock = SimulatedClock()
        times = [clock.now() for __ in range(5)]
        assert times == sorted(times)
        assert len(set(times)) == 5

    def test_simulated_advance(self):
        clock = SimulatedClock(start=100.0, tick=0.0)
        assert clock.now() == 100.0
        clock.advance(50)
        assert clock.peek() == 150.0

    def test_no_backwards_time(self):
        clock = SimulatedClock()
        with pytest.raises(ValueError):
            clock.advance(-1)
        with pytest.raises(ValueError):
            SimulatedClock(tick=-0.1)


class TestErrorHierarchy:
    def test_all_derive_from_tendax_error(self):
        for exc in (DatabaseError, TransactionAborted, AccessDenied,
                    SecurityError, UndoError):
            assert issubclass(exc, TendaxError)

    def test_catchable_as_base(self):
        with pytest.raises(TendaxError):
            raise AccessDenied("nope")
