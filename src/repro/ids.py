"""Object identifier generation.

TeNDaX identifies every stored object — documents, characters, structure
nodes, tasks, transactions — by a database-wide object id (OID).  The paper
relies on character ids being stable for the lifetime of the document (they
anchor copy-paste references, undo records, and security settings), so ids
are never reused.

We use a per-generator monotonically increasing counter combined with a
short ``node`` prefix.  The prefix keeps ids generated by different database
instances (e.g. the "external source" documents of the lineage demo)
globally distinguishable, mirroring the paper's internal/external document
references.
"""

from __future__ import annotations

import itertools
import sys
import threading
from dataclasses import dataclass, field
from typing import NamedTuple


class Oid(NamedTuple):
    """A globally unique object identifier.

    Sorting order is (node, seq), which makes ids from one node compare in
    creation order — handy for deterministic tie-breaking in tests.

    An Oid *is* a tuple: equality, hashing and ordering are the C-level
    tuple operations and never enter a Python frame, which is what every
    dict probe, ``list.index`` and sort over identifiers pays for.  The
    price is that ``isinstance(oid, tuple)`` holds, so code that treats
    tuples as plain sequences (the WAL/wire value codec, the JSON column
    check) must test for ``Oid`` first.
    """

    node: str
    seq: int

    def __str__(self) -> str:
        return f"{self.node}:{self.seq}"

    @classmethod
    def parse(cls, text: str) -> "Oid":
        """Parse the ``node:seq`` form produced by :meth:`__str__`.

        ``node`` is interned: a document's characters share one node
        string however many of their ids are parsed."""
        node, sep, seq = text.rpartition(":")
        if not sep or not node:
            raise ValueError(f"not a valid oid: {text!r}")
        return cls(sys.intern(node), int(seq))


class IdGenerator:
    """Thread-safe source of fresh :class:`Oid` values for one node."""

    def __init__(self, node: str = "db") -> None:
        if not node or ":" in node:
            raise ValueError("node must be non-empty and must not contain ':'")
        self._node = node
        self._counter = itertools.count(1)
        self._lock = threading.Lock()

    @property
    def node(self) -> str:
        return self._node

    def next(self) -> Oid:
        """Return a fresh, never-before-issued id."""
        with self._lock:
            return Oid(self._node, next(self._counter))

    def advance(self, seen: int) -> None:
        """Keep allocation ahead of ``seen`` (an id found in a replayed
        log: ids are never reused, across restarts included)."""
        with self._lock:
            self._counter = itertools.count(
                max(next(self._counter), seen + 1))

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"IdGenerator(node={self._node!r})"


@dataclass
class IdNamespace:
    """A family of generators sharing one node name.

    The database hands each table its own row-id generator while documents,
    characters etc. draw from kind-specific generators, keeping ids compact
    and their origin readable (``doc:12``, ``char:88001``).
    """

    node: str = "db"
    _generators: dict = field(default_factory=dict, repr=False)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def generator(self, kind: str) -> IdGenerator:
        """Return (creating on first use) the generator for ``kind``."""
        with self._lock:
            gen = self._generators.get(kind)
            if gen is None:
                gen = IdGenerator(f"{self.node}.{kind}" if kind else self.node)
                self._generators[kind] = gen
            return gen

    def next(self, kind: str) -> Oid:
        """Shorthand for ``generator(kind).next()``."""
        return self.generator(kind).next()

    def advance_past(self, node: str, seq: int) -> None:
        """Never issue ``Oid(node, seq)`` or an earlier one of its kind
        again; ids minted by other namespaces are ignored."""
        prefix = self.node + "."
        if node.startswith(prefix):
            self.generator(node[len(prefix):]).advance(seq)
