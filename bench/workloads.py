"""Seeded op streams for the four benchmark workloads.

Every generator here takes the seed and nothing else, and yields an
endless stream of plain tuples ``(verb, arg, ...)`` made of ints and
strings only.  The program under test sees just these tuples (through
a driver in :mod:`drivers`); nothing here knows how an op is executed
and nothing downstream branches on a workload's name — the registry at
the bottom is the only place names appear.

Two properties keep runs of *different* seeds comparable, which the
regression gate needs (it compares medians across seeds):

* **Exact shares.**  Verbs come in blocks of :data:`BLOCK` ops holding
  exactly the stated number of each verb, shuffled per block by the
  seed.  Throughput and percentiles are computed over whole blocks, so
  no run is lucky in how many expensive ops it drew.
* **Stratified parameters.**  Cost-bearing parameters (which term a
  scan search uses, where a cursor jumps) are drawn from a seeded
  low-discrepancy sequence, not i.i.d.: any two dozen consecutive draws
  cover the distribution evenly, so the *mean* cost of a run barely
  depends on the seed while every individual op still does.
"""

from __future__ import annotations

import hashlib
import random
import string
from bisect import bisect_left
from itertools import accumulate
from typing import Callable, Iterator

from repro.workload.corpus import COMMON, TOPICS

#: Ops per schedule block; every share below is "per BLOCK ops".
BLOCK = 100

#: Positions travel as fractions of the current length in 1/65536ths,
#: so an op stays valid however far the document has grown.
UNIT = 1 << 16

#: Nominal corpus size the Zipf document popularity is shaped for.
_ZIPF_POPULATION = 10000

_GOLDEN = 0.6180339887498949

_TOPIC_NAMES = tuple(TOPICS)
_CREATORS = ("ana", "ben", "cleo", "dan")
_LETTERS = string.ascii_lowercase + "     "


def _schedule(rng: random.Random, shares: tuple) -> Iterator[str]:
    """Endless verb sequence: exact ``shares`` per block, seeded order."""
    block = [verb for verb, count in shares for _ in range(count)]
    if len(block) != BLOCK:
        raise ValueError(f"shares sum to {len(block)}, not {BLOCK}")
    while True:
        rng.shuffle(block)
        yield from block


class _Stratified:
    """Seeded low-discrepancy replacement for ``rng.random()``."""

    def __init__(self, rng: random.Random) -> None:
        self._u = rng.random()

    def next(self) -> float:
        self._u = (self._u + _GOLDEN) % 1.0
        return self._u

    def where(self) -> int:
        """A position fraction in ``[0, UNIT)``."""
        return int(self.next() * UNIT)


class _Zipf:
    """Inverse-CDF Zipf choice over a fixed list (rank 0 hottest)."""

    def __init__(self, items: list) -> None:
        self._items = items
        self._cdf = list(accumulate(1.0 / (r + 1) for r in range(len(items))))

    def pick(self, u: float):
        rank = bisect_left(self._cdf, u * self._cdf[-1])
        return self._items[min(rank, len(self._items) - 1)]


_TOPIC_TERMS = {topic: _Zipf(words) for topic, words in TOPICS.items()}
_COMMON_WEIGHTS = list(accumulate(1.0 / (r + 1) for r in range(len(COMMON))))
_TOPIC_WEIGHTS = {
    topic: list(accumulate(1.0 / (r + 1) for r in range(len(words))))
    for topic, words in TOPICS.items()
}


def _zipf_doc(u: float) -> int:
    """Zipf document popularity as a fraction of the live-doc list."""
    return min(UNIT - 1, int(UNIT * _ZIPF_POPULATION ** (u - 1.0)))


def _portal_text(rng: random.Random, topic: str, n_words: int,
                 marker: str) -> str:
    """Archive text in the corpus vocabulary, ending in a unique token."""
    n_topic = sum(rng.random() < 0.6 for _ in range(n_words))
    words = rng.choices(TOPICS[topic], cum_weights=_TOPIC_WEIGHTS[topic],
                        k=n_topic)
    words += rng.choices(COMMON, cum_weights=_COMMON_WEIGHTS,
                         k=n_words - n_topic)
    rng.shuffle(words)
    return " ".join(words) + " " + marker + "."


def seed_text(seed: int, n_chars: int) -> str:
    """The initial text of an edited document (words, then padding)."""
    rng = random.Random(seed ^ 0x7E47)
    pool = COMMON + [w for words in TOPICS.values() for w in words]
    parts: list[str] = []
    size = 0
    while size < n_chars:
        word = rng.choice(pool)
        parts.append(word)
        size += len(word) + 1
    return " ".join(parts)[:n_chars]


# ----------------------------------------------------------------------
# The four op streams
# ----------------------------------------------------------------------

def wire_typing_ops(seed: int) -> Iterator[tuple]:
    """Two typists alternating on one document over the wire.

    ``type``/``backspace`` act at the editor's cursor; ``jump_type``
    moves the cursor to a random place first (the expensive client-side
    lookup).  The editor index alternates strictly.
    """
    rng = random.Random(seed)
    jumps = _Stratified(rng)
    verbs = _schedule(rng, (("type", 77), ("backspace", 15),
                            ("jump_type", 8)))
    n = 0
    while True:
        verb = next(verbs)
        editor = n & 1
        n += 1
        if verb == "type":
            yield ("type", editor, rng.choice(_LETTERS))
        elif verb == "backspace":
            yield ("backspace", editor)
        else:
            yield ("jump_type", editor, jumps.where(), rng.choice(_LETTERS))


def local_edit_mix_ops(seed: int) -> Iterator[tuple]:
    """The full editing verb set at uniform random positions."""
    rng = random.Random(seed)
    places = _Stratified(rng)
    verbs = _schedule(rng, (("type", 60), ("backspace", 15), ("style", 10),
                            ("copy_paste", 7), ("undo_redo", 8)))
    n = 0
    while True:
        verb = next(verbs)
        editor = n & 1
        n += 1
        if verb == "type":
            yield ("type", editor, places.where(), rng.choice(_LETTERS))
        elif verb == "backspace":
            yield ("backspace", editor, places.where())
        elif verb == "style":
            yield ("style", editor, places.where(), rng.randint(1, 8),
                   rng.randrange(2))
        elif verb == "copy_paste":
            yield ("copy_paste", editor, places.where(), rng.randint(4, 24),
                   places.where())
        else:
            yield ("undo_redo", editor)


#: Scan-class searches, cycled in this order: candidates grow with the
#: corpus, so none of them is served from a per-term cache.
_SCAN_KINDS = ("two_term", "term_state", "phrase", "newest", "filter_only")


def _scan_query(kind: str, terms: _Zipf, u: float, rng: random.Random):
    term = terms.pick(u)
    if kind == "two_term":
        return (f"{term} {terms.pick((u + 0.5) % 1.0)}", "relevance")
    if kind == "term_state":
        return (f"{term} state:final", "relevance")
    if kind == "phrase":
        return (f'"{term} {terms.pick((u + 0.5) % 1.0)}"', "relevance")
    if kind == "newest":
        return (term, "newest")
    return (f"state:{rng.choice(('draft', 'review', 'final'))}", "relevance")


def portal_query_ops(seed: int) -> Iterator[tuple]:
    """Read-mostly archive traffic with a trickle of re-uploads."""
    rng = random.Random(seed)
    strat = _Stratified(rng)
    verbs = _schedule(rng, (("search_top", 55), ("search_scan", 10),
                            ("folder", 15), ("meta", 18), ("upload", 2)))
    scans = 0
    n = 0
    while True:
        verb = next(verbs)
        n += 1
        topic = _TOPIC_NAMES[rng.randrange(len(_TOPIC_NAMES))]
        if verb == "search_top":
            yield ("search_top", _TOPIC_TERMS[topic].pick(rng.random()))
        elif verb == "search_scan":
            kind = _SCAN_KINDS[scans % len(_SCAN_KINDS)]
            scans += 1
            yield ("search_scan",
                   *_scan_query(kind, _TOPIC_TERMS[topic], strat.next(), rng))
        elif verb == "folder":
            yield ("folder", rng.choice(("finals", "database shelf")))
        elif verb == "meta":
            yield ("meta", _zipf_doc(rng.random()))
        else:
            yield ("upload", _zipf_doc(rng.random()), rng.choice(_CREATORS),
                   _portal_text(rng, topic, rng.randint(10, 30), f"mk{n}q"))


def portal_ingest_ops(seed: int) -> Iterator[tuple]:
    """Write-side archive traffic with searches right after writes."""
    rng = random.Random(seed)
    verbs = _schedule(rng, (("upload", 45), ("import", 40), ("delete", 10),
                            ("search_top", 5)))
    n = 0
    while True:
        verb = next(verbs)
        n += 1
        topic = _TOPIC_NAMES[rng.randrange(len(_TOPIC_NAMES))]
        if verb == "upload":
            yield ("upload", _zipf_doc(rng.random()), rng.choice(_CREATORS),
                   _portal_text(rng, topic, rng.randint(10, 30), f"mk{n}u"))
        elif verb == "import":
            yield ("import", f"{topic}-ingest-{n:07d}",
                   rng.choice(_CREATORS), topic,
                   _portal_text(rng, topic, rng.randint(12, 40), f"mk{n}i"))
        elif verb == "delete":
            yield ("delete", int(rng.random() * UNIT))
        else:
            yield ("search_top", _TOPIC_TERMS[topic].pick(rng.random()))


class OpDigest:
    """Running SHA-256 and per-verb counts of the ops actually issued."""

    def __init__(self) -> None:
        self._hash = hashlib.sha256()
        self.counts: dict[str, int] = {}

    def add(self, op: tuple) -> None:
        self._hash.update(repr(op).encode("utf-8"))
        verb = op[0]
        self.counts[verb] = self.counts.get(verb, 0) + 1

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


#: name -> (op generator, driver class name in :mod:`drivers`, why).
#: The ``why`` lines are repeated in BENCHMARK.json.
WORKLOADS: dict[str, tuple[Callable[[int], Iterator[tuple]], str, str]] = {
    "wire_typing": (
        wire_typing_ops, "WireTyping",
        "two typists on one live document over TCP with fsync: "
        "net, collab, text, WAL and the client mirror all block the op"),
    "local_edit_mix": (
        local_edit_mix_ops, "LocalEditMix",
        "same collab/text/db layers in-process with no wire and no fsync: "
        "a net or WAL change must show nothing here"),
    "portal_query": (
        portal_query_ops, "PortalQuery",
        "read-mostly 10k-doc archive: cached top-k searches beside "
        "scan searches that fit no cache; no net, collab or WAL work"),
    "portal_ingest": (
        portal_ingest_ops, "PortalIngest",
        "write side of the same archive: index and folder upkeep beside "
        "searches issued right after writes"),
}
