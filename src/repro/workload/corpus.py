"""Synthetic corpus generation.

Deterministic (seeded) generators for realistic-ish document text: a small
topic-partitioned vocabulary sampled with a Zipf-like distribution, so
that documents about the same topic share terms — which gives the mining
and search subsystems real structure to find.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence, TypeVar

_T = TypeVar("_T")

#: Topic -> characteristic vocabulary.  Shared words live in COMMON.
TOPICS: dict[str, list[str]] = {
    "database": """
        database transaction table index query schema commit rollback
        recovery lock row column storage engine log checkpoint cursor
        isolation durability consistency
    """.split(),
    "editing": """
        document editor character paragraph style layout template cursor
        selection clipboard paste undo redo revision structure heading
        formatting typing margin
    """.split(),
    "workflow": """
        workflow task process assignment routing approval translation
        verification deadline participant role cooperation notification
        escalation delegation milestone
    """.split(),
    "business": """
        report budget revenue quarter forecast meeting contract customer
        invoice project strategy market analysis risk proposal
    """.split(),
}

COMMON = """
    also based between during each early following further given high
    include large later line made make many more most much need new now
    number often only order other over part per place point present
    result same several small system time under used using value way
    well work year
""".split()


@dataclass
class CorpusSpec:
    """Parameters for a generated corpus."""

    n_docs: int = 20
    words_per_doc: tuple = (30, 120)
    creators: tuple = ("ana", "ben", "cleo", "dan")
    states: tuple = ("draft", "review", "final")
    topics: tuple = tuple(TOPICS)
    seed: int = 7


@lru_cache(maxsize=16)
def _zipf_cdf(n: int) -> list[float]:
    """Running sums of ``1/(rank+1)`` over ranks ``0..n-1``: the
    unnormalised Zipf CDF, built once per population size (a handful
    are in use: the topic vocabularies, ``COMMON``, a portal's
    documents).  Shared by every caller: do not mutate."""
    cdf: list[float] = []
    acc = 0.0
    for rank in range(n):
        acc += 1.0 / (rank + 1)
        cdf.append(acc)
    return cdf


def zipf_choice(rng: random.Random, population: Sequence[_T]) -> _T:
    """Pick an element with a Zipf-ish (rank-weighted) distribution.

    P(rank r) ~ 1/(r+1), rank 0 the first element; one ``rng.random()``
    per pick, inverted by bisection over :func:`_zipf_cdf`.
    """
    cdf = _zipf_cdf(len(population))
    target = rng.random() * cdf[-1]
    return population[min(bisect_left(cdf, target), len(cdf) - 1)]


def generate_sentence(rng: random.Random, topic: str,
                      n_words: int) -> str:
    """One sentence mixing topic vocabulary with common filler."""
    words = []
    topic_words = TOPICS[topic]
    for __ in range(n_words):
        pool = topic_words if rng.random() < 0.6 else COMMON
        words.append(zipf_choice(rng, pool))
    sentence = " ".join(words)
    return sentence[0].upper() + sentence[1:] + "."


def generate_text(rng: random.Random, topic: str, n_words: int) -> str:
    """Multi-sentence text of roughly ``n_words`` words."""
    sentences = []
    remaining = n_words
    while remaining > 0:
        take = min(remaining, rng.randint(5, 14))
        sentences.append(generate_sentence(rng, topic, take))
        remaining -= take
    return " ".join(sentences)


@dataclass
class GeneratedDoc:
    """Description of one generated document."""

    name: str
    creator: str
    state: str
    topic: str
    text: str


def generate_corpus(spec: CorpusSpec) -> list[GeneratedDoc]:
    """Generate document descriptions (no database side effects)."""
    rng = random.Random(spec.seed)
    docs = []
    for i in range(spec.n_docs):
        topic = spec.topics[i % len(spec.topics)]
        creator = rng.choice(spec.creators)
        n_words = rng.randint(*spec.words_per_doc)
        docs.append(GeneratedDoc(
            name=f"{topic}-doc-{i:03d}",
            creator=creator,
            state=rng.choice(spec.states),
            topic=topic,
            text=generate_text(rng, topic, n_words),
        ))
    return docs


def load_corpus(store, spec: CorpusSpec) -> list:
    """Create the generated documents in a DocumentStore.

    Returns the list of handles.  Creators are used as the acting users,
    and states are applied after creation (two metadata events per doc,
    just like real life).
    """
    handles = []
    for doc in generate_corpus(spec):
        handle = store.create(doc.name, doc.creator, text=doc.text,
                              props={"topic": doc.topic})
        if doc.state != "draft":
            store.set_state(handle.doc, doc.state, doc.creator)
        handles.append(handle)
    return handles
