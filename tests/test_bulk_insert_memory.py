"""The gate on what creating a document from a whole text holds at once.

Creating a document of n characters is one transaction of n character
rows.  What that transaction holds besides the rows themselves — a lock
per row and per claimed key, the change list its commit publishes — is
short-lived, but it sets the process's peak: at 30 000 characters it was
twice the size of the rows.  Locks are one slot each, a change holds its
row's stored tuple and a staged row is one redo statement and one pending
image, so the transient is now a fraction of the rows.
"""

from __future__ import annotations

import gc
import random
import tracemalloc

import pytest

from repro.db import Database, column
from repro.text import DocumentStore


def transient_bytes_per_char(chars: int) -> float:
    """Traced peak of one ``DocumentStore.create`` minus what is still
    live after it, per character of the created text."""
    rng = random.Random(5)
    text = "".join(rng.choice("abcdefghij klmnop\n") for __ in range(chars))
    store = DocumentStore(Database("bulk"))
    gc.collect()
    tracemalloc.start()
    try:
        handle = store.create("big", "ana", text=text)
        gc.collect()
        live, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert handle.length() == chars
    return (peak - live) / chars


def test_a_bulk_create_holds_at_most_445_bytes_per_character_at_once():
    """Measured ≈1 720 B per character while every lock was an object
    with a dict and a list and every change a dict of its row; ≈500
    while each staged row also had a ``Pending`` record, a ``(table,
    rowid)`` marker and a ``(column, key)`` tuple per key claim; ≈391
    since.  Gated halfway between the last two."""
    assert transient_bytes_per_char(5000) <= 445


def test_a_change_row_cannot_be_written():
    db = Database("ro")
    db.create_table("kv", [column("k", "str"), column("v", "int")], key="k")
    seen = []
    db.changefeed().subscribe("probe", seen.append, tables=("kv",))
    rowid = db.insert("kv", {"k": "a", "v": 1})
    updated = db.update("kv", rowid, {"v": 2})
    insert, update = (batch.events[0] for batch in seen)
    for image in (insert.row, update.row, update.before, updated):
        with pytest.raises(TypeError):
            image["v"] = 3
        with pytest.raises(AttributeError):
            image.update(v=3)
    row = insert.row
    assert row == {"k": "a", "v": 1} and dict(row) == {"k": "a", "v": 1}
    assert (row.get("v"), row.get("nope", 0), "k" in row, "nope" in row,
            len(row), list(row), list(row.items()), list(row.values())) \
        == (1, 0, True, False, 2, ["k", "v"], [("k", "a"), ("v", 1)],
            ["a", 1])
    assert update.before == {"k": "a", "v": 1}
    assert update.row == updated == {"k": "a", "v": 2}
    assert db.get("kv", rowid) == {"k": "a", "v": 2}
