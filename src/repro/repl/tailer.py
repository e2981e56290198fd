"""The WAL tailer: read a leader's log file forward, segment by segment.

The leader's log file is the only copy of its log, and every shipping
path reads it through :func:`~repro.db.wal.read_segment`: a live
leader's :class:`~repro.db.wal.WriteAheadLog` up to the byte size of its
last fsync, published with its ``durable_lsn`` (so a power loss on the
leader never leaves a follower *ahead* of leader recovery), a dead
leader's file — the torture harness's equivalence anchor — to its end,
where a torn trailing record stays unread under the very rule
:func:`~repro.db.recovery.recover_file` skips it by.  The wire lane
(:meth:`~repro.net.server.CollabNetServer._serve_subscription`) keeps
one tailer per subscription and ships its segments' lines as they are.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING

from ..db.wal import WalRecord, WriteAheadLog, read_segment

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .follower import FollowerEngine


class WalTailer:
    """Reads a leader's log file forward and ships it to a follower.

    ``source`` is a live leader's log or the path of a dead leader's log
    file; :meth:`poll` applies to ``follower``.  The tailer keeps its
    place as a byte offset: sequential pulls read forward from where the
    last one stopped, and a fresh tailer — or one asked for a record it
    has already read past — scans the file from the start once.
    """

    def __init__(self, source: WriteAheadLog | str,
                 follower: "FollowerEngine | None" = None) -> None:
        self._source = source
        self._follower = follower
        #: Byte offset of the next unread line, and the LSN of the last
        #: record read before it.
        self._offset = 0
        self._read_lsn = 0

    def _bound(self) -> tuple[str | None, int, int | None]:
        """``(path, end, leader_lsn)``: how far the file may be read now
        and the leader LSN that stands for (``None``: a dead leader's
        file, whose last record read is its tail)."""
        if isinstance(self._source, str):
            return self._source, os.path.getsize(self._source), None
        lsn, end = self._source.durable_prefix()
        return self._source.path, end, lsn

    def segment(self, from_lsn: int
                ) -> tuple[list[WalRecord], list[bytes], int]:
        """The next segment from ``from_lsn`` on: ``(records, lines,
        leader_lsn)``; empty when nothing readable is left."""
        path, end, leader_lsn = self._bound()
        if from_lsn <= self._read_lsn:
            self._offset = self._read_lsn = 0
        records: list = []
        lines: list = []
        while path is not None and not records:
            records, lines, offset = read_segment(path, self._offset, end)
            if offset == self._offset:
                break
            self._offset = offset
            if records:
                self._read_lsn = records[-1].lsn
                skip = sum(r.lsn < from_lsn for r in records)
                records, lines = records[skip:], lines[skip:]
        return records, lines, \
            self._read_lsn if leader_lsn is None else leader_lsn

    def poll(self) -> int:
        """Ship everything readable beyond the follower's cursor.

        Returns the number of records applied.  Also refreshes the
        follower's leader-LSN knowledge (the lag gauge) even when
        nothing new shipped.
        """
        follower = self._follower
        total = 0
        while True:
            records, _, leader_lsn = self.segment(follower.applied_lsn + 1)
            if not records:
                break
            total += follower.apply_records(
                records, leader_lsn=leader_lsn, shipped_at=follower.db.now())
        follower.note_leader_lsn(leader_lsn)
        return total

    def caught_up(self) -> bool:
        """Whether the follower holds a live leader's durable prefix."""
        return self._follower.applied_lsn >= self._source.durable_lsn
