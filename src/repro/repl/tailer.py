"""WAL tailers: feed a follower from a leader in the same process.

Two in-process shipping paths (the wire path lives in
:mod:`repro.net.replica`):

* :class:`WalTailer` tails a live leader's
  :class:`~repro.db.wal.WriteAheadLog` object and ships its **durable**
  prefix — records beyond ``durable_lsn`` are never shipped, so a
  power loss on the leader can never leave the follower *ahead* of what
  leader recovery would rebuild.
* :class:`WalFileTailer` tails a leader's WAL mirror *file*
  incrementally — including the file of a leader that already crashed,
  which is how a follower catches up to exactly the prefix a recovered
  leader would see (the torture harness's equivalence anchor).  Unread
  bytes go through the file parser (:func:`~repro.db.wal.parse_records`),
  so a torn trailing record stays unconsumed under the very rule
  :func:`~repro.db.recovery.recover_file` skips it by.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..db.wal import WriteAheadLog, parse_records

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .follower import FollowerEngine


class WalTailer:
    """Ships a live leader WAL's durable prefix to a follower."""

    def __init__(self, source: WriteAheadLog,
                 follower: "FollowerEngine") -> None:
        self._source = source
        self._follower = follower

    def poll(self) -> int:
        """Ship everything durable beyond the follower's cursor.

        Returns the number of records applied.  Also refreshes the
        follower's leader-LSN knowledge (the lag gauge) even when
        nothing new shipped.
        """
        total = 0
        while True:
            segment, durable = self._source.durable_segment(
                self._follower.applied_lsn + 1)
            if not segment:
                break
            total += self._follower.apply_records(
                segment, leader_lsn=durable,
                shipped_at=self._follower.db.now())
        self._follower.note_leader_lsn(durable)
        return total

    def caught_up(self) -> bool:
        return self._follower.applied_lsn >= self._source.durable_lsn


class WalFileTailer:
    """Ships a leader's WAL mirror file to a follower, incrementally.

    Reads are offset-based: each :meth:`poll` parses the bytes appended
    since the last one and advances past the valid prefix only; a torn
    trailing line stays unconsumed until it is completed — or forever,
    if it is the debris of the leader's crash.
    """

    def __init__(self, path: str, follower: "FollowerEngine") -> None:
        self._path = path
        self._follower = follower
        self._offset = 0

    def poll(self) -> int:
        """Parse and apply newly appended records; returns the count."""
        try:
            with open(self._path, "rb") as handle:
                handle.seek(self._offset)
                unread = handle.read()
        except OSError:
            return 0
        records, valid = parse_records(unread, self._path)
        self._offset += valid
        if not records:
            return 0
        return self._follower.apply_records(
            records, leader_lsn=records[-1].lsn,
            shipped_at=self._follower.db.now())

    def drain(self) -> int:
        """Poll until the file yields nothing new (catch-up helper)."""
        total = 0
        while True:
            applied = self.poll()
            if not applied:
                return total
            total += applied
