"""WAL-shipping replication: read replicas and fast failover.

The leader's write-ahead log is already a totally ordered, durably
acked record stream — this package ships it to follower engines that
apply it continuously and idempotently, serve lock-free MVCC snapshot
reads while following, and can be *promoted* to writable leaders when
the leader dies (see ``docs/REPLICATION.md``).

* :class:`~repro.repl.apply.ReplicationApplier` — record-level apply
* :class:`~repro.repl.follower.FollowerEngine` — replica + promotion
* :class:`~repro.repl.tailer.WalTailer` /
  :class:`~repro.repl.tailer.WalFileTailer` — in-process shipping
* The wire path (``SUBSCRIBE`` / ``WAL_SEGMENT`` / ``REPL_ACK``) lives
  in :mod:`repro.net`.
"""

from .apply import ReplicationApplier
from .follower import FollowerEngine
from .tailer import WalFileTailer, WalTailer

__all__ = [
    "FollowerEngine",
    "ReplicationApplier",
    "WalFileTailer",
    "WalTailer",
]
