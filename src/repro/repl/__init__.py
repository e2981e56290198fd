"""WAL-shipping replication: read replicas and fast failover.

The leader's write-ahead log is already a totally ordered, durably
acked record stream — this package ships it to follower engines that
apply it continuously and idempotently, serve lock-free MVCC snapshot
reads while following, and can be *promoted* to writable leaders when
the leader dies (see ``docs/REPLICATION.md``).

* :class:`~repro.repl.apply.ReplicationApplier` — record-level apply
* :class:`~repro.repl.follower.FollowerEngine` — replica + promotion
* :class:`~repro.repl.tailer.WalTailer` — reads the leader's log *file*
  forward (a live leader's up to its last fsync, a dead one's to its
  end): in-process shipping, and the reader behind the wire lane
* The wire path (``SUBSCRIBE`` / ``WAL_SEGMENT`` / ``REPL_ACK``) lives
  in :mod:`repro.net`.

The file is the only copy of the log, so a follower starting empty
converges to any leader — restarted or not — by reading it from LSN 1.
"""

from .apply import ReplicationApplier
from .follower import FollowerEngine
from .tailer import WalTailer

__all__ = [
    "FollowerEngine",
    "ReplicationApplier",
    "WalTailer",
]
