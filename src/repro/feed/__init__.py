"""The post-commit changefeed: one ordered event stream per database.

TeNDaX's derived data — the inverted index, dynamic-folder membership,
creation-process metadata and the open documents' order caches — used to
ride on four independent commit triggers, each rescanning ``DOCUMENTS``
to notice births and blind to deletes (a delete's change row is
``None``).  The changefeed replaces that: the engine publishes exactly
one :class:`~repro.feed.changefeed.CommitBatch` per committed
transaction, LSN-stamped and carrying *before-images*, to every live
subscriber.  A consumer's state after a restart is rebuilt from the
recovered tables, not replayed.  See ``docs/CHANGEFEED.md``.

* :mod:`repro.feed.changefeed` — the feed itself: batches of changes,
  subscriptions, acks and lag;
* :mod:`repro.feed.worker` — the maintenance worker: drains deferred
  consumers and compacts the inverted index when ticked.
"""

from .changefeed import (
    Changefeed,
    CommitBatch,
    FeedSubscription,
)
from .worker import MaintenanceWorker

__all__ = [
    "Changefeed",
    "CommitBatch",
    "FeedSubscription",
    "MaintenanceWorker",
]
