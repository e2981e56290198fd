"""The post-commit changefeed: one ordered event stream per database.

TeNDaX's derived data — the inverted index, dynamic-folder membership,
creation-process metadata and the open documents' order caches — used to
ride on four independent commit triggers, each rescanning ``DOCUMENTS``
to notice births and blind to deletes (a delete's change row is
``None``).  The changefeed replaces that: the engine publishes exactly
one :class:`~repro.feed.changefeed.CommitBatch` per committed
transaction, LSN-stamped and carrying *before-images*, and consumers
subscribe with durable, checkpointable cursors.  See
``docs/CHANGEFEED.md``.

* :mod:`repro.feed.changefeed` — the feed itself: batches of changes,
  subscriptions, cursor checkpoints, WAL catch-up after restart;
* :mod:`repro.feed.worker` — the background maintenance worker: drains
  deferred consumers, compacts the inverted index, checkpoints cursors
  and keeps the ``feed.*`` staleness telemetry fresh.
"""

from .changefeed import (
    Changefeed,
    CommitBatch,
    FeedGapError,
    FeedSubscription,
)
from .worker import MaintenanceWorker

__all__ = [
    "Changefeed",
    "CommitBatch",
    "FeedGapError",
    "FeedSubscription",
    "MaintenanceWorker",
]
