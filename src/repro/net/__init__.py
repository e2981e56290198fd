"""The network layer: TeNDaX editors on separate machines, for real.

The paper's editors connect to the database over a LAN; until now the
reproduction modelled that hop as an in-process message bus.  This
package is the actual wire:

* :mod:`repro.net.protocol` — the length-prefixed JSON envelope
  protocol (HELLO/WELCOME handshake, OP/ACK RPC with durable-LSN
  acknowledgement, NOTIFY change fan-out, AWARENESS, PING/PONG, BYE),
  the row forms a change travels in (whole images and patches, one
  merge rule) and the verb table every OP is checked against;
* :mod:`repro.net.server` — :class:`CollabNetServer`, an asyncio TCP
  server fronting a :class:`~repro.collab.server.CollaborationServer`
  with per-connection bounded send queues and backpressure;
* :mod:`repro.net.client` — :class:`NetworkClient`, a blocking-socket
  transport whose :class:`RemoteSession` facade and
  :class:`RemoteHandle` replicas let the existing
  :class:`~repro.collab.editor.EditorClient` ride the network unchanged;
* :mod:`repro.net.mirror` — :class:`DocMirror`, the document replica
  read model of :mod:`repro.text.replica` fed by NOTIFY deltas: the
  character rows, everyone's cursors, sequence-gap detection and
  anti-entropy resync;
* :mod:`repro.net.replica` — the WAL-shipping wire endpoints:
  :class:`ReplicationClient` (SUBSCRIBE/WAL_SEGMENT/REPL_ACK pull
  stream into a :class:`~repro.repl.follower.FollowerEngine`) and
  :class:`ReplicaStatusServer` (the STATS/HEALTH scrape endpoint a
  following replica exposes before promotion);
* :mod:`repro.net.monitor` — :class:`ScrapeLane`, the STATS/HEALTH
  lane both servers hold;
* :mod:`repro.net.thread` — :class:`ServerThread`, a server on a
  background event loop for tests and benchmarks.

Only a process that builds a server runs an event loop.  The three
names whose modules import asyncio (and, through it, ssl) —
:class:`CollabNetServer`, :class:`ReplicaStatusServer` and
:class:`ReplicationClient` — are imported on first access (PEP 562),
and :class:`ServerThread` imports the server when one is constructed,
so an editor, a scraper or a portal that imports this package loads
neither library.

There is no socket-level fault model of its own: the NOTIFY and
AWARENESS frames a wire reader is handed pass the collab
:class:`~repro.collab.bus.DeliveryBus`, whose seeded
:class:`~repro.faults.plan.DeliveryFault` drops, holds and reorders them
as it does in-process deliveries.
"""

from importlib import import_module
from typing import TYPE_CHECKING

from .client import (NetNotification, NetworkClient, RemoteHandle,
                     RemoteSession, scrape)
from .mirror import DocMirror
from .protocol import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    Ack,
    Awareness,
    Bye,
    Envelope,
    Error,
    FrameDecoder,
    Health,
    HealthReply,
    Hello,
    Notify,
    Op,
    Ping,
    Pong,
    ProtocolError,
    ReplAck,
    Stats,
    StatsReply,
    Subscribe,
    WalSegment,
    Welcome,
    decode_envelope,
    encode_frame,
    error_class,
)
from .thread import ServerThread

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .replica import ReplicaStatusServer, ReplicationClient
    from .server import CollabNetServer

#: Names only a server process uses -> the module that defines them.
_ON_FIRST_USE = {
    "CollabNetServer": ".server",
    "ReplicaStatusServer": ".replica",
    "ReplicationClient": ".replica",
}


def __getattr__(name: str) -> object:
    """Import a name of :data:`_ON_FIRST_USE` on first access (PEP 562)."""
    if name not in _ON_FIRST_USE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(_ON_FIRST_USE[name], __name__), name)
    globals()[name] = value
    return value


__all__ = [
    "MAX_FRAME_BYTES",
    "PROTOCOL_VERSION",
    "Ack",
    "Awareness",
    "Bye",
    "CollabNetServer",
    "DocMirror",
    "Envelope",
    "Error",
    "FrameDecoder",
    "Health",
    "HealthReply",
    "Hello",
    "NetNotification",
    "NetworkClient",
    "Notify",
    "Op",
    "Ping",
    "Pong",
    "ProtocolError",
    "RemoteHandle",
    "RemoteSession",
    "ReplAck",
    "ReplicaStatusServer",
    "ReplicationClient",
    "ServerThread",
    "Stats",
    "StatsReply",
    "Subscribe",
    "WalSegment",
    "Welcome",
    "decode_envelope",
    "encode_frame",
    "error_class",
    "scrape",
]
