"""The network layer: TeNDaX editors on separate machines, for real.

The paper's editors connect to the database over a LAN; until now the
reproduction modelled that hop as an in-process message bus.  This
package is the actual wire:

* :mod:`repro.net.protocol` — the length-prefixed JSON envelope
  protocol (HELLO/WELCOME handshake, OP/ACK RPC with durable-LSN
  acknowledgement, NOTIFY change fan-out, AWARENESS, PING/PONG, BYE)
  and the row forms a change travels in (whole images and patches,
  one merge rule);
* :mod:`repro.net.server` — :class:`CollabNetServer`, an asyncio TCP
  server fronting a :class:`~repro.collab.server.CollaborationServer`
  with per-connection bounded send queues and backpressure;
* :mod:`repro.net.client` — :class:`NetworkClient`, a blocking-socket
  transport whose :class:`RemoteSession`/:class:`RemoteHandle` proxies
  let the existing :class:`~repro.collab.editor.EditorClient` ride the
  network unchanged;
* :mod:`repro.net.mirror` — :class:`DocMirror`, the client-side replica
  of a document's character rows plus an order index over the visible
  ones (every read is O(1)/O(√n)) and everyone's cursors, maintained
  from NOTIFY deltas with sequence-gap detection and anti-entropy
  resync;
* :mod:`repro.net.replica` — the WAL-shipping wire endpoints:
  :class:`ReplicationClient` (SUBSCRIBE/WAL_SEGMENT/REPL_ACK pull
  stream into a :class:`~repro.repl.follower.FollowerEngine`) and
  :class:`ReplicaStatusServer` (the STATS/HEALTH scrape endpoint a
  following replica exposes before promotion).

Socket-level fault injection (seeded latency, reorder, drop and
disconnect on outbound change frames) rides on the same
:class:`~repro.faults.plan.FaultPlan` machinery as the in-process
DeliveryBus — see :class:`~repro.faults.plan.NetFault`.
"""

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
from .replica import ReplicaStatusServer, ReplicationClient
from .server import CollabNetServer, ServerThread

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
