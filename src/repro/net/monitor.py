"""The scrape lane, written once: STATS and HEALTH for one node.

A leader (:class:`~repro.net.server.CollabNetServer`) and a following
replica (:class:`~repro.net.replica.ReplicaStatusServer`) both hold a
:class:`ScrapeLane`: the node's telemetry rings, SLO evaluator and
sampler task, the STATS and HEALTH replies, the shared-token check and
the frame loop of a monitoring connection.  The two differ only in what
their payload adds (``extras``) and in the health context.
"""

from __future__ import annotations

import asyncio
import contextlib
from collections import deque
from typing import Awaitable, Callable

from ..errors import ProtocolError
from ..obs.export import prometheus_text
from ..obs.health import evaluate_health
from ..obs.slo import SLOEvaluator
from ..obs.timeseries import TelemetryStore
from .protocol import (
    Bye,
    Envelope,
    Error,
    FrameDecoder,
    Health,
    HealthReply,
    Stats,
    StatsReply,
    encode_frame,
)

__all__ = ["ScrapeLane"]


class ScrapeLane:
    """STATS/HEALTH over one database's registry.

    ``extras`` returns the node's own payload entries (a leader's server,
    WAL and collector stats; a follower's replication status);
    ``context`` is handed to :func:`~repro.obs.health.evaluate_health`.
    ``interval`` is the sampler's cadence in seconds (0: the rings are
    sampled only when someone calls ``telemetry.sample()``).
    """

    def __init__(self, db, *, token: str | None, interval: float,
                 extras: Callable[[], dict],
                 context: dict | None = None) -> None:
        self.db = db
        self.token = token
        self.interval = interval
        self._extras = extras
        self._context = context
        registry = db.obs.registry
        #: The live telemetry rings behind STATS/HEALTH and repro top,
        #: sampled on the database clock by the sampler task.
        self.telemetry = TelemetryStore(registry, db.clock,
                                        interval=max(interval, 0.05))
        self.slo = SLOEvaluator(self.telemetry)
        self._m_scrapes = registry.counter("net.scrapes")
        self._sampler: asyncio.Task | None = None

    def start(self) -> None:
        """Start the sampler on the running loop."""
        if self.interval > 0:
            self._sampler = asyncio.ensure_future(self._sample_loop())

    async def _sample_loop(self) -> None:
        """Feed the telemetry rings and SLO gauges on a fixed cadence."""
        while True:
            await asyncio.sleep(self.interval)
            self.telemetry.sample()
            self.slo.evaluate()

    async def stop(self) -> None:
        if self._sampler is not None:
            self._sampler.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._sampler
            self._sampler = None

    # ------------------------------------------------------------------
    # Payloads
    # ------------------------------------------------------------------

    def stats_payload(self, *, series: bool = True) -> dict:
        """The structured STATS payload (metrics + telemetry windows)."""
        payload = {"node": self.db.node, "at": self.db.now(),
                   **self._extras(),
                   "metrics": self.db.obs.registry.snapshot()}
        if series:
            payload["telemetry"] = self.telemetry.snapshot()
        return payload

    def health_payload(self) -> dict:
        """The HEALTH verdict over the current telemetry windows."""
        verdict = evaluate_health(self.db.obs.registry.snapshot(),
                                  self.telemetry, context=self._context)
        verdict["at"] = self.db.now()
        verdict["node"] = self.db.node
        return verdict

    def reply(self, envelope: Envelope) -> Envelope:
        """The answer to one STATS or HEALTH request."""
        self._m_scrapes.inc()
        now = self.db.now()
        if isinstance(envelope, Stats):
            if envelope.format == "prom":
                text = prometheus_text(self.db.obs.registry.snapshot())
                return StatsReply(format="prom", payload=text, at=now)
            return StatsReply(
                format="json",
                payload=self.stats_payload(series=envelope.series), at=now)
        verdict = self.health_payload()
        return HealthReply(status=verdict["status"],
                           checks=tuple(verdict["checks"]),
                           at=verdict["at"])

    # ------------------------------------------------------------------
    # Connections
    # ------------------------------------------------------------------

    async def serve(self, envelope: Envelope | None,
                    next_envelope: Callable[[], Awaitable[Envelope | None]],
                    send: Callable[[Envelope], Awaitable[None]]) -> None:
        """A monitoring connection from ``envelope`` on: consecutive
        STATS/HEALTH until EOF (``None``) or BYE, the shared token (when
        the node has one) checked on every request; no editor session is
        ever created.  Any other frame raises
        :class:`~repro.errors.ProtocolError` for the caller's fatal
        ERROR."""
        while envelope is not None and not isinstance(envelope, Bye):
            if not isinstance(envelope, (Stats, Health)):
                raise ProtocolError(
                    f"scrape connection got {envelope.TYPE!r} envelope")
            if self.token is not None and envelope.token != self.token:
                await send(Error(code="AccessDenied",
                                 message="bad shared token", fatal=True))
                return
            await send(self.reply(envelope))
            envelope = await next_envelope()

    async def accept(self, reader: asyncio.StreamReader,
                     writer: asyncio.StreamWriter) -> None:
        """An ``asyncio.start_server`` handler for an endpoint that only
        serves this lane."""
        decoder = FrameDecoder()
        inbound: deque[Envelope] = deque()

        async def next_envelope() -> Envelope | None:
            while not inbound:
                data = await reader.read(65536)
                if not data:
                    return None
                inbound.extend(decoder.feed(data))
            return inbound.popleft()

        async def send(envelope: Envelope) -> None:
            writer.write(encode_frame(envelope))
            await writer.drain()

        try:
            try:
                await self.serve(await next_envelope(), next_envelope, send)
            except ProtocolError as exc:
                await send(Error(code="ProtocolError", message=str(exc),
                                 fatal=True))
        except ConnectionError:
            pass
        finally:
            with contextlib.suppress(Exception):
                writer.close()
