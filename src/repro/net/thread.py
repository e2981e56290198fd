"""A :class:`~repro.net.server.CollabNetServer` on a background thread.

Kept apart from :mod:`repro.net.server` so that naming
:class:`ServerThread` costs nothing: the server module, and asyncio with
it (and ssl, which asyncio loads), is imported when a thread is built,
not when a client process imports :mod:`repro.net`.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING

from ..errors import NetError

__all__ = ["ServerThread"]

if TYPE_CHECKING:  # pragma: no cover - typing only
    import asyncio

    from ..collab.server import CollaborationServer


class ServerThread:
    """Run a :class:`CollabNetServer` on a background event loop.

    The in-process twin of ``repro serve`` for tests and benchmarks:
    the calling thread gets a live TCP endpoint (:attr:`port`) while the
    server spins in its own thread.  Use as a context manager.
    """

    def __init__(self, collab: "CollaborationServer", **kwargs) -> None:
        from .server import CollabNetServer
        self.server = CollabNetServer(collab, **kwargs)
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None

    @property
    def port(self) -> int:
        return self.server.port

    def start(self) -> "ServerThread":
        self._thread = threading.Thread(target=self._run,
                                        name="collab-net-server",
                                        daemon=True)
        self._thread.start()
        if not self._ready.wait(10.0):
            raise NetError("network server failed to start in time")
        if self._startup_error is not None:
            raise NetError(
                f"network server failed to start: {self._startup_error}")
        return self

    def _run(self) -> None:
        import asyncio
        self._loop = asyncio.new_event_loop()
        asyncio.set_event_loop(self._loop)
        try:
            self._loop.run_until_complete(self.server.start())
        except BaseException as exc:  # startup failed: surface it
            self._startup_error = exc
            self._ready.set()
            return
        self._ready.set()
        try:
            self._loop.run_forever()
        finally:
            self._loop.run_until_complete(self.server.stop())
            self._loop.close()

    def stop(self) -> None:
        if self._loop is None or self._thread is None:
            return
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(10.0)
        self._thread = None

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
