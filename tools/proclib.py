#!/usr/bin/env python3
"""Shared subprocess plumbing for the tools/ smoke scripts.

Every smoke harness in this directory spawns ``python -m repro serve``
(or a sibling subcommand), waits for its ``LISTENING <port>`` line,
runs a scenario, and tears the process down expecting a clean
``STOPPED`` on SIGTERM.  :class:`ServerProcess` owns that lifecycle
once, so net_smoke, the load harness and repl_smoke cannot drift apart
in how they spawn or judge a server.

Output is drained by a background thread into an internal line queue,
which makes mid-run waits (``wait_for("PROMOTED")`` with a timeout)
possible without risking the deadlock of a full OS pipe buffer.
"""

from __future__ import annotations

import os
import queue
import re
import signal
import subprocess
import sys
import threading

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

__all__ = ["REPO", "ServerProcess", "repro_command", "repro_env",
           "top_frame"]


def repro_env() -> dict:
    """Child environment with ``src/`` on PYTHONPATH (prepended)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO, "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def repro_command(*args: str) -> list:
    """Argv for ``python -m repro <args...>`` under this interpreter."""
    return [sys.executable, "-m", "repro", *args]


def top_frame(label: str, port: int, *patterns: str) -> list:
    """Run ``repro top 127.0.0.1:PORT`` once, as an operator would.

    Returns problem strings: a non-zero exit, or each regex of
    ``patterns`` (matched per line) that the frame does not match.
    """
    try:
        done = subprocess.run(
            repro_command("top", f"127.0.0.1:{port}"), capture_output=True,
            text=True, env=repro_env(), timeout=30.0)
    except subprocess.TimeoutExpired:
        return [f"{label}: repro top hung"]
    if done.returncode != 0:
        tail = done.stderr.strip().splitlines()[-1:] or [""]
        return [f"{label}: repro top exited {done.returncode} ({tail[0]})"]
    problems = [f"{label}: repro top frame lacks {pattern!r}"
                for pattern in patterns
                if not re.search(pattern, done.stdout, re.M)]
    if not problems:
        print(f"{label}: repro top frame ok "
              f"({len(done.stdout.splitlines())} lines)")
    return problems


class ServerProcess:
    """A ``repro`` server subprocess with handshake and teardown.

    Parameters
    ----------
    args:
        Subcommand argv, e.g. ``["serve", "--telemetry-interval", "0.2"]``.
    label:
        Prefix used in every problem string this instance produces.
    """

    def __init__(self, args, *, label: str = "server",
                 env: dict | None = None) -> None:
        self.label = label
        self.port: int | None = None
        self.proc = subprocess.Popen(
            repro_command(*args), stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True,
            env=repro_env() if env is None else env)
        self.stdout_lines: list = []
        self.stderr_lines: list = []
        self._queue: queue.Queue = queue.Queue()
        self._readers = [
            threading.Thread(target=self._drain, daemon=True,
                             args=(self.proc.stdout, self.stdout_lines,
                                   self._queue)),
            threading.Thread(target=self._drain, daemon=True,
                             args=(self.proc.stderr, self.stderr_lines,
                                   None)),
        ]
        for reader in self._readers:
            reader.start()

    @staticmethod
    def _drain(stream, sink: list, lines: queue.Queue | None) -> None:
        for line in stream:
            line = line.rstrip("\n")
            sink.append(line)
            if lines is not None:
                lines.put(line)
        if lines is not None:
            lines.put(None)  # EOF marker

    # ------------------------------------------------------------------
    # Handshakes
    # ------------------------------------------------------------------

    def wait_for(self, prefix: str, timeout: float = 30.0) -> list | None:
        """Wait for a stdout line starting with ``prefix``.

        Returns the whitespace-split tokens of the matching line, or
        ``None`` on EOF/timeout.  Non-matching lines are consumed (the
        smoke protocols are strictly ordered, so anything skipped here
        was informational).
        """
        while True:
            try:
                line = self._queue.get(timeout=timeout)
            except queue.Empty:
                return None
            if line is None:
                return None
            if line.startswith(prefix):
                return line.split()

    def wait_listening(self, timeout: float = 30.0) -> str | None:
        """Wait for ``LISTENING <port>``; sets :attr:`port`.

        Returns ``None`` on success, a problem string otherwise.
        """
        tokens = self.wait_for("LISTENING", timeout=timeout)
        if tokens is None or len(tokens) < 2:
            return (f"{self.label}: never bound "
                    f"(stderr: {self.tail_stderr()})")
        self.port = int(tokens[1])
        return None

    # ------------------------------------------------------------------
    # Teardown
    # ------------------------------------------------------------------

    def kill(self) -> None:
        """SIGKILL, no cleanliness judgement (crash legs use this)."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGKILL)
        self.proc.wait()
        self._join_readers()

    def shutdown(self, timeout: float = 10.0) -> str | None:
        """SIGTERM and require a clean exit.

        Returns ``None`` when the process exited 0 after printing
        ``STOPPED``, a problem string otherwise.  Always reaps the
        process, escalating to SIGKILL on a hang.
        """
        problem = None
        if self.proc.poll() is None:
            self.proc.terminate()
        try:
            self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            problem = f"{self.label}: ignored SIGTERM"
        self._join_readers()
        if problem is None:
            if self.proc.returncode != 0 \
                    or not any("STOPPED" in line
                               for line in self.stdout_lines):
                problem = (f"{self.label}: unclean shutdown "
                           f"(rc={self.proc.returncode}, "
                           f"{self.tail_stderr()})")
        return problem

    def _join_readers(self) -> None:
        for reader in self._readers:
            reader.join(timeout=5.0)

    def tail_stderr(self) -> str:
        """Last stderr line, for problem strings."""
        return self.stderr_lines[-1] if self.stderr_lines else ""
