"""The system under test as a separate process, and the client that
drives it over real sockets.

Untraced runs launch the unmodified CLI (``python -m repro serve …
--stdlib``); traced runs launch ``traced_serve.py`` with the same
arguments. Either way the generator only ever talks HTTP to it.
"""

from __future__ import annotations

import http.client
import json
import os
import pathlib
import signal
import socket
import subprocess
import sys
import threading
import time
from typing import List, Optional, Tuple

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"

#: Seconds a launch may take to answer its first request.
READY_TIMEOUT = 120.0
#: Socket timeout of one request; a timeout is a failed operation.
REQUEST_TIMEOUT = 30.0


def free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def directory_bytes(path) -> int:
    total = 0
    for folder, _dirs, files in os.walk(path):
        for name in files:
            try:
                total += os.path.getsize(os.path.join(folder, name))
            except OSError:
                pass  # pruned between listing and stat
    return total


class Server:
    """One ``repro serve`` process (stdlib bridge, ephemeral port)."""

    def __init__(
        self, serve_args: List[str], log_file: str, trace_file: Optional[str] = None
    ):
        self.port = free_port()
        self.log_file = log_file
        self.trace_file = trace_file
        arguments = [*serve_args, "--port", str(self.port), "--stdlib"]
        if trace_file is None:
            command = [sys.executable, "-m", "repro", "serve", *arguments]
        else:
            command = [
                sys.executable, str(HERE / "traced_serve.py"), trace_file, *arguments
            ]
        environment = dict(os.environ)
        environment["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([environment["PYTHONPATH"]] if environment.get("PYTHONPATH") else [])
        )
        #: perf_counter at launch: set-up and restart times start here.
        self.launched = time.perf_counter()
        with open(log_file, "ab") as log:
            self.process = subprocess.Popen(
                command, env=environment, cwd=str(ROOT),
                stdout=subprocess.DEVNULL, stderr=log,
            )
        self.peak_rss_mb: Optional[float] = None

    def connect(self, name: str) -> "Client":
        """A client on a fresh connection, waiting out the launch."""
        deadline = self.launched + READY_TIMEOUT
        while True:
            if self.process.poll() is not None:
                log = pathlib.Path(self.log_file).read_text(errors="replace")
                raise RuntimeError(f"server exited during launch: {log[-2000:]}")
            try:
                return Client(self.port, name)
            except OSError:
                if time.perf_counter() > deadline:
                    raise RuntimeError("server did not open its port in time")
                time.sleep(0.01)

    def _reap(self) -> None:
        """Wait for the process; its ``ru_maxrss`` is the run's peak RSS."""
        _pid, status, usage = os.wait4(self.process.pid, 0)
        self.process.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_mb = usage.ru_maxrss / 1024.0  # Linux reports KiB

    def kill(self) -> None:
        """``SIGKILL``: no drain, no flush — the crash leg and the
        throw-away set-up repeats."""
        if self.process.returncode is None:
            self.process.send_signal(signal.SIGKILL)
            self._reap()

    def stop(self) -> None:
        """End the process; a traced server gets ``SIGTERM`` and a bounded
        wait so it can drain and write its spans."""
        if self.process.returncode is not None:
            return
        if self.trace_file is None:
            self.kill()
            return
        self.process.send_signal(signal.SIGTERM)
        watchdog = threading.Timer(30.0, self.process.kill)
        watchdog.start()
        try:
            self._reap()
        finally:
            watchdog.cancel()


class Client:
    """A keep-alive JSON client on one connection, stamping request ids."""

    def __init__(self, port: int, name: str):
        self.name = name
        self._sent = 0
        self._connection = http.client.HTTPConnection(
            "127.0.0.1", port, timeout=REQUEST_TIMEOUT
        )
        self._connection.connect()

    def call(
        self, method: str, path: str, body: Optional[bytes] = None
    ) -> Tuple[int, bytes, float, str, float]:
        """``(status, raw body, latency seconds, request id, sent at)``.

        Latency runs from just before the request is written to just
        after the last body byte is read; decoding is the caller's, timed
        separately. A transport error or timeout returns status 0.
        """
        self._sent += 1
        rid = f"{self.name}-{self._sent}"
        sent = time.perf_counter()
        try:
            self._connection.request(
                method, path, body=body, headers={"X-Request-Id": rid}
            )
            response = self._connection.getresponse()
            raw = response.read()
            status = response.status
        except (OSError, http.client.HTTPException):
            self._connection.close()
            return 0, b"", time.perf_counter() - sent, rid, sent
        return status, raw, time.perf_counter() - sent, rid, sent

    def json(self, method: str, path: str, body=None) -> Tuple[int, dict]:
        """An untimed control request (set-up, stats, checkpoints)."""
        if body is not None and not isinstance(body, bytes):
            body = json.dumps(body).encode("utf-8")
        status, raw, _latency, _rid, _sent = self.call(method, path, body)
        return status, (json.loads(raw) if raw else {})

    def close(self) -> None:
        self._connection.close()
