"""A dependency-free HTTP host for ASGI apps (the ``repro serve`` floor).

The serving tier's contract is "ASGI, hosted by whatever you have":
production deployments run the app under ``uvicorn``/``gunicorn``
(install the ``server`` extra; see ``examples/gunicorn.conf.py``), but
the library must serve real HTTP with **zero** third-party packages —
for ``repro serve`` out of the box, for the test suite, and for the
``bench_http`` gate. This module is that floor: a
:class:`~http.server.ThreadingHTTPServer` whose handler frames each
request (a ``Content-Length`` body of at most the app's
``MAX_BODY_BYTES``; anything else is refused unread) and serves it
through :func:`exchange`, which the in-process
:class:`~repro.server.testing.TestClient` calls too.

:func:`exchange` runs the app coroutine with one ``send(None)`` and no
event loop. :class:`~repro.server.app.ReproApp` awaits only ``receive``
and ``send``, which complete at once, so it never suspends; an app that
does suspend gets a ``500`` naming what it awaited.

One thread per connection pairs naturally with the engine's concurrency
model — reads are wait-free snapshot probes, so N concurrent connections
page N pinned snapshots without ever blocking on the writer. HTTP/1.1
keep-alive is supported (responses always carry ``Content-Length``), so
a session's reads ride one connection.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Iterable, Optional, Tuple
from urllib.parse import urlsplit

from repro.server import app as app_module


def exchange(
    app, method: str, target: str, headers: Iterable[Tuple[str, str]],
    body: bytes, client: Tuple[str, int], server: Tuple[str, int],
) -> Tuple[int, list, bytes]:
    """Run one ASGI ``http`` exchange; returns ``(status, headers, body)``.

    ``target`` is the request target (path and query string) and
    ``headers`` its ``(name, value)`` string pairs; the app receives
    ``body`` as one ``http.request`` message. The app coroutine is
    stepped once: if it suspends instead of finishing, it is closed and
    the exchange answers ``500`` naming what it awaited. Exceptions the
    app raises propagate to the caller.
    """
    split = urlsplit(target)
    scope = {
        "type": "http",
        "asgi": {"version": "3.0", "spec_version": "2.3"},
        "http_version": "1.1",
        "method": method,
        "scheme": "http",
        "path": split.path,
        "raw_path": target.encode("latin-1"),
        "query_string": split.query.encode("latin-1"),
        "root_path": "",
        "headers": [
            (name.lower().encode("latin-1"), value.encode("latin-1"))
            for name, value in headers
        ],
        "client": client,
        "server": server,
    }
    messages = [{"type": "http.request", "body": body, "more_body": False}]
    response = {"status": 500, "headers": [], "body": bytearray()}

    async def receive():
        return messages.pop() if messages else {"type": "http.disconnect"}

    async def send(message):
        if message["type"] == "http.response.start":
            response["status"] = message["status"]
            response["headers"] = message.get("headers", [])
        elif message["type"] == "http.response.body":
            response["body"] += message.get("body", b"")

    coroutine = app(scope, receive, send)
    try:
        coroutine.send(None)
    except StopIteration:
        return response["status"], response["headers"], bytes(response["body"])
    awaited = coroutine.cr_await
    coroutine.close()
    return _json_error(500, (
        f"the app suspended awaiting {awaited!r}; this host serves apps that "
        f"await only receive and send, so run it under an ASGI server such "
        f"as uvicorn"
    ))


def _json_error(status: int, message: str) -> Tuple[int, list, bytes]:
    payload = json.dumps({"error": message}).encode("utf-8")
    return status, [(b"content-type", b"application/json")], payload


class ASGIRequestHandler(BaseHTTPRequestHandler):
    """Frame one HTTP request and serve it through :func:`exchange`."""

    protocol_version = "HTTP/1.1"
    #: Set by :func:`make_server`.
    asgi_app = None
    #: Quieten the default stderr access log (set True to restore it).
    log_requests = False

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        if self.log_requests:  # pragma: no cover - debugging aid
            super().log_message(format, *args)

    def _handle(self) -> None:
        if not self.server.track_request():
            # Draining: the server stopped admitting new work. Answer
            # quickly so clients re-resolve instead of hanging on a
            # half-closed socket.
            self._refuse(
                503, "server is draining; connection will not be served"
            )
            return
        try:
            self._run_exchange()
        finally:
            self.server.untrack_request()

    def _refuse(self, status: int, message: str) -> None:
        _, headers, payload = _json_error(status, message)
        # send_header("connection", "close") also sets close_connection.
        self._respond(status, headers + [(b"connection", b"close")], payload)

    def _run_exchange(self) -> None:
        # Framing is checked before a body byte is read. A refusal closes
        # the connection: the unread bytes cannot be told from the next
        # request.
        length = (self.headers.get("Content-Length") or "0").strip()
        if "Transfer-Encoding" in self.headers:
            self._refuse(411, "send the body with Content-Length")
        elif not (length.isascii() and length.isdigit()):
            self._refuse(400, f"bad Content-Length {length!r}")
        elif int(length) > app_module.MAX_BODY_BYTES:
            self._refuse(413, "request body too large")
        else:
            self._respond(*exchange(
                self.asgi_app, self.command, self.path, self.headers.items(),
                self.rfile.read(int(length)), self.client_address,
                self.server.server_address[:2],
            ))

    def _respond(self, status: int, headers: list, payload: bytes) -> None:
        self.send_response(status)
        for name, value in headers:
            self.send_header(name.decode("latin-1"), value.decode("latin-1"))
        if not any(name.lower() == b"content-length" for name, _ in headers):
            self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    do_GET = do_POST = do_DELETE = do_PUT = do_PATCH = _handle


class ASGIServer(ThreadingHTTPServer):
    """One thread per connection; daemonic so tests/CLI exit cleanly.

    Supports **graceful drain**: :meth:`shutdown_gracefully` stops
    admitting new requests (late arrivals get a fast ``503`` with
    ``Connection: close``), waits for every in-flight request to send
    its response (bounded by a timeout), then shuts the listener down —
    so stopping ``repro serve`` never tears a response mid-body.
    """

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._inflight = 0
        self._draining = False
        self._drain_cv = threading.Condition()

    def track_request(self) -> bool:
        """Admit one request; ``False`` when the server is draining."""
        with self._drain_cv:
            if self._draining:
                return False
            self._inflight += 1
            return True

    def untrack_request(self) -> None:
        with self._drain_cv:
            self._inflight -= 1
            if self._inflight == 0:
                self._drain_cv.notify_all()

    @property
    def inflight(self) -> int:
        """Requests currently being served (observability/tests)."""
        with self._drain_cv:
            return self._inflight

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Stop admitting requests; wait for in-flight ones to finish.

        Returns ``True`` when the server went idle within ``timeout``
        (``None`` waits indefinitely), ``False`` if requests were still
        running when the deadline passed — the caller decides whether to
        shut down anyway (the CLI does, after logging).
        """
        with self._drain_cv:
            self._draining = True
            return self._drain_cv.wait_for(
                lambda: self._inflight == 0, timeout=timeout
            )

    def shutdown_gracefully(self, timeout: Optional[float] = 10.0) -> bool:
        """:meth:`drain` then :meth:`shutdown`; returns the drain verdict."""
        drained = self.drain(timeout=timeout)
        self.shutdown()
        return drained


def make_server(app, host: str = "127.0.0.1", port: int = 8000) -> ASGIServer:
    """Bind an :class:`ASGIServer` hosting ``app`` (``port=0`` picks a
    free port; read it back from ``server.server_address``).

    The host serves apps that await only ``receive`` and ``send``, as
    :class:`~repro.server.app.ReproApp` does; run any other ASGI app
    under ``uvicorn``.
    """
    handler = type("BoundASGIRequestHandler", (ASGIRequestHandler,), {
        "asgi_app": staticmethod(app),
    })
    return ASGIServer((host, port), handler)


def serve(
    app,
    host: str = "127.0.0.1",
    port: int = 8000,
    drain_timeout: Optional[float] = 10.0,
) -> None:
    """Host ``app`` forever on the stdlib bridge (blocking).

    ``KeyboardInterrupt`` (the ``repro serve`` stop signal) drains
    gracefully: no new requests are admitted and in-flight responses
    get up to ``drain_timeout`` seconds to finish before the listener
    closes.
    """
    with make_server(app, host, port) as server:
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            # serve_forever already returned; only the in-flight
            # handler threads remain — wait them out.
            server.drain(timeout=drain_timeout)


def start_background(
    app, host: str = "127.0.0.1", port: int = 0
) -> Tuple[ASGIServer, threading.Thread, int]:
    """Host ``app`` on a daemon thread; returns ``(server, thread, port)``.

    The test-suite and benchmark entry point: bind (an ephemeral port by
    default), serve until ``server.shutdown()``.
    """
    server = make_server(app, host, port)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server, thread, server.server_address[1]
