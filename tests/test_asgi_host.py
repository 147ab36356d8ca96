"""The two ways into ``ReproApp``: the stdlib host and an external one.

The stdlib host (:mod:`repro.server.http`) frames each request off a raw
socket and steps the app coroutine once, with no event loop; the framing
and suspension tests below talk to it over real sockets. An external
ASGI host (``uvicorn``) runs the app on an event loop, streams the body
in ``more_body`` chunks and sends lifespan events; ``asyncio.run`` with a
``receive`` that really suspends stands in for it.
"""

import asyncio
import http.client
import json
import socket

import pytest

import repro.server.app as app_module
from repro import Database, Relation
from repro.server import create_app, start_background

QUERY = "Q(a, b) :- R(a, b)"


def fresh_app():
    return create_app(Database([Relation("R", ("a", "b"), [(1, 10)])]))


@pytest.fixture
def port():
    server, thread, port = start_background(fresh_app())
    try:
        yield port
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


def raw_request(port: int, request: bytes) -> bytes:
    """Send ``request`` on a fresh socket; read until the server closes."""
    with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
        sock.sendall(request)
        received = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return received
            received += chunk


def post_ingest(headers: str, body: bytes = b"") -> bytes:
    return (
        "POST /ingest HTTP/1.1\r\nHost: test\r\n" + headers + "\r\n"
    ).encode("latin-1") + body


def assert_one_closing_response(received: bytes, status: int) -> dict:
    """One response with ``status``, ``Connection: close``, a JSON error."""
    head, _, body = received.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    assert lines[0].startswith(f"HTTP/1.1 {status} "), received
    assert "connection: close" in [line.lower() for line in lines[1:]]
    assert received.count(b"HTTP/1.") == 1, received
    return json.loads(body)


class TestRequestFraming:
    """Bad framing is refused before a body byte is read, and the
    connection closes: the unread bytes cannot be told from the next
    request."""

    def test_negative_content_length_is_400(self, port):
        received = raw_request(port, post_ingest("Content-Length: -1\r\n"))
        error = assert_one_closing_response(received, 400)["error"]
        assert "Content-Length" in error

    def test_non_integer_content_length_is_400(self, port):
        received = raw_request(port, post_ingest("Content-Length: abc\r\n"))
        assert_one_closing_response(received, 400)

    def test_content_length_above_the_cap_is_413(self, port):
        received = raw_request(
            port, post_ingest("Content-Length: 99999999999\r\n")
        )
        assert_one_closing_response(received, 413)

    def test_cap_is_read_at_request_time(self, port, monkeypatch):
        monkeypatch.setattr(app_module, "MAX_BODY_BYTES", 64)
        # No body follows: a host that read before checking would block.
        received = raw_request(port, post_ingest("Content-Length: 65\r\n"))
        assert_one_closing_response(received, 413)

    def test_chunked_body_is_411(self, port):
        line = json.dumps({"op": "insert", "relation": "R", "row": [2, 20]})
        chunk = (line + "\n").encode("utf-8")
        body = b"%x\r\n%s\r\n0\r\n\r\n" % (len(chunk), chunk)
        received = raw_request(
            port, post_ingest("Transfer-Encoding: chunked\r\n", body)
        )
        assert_one_closing_response(received, 411)
        # Nothing was applied, and the server serves the next connection.
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=5)
        try:
            conn.request("GET", "/healthz")
            assert json.loads(conn.getresponse().read())["version"] == 1
        finally:
            conn.close()


async def _suspending_app(scope, receive, send):
    """A toy ASGI app that suspends on the event loop before ``/sleep``
    answers."""
    if scope["path"] == "/sleep":
        await asyncio.sleep(0)
    await send({"type": "http.response.start", "status": 200, "headers": []})
    await send({"type": "http.response.body", "body": b"done"})


def test_stdlib_host_answers_500_when_the_app_suspends():
    server, thread, port = start_background(_suspending_app)
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=5)
    try:
        conn.request("GET", "/sleep")
        response = conn.getresponse()
        assert response.status == 500
        error = json.loads(response.read())["error"]
        assert "suspended" in error and "sleep" in error and "uvicorn" in error
        # The same keep-alive connection serves the next request.
        conn.request("GET", "/now")
        response = conn.getresponse()
        assert (response.status, response.read()) == (200, b"done")
    finally:
        conn.close()
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


def run_on_event_loop(app, scope, inbox):
    """Drive ``app`` as an external host does: under ``asyncio.run``,
    with a ``receive`` that yields to the loop before each message.
    Returns ``(sent messages, messages the app received)``."""
    sent, received = [], []

    async def receive():
        await asyncio.sleep(0)
        received.append(inbox.pop(0))
        return received[-1]

    async def send(message):
        sent.append(message)

    asyncio.run(app(scope, receive, send))
    return sent, received


def http_scope(method: str, path: str) -> dict:
    return {
        "type": "http", "method": method, "path": path,
        "query_string": b"", "headers": [], "client": ("127.0.0.1", 1),
    }


def chunks(body: bytes, size: int) -> list:
    pieces = [body[i:i + size] for i in range(0, len(body), size)]
    return [
        {"type": "http.request", "body": piece,
         "more_body": i < len(pieces) - 1}
        for i, piece in enumerate(pieces)
    ]


class TestUnderAnExternalHost:
    def test_lifespan_startup_and_shutdown(self):
        sent, _ = run_on_event_loop(fresh_app(), {"type": "lifespan"}, [
            {"type": "lifespan.startup"}, {"type": "lifespan.shutdown"},
        ])
        assert [m["type"] for m in sent] == [
            "lifespan.startup.complete", "lifespan.shutdown.complete",
        ]

    def test_body_split_across_more_body_chunks(self):
        app = fresh_app()
        body = "".join(
            json.dumps({"op": "insert", "relation": "R", "row": [a, a * 10]})
            + "\n"
            for a in range(2, 6)
        ).encode("utf-8")
        inbox = chunks(body, 50)
        assert len(inbox) > 2
        sent, _ = run_on_event_loop(app, http_scope("POST", "/ingest"), inbox)
        assert sent[0]["status"] == 200
        assert json.loads(sent[1]["body"])["inserted"] == 4
        assert app.service.cursor(QUERY).count == 5

    def test_413_once_the_chunks_pass_the_cap(self, monkeypatch):
        monkeypatch.setattr(app_module, "MAX_BODY_BYTES", 64)
        app = fresh_app()
        inbox = chunks(b"x" * 120, 40)
        sent, received = run_on_event_loop(
            app, http_scope("POST", "/ingest"), list(inbox)
        )
        assert sent[0]["status"] == 413
        assert json.loads(sent[1]["body"])["error"] == "request body too large"
        # The app stopped at the chunk that crossed the cap.
        assert received == inbox[:2]
        assert app.service.database.version == 1
