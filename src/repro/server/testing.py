"""An in-process ASGI test client (no sockets, no third-party packages).

Runs each request through :func:`repro.server.http.exchange`, the same
call the stdlib HTTP host makes after framing a request off the socket —
the starlette ``TestClient`` shape without the dependency. Thread-safe
by construction: an exchange shares no state with any other, so the
threaded stress tests can hammer one app from many client threads
exactly like the thread-per-connection host does in production.
"""

from __future__ import annotations

import json as jsonlib
from typing import Optional

from repro.server.http import exchange


class Response:
    """One collected ASGI response."""

    def __init__(self, status: int, headers, body: bytes):
        self.status = status
        self.headers = {
            name.decode("latin-1").lower(): value.decode("latin-1")
            for name, value in headers
        }
        self.body = body

    @property
    def text(self) -> str:
        return self.body.decode("utf-8")

    def json(self):
        return jsonlib.loads(self.body.decode("utf-8"))

    def __repr__(self) -> str:
        return f"Response({self.status}, {len(self.body)} bytes)"


class TestClient:
    """Synchronous requests against an ASGI app, in process.

    >>> from repro import Database, Relation
    >>> from repro.server import create_app
    >>> app = create_app(Database([Relation("R", ("a",), [(1,)])]))
    >>> TestClient(app).get("/healthz").json()["status"]
    'ok'
    """

    __test__ = False  # not a pytest collectable despite the name

    def __init__(self, app):
        self.app = app

    def request(
        self,
        method: str,
        url: str,
        json: Optional[dict] = None,
        body: Optional[bytes] = None,
        headers: Optional[dict] = None,
    ) -> Response:
        if json is not None:
            body = jsonlib.dumps(json).encode("utf-8")
        wire_headers = [("host", "testclient")] + [
            (name, str(value)) for name, value in (headers or {}).items()
        ]
        return Response(*exchange(
            self.app, method, url, wire_headers, body or b"",
            ("127.0.0.1", 0), ("testclient", 80),
        ))

    def get(self, url: str, headers: Optional[dict] = None) -> Response:
        return self.request("GET", url, headers=headers)

    def post(self, url: str, json: Optional[dict] = None,
             body: Optional[bytes] = None,
             headers: Optional[dict] = None) -> Response:
        return self.request("POST", url, json=json, body=body, headers=headers)

    def delete(self, url: str, headers: Optional[dict] = None) -> Response:
        return self.request("DELETE", url, headers=headers)
