"""The ASGI application: the ``QueryService`` surface over HTTP.

:func:`create_app` builds a framework-free ASGI 3 application — a plain
``async def (scope, receive, send)`` callable speaking JSON — so the
serving tier runs on anything that hosts ASGI: ``uvicorn``/``gunicorn``
(install the ``server`` extra), or the dependency-free stdlib bridge in
:mod:`repro.server.http` that backs ``repro serve`` and the test suite.
No web framework is required at runtime; ``starlette`` stays a purely
optional convenience of the ``server`` extra.

Endpoints
---------
===========================================  ==================================
``GET  /healthz``                            liveness: version, instance id,
                                             last durable version
``GET  /stats``                              ``ServiceStats.to_dict()`` +
                                             session-table and server gauges
``POST /queries``                            register/compile a query string →
                                             canonical id
``POST /cursors``                            open a server-side cursor session
``GET  /cursors/{id}/count``                 O(1) answer count
``GET  /cursors/{id}/page``                  one page (``number``, ``size``)
``GET  /cursors/{id}/batch``                 positions (``positions`` or
                                             ``start``/``stop``)
``GET  /cursors/{id}/sample``                ``k`` uniform draws (``seed``)
``GET  /cursors/{id}/position_of``           inverted access (``answer``)
``POST /cursors/{id}/refresh``               re-bind a stale ``raise`` cursor
``DELETE /cursors/{id}``                     close the session
``POST /ingest``                             JSONL ``Delta`` batch (the
                                             ``repro apply`` wire format)
``POST /admin/checkpoint``                   checkpoint the bound store
===========================================  ==================================

Session semantics at the wire
-----------------------------
A cursor session is a real :class:`~repro.service.cursor.Cursor` pinned
server-side: reads within one session are mutually consistent (each
response carries the ``version`` its answers were computed at, read from
the same pinned snapshot in one step). ``on_stale="reresolve"`` sessions
follow writes transparently; ``on_stale="raise"`` sessions answer ``409``
with the bound and current versions once the database moved — the client
acknowledges via ``POST .../refresh``. Reclaimed sessions (idle TTL, LRU
capacity, explicit close) answer ``410 Gone``; unknown ids ``404``; an
exhausted read budget ``429`` (see :mod:`repro.server.sessions`).

Writes and durability
---------------------
``POST /ingest`` validates the **whole** JSONL body first (line-numbered
``400`` on the first bad line, nothing applied), then applies it as one
:class:`~repro.database.delta.Delta` — one version bump, one cache walk.
The app holds no lock of its own: ingests and checkpoints serialize on
the service's write lock, and an ingest reports the version *its* batch
produced (:attr:`AppliedDelta.version`). With a durable service
(``storage=`` bound or :func:`create_app` given a store directory), the
batch is WAL-appended and fsynced *before* its version is published, so
an acknowledged ingest survives a crash; the response says
``"durable": true`` exactly then.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import pathlib
import random
import urllib.parse
from typing import List, Optional, Tuple

from repro import faults
from repro.database.database import Database
from repro.database.delta import DeltaError, DeltaLineError, delta_from_jsonl
from repro.errors import ReproError
from repro.query.free_connex import free_connex_report
from repro.query.ucq import UnionOfConjunctiveQueries
from repro.service.cache import canonical_query_key
from repro.service.cursor import StaleCursorError
from repro.service.query_service import QueryService, ServiceDegradedError
from repro.server.sessions import (
    RateLimitedError,
    ReadBudgetExceededError,
    SessionGoneError,
    SessionTable,
    TokenBucketLimiter,
    UnknownSessionError,
)

#: Largest accepted request body (64 MiB) — bounds ingest memory.
MAX_BODY_BYTES = 64 * 1024 * 1024

#: Failpoint at the head of ingest body handling (after the app accepted
#: the request, before anything is validated or applied).
FP_INGEST = faults.register("server.ingest")

#: Paths exempt from admission control: operators and probes must be
#: able to observe a server that is busy rate-limiting everyone else.
ADMISSION_EXEMPT = frozenset({"healthz", "stats"})


def _retry_after_header(seconds: float) -> Tuple[str, str]:
    """``Retry-After`` as the integral delta-seconds the RFC requires."""
    return ("Retry-After", str(max(1, math.ceil(seconds))))


class HttpError(ReproError):
    """An error with a definite wire status (raised by handlers)."""

    def __init__(self, status: int, message: str, **extra):
        super().__init__(message)
        self.status = status
        self.payload = {"error": message, **extra}


def query_id_of(query) -> str:
    """The canonical id of a query: a digest of its structural key.

    Stable across processes and across textual variants of the same rule
    (display names, whitespace), exactly like the index cache's key.
    """
    key = repr(canonical_query_key(query)).encode("utf-8")
    return hashlib.sha256(key).hexdigest()[:16]


class ReproApp:
    """The ASGI application object (build via :func:`create_app`).

    Exposes ``service``, ``sessions``, and ``queries`` for embedding and
    tests. The instance is itself the ASGI callable.
    """

    def __init__(
        self,
        service: QueryService,
        session_capacity: int = 256,
        session_ttl: Optional[float] = 300.0,
        read_budget: Optional[int] = None,
        client_rate: Optional[float] = None,
        client_burst: Optional[int] = None,
        clock=None,
    ):
        self.service = service
        kwargs = {} if clock is None else {"clock": clock}
        self.sessions = SessionTable(
            capacity=session_capacity,
            default_ttl=session_ttl,
            default_budget=read_budget,
            **kwargs,
        )
        #: Per-client token-bucket admission (``None`` = unlimited).
        #: Keyed on ``X-Client-Id`` falling back to the peer address, so
        #: the cap aggregates across all of one client's sessions.
        self.limiter = (
            TokenBucketLimiter(
                rate=client_rate,
                burst=(
                    client_burst
                    if client_burst is not None
                    else max(1, math.ceil(client_rate * 2))
                ),
                **kwargs,
            )
            if client_rate is not None
            else None
        )
        #: Registered canonical id → resolved query object.
        self.queries = {}
        self._requests = 0
        self._ingest_batches = 0
        self._ingest_ops = 0

    # ------------------------------------------------------------------ #
    # ASGI plumbing                                                       #
    # ------------------------------------------------------------------ #

    async def __call__(self, scope, receive, send):
        if scope["type"] == "lifespan":
            while True:
                message = await receive()
                if message["type"] == "lifespan.startup":
                    await send({"type": "lifespan.startup.complete"})
                elif message["type"] == "lifespan.shutdown":
                    await send({"type": "lifespan.shutdown.complete"})
                    return
            return
        if scope["type"] != "http":  # pragma: no cover - websocket etc.
            return
        body = io.BytesIO()
        while True:
            message = await receive()
            if message["type"] != "http.request":  # pragma: no cover
                return
            chunk = message.get("body", b"")
            if body.tell() + len(chunk) > MAX_BODY_BYTES:
                await self._send_json(
                    send, 413, {"error": "request body too large"}
                )
                return
            body.write(chunk)
            if not message.get("more_body", False):
                break
        status, payload, headers = self.dispatch(
            scope["method"],
            scope["path"],
            scope.get("query_string", b"").decode("latin-1"),
            body.getvalue(),
            headers=scope.get("headers"),
            client=scope.get("client"),
        )
        await self._send_json(send, status, payload, headers)

    @staticmethod
    async def _send_json(
        send, status: int, payload, extra_headers: Optional[List] = None
    ) -> None:
        body = json.dumps(payload).encode("utf-8")
        headers = [
            (b"content-type", b"application/json"),
            (b"content-length", str(len(body)).encode("ascii")),
        ]
        for name, value in extra_headers or ():
            headers.append((
                name.encode("latin-1") if isinstance(name, str) else name,
                value.encode("latin-1") if isinstance(value, str) else value,
            ))
        await send({
            "type": "http.response.start",
            "status": status,
            "headers": headers,
        })
        await send({"type": "http.response.body", "body": body})

    # ------------------------------------------------------------------ #
    # Routing                                                             #
    # ------------------------------------------------------------------ #

    def dispatch(
        self,
        method: str,
        path: str,
        query_string: str,
        body: bytes,
        headers=None,
        client=None,
    ) -> Tuple[int, dict, List[Tuple[str, str]]]:
        """Route one request; returns ``(status, payload, extra headers)``.

        Synchronous on purpose: every handler is a short CPU-bound read
        (wait-free snapshot access) or a serialized write. The stdlib
        bridge runs one thread per connection; under a single-loop ASGI
        host a long ingest briefly serializes the loop, which is the
        documented trade of the dependency-free tier.

        ``headers`` (ASGI header pairs) and ``client`` (the peer
        ``(host, port)``) feed admission control: with a configured
        limiter, every non-exempt request spends one token of its
        client's bucket *before* routing, and an empty bucket answers
        ``429`` + ``Retry-After``. A degraded write path
        (:class:`~repro.service.query_service.ServiceDegradedError`)
        answers ``503`` + ``Retry-After``; any other ``OSError``
        escaping a handler is an I/O failure and answers ``503``.
        """
        self._requests += 1
        try:
            if (
                self.limiter is not None
                and path.strip("/") not in ADMISSION_EXEMPT
            ):
                self.limiter.admit(self._client_id(headers, client))
            status, payload = self._route(method, path, query_string, body)
            return status, payload, []
        except HttpError as error:
            return error.status, error.payload, []
        except RateLimitedError as error:
            return 429, {
                "error": str(error),
                "client": error.client_id,
                "retry_after": error.retry_after,
            }, [_retry_after_header(error.retry_after)]
        except ServiceDegradedError as error:
            return 503, {
                "error": str(error),
                "degraded": True,
                "reason": error.reason,
                "retry_after": error.retry_after,
            }, [_retry_after_header(error.retry_after)]
        except UnknownSessionError as error:
            return 404, {"error": str(error), "cursor": error.session_id}, []
        except SessionGoneError as error:
            return 410, {
                "error": str(error),
                "cursor": error.session_id,
                "reason": error.reason,
            }, []
        except ReadBudgetExceededError as error:
            return 429, {
                "error": str(error),
                "cursor": error.session_id,
                "served": error.served,
                "budget": error.budget,
            }, []
        except StaleCursorError as error:
            return 409, {
                "error": str(error),
                "stale": True,
                "bound_version": error.bound_version,
                "current_version": error.current_version,
            }, []
        except DeltaLineError as error:
            return 400, {"error": error.reason, "line": error.line}, []
        except (DeltaError, ValueError) as error:
            return 400, {"error": str(error)}, []
        except OSError as error:
            # An I/O failure that did not flip the service degraded (a
            # checkpoint write, an injected ingest fault): server-side
            # trouble, not a client error.
            return 503, {"error": f"{type(error).__name__}: {error}"}, []
        except Exception as error:  # pragma: no cover - defensive
            return 500, {"error": f"{type(error).__name__}: {error}"}, []

    @staticmethod
    def _client_id(headers, client) -> str:
        """The admission key: ``X-Client-Id`` header, else peer address.

        The header lets clients behind one proxy be limited separately
        (and lets tests and SDKs pick stable identities); the peer
        address is the default that requires no cooperation.
        """
        for name, value in headers or ():
            if isinstance(name, bytes):
                name = name.decode("latin-1")
            if name.lower() == "x-client-id":
                if isinstance(value, bytes):
                    value = value.decode("latin-1")
                value = value.strip()
                if value:
                    return value
        if client:
            return str(client[0])
        return "<unknown>"

    def _route(self, method, path, query_string, body):
        parts = [part for part in path.split("/") if part]
        params = {
            name: values[-1]
            for name, values in urllib.parse.parse_qs(query_string).items()
        }
        if parts == ["healthz"]:
            self._require(method, "GET")
            return self.handle_healthz()
        if parts == ["stats"]:
            self._require(method, "GET")
            return self.handle_stats()
        if parts == ["queries"]:
            self._require(method, "POST")
            return self.handle_register_query(self._json_body(body))
        if parts == ["ingest"]:
            self._require(method, "POST")
            return self.handle_ingest(body)
        if parts == ["admin", "checkpoint"]:
            self._require(method, "POST")
            return self.handle_checkpoint()
        if parts == ["cursors"]:
            self._require(method, "POST")
            return self.handle_open_cursor(self._json_body(body))
        if len(parts) == 2 and parts[0] == "cursors":
            self._require(method, "DELETE")
            return self.handle_close_cursor(parts[1])
        if len(parts) == 3 and parts[0] == "cursors":
            session_id, verb = parts[1], parts[2]
            if verb == "refresh":
                self._require(method, "POST")
                return self.handle_refresh(session_id)
            reads = {
                "count": self.handle_count,
                "page": self.handle_page,
                "batch": self.handle_batch,
                "sample": self.handle_sample,
                "position_of": self.handle_position_of,
            }
            if verb in reads:
                self._require(method, "GET")
                return reads[verb](session_id, params)
        raise HttpError(404, f"no route for {method} {path}")

    @staticmethod
    def _require(method: str, expected: str) -> None:
        if method != expected:
            raise HttpError(405, f"method {method} not allowed (use {expected})")

    @staticmethod
    def _json_body(body: bytes) -> dict:
        if not body:
            raise HttpError(400, "expected a JSON request body")
        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise HttpError(400, f"invalid JSON body ({error})")
        if not isinstance(payload, dict):
            raise HttpError(400, "expected a JSON object body")
        return payload

    # ------------------------------------------------------------------ #
    # Introspection endpoints                                             #
    # ------------------------------------------------------------------ #

    def handle_healthz(self):
        # One pin: every version-bearing field below names one version.
        database = self.service.database.pin()
        durable = self.service.storage is not None
        degraded = self.service.degraded
        payload = {
            # "degraded" keeps answering 200: the process is alive and
            # still serving reads — only its write path is refusing work.
            # Routing layers that should stop sending writes read the
            # status field, not the HTTP code.
            "status": "degraded" if degraded else "ok",
            "version": database.version,
            "instance_id": database.instance_id,
            "durable": durable,
            # Writes WAL-append before their bump is observable, so for a
            # durable service the current version IS the last durable one.
            "last_durable_version": database.version if durable else None,
            "sessions": len(self.sessions),
        }
        if degraded:
            payload["degraded_reason"] = self.service.degraded_reason
            payload["degraded_seconds"] = self.service.degraded_since_seconds
        return 200, payload

    def handle_stats(self):
        return 200, {
            "service": self.service.stats().to_dict(),
            "sessions": self.sessions.gauges(),
            "admission": (
                self.limiter.gauges() if self.limiter is not None else None
            ),
            "server": {
                "requests": self._requests,
                "registered_queries": len(self.queries),
                "ingest_batches": self._ingest_batches,
                "ingest_ops": self._ingest_ops,
            },
        }

    # ------------------------------------------------------------------ #
    # Query registry                                                      #
    # ------------------------------------------------------------------ #

    def handle_register_query(self, payload):
        text = payload.get("query")
        if not isinstance(text, str) or not text.strip():
            raise HttpError(400, 'expected {"query": "<datalog rule(s)>"}')
        try:
            query = self.service.resolve(text)
        except ReproError as error:
            raise HttpError(400, f"cannot parse query: {error}")
        query_id = query_id_of(query)
        # Idempotent: re-registering any textual variant of the same
        # canonical query returns the same id.
        self.queries.setdefault(query_id, query)
        members = (
            query.queries
            if isinstance(query, UnionOfConjunctiveQueries)
            else (query,)
        )
        return 200, {
            "id": query_id,
            "kind": "ucq" if isinstance(query, UnionOfConjunctiveQueries) else "cq",
            "relations": sorted(
                {atom.relation for member in members for atom in member.body}
            ),
            "tractable": all(
                free_connex_report(member).tractable for member in members
            ),
        }

    def _resolve_query(self, payload):
        """The query named by an open-cursor body: inline or registered."""
        query_id = payload.get("query_id")
        if query_id is not None:
            query = self.queries.get(query_id)
            if query is None:
                raise HttpError(404, f"unknown query id {query_id!r}")
            return query, query_id
        text = payload.get("query")
        if not isinstance(text, str) or not text.strip():
            raise HttpError(
                400, 'expected {"query": "<rule>"} or {"query_id": "<id>"}'
            )
        try:
            query = self.service.resolve(text)
        except ReproError as error:
            raise HttpError(400, f"cannot parse query: {error}")
        query_id = query_id_of(query)
        self.queries.setdefault(query_id, query)
        return query, query_id

    # ------------------------------------------------------------------ #
    # Cursor sessions                                                     #
    # ------------------------------------------------------------------ #

    def handle_open_cursor(self, payload):
        query, query_id = self._resolve_query(payload)
        on_stale = payload.get("on_stale", "reresolve")
        if on_stale not in ("reresolve", "raise"):
            raise HttpError(
                400, f"on_stale must be 'reresolve' or 'raise', got {on_stale!r}"
            )
        ttl = payload.get("ttl")
        if ttl is not None and not (
            isinstance(ttl, (int, float)) and not isinstance(ttl, bool) and ttl > 0
        ):
            raise HttpError(400, "ttl must be a positive number of seconds")
        budget = payload.get("budget")
        if budget is not None and not (
            isinstance(budget, int) and not isinstance(budget, bool) and budget > 0
        ):
            raise HttpError(400, "budget must be a positive integer")
        if budget is not None and self.sessions.default_budget is not None:
            # Clients may tighten the server's budget, never raise it.
            budget = min(budget, self.sessions.default_budget)
        try:
            cursor = self.service.cursor(query, on_stale=on_stale)
            count = cursor.count  # builds (or resolves) the index now
        except ReproError as error:
            raise HttpError(422, f"cannot serve query: {error}")
        session = self.sessions.open(
            cursor, query_id=query_id, on_stale=on_stale, ttl=ttl, budget=budget
        )
        return 201, {**session.describe(), "count": count}

    def handle_close_cursor(self, session_id):
        # get() first so a TTL-expired/evicted id answers 410, not a
        # silent "closed" of something that was already reclaimed.
        self.sessions.get(session_id)
        self.sessions.close(session_id)
        return 200, {"cursor": session_id, "closed": True}

    def handle_refresh(self, session_id):
        session = self.sessions.get(session_id)
        with session.lock:
            # A raise-policy cursor can go stale again between refresh()
            # and the count read if a write lands in between; retry a few
            # times before letting the 409 through (the client's next
            # refresh picks up from there).
            for attempt in range(3):
                session.cursor.refresh()
                try:
                    count = session.cursor.count
                except StaleCursorError:
                    if attempt == 2:
                        raise
                    continue
                return 200, {**session.describe(), "count": count}

    def _read(self, session_id, answers_of, charge=None):
        """One session read: resolve, admit, serialize, charge, serve.

        ``answers_of(cursor)`` runs under the session lock and must read
        everything from one pinned view; a spent budget is rejected
        before it runs, and the budget is then charged with the number of
        answers it returned (``charge`` overrides, for count /
        position_of style reads that serve one scalar).
        """
        session = self.sessions.get(session_id)
        with session.lock:
            self.sessions.check_budget(session)
            result = answers_of(session.cursor)
            self.sessions.charge(
                session,
                charge if charge is not None else result["charge"],
            )
            result.pop("charge", None)
            return 200, {**result, "cursor": session_id}

    def handle_count(self, session_id, params):
        def read(cursor):
            view = cursor.pinned
            return {"count": view.count, "version": cursor.version}

        return self._read(session_id, read, charge=1)

    def handle_page(self, session_id, params):
        number = self._int_param(params, "number", 0, minimum=0)
        size = self._int_param(params, "size", 10, minimum=1)

        def read(cursor):
            view = cursor.pinned
            version = cursor.version
            count = view.count
            start = number * size
            answers = view.batch(range(min(start, count), min(start + size, count)))
            return {
                "answers": [list(a) for a in answers],
                "number": number,
                "size": size,
                "count": count,
                "version": version,
                "charge": len(answers),
            }

        return self._read(session_id, read)

    def handle_batch(self, session_id, params):
        positions = params.get("positions")
        if positions is not None:
            try:
                wanted = [int(p) for p in positions.split(",") if p.strip()]
            except ValueError:
                raise HttpError(
                    400, "positions must be a comma-separated list of integers"
                )
            if not wanted:
                raise HttpError(400, "positions must name at least one position")
        else:
            start = self._int_param(params, "start", None, minimum=0)
            stop = self._int_param(params, "stop", None, minimum=0)
            if start is None or stop is None:
                raise HttpError(
                    400, "expected positions=... or start=...&stop=..."
                )
            wanted = None

        def read(cursor):
            view = cursor.pinned
            version = cursor.version
            count = view.count
            if wanted is not None:
                out_of_bound = [p for p in wanted if not 0 <= p < count]
                if out_of_bound:
                    raise HttpError(
                        400,
                        f"positions out of bound: {out_of_bound} "
                        f"(count is {count})",
                        count=count,
                    )
                answers = view.batch(wanted)
            else:
                answers = view.batch(range(min(start, count), min(stop, count)))
            return {
                "answers": [list(a) for a in answers],
                "count": count,
                "version": version,
                "charge": len(answers),
            }

        return self._read(session_id, read)

    def handle_sample(self, session_id, params):
        k = self._int_param(params, "k", None, minimum=1)
        if k is None:
            raise HttpError(400, "expected k=<number of draws>")
        seed = self._int_param(params, "seed", None)

        def read(cursor):
            view = cursor.pinned
            version = cursor.version
            rng = random.Random(seed) if seed is not None else random.Random()
            answers = view.sample_many(k, rng)
            return {
                "answers": [list(a) for a in answers],
                "k": k,
                "version": version,
                "charge": len(answers),
            }

        return self._read(session_id, read)

    def handle_position_of(self, session_id, params):
        raw = params.get("answer")
        if raw is None:
            raise HttpError(400, "expected answer=<JSON array>")
        try:
            answer = json.loads(raw)
        except json.JSONDecodeError as error:
            raise HttpError(400, f"answer must be a JSON array ({error})")
        if not isinstance(answer, list):
            raise HttpError(400, "answer must be a JSON array")
        # Answers hold only the canonical codec's scalars; a nested array
        # or object could never match, and is unhashable besides.
        if not all(
            value is None or isinstance(value, (bool, int, float, str))
            for value in answer
        ):
            raise HttpError(
                400, "answer elements must be JSON scalars "
                "(null, bool, number or string)"
            )

        def read(cursor):
            position = cursor.position_of(tuple(answer))
            return {"position": position, "version": cursor.version}

        return self._read(session_id, read, charge=1)

    @staticmethod
    def _int_param(params, name, default, minimum=None):
        raw = params.get(name)
        if raw is None:
            return default
        try:
            value = int(raw)
        except ValueError:
            raise HttpError(400, f"{name} must be an integer, got {raw!r}")
        if minimum is not None and value < minimum:
            raise HttpError(400, f"{name} must be >= {minimum}, got {value}")
        return value

    # ------------------------------------------------------------------ #
    # Writes                                                              #
    # ------------------------------------------------------------------ #

    def handle_ingest(self, body: bytes):
        faults.inject(FP_INGEST)
        try:
            text = body.decode("utf-8")
        except UnicodeDecodeError as error:
            raise HttpError(400, f"ingest body must be UTF-8 JSONL ({error})")
        if not text.strip():
            raise HttpError(400, "empty ingest body (expected JSONL delta ops)")
        # Validate-all-first, for the line-numbered 400; the apply itself
        # re-validates against the version it writes to.
        delta = delta_from_jsonl(
            text.splitlines(), database=self.service.database
        )
        result = self.service.apply(delta)
        self._ingest_batches += 1
        self._ingest_ops += len(delta)
        return 200, {
            "ops": len(delta),
            "inserted": result.inserted,
            "deleted": result.deleted,
            "noops": result.noops,
            "changed": result.changed,
            "version": result.version,
            "durable": self.service.storage is not None,
            "by_relation": result.by_relation,
        }

    def handle_checkpoint(self):
        from repro.storage.store import StorageError

        try:
            path = self.service.checkpoint()
        except StorageError as error:
            raise HttpError(409, f"cannot checkpoint: {error}")
        manifest = self.service.storage.last_manifest or {}
        return 200, {
            "checkpoint": pathlib.Path(path).name,
            "version": manifest.get("version", self.service.database.version),
            "serve_entries": len(manifest.get("entries", []) or []),
        }


def create_app(
    source,
    *,
    storage=None,
    store: Optional[str] = None,
    dynamic: Optional[bool] = None,
    promote_after: Optional[int] = None,
    session_capacity: int = 256,
    session_ttl: Optional[float] = 300.0,
    read_budget: Optional[int] = None,
    client_rate: Optional[float] = None,
    client_burst: Optional[int] = None,
    clock=None,
) -> ReproApp:
    """Build the ASGI app for a service, database, or durable store dir.

    Parameters
    ----------
    source:
        What to serve — one of:

        * a :class:`~repro.service.QueryService` (used as-is; ``storage``
          / ``store`` / ``dynamic`` must not also be given),
        * a :class:`~repro.database.Database` (wrapped in a fresh
          service, optionally bound to ``storage``),
        * a path to a durable store directory (``str`` /
          ``pathlib.Path``): recovered via
          :meth:`~repro.service.QueryService.recover` — checkpoint +
          serve-state + WAL tail — and served at the last durable
          version. The restart acceptance path of ``repro serve``.
    storage / store / dynamic / promote_after:
        Passed to the :class:`~repro.service.QueryService` constructed
        around a ``Database`` / recovered directory.
    session_capacity / session_ttl / read_budget:
        Session-table bounds (see :mod:`repro.server.sessions`):
        live-session cap with LRU eviction, idle TTL in seconds
        (``None`` disables), default per-session answers budget
        (``None`` = unlimited; clients may lower, never raise, their
        own at ``POST /cursors``).
    client_rate / client_burst:
        Per-client token-bucket admission control (``None`` disables):
        each client — keyed by ``X-Client-Id``, falling back to the
        peer address, aggregated across all its sessions — is admitted
        at ``client_rate`` requests/second with bursts up to
        ``client_burst`` (default ``2 × rate``); excess answers ``429``
        + ``Retry-After``. ``/healthz`` and ``/stats`` are exempt.
    clock:
        Injectable monotonic clock for the session table (tests).
    """
    service_kwargs = {}
    if promote_after is not None:
        service_kwargs["promote_after"] = promote_after
    if isinstance(source, QueryService):
        if storage is not None or store is not None or dynamic is not None:
            raise ValueError(
                "create_app(service) uses the service as configured; "
                "storage/store/dynamic apply only when building one"
            )
        service = source
    elif isinstance(source, Database):
        service = QueryService(
            source, storage=storage, store=store, dynamic=dynamic,
            **service_kwargs,
        )
    elif isinstance(source, (str, pathlib.Path)):
        from repro.storage.store import DurableStore

        if not DurableStore(source).exists():
            raise ValueError(
                f"no durable state in {source} (expected a store directory "
                f"with a checkpoint or write-ahead log; seed one with "
                f"QueryService(db, storage=...) or `repro apply --wal`)"
            )
        service = QueryService.recover(
            source, store=store, dynamic=dynamic, **service_kwargs
        )
    else:
        raise TypeError(
            f"create_app expects a QueryService, Database, or storage "
            f"directory path, got {type(source).__name__}"
        )
    return ReproApp(
        service,
        session_capacity=session_capacity,
        session_ttl=session_ttl,
        read_budget=read_budget,
        client_rate=client_rate,
        client_burst=client_burst,
        clock=clock,
    )
