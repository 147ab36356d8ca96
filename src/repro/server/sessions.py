"""Server-side cursor sessions: a bounded, TTL-swept, budgeted registry.

The network tier turns a :class:`~repro.service.cursor.Cursor` into a
*server-side resource*: ``POST /cursors`` opens one, the client gets back
an opaque id, and every subsequent read addresses the same pinned read
session. That resource model needs exactly three protections, all here:

* **bounded table** — at most ``capacity`` live sessions; opening one
  more evicts the least-recently-used session (every read is an LRU
  touch), so a client that opens cursors and never closes them cannot
  grow server memory without bound;
* **idle TTL** — a session unused for ``ttl`` seconds is expired lazily
  (on the next table access that observes it), so abandoned sessions
  release their pinned snapshots without a background reaper thread;
* **read budget** — an optional per-session cap on answers served.
  Once a session has served its budget, further reads raise
  :class:`ReadBudgetExceededError` (HTTP 429 at the wire), so one hot
  client cannot monopolize the service — the first slice of the
  ROADMAP's admission-control item.

Evicted and expired ids are remembered in a bounded tombstone ring so
the wire can answer ``410 Gone`` ("you had this, it was reclaimed")
instead of a generic 404 — clients distinguish "re-open your session"
from "you never had one".

The table is thread-safe (one lock around table state); each session
additionally carries its own lock which the app holds across a read, so
two racing requests against the *same* session serialize instead of
interleaving on a shared :class:`~repro.service.cursor.Cursor`.
"""

from __future__ import annotations

import threading
import time
import uuid
from collections import OrderedDict, deque
from typing import Callable, Dict, Optional

from repro.errors import ReproError

#: Tombstones remembered for 410-vs-404 discrimination (bounded: the
#: ring forgets the oldest reclaimed id once it is full, after which the
#: wire degrades to 404 for that id — never unbounded growth).
TOMBSTONE_RING = 1024


class SessionError(ReproError):
    """Root of the session-table error family."""


class UnknownSessionError(SessionError, KeyError):
    """The id was never a session (or its tombstone has been forgotten)."""

    def __init__(self, session_id: str):
        super().__init__(f"unknown cursor session {session_id!r}")
        self.session_id = session_id


class SessionGoneError(SessionError):
    """The id *was* a session, but it expired (idle TTL), was evicted
    (LRU capacity pressure), or was explicitly closed."""

    def __init__(self, session_id: str, reason: str):
        super().__init__(
            f"cursor session {session_id!r} is gone ({reason}); open a new one"
        )
        self.session_id = session_id
        self.reason = reason


class RateLimitedError(SessionError):
    """A client exceeded its token-bucket request rate; the request was
    rejected before any work was done (HTTP 429 + ``Retry-After``)."""

    def __init__(self, client_id: str, retry_after: float):
        super().__init__(
            f"client {client_id!r} is over its request rate; "
            f"retry in {retry_after:.3g}s"
        )
        self.client_id = client_id
        self.retry_after = retry_after


class ReadBudgetExceededError(SessionError):
    """The session served its configured answers budget; further reads
    are rejected (HTTP 429) until the client opens a fresh session."""

    def __init__(self, session_id: str, served: int, budget: int):
        super().__init__(
            f"cursor session {session_id!r} exhausted its read budget "
            f"({served} answers served, budget {budget})"
        )
        self.session_id = session_id
        self.served = served
        self.budget = budget


class CursorSession:
    """One server-side cursor resource (see :class:`SessionTable`)."""

    __slots__ = (
        "id", "cursor", "query_id", "on_stale", "ttl", "budget",
        "served", "reads", "created", "last_used", "lock",
    )

    def __init__(self, session_id, cursor, query_id, on_stale, ttl, budget, now):
        self.id = session_id
        self.cursor = cursor
        self.query_id = query_id
        self.on_stale = on_stale
        self.ttl = ttl
        self.budget = budget
        #: Answers served so far (what the budget is charged against).
        self.served = 0
        #: Requests served (for observability; budget counts answers).
        self.reads = 0
        self.created = now
        self.last_used = now
        self.lock = threading.Lock()

    def describe(self) -> Dict[str, object]:
        """The session's wire representation (no cursor internals)."""
        return {
            "cursor": self.id,
            "query_id": self.query_id,
            "on_stale": self.on_stale,
            "version": self.cursor.version,
            "ttl": self.ttl,
            "budget": self.budget,
            "served": self.served,
            "reads": self.reads,
        }


class TokenBucketLimiter:
    """Per-client token-bucket admission control.

    One bucket per client id — the HTTP tier keys on the ``X-Client-Id``
    header, falling back to the peer address, so one client's request
    rate is aggregated **across all its cursor sessions** (the read
    budget above is per-session; this is the per-client layer over it).
    Each admitted request costs one token; buckets refill at ``rate``
    tokens/second up to ``burst``. An empty bucket rejects with
    :class:`RateLimitedError` carrying the exact ``retry_after`` until
    one token exists again — rejection is O(1) and happens before any
    session or index work.

    The bucket table itself is LRU-bounded (``capacity`` distinct
    clients): an evicted idle client simply starts over with a full
    bucket later, so an adversary rotating client ids can at worst reset
    its own bucket — never grow server memory without bound.

    >>> now = [0.0]
    >>> limiter = TokenBucketLimiter(rate=1.0, burst=2, clock=lambda: now[0])
    >>> limiter.admit("alice"); limiter.admit("alice")
    >>> try: limiter.admit("alice")
    ... except RateLimitedError as e: print(round(e.retry_after, 1))
    1.0
    >>> now[0] = 1.0  # one token refilled
    >>> limiter.admit("alice")
    >>> limiter.rejections
    1
    """

    def __init__(
        self,
        rate: float,
        burst: int,
        capacity: int = 1024,
        clock: Callable[[], float] = time.monotonic,
    ):
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        if burst < 1:
            raise ValueError(f"burst must be >= 1, got {burst}")
        if capacity < 1:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.rate = float(rate)
        self.burst = float(burst)
        self.capacity = capacity
        self._clock = clock
        self._lock = threading.Lock()
        # client id → (tokens, last refill time), LRU-ordered.
        self._buckets: "OrderedDict[str, list]" = OrderedDict()
        self.admitted = 0
        self.rejections = 0

    def admit(self, client_id: str) -> None:
        """Spend one token for ``client_id`` or raise :class:`RateLimitedError`."""
        with self._lock:
            now = self._clock()
            bucket = self._buckets.get(client_id)
            if bucket is None:
                bucket = [self.burst, now]
                self._buckets[client_id] = bucket
                while len(self._buckets) > self.capacity:
                    self._buckets.popitem(last=False)
            else:
                tokens, last = bucket
                bucket[0] = min(self.burst, tokens + (now - last) * self.rate)
                bucket[1] = now
                self._buckets.move_to_end(client_id)
            if bucket[0] < 1.0:
                self.rejections += 1
                raise RateLimitedError(
                    client_id, (1.0 - bucket[0]) / self.rate
                )
            bucket[0] -= 1.0
            self.admitted += 1

    def gauges(self) -> Dict[str, object]:
        """The admission-control block of ``GET /stats``."""
        with self._lock:
            return {
                "rate": self.rate,
                "burst": int(self.burst),
                "clients": len(self._buckets),
                "admitted": self.admitted,
                "rejections": self.rejections,
            }

    def __repr__(self) -> str:
        return (
            f"TokenBucketLimiter(rate={self.rate}, burst={int(self.burst)}, "
            f"{len(self._buckets)} clients)"
        )


class SessionTable:
    """The bounded LRU registry of live cursor sessions.

    Parameters
    ----------
    capacity:
        Maximum live sessions; opening past it evicts the LRU session.
    default_ttl:
        Idle seconds before a session expires (per-session override at
        :meth:`open`); ``None`` disables the sweep for that session.
    default_budget:
        Default answers-served budget (``None`` = unlimited).
    clock:
        Monotonic-seconds source — injectable so TTL tests advance time
        without sleeping.
    """

    def __init__(
        self,
        capacity: int = 256,
        default_ttl: Optional[float] = 300.0,
        default_budget: Optional[int] = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        if capacity < 1:
            raise ValueError(f"session capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.default_ttl = default_ttl
        self.default_budget = default_budget
        self._clock = clock
        self._lock = threading.RLock()
        self._sessions: "OrderedDict[str, CursorSession]" = OrderedDict()
        # Reclaimed id → reason, bounded by the tombstone ring.
        self._tombstones: Dict[str, str] = {}
        self._tombstone_order: deque = deque()
        self.opened = 0
        self.closed = 0
        self.expired_ttl = 0
        self.evicted_lru = 0
        self.budget_rejections = 0

    # ------------------------------------------------------------------ #
    # Lifecycle                                                           #
    # ------------------------------------------------------------------ #

    def open(
        self,
        cursor,
        query_id: Optional[str] = None,
        on_stale: str = "reresolve",
        ttl: Optional[float] = None,
        budget: Optional[int] = None,
    ) -> CursorSession:
        """Register a cursor as a new session (evicting LRU past capacity)."""
        with self._lock:
            now = self._clock()
            self._sweep(now)
            session = CursorSession(
                uuid.uuid4().hex,
                cursor,
                query_id,
                on_stale,
                self.default_ttl if ttl is None else ttl,
                self.default_budget if budget is None else budget,
                now,
            )
            while len(self._sessions) >= self.capacity:
                __, victim = self._sessions.popitem(last=False)
                self.evicted_lru += 1
                self._bury(victim, "evicted (session table full)")
            self._sessions[session.id] = session
            self.opened += 1
            return session

    def get(self, session_id: str) -> CursorSession:
        """The live session, LRU-touched; raises the reclaimed/unknown
        family otherwise."""
        with self._lock:
            now = self._clock()
            self._sweep(now)
            session = self._sessions.get(session_id)
            if session is None:
                reason = self._tombstones.get(session_id)
                if reason is not None:
                    raise SessionGoneError(session_id, reason)
                raise UnknownSessionError(session_id)
            session.last_used = now
            self._sessions.move_to_end(session_id)
            return session

    def close(self, session_id: str) -> bool:
        """Explicitly close a session; ``False`` if it was not live."""
        with self._lock:
            session = self._sessions.pop(session_id, None)
            if session is None:
                return False
            self.closed += 1
            self._bury(session, "closed")
            return True

    def check_budget(self, session: CursorSession) -> None:
        """Reject (and count) a read against an exhausted budget — called
        *before* the read is computed, so the 429 costs no engine walk."""
        with self._lock:
            if session.budget is not None and session.served >= session.budget:
                self.budget_rejections += 1
                raise ReadBudgetExceededError(
                    session.id, session.served, session.budget
                )

    def charge(self, session: CursorSession, answers: int) -> None:
        """Charge one served read of ``answers`` answers against the
        budget (:meth:`check_budget` admitted it before it was computed)."""
        with self._lock:
            session.served += answers
            session.reads += 1

    # ------------------------------------------------------------------ #
    # Maintenance                                                         #
    # ------------------------------------------------------------------ #

    def _sweep(self, now: float) -> None:
        """Reclaim idle-expired sessions (called under the lock)."""
        expired = [
            session for session in self._sessions.values()
            if session.ttl is not None and now - session.last_used > session.ttl
        ]
        for session in expired:
            del self._sessions[session.id]
            self.expired_ttl += 1
            self._bury(session, "expired (idle TTL)")

    def _bury(self, session: CursorSession, reason: str) -> None:
        self._tombstones[session.id] = reason
        self._tombstone_order.append(session.id)
        while len(self._tombstone_order) > TOMBSTONE_RING:
            self._tombstones.pop(self._tombstone_order.popleft(), None)

    # ------------------------------------------------------------------ #
    # Introspection                                                       #
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        with self._lock:
            return len(self._sessions)

    def gauges(self) -> Dict[str, object]:
        """The session-table block of ``GET /stats``."""
        with self._lock:
            self._sweep(self._clock())
            return {
                "active": len(self._sessions),
                "capacity": self.capacity,
                "default_ttl_seconds": self.default_ttl,
                "default_budget": self.default_budget,
                "opened": self.opened,
                "closed": self.closed,
                "expired_ttl": self.expired_ttl,
                "evicted_lru": self.evicted_lru,
                "budget_rejections": self.budget_rejections,
            }

    def __repr__(self) -> str:
        return (
            f"SessionTable({len(self)}/{self.capacity} live, "
            f"ttl={self.default_ttl})"
        )
