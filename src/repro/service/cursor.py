"""The ``Cursor``: a query's read session, resolved once, snapshot-pinned.

The one read surface of
:class:`~repro.service.query_service.QueryService` — the paper's random
access, inverted access, random-order enumeration and count are all
operations of one index, and a cursor serves every one of them from one
pinned ``(version, view)`` pair. A read session is one consumer issuing
many reads against one query, so a :class:`Cursor` front-loads the
per-query work: it parses and canonicalizes **exactly once** at
construction, binds the database version it was opened at, and then
serves ``count`` / ``get`` / ``batch`` / ``pages`` / ``sample`` /
``random_order`` / ``position_of`` against one pinned, immutable read
view — the slot's published snapshot for update-in-place indexes, the
(immutable) index itself for static ones. Reads are therefore
**wait-free**: they take no lock, cannot stall behind a writer
mid-burst, and all reads against one pinned view are mutually consistent
— a ``count`` and the ``batch`` it sizes can never disagree.

One read is one ``(version, view)`` pair
----------------------------------------
The service publishes each slot's version and view as a single tuple
(:attr:`repro.service.cache.Slot.published`); a cursor loads it once,
pins it, and reports *its* version. :attr:`Cursor.version` is therefore
the version :attr:`Cursor.pinned` was published for — the two, and every
HTTP payload built from them, cannot disagree under either policy below.

Staleness contract (version-pinned)
-----------------------------------
When a read finds the database has moved past the pinned version, the
``on_stale`` policy chosen at construction decides — the caller's choice:

* ``"reresolve"`` (default) — the cursor transparently re-pins the
  slot's currently published pair and serves it. This is the
  live-pagination behavior: a long-held cursor keeps serving correct pages
  across mutations. A read that lands while a writer is mid-``apply``
  stays wait-free: it serves the last published (pre-batch) pair and
  reports that pair's version, then picks up the new pair on the first
  read after publication. A read that finds no slot does not wait
  either: it builds from one pinned database version and reports that.
* ``"raise"`` — the read raises :class:`StaleCursorError` instead, for
  callers that need a consistent position space across reads (for
  example, a pager that must not shift rows between two page fetches).
  Call :meth:`refresh` to acknowledge the new version and continue. A
  strict cursor bound to a version whose write is still in flight waits
  for that version's publication rather than serve the one before it.

Lazy streams (:meth:`random_order`, iteration) enumerate the view pinned
when they started — mutating the database while consuming one is safe;
the stream simply keeps serving its pinned version.

Doctest
-------
>>> from repro import Database, Relation
>>> from repro.service.query_service import QueryService
>>> db = Database([
...     Relation("R", ("a", "b"), [(1, 10), (2, 20)]),
...     Relation("S", ("b", "c"), [(10, "x"), (10, "y"), (20, "z")]),
... ])
>>> service = QueryService(db)
>>> cursor = service.cursor("Q(a, b, c) :- R(a, b), S(b, c)")
>>> cursor.count
3
>>> cursor.get(0)
(1, 10, 'x')
>>> list(cursor.pages(page_size=2))
[[(1, 10, 'x'), (1, 10, 'y')], [(2, 20, 'z')]]
>>> strict = service.cursor("Q(a, b, c) :- R(a, b), S(b, c)", on_stale="raise")
>>> service.insert("S", (20, "w"))
True
>>> cursor.count        # reresolve policy: follows the mutation
4
>>> strict.is_stale
True
>>> try:
...     strict.count
... except StaleCursorError:
...     print("stale")
stale
>>> strict.refresh().count
4
"""

from __future__ import annotations

import random
import time
from typing import Iterator, List, Optional, Sequence

from repro.errors import ReproError


class StaleCursorError(ReproError, RuntimeError):
    """A ``Cursor`` built with ``on_stale="raise"`` was read after the
    database moved past the version it is bound to."""

    def __init__(self, bound_version: int, current_version: int):
        super().__init__(
            f"cursor is bound to database version {bound_version}, but the "
            f"database is at version {current_version}; call refresh() to "
            f"re-bind, or open the cursor with on_stale='reresolve'"
        )
        self.bound_version = bound_version
        self.current_version = current_version


class Cursor:
    """One query's read surface over a :class:`QueryService`.

    Build through :meth:`~repro.service.query_service.QueryService.cursor`.
    The query is resolved and canonicalized once, here; every read then
    serves wait-free from the pinned ``(version, view)`` pair (the slot's
    published snapshot for dynamic indexes). A cursor also duck-types the
    index contract (``count`` / ``access`` / ``batch`` / ``sample_many`` /
    ``inverted_access``), so index-shaped consumers — paginators,
    enumeration harnesses, online aggregation — run on a cursor unchanged.
    """

    def __init__(self, service, query, on_stale: str = "reresolve"):
        if on_stale not in ("reresolve", "raise"):
            raise ValueError(
                f"on_stale must be 'reresolve' or 'raise', got {on_stale!r}"
            )
        from repro.service.cache import canonical_query_key

        self._service = service
        self.query = service.resolve(query)
        self._query_key = canonical_query_key(self.query)
        self._on_stale = on_stale
        # Construction binds the *version*; the first read probes the
        # cache once and pins the pair published for it, and every later
        # read while the database stays at that version is probe-free.
        # ``_version`` and ``_pinned`` are always one published pair.
        self._version = service.database.version
        self._pinned = None

    # ------------------------------------------------------------------ #
    # Binding                                                             #
    # ------------------------------------------------------------------ #

    @property
    def version(self) -> int:
        """The database version this cursor's answers are computed
        against: the version :attr:`pinned` was published for (before the
        first read, the version the cursor was opened at)."""
        return self._version

    @property
    def is_stale(self) -> bool:
        """Has the database moved past the bound version?"""
        return self._service.database.version != self._version

    def refresh(self) -> "Cursor":
        """Re-bind to the current database version (chainable)."""
        self._version = self._service.database.version
        self._pinned = None
        return self

    def _police_staleness(self) -> int:
        """The current database version; a strict cursor bound to any
        other raises :class:`StaleCursorError`."""
        current = self._service.database.version
        if self._on_stale == "raise" and current != self._version:
            raise StaleCursorError(self._version, current)
        return current

    def _view(self):
        """The pinned view, policing staleness.

        The pair is pinned on first use and reused until the database
        moves (reresolve policy) or :meth:`refresh` is called, so a read
        session enumerates one published snapshot position-for-position.
        """
        service = self._service
        if self._police_staleness() != self._version or self._pinned is None:
            while True:
                version, view = service._slot(self.query, self._query_key).published
                if self._on_stale != "raise" or version == self._version:
                    break
                # The strict contract promises answers computed against
                # exactly the bound version, and the published pair is
                # for another: either the database moved on (stale), or
                # the bound version's write is still in flight — wait for
                # its publication rather than serve the pre-batch view.
                self._police_staleness()
                time.sleep(0.0005)
            self._version, self._pinned = version, view
        service._count_snapshot_read(self._pinned)
        return self._pinned

    @property
    def pinned(self):
        """The wait-free read view :attr:`version` was published for.

        For dynamic indexes this is the published
        :class:`~repro.core.dynamic.IndexSnapshot` /
        :class:`~repro.core.union_access.UnionIndexSnapshot`; for static
        ones the immutable index itself. Consumers that must stay on one
        version across many reads (e.g. a whole online-aggregation
        sample) can hold this object directly — it never changes under
        them, whatever the writer does.
        """
        return self._view()

    @property
    def index(self):
        """The live backing index (writer-side introspection only — reads
        should go through the cursor's methods, which serve from the
        pinned snapshot)."""
        self._police_staleness()
        return self._service._slot(self.query, self._query_key).index

    # ------------------------------------------------------------------ #
    # Reads                                                               #
    # ------------------------------------------------------------------ #

    @property
    def count(self) -> int:
        """``|Q(D)|`` — O(1) after the (already cached) build."""
        return self._view().count

    def __len__(self) -> int:
        return self.count

    def get(self, position: int) -> tuple:
        """The answer at ``position`` of the enumeration order."""
        return self._view().access(position)

    #: Index-contract alias for :meth:`get`.
    access = get

    def batch(self, positions: Sequence[int]) -> List[tuple]:
        """The answers at ``positions`` (unsorted, duplicates allowed)."""
        return self._view().batch(positions)

    def batch_range(self, start: int, stop: int) -> List[tuple]:
        """The answers at positions ``[start, min(stop, count))``.

        The count clamp and the batch read the same pinned view, so —
        unlike a separate ``count`` read followed by ``batch`` — a
        concurrent mutation between the two cannot turn a just-valid range
        into an out-of-bound request. This is the pagination transport: a
        page served across a write burst may reflect the pre-burst
        version, but it never raises and never mixes versions.
        """
        view = self._view()
        return view.batch(range(max(start, 0), min(stop, view.count)))

    def page(self, number: int, page_size: int = 10) -> List[tuple]:
        """Page ``number`` (0-based); short or empty past the last page."""
        if number < 0 or page_size < 1:
            raise ValueError(f"bad page request ({number=}, {page_size=})")
        return self.batch_range(number * page_size, (number + 1) * page_size)

    def pages(self, page_size: int = 10) -> Iterator[List[tuple]]:
        """Every page of the enumeration order, in order.

        Each page is one batched snapshot read; a mutation between pages
        (under the re-resolve policy) shifts later pages to the newly
        published version.
        """
        number = 0
        while True:
            batch = self.page(number, page_size)
            if not batch:
                return
            yield batch
            if len(batch) < page_size:
                return
            number += 1

    def sample(self, k: int, rng: Optional[random.Random] = None) -> List[tuple]:
        """``min(k, count)`` uniform draws without replacement."""
        return self._view().sample_many(k, rng)

    #: Index-contract alias for :meth:`sample`.
    sample_many = sample

    def position_of(self, answer: tuple) -> Optional[int]:
        """The enumeration position of ``answer``, or ``None`` when it is
        not an answer (inverted access, Algorithm 4).

        Raises ``ValueError`` on a view without inverted access (the union
        index): a ``None`` there would read as "not an answer".
        """
        inverted = getattr(self._view(), "inverted_access", None)
        if inverted is None:
            raise ValueError("inverted access is not available for union queries")
        return inverted(tuple(answer))

    def inverted_access(self, answer: tuple) -> Optional[int]:
        """Index-contract alias for :meth:`position_of`."""
        return self.position_of(answer)

    def __contains__(self, answer: tuple) -> bool:
        """Membership test (the paper's ``Test``).

        Served by inverted access where the view supports it; otherwise
        (the union surface) by the view's own membership fallback — never
        by conflating "no inverted support" with "absent".
        """
        view = self._view()
        inverted = getattr(view, "inverted_access", None)
        if inverted is None:
            return tuple(answer) in view
        return inverted(tuple(answer)) is not None

    def ensure_inverted_support(self) -> None:
        """Build the backing view's inverted-access support if needed
        (published snapshots and dynamic indexes keep it implicitly)."""
        self._view().ensure_inverted_support()

    def random_order(self, rng: Optional[random.Random] = None) -> Iterator[tuple]:
        """REnum: every answer in uniformly random order.

        The stream enumerates the snapshot pinned when it started, so
        concurrent writes cannot corrupt an in-flight shuffle — mutate
        freely while consuming; the draws stay a uniform permutation of
        the pinned version.
        """
        return self._view().random_order(rng)

    def __iter__(self) -> Iterator[tuple]:
        """Enumerate the pinned snapshot in index order (safe under
        concurrent writes, like :meth:`random_order`)."""
        return iter(self._view())

    def __repr__(self) -> str:
        name = getattr(self.query, "name", str(self.query))
        return (
            f"Cursor({name}, version={self._version}, "
            f"on_stale={self._on_stale!r})"
        )
