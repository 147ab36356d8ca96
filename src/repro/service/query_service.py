"""The query-serving façade: build indexes once, answer many requests.

``QueryService`` binds one :class:`~repro.database.database.Database` and
routes every request through its own :class:`~repro.service.cache.IndexCache`,
which holds one :class:`~repro.service.cache.Slot` per canonical query key
— the live index plus the ``(version, view)`` pair readers serve:

* ``cursor(q)`` — a :class:`~repro.service.cursor.Cursor`, the one read
  surface: the query is resolved exactly once, and ``count`` / ``get`` /
  ``batch`` / ``batch_range`` / ``page`` / ``sample`` / ``position_of`` /
  ``random_order`` then serve from one pinned ``(version, view)`` pair;
* ``index(q)`` — the live (writer-side) index behind a query's slot;
* ``apply(delta)`` / ``transaction()`` — batched writes: a whole
  :class:`~repro.database.delta.Delta` with one version bump, one lock
  acquisition, one republication per cached slot, and one union publication
  per dynamic UCQ entry (``insert`` / ``delete`` are thin one-fact deltas;
  set semantics: re-inserting an existing fact or deleting an absent one
  is a no-op that keeps the cache warm);
* ``stats()`` — serving effectiveness counters (cache hits/misses,
  promotions, in-place updates vs. rebuilds — split single-fact vs.
  batched — compactions, snapshot reads, snapshot publishes).

Mutation path
-------------
A mutation publishes the database's next version (a batch publishes
**one**, number and relations together — see :mod:`repro.database.database`)
and then walks this database's cache slots:

* a slot whose query does not reference the mutated relation republishes
  the same view for the new version — the mutation cannot change its
  answers;
* an update-capable entry (a :class:`~repro.core.dynamic.DynamicCQIndex`,
  or an :class:`~repro.core.union_access.MCUCQIndex` built with
  ``dynamic=True``) absorbs the effective delta **in place** through its
  ``apply_delta`` — the one maintenance pass, whatever the batch size
  (O(depth · log) per fact, times the 2^m index family for a union) —
  and its slot publishes the new snapshot for the new version — the hot
  write path;
* any other entry over the mutated relation is dropped and will be rebuilt
  in O(|D|) on its next use — the cold path.

Which queries get a dynamic index is adaptive: after ``promote_after``
mutations have each invalidated the same canonical query key, the next
build of that query uses an update-in-place index — possible exactly for
*full* acyclic CQs and for mc-UCQs all of whose members are full acyclic
(with existential variables, incremental maintenance is the open Dynamic
Yannakakis problem, so those queries always rebuild). Pass
``dynamic=True`` / ``dynamic=False`` to force either mode. Because dynamic
buckets maintain the canonical sort order under churn (see
:mod:`repro.core.order_tree`), a promoted index enumerates exactly like a
fresh static build at all times — promotion is invisible to readers, page
for page.

Concurrency model: snapshot reads, one write lock
-------------------------------------------------
Reads never block on writes and take no lock. A slot's ``published`` is
one ``(version, view)`` tuple, replaced whole and never mutated — the
view is the immutable static index, or the immutable snapshot
(:class:`~repro.core.dynamic.IndexSnapshot` /
:class:`~repro.core.union_access.UnionIndexSnapshot`) an update-capable
index publishes at the end of each mutation. A cursor loads that tuple
once per pin, so a pagination or sampling read proceeds wait-free even
while a writer is mid-burst, always observes exactly one published
version, and reports the version its answers were published for. Writers — ``apply`` and
``checkpoint`` alike — serialize on one service-wide lock held across the
whole call, so two writes cannot interleave and the write-ahead log is
never trimmed under an append. A cache miss takes no lock either: it
builds from one pinned database version and publishes the build under
that version's number. Lazy streams (``random_order``, iteration, an
online-aggregation sample over ``cursor.pinned``) are served from a
pinned view too, so consuming one across concurrent writes is safe — the
stream simply keeps enumerating the version it pinned.

Queries may be rule strings (parsed once per cursor — cheap next to any
index work), :class:`~repro.query.cq.ConjunctiveQuery` objects, or
:class:`~repro.query.ucq.UnionOfConjunctiveQueries` (served through
:class:`~repro.core.union_access.MCUCQIndex`, so members must be mutually
compatible).

Doctest
-------
>>> import random
>>> from repro import Database, Relation
>>> from repro.service.query_service import QueryService
>>> db = Database([
...     Relation("R", ("a", "b"), [(1, 10), (2, 20)]),
...     Relation("S", ("b", "c"), [(10, "x"), (10, "y"), (20, "z")]),
... ])
>>> service = QueryService(db)
>>> q = "Q(a, b, c) :- R(a, b), S(b, c)"
>>> cursor = service.cursor(q)
>>> cursor.get(0)
(1, 10, 'x')
>>> cursor.page(0, page_size=2)
[(1, 10, 'x'), (1, 10, 'y')]
>>> cursor.sample(2, random.Random(0))
[(1, 10, 'y'), (2, 20, 'z')]
>>> service.delete("S", (20, "z"))
True
>>> cursor.count          # the cursor follows the mutation
2

With ``dynamic=True`` the same query is served by an update-in-place
index, and mutations keep the cached entry instead of dropping it:

>>> hot = QueryService(db.copy(), dynamic=True)
>>> live = hot.cursor(q)
>>> live.count
2
>>> hot.insert("S", (20, "w"))
True
>>> live.count
3
>>> hot.stats().in_place_updates
1

A write burst goes through one :class:`~repro.database.delta.Delta` —
buffered by ``transaction()`` — and is absorbed as a single batch:

>>> with hot.transaction() as txn:
...     txn.insert("R", (3, 20))
...     txn.insert("S", (20, "v"))
...     txn.delete("S", (20, "w"))
Delta(1 ops over R)
Delta(2 ops over R,S)
Delta(3 ops over R,S)
>>> txn.result.inserted, txn.result.deleted
(2, 1)
>>> live.count
4
>>> hot.stats().batched_updates
1
"""

from __future__ import annotations

import threading
import time
from typing import Dict, List, NamedTuple, Optional, Union

from repro import faults
from repro.core.cq_index import CQIndex
from repro.core.dynamic import DynamicCQIndex
from repro.core.union_access import MCUCQIndex
from repro.database.database import Database
from repro.database.delta import AppliedDelta, Delta
from repro.errors import ReproError
from repro.query.cq import ConjunctiveQuery
from repro.query.free_connex import free_connex_report
from repro.query.parser import parse_cq, parse_ucq
from repro.query.ucq import UnionOfConjunctiveQueries

from repro.core import flat_store
from repro.storage import atomic
from repro.service.cache import IndexCache, Slot, canonical_query_key
from repro.service.cursor import Cursor

Query = Union[str, ConjunctiveQuery, UnionOfConjunctiveQueries]


class ServiceDegradedError(ReproError):
    """The service is in degraded read-only mode: the durable write path
    (WAL append past its retry budget) is failing, so mutations are
    refused rather than risk acknowledging writes that were never made
    durable. Reads keep serving wait-free from published snapshots.

    ``reason`` is the root cause (the original I/O error, also chained as
    ``__cause__`` on the mode-entering raise), ``since_seconds`` how long
    the mode has been active, and ``retry_after`` the earliest point a
    retried write could act as the re-arming probe — the HTTP tier maps
    this error to ``503`` with a ``Retry-After`` header.
    """

    def __init__(self, reason: str, since_seconds: float, retry_after: float):
        super().__init__(
            f"service degraded to read-only ({reason}); "
            f"retry in {retry_after:.3g}s"
        )
        self.reason = reason
        self.since_seconds = since_seconds
        self.retry_after = retry_after


class ServiceStats(NamedTuple):
    """One snapshot of a service's serving-effectiveness counters.

    The cache-level counters (``hits`` … ``capacity``) mirror
    :class:`~repro.service.cache.CacheInfo`; the rest are service-level:
    how builds split between static and dynamic, how mutations split
    between in-place updates and invalidation-driven rebuilds, and how
    much maintenance the dynamic structures did for themselves.
    """

    hits: int
    misses: int
    evictions: int
    invalidations: int
    size: int
    capacity: int
    #: Builds that chose an update-in-place index because the adaptive
    #: policy's churn threshold was reached (forced ``dynamic=True`` builds
    #: are counted in ``dynamic_builds`` but are not promotions).
    promotions: int
    dynamic_builds: int
    static_builds: int
    #: One-fact deltas absorbed by an update-capable entry without a
    #: rebuild.
    in_place_updates: int
    #: Entries carried across a mutation untouched because their query
    #: does not reference the mutated relation.
    carried_forward: int
    #: Entries dropped by a mutation (each one is a future rebuild).
    mutation_invalidations: int
    #: Bucket compactions performed by live dynamic entries (bounded
    #: tombstone growth under delete-heavy traffic).
    compactions: int
    #: Multi-fact deltas absorbed by an update-capable entry in one
    #: maintenance pass (one per entry per ``apply`` call).
    batched_updates: int = 0
    #: Total facts those batched deltas carried (``batched_update_ops /
    #: batched_updates`` is the mean in-place batch size).
    batched_update_ops: int = 0
    #: Reads served wait-free — from a published snapshot of a dynamic
    #: entry, or from an immutable static index. The healthy steady state:
    #: every read should land here.
    snapshot_reads: int = 0
    #: Always 0: no read path takes a lock. The field is kept because
    #: ``benchmarks/layers`` reports it (``service.locked_reads``).
    locked_reads: int = 0
    #: Snapshot versions published by this service's live update-capable
    #: entries (members, intersections and union versions included) —
    #: the writer-side half of the reader-stall observability.
    snapshot_publishes: int = 0
    #: Batches appended durably to the bound write-ahead log (zero for a
    #: service constructed without ``storage``).
    wal_appends: int = 0
    #: Fact operations replayed from the WAL tail when this service was
    #: built by :meth:`QueryService.recover` (zero otherwise).
    wal_replayed_ops: int = 0
    #: Checkpoints written through the bound store (the base checkpoint
    #: taken when a fresh directory was bound included).
    checkpoints: int = 0
    #: Per-backend splits of the build and snapshot-read counters above —
    #: the backend-mix signal a cost-based store tuner needs. A build
    #: counts under the backend that actually serves it (``tuple`` when a
    #: flat build fell back on int64 overflow); a snapshot read counts
    #: under its entry's backend.
    tuple_static_builds: int = 0
    tuple_dynamic_builds: int = 0
    tuple_snapshot_reads: int = 0
    flat_static_builds: int = 0
    flat_dynamic_builds: int = 0
    flat_snapshot_reads: int = 0
    #: Cache entries :meth:`QueryService.checkpoint` could not serialize
    #: (unpicklable and not blob-eligible) and therefore left out of the
    #: checkpoint — each one is a silent rebuild on recovery, so a
    #: nonzero value here is worth surfacing.
    checkpoint_skipped_entries: int = 0
    #: Transient WAL-append failures absorbed by the retry loop (the
    #: write survived; nonzero values flag a flaky device before it
    #: fails hard).
    wal_retries: int = 0
    #: Faults fired by the :mod:`repro.faults` failpoint framework —
    #: always zero in production (failpoints are disarmed); nonzero
    #: confirms a fault-injection run actually exercised its sites.
    faults_injected: int = 0
    #: Times the service *entered* degraded read-only mode (WAL
    #: unappendable past the retry budget).
    degraded_entries: int = 0
    #: Total seconds spent degraded, the ongoing period included.
    degraded_seconds: float = 0.0
    #: I/O errors the atomic-publication helpers survived but counted
    #: (temp-file cleanup, directory fsync) instead of hiding — see
    #: :data:`repro.storage.atomic.COUNTERS`.
    atomic_io_errors: int = 0

    def to_dict(self) -> Dict[str, int]:
        """The canonical serialization of one stats snapshot.

        Field name → counter (integers, plus the ``degraded_seconds``
        float), in declaration order; every value is JSON-safe. The
        single source both transports render — the ``stats`` CLI command
        prints it line by line and the HTTP tier returns it verbatim as
        the ``"service"`` block of ``GET /stats`` — so a field added
        here reaches both without further wiring.
        """
        return dict(self._asdict())


def _relations_in_key(query_key: tuple) -> frozenset:
    """The relation symbols a canonical query key references.

    The key format (:func:`~repro.service.cache.canonical_query_key`)
    carries each body atom as ``(relation, terms)`` — enough to decide
    whether a mutation can affect the query without resolving the entry.
    """
    if query_key[0] == "ucq":
        return frozenset(
            atom[0] for member in query_key[1:] for atom in member[2]
        )
    return frozenset(atom[0] for atom in query_key[2])


class QueryService:
    """Serve counting, access, batching, sampling, and paging for one DB.

    Parameters
    ----------
    database:
        The database to serve. The service is the mutation entry point:
        writes must go through :meth:`insert` / :meth:`delete` (or bump
        ``database.version`` by other means) for cached indexes to be
        maintained correctly.
    cache_capacity:
        Capacity of the service's index cache (LRU, one slot per query).
    promote_after:
        Promotion threshold K of the adaptive mutation path: once K units
        of churn credit have accumulated against the same canonical query
        key — one unit per invalidating single-fact mutation, and one per
        relevant effective op for an invalidating batch (delta-aware
        credit) — the next build of that query is update-in-place — a
        :class:`~repro.core.dynamic.DynamicCQIndex` for a full acyclic CQ,
        an ``MCUCQIndex(dynamic=True)`` for an eligible union — after
        which writes update it in place instead of invalidating.
    dynamic:
        ``None`` (default) — adaptive promotion as above; ``True`` — serve
        every eligible query dynamically from the first build; ``False`` —
        never promote, always invalidate-and-rebuild.
    storage:
        A directory path or :class:`~repro.storage.DurableStore` to make
        the database durable: every applied batch is appended to the
        write-ahead log before its version bump is observable, and
        :meth:`checkpoint` serializes the database (plus cached
        serve-state) atomically. A fresh directory gets a base checkpoint
        immediately; to reopen a directory that already holds history,
        use :meth:`QueryService.recover` instead.
    store:
        Default bucket backend for every index this service builds:
        ``"tuple"`` or ``"flat"`` (the columnar backend, see
        :mod:`repro.core.flat_store`). ``None`` resolves via the
        ``REPRO_STORE`` environment variable, defaulting to ``"tuple"``.
    degraded_probe_interval:
        Seconds between write probes while the service is degraded (see
        :class:`ServiceDegradedError`). While degraded, :meth:`apply` /
        :meth:`insert` / :meth:`delete` shed immediately — except that
        once per interval one call is let through as the probe; if its
        durable append succeeds the service re-arms automatically.
    """

    def __init__(
        self,
        database: Database,
        cache_capacity: int = 32,
        promote_after: int = 3,
        dynamic: Optional[bool] = None,
        storage=None,
        store: Optional[str] = None,
        degraded_probe_interval: float = 1.0,
    ):
        self._database = database
        self._cache = IndexCache(cache_capacity)
        self._promote_after = promote_after
        self._dynamic = dynamic
        # Canonical query key → how many times a mutation invalidated a
        # cached entry for it (the promotion pressure signal).
        self._churn: Dict[tuple, int] = {}
        self._promotions = 0
        self._dynamic_builds = 0
        self._static_builds = 0
        self._in_place_updates = 0
        self._carried_forward = 0
        self._mutation_invalidations = 0
        self._batched_updates = 0
        self._batched_update_ops = 0
        self._snapshot_reads = 0
        self._store = flat_store.resolve_store(store)
        # Backend name → build/read counters: the per-backend split of
        # static_builds / dynamic_builds / snapshot_reads.
        self._backend_counters = {
            name: {"static_builds": 0, "dynamic_builds": 0, "snapshot_reads": 0}
            for name in flat_store.VALID_STORES
        }
        # Held across the whole of apply() and of checkpoint(): one writer
        # at a time, so a slot is only ever patched and republished by one
        # thread and the WAL is never trimmed under an append. While it is
        # held, a slot that trails database.version is the last published
        # version, not a stale one.
        self._write_lock = threading.Lock()
        self._wal_replayed_ops = 0
        self._checkpoint_skipped = 0
        #: Seconds between degraded-mode write probes (public: operators
        #: and tests may tune it on a live service).
        self.degraded_probe_interval = degraded_probe_interval
        # Degraded read-only mode: reason string while active (None =
        # healthy), entry timestamp, lifetime entry count and total
        # degraded seconds, and the time of the last probe attempt.
        self._degraded_reason: Optional[str] = None
        self._degraded_at: Optional[float] = None
        self._degraded_entries = 0
        self._degraded_seconds_total = 0.0
        self._last_probe = 0.0
        self._storage = None
        if storage is not None:
            from repro.storage.store import DurableStore

            store = (
                storage
                if isinstance(storage, DurableStore)
                else DurableStore(storage)
            )
            store.bind(database)
            self._storage = store

    @property
    def database(self) -> Database:
        return self._database

    @property
    def storage(self):
        """The bound :class:`~repro.storage.DurableStore`, or ``None``."""
        return self._storage

    # ------------------------------------------------------------------ #
    # Index resolution                                                    #
    # ------------------------------------------------------------------ #

    def resolve(self, query: Query):
        """The parsed query object for a rule string (pass-through else).

        Strings containing ``;`` parse as UCQs (member rules separated by
        semicolons, as in :func:`~repro.query.parser.parse_ucq`); anything
        else parses as a single CQ rule.
        """
        if isinstance(query, str):
            return parse_ucq(query) if ";" in query else parse_cq(query)
        return query

    def index(self, query: Query):
        """The (cached) live random-access index for ``query``.

        A mutation between two calls yields either the same dynamic index
        updated in place or a fresh build. Identical repeat calls are
        O(1) lookups plus an LRU touch. This is the live (writer-side)
        object — concurrent readers should go through :meth:`cursor`,
        which reads the published ``(version, view)`` pair.
        """
        query = self.resolve(query)
        return self._slot(query, canonical_query_key(query)).index

    def _slots(self):
        """``(query key, slot)`` for each cached slot."""
        for query_key in self._cache.keys():
            slot = self._cache.peek(query_key)
            if slot is not None:
                yield query_key, slot

    def _slot(self, query, query_key) -> Slot:
        """The cache slot for the already canonicalized query, built on
        miss — the one lookup every read goes through, no locking.

        A reader takes ``slot.published`` from the result — one load of
        one ``(version, view)`` tuple — and reports the pair's own
        version. A pair at ``database.version`` is current. One that
        trails it while a writer holds the write lock is the last
        published version: readers proceed on it during a write burst
        instead of paying a rebuild inside the read path. One that
        trails with **no** writer in flight went stale through an
        out-of-band mutation the service never saw — unless the writer
        republished it between this method's loads, which a second load
        tells apart — and is discarded and rebuilt.

        A miss pins one database version, builds from the pin and labels
        the slot with the pin's version, so a build that overlaps a
        concurrent ``apply`` is still a build of exactly one version —
        the pre-batch one, which the writer's walk patches forward like
        any other slot, or the post-batch one, which it leaves alone.
        """
        database = self._database
        slot = self._cache.get(query_key)
        if slot is not None:
            published = slot.published
            if (
                published[0] == database.version
                or self._write_lock.locked()
                or slot.published is not published
            ):
                return slot
            if self._cache.peek(query_key) is slot:
                self._cache.discard(query_key)
        pinned = database.pin()
        built = self._build(query, query_key, pinned)
        return self._cache.get_or_build(
            query_key, lambda: Slot(built, pinned.version)
        )

    def _count_snapshot_read(self, entry) -> None:
        """One wait-free read served by ``entry`` (global + per-backend)."""
        self._snapshot_reads += 1
        self._backend_counters[getattr(entry, "store", "tuple")][
            "snapshot_reads"
        ] += 1

    def _build(self, query, query_key, database):
        dynamic = self._serve_dynamically(query, query_key)
        store = self._store
        if isinstance(query, UnionOfConjunctiveQueries):
            built = MCUCQIndex(query, database, dynamic=dynamic, store=store)
        elif dynamic:
            built = DynamicCQIndex(query, database, store=store)
        else:
            built = CQIndex(query, database, store=store)
        # Count only builds that actually completed — a constructor that
        # raises (e.g. a shape-misaligned union) must not inflate stats.
        # The backend split reads the index's own ``store``: a flat build
        # that overflowed int64 and fell back counts as tuple.
        backend = self._backend_counters[getattr(built, "store", "tuple")]
        if dynamic:
            if self._dynamic is None:
                self._promotions += 1
            self._dynamic_builds += 1
            backend["dynamic_builds"] += 1
        else:
            self._static_builds += 1
            backend["static_builds"] += 1
        return built

    def _serve_dynamically(self, query, query_key) -> bool:
        """Should this query's next build be an update-in-place index?

        Policy first (forced off / forced on / churn at or above the
        promotion threshold), eligibility second: only full acyclic CQs —
        and unions whose members are all full acyclic — can be maintained
        incrementally.
        """
        if self._dynamic is False:
            return False
        if self._dynamic is None and self._churn.get(query_key, 0) < self._promote_after:
            return False
        members = (
            query.queries
            if isinstance(query, UnionOfConjunctiveQueries)
            else (query,)
        )
        return all(
            q.is_full() and free_connex_report(q).tractable for q in members
        )

    # ------------------------------------------------------------------ #
    # Read API                                                            #
    # ------------------------------------------------------------------ #

    def cursor(self, query: Query, on_stale: str = "reresolve") -> Cursor:
        """A :class:`~repro.service.cursor.Cursor` over ``query``.

        The read session object: the query is parsed and canonicalized
        exactly once, the backing entry is resolved (building it on first
        use), and every read serves wait-free from the snapshot pinned at
        the bound version — concurrent writers never block it.
        ``on_stale`` picks the staleness policy: ``"reresolve"`` follows
        mutations transparently, ``"raise"`` raises
        :class:`~repro.service.cursor.StaleCursorError` once the database
        moves past the bound version (see :mod:`repro.service.cursor` for
        the full contract).
        """
        return Cursor(self, query, on_stale=on_stale)

    # ------------------------------------------------------------------ #
    # Mutations                                                           #
    # ------------------------------------------------------------------ #

    def insert(self, relation: str, row: tuple) -> bool:
        """Insert a fact; cached indexes update in place or invalidate.

        A thin one-fact :meth:`apply`. Returns ``True`` when the database
        changed. Update-capable entries absorb the insert in
        O(depth · log); other entries are dropped and rebuilt lazily.
        """
        delta = Delta(database=self._database).insert(relation, tuple(row))
        return self.apply(delta).changed

    def delete(self, relation: str, row: tuple) -> bool:
        """Delete a fact; cached indexes update in place or invalidate.

        A thin one-fact :meth:`apply`. Returns ``True`` when the database
        changed (deleting an absent fact is a no-op that keeps the cache
        warm).
        """
        delta = Delta(database=self._database).delete(relation, tuple(row))
        return self.apply(delta).changed

    def apply(self, delta) -> AppliedDelta:
        """Apply a whole :class:`~repro.database.delta.Delta` as one batch.

        The write-burst entry point: the database takes **one** version
        bump (:meth:`~repro.database.database.Database.apply` — one
        copy-on-write rebuild per touched relation, not per fact), and the
        cache walk happens **once**, under the service's one write lock —
        one republication per slot, whose update-capable index absorbs the
        *effective* sub-delta through its ``apply_delta`` (grouped buckets, one deduplicated
        propagation pass, and for a dynamic union exactly one union
        publication instead of one per fact).

        ``delta`` may also be a plain iterable of ``(op, relation, row)``
        triples; every op is validated up front
        (:class:`~repro.database.delta.DeltaError` on unknown relations or
        wrong arities) before anything mutates. A batch whose every op is
        a no-op changes nothing: no version bump, slots stay put. For
        promotion accounting, churn credit is *delta-aware*: a dropped
        static entry's counter grows by the number of effective ops that
        touch its query's relations (minimum one), so a single hot burst
        can push a query past the promotion threshold that would otherwise
        need ``promote_after`` separate mutations.

        Returns the :class:`~repro.database.delta.AppliedDelta` with the
        effective sub-delta, per-relation applied/no-op counts, and the
        ``version`` this batch produced.

        Fault tolerance: when the durable append inside
        :meth:`Database.apply` fails with an :class:`OSError` (the WAL's
        retry budget exhausted, or a non-transient error like ``ENOSPC``
        failing fast), the database is untouched — the WAL appends
        *before* the version bump and rolls its file back to the
        pre-append offset — and the service enters **degraded read-only
        mode**: this and every subsequent mutation raises
        :class:`ServiceDegradedError` while reads keep serving. Once per
        :attr:`degraded_probe_interval` one mutation is let through as a
        write probe; a successful durable append re-arms the write path.
        """
        if not isinstance(delta, Delta):
            delta = Delta(delta, database=self._database)
        with self._write_lock:
            self._check_write_path()
            try:
                result = self._database.apply(delta)
            except OSError as error:
                raise self._enter_degraded(error) from error
            if result.changed:
                self._absorb_delta(result)
            if self._degraded_reason is not None:
                self._exit_degraded()
        return result

    # ------------------------------------------------------------------ #
    # Degraded read-only mode                                             #
    # ------------------------------------------------------------------ #

    @property
    def degraded(self) -> bool:
        """Is the service currently in degraded read-only mode?"""
        return self._degraded_reason is not None

    @property
    def degraded_reason(self) -> Optional[str]:
        """Root cause of the current degraded period (``None`` = healthy)."""
        return self._degraded_reason

    @property
    def degraded_since_seconds(self) -> float:
        """Seconds the current degraded period has lasted (0 if healthy)."""
        if self._degraded_at is None:
            return 0.0
        return time.monotonic() - self._degraded_at

    def _shed_error(self) -> ServiceDegradedError:
        retry_after = max(
            0.0,
            self.degraded_probe_interval
            - (time.monotonic() - self._last_probe),
        )
        return ServiceDegradedError(
            self._degraded_reason or "write path unavailable",
            self.degraded_since_seconds,
            retry_after or self.degraded_probe_interval,
        )

    def _check_write_path(self) -> None:
        """Shed mutations while degraded — except the periodic probe.

        While degraded, a mutation arriving before the probe interval has
        elapsed raises immediately **without touching the write path** (a
        failing device is not hammered by a retry storm). The first
        mutation after the interval is allowed through: its durable
        append *is* the probe, and its success (:meth:`_exit_degraded`)
        or failure (:meth:`_enter_degraded` refreshing the reason)
        re-arms or extends the mode.
        """
        if self._degraded_reason is None:
            return
        now = time.monotonic()
        if now - self._last_probe >= self.degraded_probe_interval:
            self._last_probe = now
            return
        raise self._shed_error()

    def _enter_degraded(self, error: BaseException) -> ServiceDegradedError:
        """Record a write-path failure; returns the error to raise."""
        now = time.monotonic()
        if self._degraded_reason is None:
            self._degraded_entries += 1
            self._degraded_at = now
        self._degraded_reason = f"{type(error).__name__}: {error}"
        self._last_probe = now
        return self._shed_error()

    def _exit_degraded(self) -> None:
        """A probe write succeeded durably: re-arm the write path."""
        if self._degraded_at is not None:
            self._degraded_seconds_total += (
                time.monotonic() - self._degraded_at
            )
        self._degraded_reason = None
        self._degraded_at = None

    def transaction(self) -> "Transaction":
        """A write buffer that applies as **one** delta on exit.

        Use as a context manager: ``insert`` / ``delete`` calls on the
        transaction record into a bound
        :class:`~repro.database.delta.Delta` (validated immediately,
        last-op-wins per fact) and nothing touches the database until the
        ``with`` block exits cleanly — then the whole buffer goes through
        :meth:`apply`, and the outcome is available as ``txn.result``. If
        the block raises, nothing is applied.

        >>> from repro import Database, Relation
        >>> service = QueryService(Database([Relation("R", ("a",), [(1,)])]))
        >>> with service.transaction() as txn:
        ...     txn.insert("R", (2,)).delete("R", (1,))
        Delta(2 ops over R)
        >>> txn.result.inserted, service.database.relation("R").rows
        (1, [(2,)])
        """
        return Transaction(self)

    def _absorb_delta(self, applied: AppliedDelta) -> None:
        """Carry this database's cache slots across one applied batch
        (called under the write lock). For slots published at the
        pre-batch version:

        * a query that references none of the batch's relations cannot
          have changed answers — the slot (static or dynamic) republishes
          the same view for the new version;
        * an update-capable index (``supports_updates``) absorbs the batch
          — one ``apply_delta`` — and the slot publishes its new snapshot
          for the new version; a flat index whose weights outgrow int64
          in the pass is dropped instead, and the next read rebuilds it;
        * any other slot over a touched relation is dropped, and its
          query key's churn counter bumped — the promotion pressure that
          eventually flips a hot query to the dynamic path.

        A slot already at the batch's own version is a cold build that
        pinned the post-batch database mid-write: it holds the batch and
        is left alone. Slots at any other version went stale through an
        out-of-band mutation the service never saw; they cannot be
        patched and are dropped (without churn credit — that was not
        write pressure on the query).
        """
        effective = applied.effective
        new_version = applied.version
        touched = effective.relations()
        single = len(effective) == 1
        for query_key, slot in self._slots():
            version = slot.published[0]
            if version == new_version:
                continue
            # Database.apply bumps the version by exactly one per batch,
            # so a current slot sits at new_version - 1.
            if version != new_version - 1:
                self._cache.discard(query_key)
                continue
            referenced = _relations_in_key(query_key)
            if touched.isdisjoint(referenced):
                slot.publish(new_version)
                self._carried_forward += 1
                continue
            if getattr(slot.index, "supports_updates", False):
                try:
                    slot.index.apply_delta(effective)
                except flat_store.FlatOverflowError:
                    # A weight outgrew the flat slabs mid-pass and left the
                    # live forest half-applied: drop it. The next read
                    # rebuilds, and the build falls back to tuple.
                    self._cache.discard(query_key)
                    continue
                slot.publish(new_version)
                if single:
                    self._in_place_updates += 1
                else:
                    self._batched_updates += 1
                    self._batched_update_ops += len(effective)
            else:
                self._cache.discard(query_key)
                # Delta-aware promotion credit: churn pressure scales with
                # how much of the batch actually hit this query's
                # relations, so a write-burst-heavy query reaches the
                # promotion threshold in one burst instead of needing
                # `promote_after` separate mutations.
                relevant = sum(
                    1 for __, relation, __row in effective.ops()
                    if relation in referenced
                )
                self._churn[query_key] = (
                    self._churn.get(query_key, 0) + max(1, relevant)
                )
                self._mutation_invalidations += 1

    # ------------------------------------------------------------------ #
    # Durability                                                          #
    # ------------------------------------------------------------------ #

    def checkpoint(
        self,
        include_serve_state: bool = True,
        serve_format: str = "blob",
        keep: int = 2,
    ):
        """Write an atomic checkpoint through the bound store.

        A writer like :meth:`apply`, under the same lock: pins one
        database version and serializes that pin — every relation plus
        the version (and instance id), and
        — with ``include_serve_state`` — this service's cached indexes at
        the pinned version, so a recovered service reaches its first
        served answer without an O(|D|) rebuild: flat-backed static
        entries as columnar ``serve-flat/`` blobs (mmap-and-go recovery;
        ``serve_format="pickle"`` forces the legacy path), the rest
        pickled. Entries that cannot be serialized either way are
        skipped and counted in ``stats().checkpoint_skipped_entries``.
        Old checkpoints are pruned (``keep`` newest survive) and the WAL
        trimmed to the records past the new checkpoint. Raises
        :class:`~repro.storage.StorageError` when the service was
        constructed without ``storage``.
        """
        from repro.storage.store import StorageError

        if self._storage is None:
            raise StorageError(
                "this service has no bound storage; construct it with "
                "storage=<directory> (or recover() one)"
            )
        with self._write_lock:
            pinned = self._database.pin()
            serve_state = (
                self._serve_state(pinned.version) if include_serve_state else None
            )
            path = self._storage.checkpoint(
                pinned, serve_state, keep=keep, serve_format=serve_format
            )
            manifest = self._storage.last_manifest or {}
            self._checkpoint_skipped += manifest.get("skipped_entries", 0)
        return path

    def _serve_state(self, version: int) -> List[tuple]:
        """``(query key, index)`` pairs for this database's slots
        published at ``version`` — what a checkpoint of that version
        preserves of the warm cache."""
        return [
            (query_key, slot.index)
            for query_key, slot in self._slots()
            if slot.published[0] == version
        ]

    @classmethod
    def recover(cls, directory, **kwargs) -> "QueryService":
        """Rebuild a durable service: checkpoint + serve-state + WAL tail.

        The recovery sequence mirrors the live write path exactly:

        1. load the newest valid checkpoint — the database at the
           checkpoint version, plus the serve-state indexes persisted
           with it, which are seeded into the cache *at that version*.
           Columnar ``serve-flat/`` entries arrive as read-only mmapped
           slabs (``np.load(..., mmap_mode="r")``) with value tables
           still deferred, so seeding is O(metadata) — no per-row python
           object is constructed until a read actually gathers objects;
        2. replay each durable WAL batch through :meth:`apply`, so seeded
           entries are carried forward, updated in place, or invalidated
           by precisely the same rules that governed the original writes
           (an update-capable entry absorbs the tail; a static entry over
           a touched relation rebuilds lazily);
        3. bind the log for continued durable writes.

        The result lands on exactly the last durable version — every
        batch whose version bump was ever observable was appended first.
        ``kwargs`` pass through to the constructor (``dynamic=``,
        ``promote_after=``, …).
        """
        from repro.storage.store import DurableStore

        store = DurableStore(directory)
        database, ckpt, wal = store.load_base()
        service = cls(database, **kwargs)
        for query_key, entry in ckpt.serve_state:
            service._cache.get_or_build(
                query_key,
                lambda entry=entry: Slot(entry, database.version),
            )
        report = store.replay_tail(
            database, ckpt, wal, service.apply, len(ckpt.serve_state)
        )
        service._storage = store
        service._wal_replayed_ops = report.replayed_ops
        return service

    # ------------------------------------------------------------------ #
    # Introspection                                                       #
    # ------------------------------------------------------------------ #

    def stats(self) -> ServiceStats:
        """Cache effectiveness plus the service's own serving counters.

        ``compactions`` and ``snapshot_publishes`` sum over *this
        service's* update-capable entries currently in the cache (member
        and intersection structures included for dynamic unions) — they
        report the live dynamic working set's self-maintenance, not an
        all-time total. Every read is a wait-free ``snapshot_reads`` tick;
        ``locked_reads`` is a constant 0.
        """
        info = self._cache.info()
        compactions = 0
        publishes = 0
        for __, slot in self._slots():
            entry = slot.index
            if not getattr(entry, "supports_updates", False):
                continue
            if isinstance(entry, MCUCQIndex):
                compactions += sum(m.compactions for m in entry.member_indexes)
                compactions += sum(
                    f.compactions for f in entry.intersection_indexes.values()
                )
                publishes += entry.publishes
                publishes += sum(m.publishes for m in entry.member_indexes)
                publishes += sum(
                    f.publishes for f in entry.intersection_indexes.values()
                )
            else:
                compactions += getattr(entry, "compactions", 0)
                publishes += getattr(entry, "publishes", 0)
        return ServiceStats(
            hits=info.hits,
            misses=info.misses,
            evictions=info.evictions,
            invalidations=info.invalidations,
            size=info.size,
            capacity=info.capacity,
            promotions=self._promotions,
            dynamic_builds=self._dynamic_builds,
            static_builds=self._static_builds,
            in_place_updates=self._in_place_updates,
            carried_forward=self._carried_forward,
            mutation_invalidations=self._mutation_invalidations,
            compactions=compactions,
            batched_updates=self._batched_updates,
            batched_update_ops=self._batched_update_ops,
            snapshot_reads=self._snapshot_reads,
            locked_reads=0,
            snapshot_publishes=publishes,
            wal_appends=(
                self._storage.wal.appends
                if self._storage is not None and self._storage.wal is not None
                else 0
            ),
            wal_replayed_ops=self._wal_replayed_ops,
            checkpoints=(
                self._storage.checkpoints_written
                if self._storage is not None else 0
            ),
            tuple_static_builds=self._backend_counters["tuple"]["static_builds"],
            tuple_dynamic_builds=self._backend_counters["tuple"]["dynamic_builds"],
            tuple_snapshot_reads=self._backend_counters["tuple"]["snapshot_reads"],
            flat_static_builds=self._backend_counters["flat"]["static_builds"],
            flat_dynamic_builds=self._backend_counters["flat"]["dynamic_builds"],
            flat_snapshot_reads=self._backend_counters["flat"]["snapshot_reads"],
            checkpoint_skipped_entries=self._checkpoint_skipped,
            wal_retries=(
                self._storage.wal.retries
                if self._storage is not None and self._storage.wal is not None
                else 0
            ),
            faults_injected=faults.injected_total(),
            degraded_entries=self._degraded_entries,
            degraded_seconds=(
                self._degraded_seconds_total + self.degraded_since_seconds
            ),
            atomic_io_errors=atomic.io_error_count(),
        )

    def __repr__(self) -> str:
        return (
            f"QueryService({self._database!r}, cache={self._cache!r})"
        )


class Transaction:
    """A buffered write batch bound to one service (see
    :meth:`QueryService.transaction`).

    ``insert`` / ``delete`` record into :attr:`delta` (a database-bound
    :class:`~repro.database.delta.Delta`, so bad facts fail fast at
    recording time); a clean ``with`` exit applies the whole buffer as one
    :meth:`QueryService.apply` and stores its
    :class:`~repro.database.delta.AppliedDelta` in :attr:`result`. An
    exceptional exit discards the buffer — nothing was ever applied.
    """

    def __init__(self, service: QueryService):
        self._service = service
        self.delta = Delta(database=service.database)
        #: The AppliedDelta once the transaction has committed.
        self.result: Optional[AppliedDelta] = None

    def insert(self, relation: str, row: tuple) -> Delta:
        """Buffer an insert (returns the delta, chainable)."""
        return self.delta.insert(relation, tuple(row))

    def delete(self, relation: str, row: tuple) -> Delta:
        """Buffer a delete (returns the delta, chainable)."""
        return self.delta.delete(relation, tuple(row))

    def __enter__(self) -> "Transaction":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> bool:
        if exc_type is None:
            self.result = self._service.apply(self.delta)
        return False

    def __repr__(self) -> str:
        state = "committed" if self.result is not None else "open"
        return f"Transaction({self.delta!r}, {state})"
