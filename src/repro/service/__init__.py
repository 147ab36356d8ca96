"""Serving layer: index reuse and batched answering for (U)CQ workloads.

The paper's guarantee — O(log n) random access after *linear*
preprocessing — is only a win when the preprocessing is paid once and the
index is then hit many times. The modules here supply that "build once,
serve many" shape:

* :mod:`repro.service.cache` — :class:`IndexCache`, an LRU of built
  indexes keyed by the canonicalized query, one per service, so repeated
  queries skip preprocessing entirely; each slot publishes its
  ``(version, view)`` pair as one reference, and any mutation either
  republishes a slot for the new version (update-capable or untouched
  indexes) or invalidates exactly the stale ones;
* :mod:`repro.service.query_service` — :class:`QueryService`, the façade
  the applications (pagination, online aggregation, the CLI) talk to:
  reads through :class:`~repro.service.cursor.Cursor` objects
  (``service.cursor(q)`` — resolve once, read many), writes through
  :class:`~repro.database.delta.Delta` batches (``service.apply(delta)``
  / ``service.transaction()``; ``insert`` / ``delete`` are one-fact
  deltas) that keep the cache honest. Writes are incremental where theory
  allows: cached
  :class:`~repro.core.dynamic.DynamicCQIndex` entries absorb deltas in
  place (O(depth · log) per fact instead of an O(|D|) rebuild, with
  propagation deduplicated across a batch), and hot full acyclic queries
  are promoted to that mode adaptively after repeated invalidations;
* :mod:`repro.service.cursor` — the cursor itself, with the documented
  staleness contract (transparent re-resolve or ``StaleCursorError``);
  a cursor's reported version is always the version its pinned view was
  published for.

Quickstart
----------
>>> from repro import Database, Relation
>>> from repro.service import QueryService
>>> db = Database([
...     Relation("R", ("a", "b"), [(1, 10), (2, 20)]),
...     Relation("S", ("b", "c"), [(10, "x"), (10, "y"), (20, "z")]),
... ])
>>> service = QueryService(db)
>>> q = "Q(a, b, c) :- R(a, b), S(b, c)"
>>> service.cursor(q).count
3
>>> service.cursor(q).batch([2, 0, 2])
[(2, 20, 'z'), (1, 10, 'x'), (2, 20, 'z')]
>>> service.stats().hits  # the first cursor built the index; the second reused it
1
>>> service.insert("R", (3, 20))         # invalidates cached indexes
True
>>> service.cursor(q).count
4
"""

from repro.service.cache import IndexCache, canonical_query_key
from repro.service.cursor import Cursor, StaleCursorError
from repro.service.query_service import (
    QueryService,
    ServiceDegradedError,
    ServiceStats,
    Transaction,
)

__all__ = [
    "Cursor",
    "IndexCache",
    "QueryService",
    "ServiceDegradedError",
    "ServiceStats",
    "StaleCursorError",
    "Transaction",
    "canonical_query_key",
]
