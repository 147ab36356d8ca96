"""An LRU cache of built random-access indexes.

Keying
------
Each :class:`~repro.service.query_service.QueryService` owns one cache
over its one database and stores one :class:`Slot` per canonical query
key — the structural form produced by :func:`canonical_query_key`, making
the cache insensitive to how the query text was formatted or what the
query object instance is.

The database *version* is deliberately **not** part of the key: it is
published inside the slot, together with the view it answers for (see
:class:`Slot`). A write republishes a slot in place; a key never moves.

Canonicalization is deliberately conservative: it preserves atom order and
variable names, because both influence the join-tree construction and
hence the *enumeration order* of the resulting index. Two requests that
canonicalize equal are guaranteed to build byte-for-byte interchangeable
indexes; alpha-equivalent queries that would enumerate in a different
order hash apart, which costs a rebuild but never serves answers in the
wrong order.

Doctest
-------
>>> cache = IndexCache(capacity=2)
>>> cache.get_or_build("a", lambda: "index-a")
'index-a'
>>> cache.get_or_build("a", lambda: "never called")
'index-a'
>>> cache.get_or_build("b", lambda: "index-b")
'index-b'
>>> cache.get_or_build("c", lambda: "index-c")  # evicts "a" (LRU)
'index-c'
>>> sorted(cache.keys())
['b', 'c']
>>> (cache.hits, cache.misses, cache.evictions)
(1, 3, 1)
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, List, NamedTuple, Optional

from repro.query.atoms import Constant, Variable
from repro.query.cq import ConjunctiveQuery
from repro.query.ucq import UnionOfConjunctiveQueries


class CacheInfo(NamedTuple):
    """A snapshot of cache effectiveness counters."""

    hits: int
    misses: int
    evictions: int
    invalidations: int
    size: int
    capacity: int


def _cq_key(query: ConjunctiveQuery) -> tuple:
    head = tuple(v.name for v in query.head)
    body = tuple(
        (
            atom.relation,
            tuple(
                ("v", term.name) if isinstance(term, Variable) else ("c", term.value)
                for term in atom.terms
            ),
        )
        for atom in query.body
    )
    return ("cq", head, body)


def canonical_query_key(query) -> tuple:
    """A hashable structural key for a CQ or UCQ.

    Ignores the query's display name and the object identity; preserves
    everything that influences index construction (head order, body atom
    order, variable names, constants). Re-parsing the same rule text
    therefore yields an equal key:

    >>> from repro import parse_cq
    >>> canonical_query_key(parse_cq("Q(x) :- R(x, y)")) == \\
    ...     canonical_query_key(parse_cq("Named(x)  :-  R(x, y)"))
    True
    >>> canonical_query_key(parse_cq("Q(x) :- R(x, y)")) == \\
    ...     canonical_query_key(parse_cq("Q(y) :- R(y, x)"))
    False
    """
    if isinstance(query, UnionOfConjunctiveQueries):
        return ("ucq",) + tuple(_cq_key(q) for q in query.queries)
    if isinstance(query, ConjunctiveQuery):
        return _cq_key(query)
    raise TypeError(f"cannot key a {type(query).__name__} for the index cache")


class Slot:
    """One served query of one database: the live index and what readers
    see of it.

    ``index`` is the live (writer-side) object. ``published`` is the
    ``(version, view)`` pair readers serve from: ``view`` is the index
    itself when it is immutable (a static build), or its published
    snapshot when it is update-capable (``supports_updates``). The pair is
    one tuple, swapped whole by :meth:`publish`, so a reader that loads
    ``slot.published`` once holds a view and the database version it
    answers for — the two cannot be observed apart.
    """

    __slots__ = ("index", "published")

    def __init__(self, index, version: int):
        self.index = index
        self.publish(version)

    def publish(self, version: int) -> None:
        """Publish the index's current state as the answer for ``version``
        (writer only; one atomic reference swap)."""
        index = self.index
        view = index.snapshot if getattr(index, "supports_updates", False) else index
        self.published = (version, view)


class IndexCache:
    """A capacity-bounded LRU mapping of keys to built indexes.

    The cache is agnostic to what it stores — the
    :class:`~repro.service.query_service.QueryService` keeps one
    :class:`Slot` per served query in it, keyed as described in the module
    docstring. :meth:`get` / :meth:`get_or_build` are the serving read
    path; :meth:`peek` inspects without side effects; :meth:`discard`
    drops a stale entry eagerly, freeing capacity and memory immediately.
    Entries never move: a mutation republishes a slot in place.
    """

    def __init__(self, capacity: int = 32):
        if capacity < 1:
            raise ValueError(f"cache capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._entries: "OrderedDict[object, object]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key) -> bool:
        return key in self._entries

    def keys(self) -> List[object]:
        """Current keys in LRU order (least recently used first)."""
        return list(self._entries)

    def get(self, key) -> Optional[object]:
        """The cached entry for ``key`` — a counted hit that moves it to
        most-recently-used — or ``None`` (nothing counted)."""
        entry = self._entries.get(key)
        if entry is not None:
            try:
                self._entries.move_to_end(key)
            except KeyError:
                # A writer's discard (or another reader's eviction) took
                # the key between the probe and the touch: the entry in
                # hand is still the right answer, there is just nothing
                # left to touch.
                pass
            self.hits += 1
        return entry

    def get_or_build(self, key, builder: Callable[[], object]):
        """The cached entry for ``key``, building (and caching) on miss.

        A hit moves the entry to most-recently-used; a miss that
        overflows :attr:`capacity` evicts the least recently used entry.
        """
        entry = self.get(key)
        if entry is None:
            self.misses += 1
            entry = builder()
            self._entries[key] = entry
            if len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1
        return entry

    def peek(self, key) -> Optional[object]:
        """The entry for ``key``, or ``None`` — no LRU touch, no counters.

        The maintenance path uses this to inspect entries (is this one
        update-in-place capable?) without distorting the hit statistics or
        the eviction order.
        """
        return self._entries.get(key)

    def discard(self, key) -> bool:
        """Drop one entry by key; ``True`` when it existed.

        Counts as an invalidation — this is the form the service uses
        when a mutation makes a (static) entry stale.
        """
        if self._entries.pop(key, None) is None:
            return False
        self.invalidations += 1
        return True

    def info(self) -> CacheInfo:
        """A snapshot of the effectiveness counters."""
        return CacheInfo(
            hits=self.hits,
            misses=self.misses,
            evictions=self.evictions,
            invalidations=self.invalidations,
            size=len(self._entries),
            capacity=self.capacity,
        )

    def __repr__(self) -> str:
        return (
            f"IndexCache(size={len(self._entries)}/{self.capacity}, "
            f"hits={self.hits}, misses={self.misses})"
        )
