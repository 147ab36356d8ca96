"""Algorithm 2: the preprocessing of the random-access index over a full
acyclic join forest.

Algorithm 2 partitions every relation into buckets keyed by ``pAtts``
(the attributes shared with the parent), computes for each tuple ``t`` a
weight ``w(t)`` — the number of answers of the subtree rooted at its node
that agree with ``t`` — and assigns each tuple the index range
``[startIndex(t), startIndex(t) + w(t))`` within its bucket. The weight of
the root bucket is the answer count.

A query whose reduced join has several connected components gets one tree
per component; the global index is split/combined across the roots exactly
like across children of a single node.

This module contributes the *static* bucket store — plain prefix-sum
arrays resolved by binary search, the exact ``startIndex`` layout of
Algorithm 2 — and the preprocessing that fills it. The walks over it
(Algorithm 3's random access, Algorithm 4's inverted access, enumeration
and the order rank) live in :mod:`repro.core.access_engine`, and
:class:`~repro.core.cq_index.CQIndex` serves them through
:class:`~repro.core.access_engine.EngineServingMixin`.

Enumeration order: with ``sort_buckets=True`` (default) every bucket holds
its tuples in canonical sorted order, which makes the enumeration order of
the index a restriction of one *global* order on answer tuples shared by
all indexes built with the same tree shape — the property that powers the
mc-UCQ compatibility requirements of Section 5.2.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Dict, Iterator, List, Optional, Tuple

from repro.database.relation import Relation, row_sort_key
from repro.core import access_engine, flat_store
from repro.core.reduction import ReducedJoin, ReducedNode


class _Bucket:
    """One bucket of a node's relation: tuples agreeing on ``pAtts``.

    The static :class:`~repro.core.access_engine.BucketStore`: holds, per
    tuple, the weight ``w(t)`` and ``startIndex(t)`` as plain prefix-sum
    arrays; ``total`` is the bucket weight ``w(B)``. ``rank`` (tuple →
    position) is built lazily by
    :meth:`JoinForestIndex.ensure_inverted_support`, mirroring the paper's
    implementation note that the inverted-access index is compiled only
    when a UCQ enumeration needs it.
    """

    __slots__ = ("rows", "weights", "start", "total", "rank")

    #: Leaf rows always carry weight 1 here (Algorithm 2 with no children),
    #: so the engine may index ``rows`` by bucket-local offset directly.
    unit_leaf = True

    def __init__(self, rows: List[tuple]):
        self.rows = rows
        self.weights: List[int] = []
        self.start: List[int] = []
        self.total = 0
        self.rank: Optional[Dict[tuple, int]] = None

    def finalize(self, weights: List[int]) -> None:
        self.weights = weights
        start = []
        running = 0
        for w in weights:
            start.append(running)
            running += w
        self.start = start
        self.total = running

    def locate_run(self, offset: int) -> Tuple[tuple, int, int]:
        """The ``(row, start, weight)`` whose index range contains ``offset``.

        Zero-weight (dangling) tuples occupy empty ranges and are never
        located — ``bisect_right`` skips entries whose startIndex equals the
        next tuple's.
        """
        position = bisect_right(self.start, offset) - 1
        return self.rows[position], self.start[position], self.weights[position]

    def rank_start(self, row: tuple) -> Optional[int]:
        """``startIndex(row)``, or ``None`` for absent/dangling rows.

        Requires :meth:`build_rank` (the walk's caller ensures it)."""
        position = self.rank.get(row)
        if position is None or self.weights[position] == 0:
            return None
        return self.start[position]

    def rank_before(self, row: tuple) -> Tuple[int, bool]:
        """``(startIndex a row sorting like ``row`` has here, it
        participates)`` — a bisect over the canonically sorted rows, so no
        rank table and no per-bucket key list is needed."""
        rows = self.rows
        position = bisect_left(rows, row_sort_key(row), key=row_sort_key)
        if position == len(rows):
            return self.total, False
        return self.start[position], (
            rows[position] == row and self.weights[position] > 0
        )

    def iter_rows(self) -> Iterator[Tuple[tuple, int]]:
        return zip(self.rows, self.weights)

    def build_rank(self) -> None:
        if self.rank is None:
            self.rank = {row: position for position, row in enumerate(self.rows)}


class _IndexNode:
    """A join-forest node annotated per Algorithm 2."""

    __slots__ = (
        "variables",
        "columns",
        "relation",
        "children",
        "buckets",
        "parent_key_positions",
        "child_key_positions",
        "flat",
    )

    def __init__(self, reduced: ReducedNode, parent_columns: Optional[Tuple[str, ...]]):
        self.variables = reduced.variables
        self.relation = reduced.relation
        self.columns = reduced.relation.columns
        shared = (
            tuple(sorted(set(self.columns) & set(parent_columns)))
            if parent_columns is not None
            else ()
        )
        # Positions of pAtts within this node's own columns (to key rows of
        # this relation into buckets)…
        self.parent_key_positions = tuple(self.columns.index(c) for c in shared)
        self.children: List["_IndexNode"] = [
            _IndexNode(child, self.columns) for child in reduced.children
        ]
        # …and, per child, the positions within *this* node's columns that
        # produce the child's bucket key from one of this node's rows.
        self.child_key_positions: List[Tuple[int, ...]] = []
        for child in self.children:
            child_shared = tuple(sorted(set(child.columns) & set(self.columns)))
            self.child_key_positions.append(
                tuple(self.columns.index(c) for c in child_shared)
            )
        self.buckets: Dict[tuple, _Bucket] = {}
        # Columnar arrays (repro.core.flat_store.FlatNode) when this node
        # was converted to the flat store; None on the tuple backend.
        self.flat = None

    def bucket_key_of_row(self, row: tuple) -> tuple:
        return tuple(row[p] for p in self.parent_key_positions)

    def child_bucket_key(self, row: tuple, child_position: int) -> tuple:
        return tuple(row[p] for p in self.child_key_positions[child_position])

    def all_nodes(self) -> List["_IndexNode"]:
        out = [self]
        for child in self.children:
            out.extend(child.all_nodes())
        return out


class JoinForestIndex:
    """Algorithm 2's buckets and weights over a reduced full acyclic join.

    ``roots`` is the annotated forest the engine walks and ``count`` the
    answer count. Reads are served by :class:`repro.core.cq_index.CQIndex`
    (and the samplers walk ``roots`` directly); this class only builds, and
    builds the inverted-access rank tables on demand
    (:meth:`ensure_inverted_support`).
    """

    def __init__(
        self,
        reduced: ReducedJoin,
        sort_buckets: bool = True,
        store: Optional[str] = None,
    ):
        self.reduced = reduced
        self.sort_buckets = sort_buckets
        self.store = flat_store.resolve_store(store)
        self.roots: List[_IndexNode] = [_IndexNode(r, None) for r in reduced.roots]
        for root in self.roots:
            self._build(root)
        if self.store == "flat":
            try:
                flat_store.columnarize_forest(self.roots)
            except flat_store.FlatOverflowError:
                # Weights too large for int64 arrays — the tuple buckets
                # built above keep serving (python ints are unbounded).
                self.store = "tuple"
        self.count = access_engine.forest_count(self.roots)
        self._inverted_ready = False

    # ------------------------------------------------------------------ #
    # Algorithm 2 — preprocessing                                         #
    # ------------------------------------------------------------------ #

    def _build(self, node: _IndexNode) -> None:
        # Leaf-to-root: children first, so their bucket totals exist.
        for child in node.children:
            self._build(child)

        groups: Dict[tuple, List[tuple]] = {}
        for row in node.relation.rows:
            key = node.bucket_key_of_row(row)
            groups.setdefault(key, []).append(row)

        for key, rows in groups.items():
            if self.sort_buckets:
                rows.sort(key=row_sort_key)
            bucket = _Bucket(rows)
            weights = []
            for row in rows:
                w = 1
                for position, child in enumerate(node.children):
                    child_bucket = child.buckets.get(node.child_bucket_key(row, position))
                    if child_bucket is None:
                        w = 0
                        break
                    w *= child_bucket.total
                weights.append(w)
            bucket.finalize(weights)
            node.buckets[key] = bucket

    # ------------------------------------------------------------------ #
    # Algorithm 4's rank tables (built lazily)                            #
    # ------------------------------------------------------------------ #

    def ensure_inverted_support(self) -> None:
        """Build the per-bucket tuple→position tables (idempotent)."""
        if not self._inverted_ready:
            for root in self.roots:
                for node in root.all_nodes():
                    for bucket in node.buckets.values():
                        bucket.build_rank()
            self._inverted_ready = True
