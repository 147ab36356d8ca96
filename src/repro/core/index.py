"""Algorithms 2–4: the random-access index over a full acyclic join forest.

* **Algorithm 2 (preprocessing)** partitions every relation into buckets
  keyed by ``pAtts`` (the attributes shared with the parent), computes for
  each tuple ``t`` a weight ``w(t)`` — the number of answers of the subtree
  rooted at its node that agree with ``t`` — and assigns each tuple the
  index range ``[startIndex(t), startIndex(t) + w(t))`` within its bucket.
  The weight of the root bucket is the answer count.

* **Algorithm 3 (random access)** walks root-to-leaf: binary search locates
  the tuple whose range contains the requested index, and ``SplitIndex``
  distributes the remaining offset over the children the way a
  multidimensional array index is split (the last child takes the modulus).

* **Algorithm 4 (inverted access)** walks the same tree guided by a
  candidate answer instead of an index, recombining child offsets with
  ``CombineIndex`` (the inverse of ``SplitIndex``); it returns the unique
  position the answer occupies in the enumeration order, or ``None``
  (“not-a-member”) when the tuple is not an answer.

The forest generalization: a query whose reduced join has several connected
components gets one tree per component; the global index is split/combined
across the roots exactly like across children of a single node.

The walks themselves live in :mod:`repro.core.access_engine`, shared with
the dynamic index: this module contributes the *static* bucket store —
plain prefix-sum arrays resolved by binary search, the exact ``startIndex``
layout of Algorithm 2 — and the Algorithm-2 preprocessing that fills it.

Enumeration order: with ``sort_buckets=True`` (default) every bucket holds
its tuples in canonical sorted order, which makes the enumeration order of
the index a restriction of one *global* order on answer tuples shared by
all indexes built with the same tree shape — the property that powers the
mc-UCQ compatibility requirements of Section 5.2.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.database.relation import Relation, row_sort_key
from repro.core import access_engine, flat_store

try:
    import numpy as _np
except ImportError:  # pragma: no cover - optional acceleration
    _np = None
from repro.core.errors import IncompatibleUnionError, OutOfBoundError
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
    """The Theorem 4.3 data structure over a reduced full acyclic join.

    Provides O(1) counting, O(log n) random access, and (after
    :meth:`ensure_inverted_support`) O(1)-per-node inverted access. Answers
    are reported as assignments — dictionaries from variable name to value;
    the head-tuple packaging lives in :class:`repro.core.cq_index.CQIndex`.
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
    # Algorithm 3 — random access (scalar and batched, via the engine)    #
    # ------------------------------------------------------------------ #

    def access(self, index: int) -> Dict[str, object]:
        """The assignment at ``index`` in the enumeration order.

        Raises :class:`OutOfBoundError` outside ``[0, count)`` — the paper's
        “out-of-bound” message, which Theorem 3.7's binary search relies on.
        """
        if index < 0 or index >= self.count:
            raise OutOfBoundError(index, self.count)
        assignment: Dict[str, object] = {}
        access_engine.scalar_walk(self.roots, index, assignment)
        return assignment

    def batch_access(
        self, indices: Sequence[int], project: Optional[Sequence[str]] = None
    ) -> List[object]:
        """The answers at ``indices``, one per requested position.

        Semantically equal to ``[self.access(i) for i in indices]`` (the
        result is aligned with the request, which may be unsorted and may
        contain duplicates), but amortized through
        :func:`repro.core.access_engine.batch_walk`: the requested
        positions are sorted once, and the root-to-leaf walk is shared
        across positions that resolve through the same tuples.

        With ``project`` (a sequence of variable names) each result is the
        tuple of those variables' values instead of a full assignment dict —
        the head-tuple fast path used by
        :meth:`~repro.core.cq_index.CQIndex.batch`, which skips one dict
        copy per answer.

        Raises :class:`OutOfBoundError` (like :meth:`access`) if *any*
        requested position is outside ``[0, count)`` — the batch is
        all-or-nothing, checked before any position is resolved.
        """
        if not len(indices):
            return []
        count = self.count
        if isinstance(indices, range):
            # O(1) bounds for pagination sweeps: builtins.min would walk
            # the whole range in the interpreter.
            low, high = ((indices[0], indices[-1]) if indices.step > 0
                         else (indices[-1], indices[0]))
        elif _np is not None and isinstance(indices, _np.ndarray):
            low, high = int(indices.min()), int(indices.max())
        else:
            low, high = min(indices), max(indices)
        if low < 0 or high >= count:
            for index in indices:
                if index < 0 or index >= count:
                    raise OutOfBoundError(index, count)
        vectorized = access_engine.vector_batch(self.roots, indices, project)
        if vectorized is not None:
            return vectorized
        if _np is not None and isinstance(indices, _np.ndarray):
            # The scalar walk compares and hashes positions tuple-by-tuple;
            # unbox once so it never touches numpy integers.
            indices = indices.tolist()
        out: List[object] = [None] * len(indices)
        acc: Dict[str, object] = {}
        finish = access_engine.make_batch_finish(out, acc, project)
        access_engine.batch_walk(
            self.roots, access_engine.sorted_items(indices), acc, finish
        )
        return out

    # ------------------------------------------------------------------ #
    # Algorithm 4 — inverted access                                       #
    # ------------------------------------------------------------------ #

    def ensure_inverted_support(self) -> None:
        """Build the per-bucket tuple→position tables (idempotent)."""
        if not self._inverted_ready:
            for root in self.roots:
                for node in root.all_nodes():
                    for bucket in node.buckets.values():
                        bucket.build_rank()
            self._inverted_ready = True

    def inverted_access(self, assignment: Dict[str, object]) -> Optional[int]:
        """The index of ``assignment`` in the enumeration order, or ``None``.

        ``None`` is the paper's “not-a-member” outcome: the assignment is
        not an answer of the query.
        """
        if self.count == 0:
            return None
        self.ensure_inverted_support()
        return access_engine.inverted_walk(self.roots, assignment)

    def rank_not_after(self, assignment: Dict[str, object]) -> int:
        """How many answers do not succeed ``assignment`` in the global
        order — :func:`repro.core.access_engine.rank_walk`. The assignment
        need not be an answer of this index.

        Raises :class:`IncompatibleUnionError` on an index built with
        ``sort_buckets=False``: its order restricts no global order, so
        the rank of a foreign assignment is undefined.
        """
        if not self.sort_buckets:
            raise IncompatibleUnionError(
                "rank_not_after needs canonically sorted buckets; this index "
                "was built with sort_buckets=False and has no global order"
            )
        return access_engine.rank_walk(self.roots, assignment)

    # ------------------------------------------------------------------ #
    # Ordered enumeration (Fact 3.5: access gives Enum⟨lin, log⟩; the      #
    # engine's direct generator avoids the per-answer binary searches)    #
    # ------------------------------------------------------------------ #

    def enumerate_in_order(self) -> Iterator[Dict[str, object]]:
        """Yield all assignments in enumeration-order (index order)."""
        if self.count == 0:
            return
        yield from access_engine.enumerate_walk(self.roots)
