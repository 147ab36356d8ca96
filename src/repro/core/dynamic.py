"""A dynamic random-access index: Theorem 4.3 under database updates.

The paper's index is static: Algorithm 2's ``startIndex`` arrays are plain
prefix sums. Its companion line of work (Berkholz, Keppeler, Schweikardt —
"Answering UCQs under updates", cited as [6]) asks for the same guarantees
when tuples are inserted and deleted. This module provides that extension
for **full acyclic joins** (the class all six benchmark queries belong to):

* counting stays O(1);
* ``access`` / ``inverted_access`` cost O(log²) per call (an
  order-statistic descent per tree level instead of a bisect);
* every write is a batch: ``apply_delta`` routes a whole
  :class:`~repro.database.delta.Delta` to node rows and runs **one**
  maintenance pass (:meth:`DynamicJoinForest.apply_ops`) — touched
  buckets are grouped and bulk-inserted, bucket-total changes
  multiply up the ancestor chain once per dirty bucket, and each
  bucket's re-weighted rows are one treap pass. ``insert`` /
  ``delete`` are one-op batches through the same pass, O(depth · log);
* every read comes from
  :class:`~repro.core.access_engine.EngineServingMixin` over the latest
  published snapshot — the read surface the static
  :class:`~repro.core.cq_index.CQIndex` serves through too, so the query
  service can route requests to either index interchangeably.

Design notes
------------
* Construction goes through the reduction layer
  (:func:`~repro.core.reduction.reduce_to_full_acyclic` with the Yannakakis
  reducer *disabled*): atoms with constants or repeated variables are
  normalized exactly as for the static index, and the initial load is one
  Algorithm-2-style bottom-up pass (O(|D|) balanced bulk builds) instead of
  |D| propagating inserts. The reducer must stay off — a dangling tuple
  carries weight zero today but may be revived by a later insert of its
  join partner, so it has to remain in its bucket as a tombstone.
* Rows carry a *multiplicity* (how many base facts normalize to them —
  relevant for atoms with repeated variables); a row participates while its
  multiplicity is positive. Deleting to multiplicity 0 keeps a zero-weight
  tombstone, so surviving positions are unaffected and re-insertion
  revives in place. Once tombstones exceed a configurable fraction of a
  bucket (:data:`DEFAULT_COMPACT_FRACTION`), the bucket compacts — a local
  rebuild that drops them without changing any weight range.
* **Order maintenance.** Buckets are treaps —
  :class:`~repro.core.order_tree.OrderedWeightTree`, or
  :class:`~repro.core.flat_store.FlatOrderTree` on the flat store: the
  initial load is canonically sorted *and every later insert lands at its
  canonical sort position* (expected O(log) treap insert), so a dynamic
  index enumerates exactly like the static (sorted-bucket) index at all
  times — not just at build. This preserves the deterministic global sort
  that the mc-UCQ compatibility machinery of Section 5.2 relies on, which
  is what lets :class:`~repro.core.union_access.MCUCQIndex` members update
  in place under churn.
* **Snapshot isolation.** Every mutation ends by *publishing* an
  immutable :class:`IndexSnapshot` — per-bucket frozen treap versions
  (see the snapshot notes in :mod:`repro.core.order_tree`) behind one
  atomic reference swap. Readers pin ``forest.snapshot`` and traverse it
  with zero synchronization while the single writer keeps going; a
  pinned snapshot is mutually consistent across count / access / batch /
  inverted access / enumeration, and publication is incremental (clean
  buckets and clean subtrees are shared between versions). The snapshot
  is the only read path: the forest's own reads walk its latest one, and
  the live buckets are write-only.
* Restriction to full queries is fundamental, not incidental: with
  existential variables, Proposition 4.2's projection step is only correct
  on globally consistent databases, and maintaining global consistency
  under updates is precisely the Dynamic Yannakakis problem — out of this
  paper's scope.

Layering: :class:`_DynamicBucket` is one bucket's write side over either
treap, and its frozen view (:meth:`_DynamicBucket.freeze`) its read side.
:class:`DynamicJoinForest` is the maintained structure over an
already-reduced join forest (the mc-UCQ intersection indexes are plain
forests — their rows arrive as node-level presence changes, not base
facts); :class:`DynamicCQIndex` wraps it with the query-level surface —
atom normalization and base-fact routing.
"""

from __future__ import annotations

import functools
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.database.database import Database
from repro.database.relation import row_sort_key
from repro.query.cq import ConjunctiveQuery
from repro.query.free_connex import free_connex_report

from repro.core import flat_store
from repro.core.access_engine import EngineServingMixin
from repro.core.errors import NotFreeConnexError
from repro.core.order_tree import OrderedWeightTree, TreeRow
from repro.core.reduction import ReducedJoin, ReducedNode, reduce_to_full_acyclic

#: Compact a bucket once zero-multiplicity rows exceed this fraction of it.
DEFAULT_COMPACT_FRACTION = 0.5

#: Never bother compacting buckets smaller than this.
COMPACT_MIN_ROWS = 8

#: Presence-change observer: ``(shape_position, row, present)`` — fired by
#: :meth:`DynamicJoinForest.apply_ops` once per net transition of a node
#: row's multiplicity between zero and positive, after the batch has been
#: published (never during the initial load).
PresenceHook = Callable[[int, tuple, bool], None]


def _bucket_factory_for(store: str) -> Callable[..., "_DynamicBucket"]:
    """New :class:`_DynamicBucket` instances over ``store``'s treap."""
    tree_class = flat_store.FlatOrderTree if store == "flat" else OrderedWeightTree
    return functools.partial(_DynamicBucket, tree_class)


class _DynamicBucket:
    """A bucket whose rows live in an order-maintained weighted tree.

    The write side of a dynamic bucket, over either treap — an
    :class:`~repro.core.order_tree.OrderedWeightTree` (``TreeRow``
    handles) or a :class:`~repro.core.flat_store.FlatOrderTree` (row-id
    handles), which supply the same handle accessors. Rows stay in
    canonical sort order under arbitrary insert/delete traffic, and a
    batch's weight changes are one tree pass
    (:meth:`set_row_weights`), one subtotal update per node on the
    union of the changed rows' root paths. ``rank`` maps each row to its
    handle; ``tombstones`` counts multiplicity-0 rows.

    The live bucket answers no reads. :meth:`freeze` returns the
    immutable :class:`~repro.core.access_engine.BucketStore` over the
    current tree version — memoized until the next mutation, so clean
    buckets share one frozen view across many publishes. On the object
    treap, the tree's ``on_clone`` hook keeps ``rank`` pointing at live
    nodes while the write path path-copies around frozen spines (each
    handle is looked up in ``rank`` only when it is written); row ids
    survive clones, so the slab treap needs no hook.
    """

    __slots__ = ("tree", "rank", "tombstones", "_frozen")

    def __init__(self, tree_class, entries: Sequence[Tuple[tuple, int, int]] = ()):
        """Bulk-build from canonically sorted ``(row, weight,
        multiplicity)`` entries over a new ``tree_class`` tree."""
        tree, handles = tree_class.from_sorted(entries)
        self._adopt(tree)
        self.rank = {entry[0]: handle for entry, handle in zip(entries, handles)}
        self.tombstones = sum(1 for entry in entries if entry[2] == 0)
        self._frozen = None

    def _adopt(self, tree) -> None:
        """Take ownership of ``tree``: object-treap clones re-point our
        handles."""
        self.tree = tree
        if isinstance(tree, OrderedWeightTree):
            tree.on_clone = self._repoint

    def _repoint(self, node: TreeRow) -> None:
        self.rank[node.row] = node

    def freeze(self):
        """The frozen view of the current version (memoized until dirtied)."""
        if self._frozen is None:
            self._frozen = self.tree.snapshot()
        return self._frozen

    @property
    def total(self) -> int:
        return self.tree.total

    def __len__(self) -> int:
        return len(self.tree)

    # -- Row-keyed maintenance API ------------------------------------- #
    # The forest's write paths address rows by value, never by handle.

    def has_row(self, row: tuple) -> bool:
        """Is the row materialized here (tombstones included)?"""
        return row in self.rank

    def is_present(self, row: tuple) -> bool:
        """Does the row currently participate (multiplicity > 0)?"""
        handle = self.rank.get(row)
        return handle is not None and self.tree.row_multiplicity(handle) > 0

    def multiplicity_of(self, row: tuple) -> Optional[int]:
        """The row's multiplicity, or ``None`` when not materialized."""
        handle = self.rank.get(row)
        return None if handle is None else self.tree.row_multiplicity(handle)

    def set_multiplicity(self, row: tuple, multiplicity: int) -> None:
        """In-place multiplicity write (writer bookkeeping, invisible to
        snapshot readers — see the order-tree notes), with tombstone
        accounting."""
        handle = self.rank[row]
        was = self.tree.row_multiplicity(handle) > 0
        now = multiplicity > 0
        self.tree.set_multiplicity(handle, multiplicity)
        if was and not now:
            self.tombstones += 1
        elif now and not was:
            self.tombstones -= 1

    def set_row_weight(self, row: tuple, weight: int) -> None:
        """Point weight update: the one-pair :meth:`set_row_weights`."""
        self.set_row_weights(((row, weight),))

    def set_row_weights(self, pairs: Iterable[Tuple[tuple, int]]) -> None:
        """Set many rows' weights in one tree pass (a row listed twice
        takes its last weight; equal weights are no-ops and keep the
        frozen view)."""
        rank = self.rank
        # Lazy lookups: an earlier row's spine copy may clone a later
        # row's node, and on_clone re-points rank when it does.
        self.tree.set_weights((rank[row], weight) for row, weight in pairs)
        # The frozen view's root is frozen, so any change copied it.
        if self._frozen is not None and self._frozen.root != self.tree.root:
            self._frozen = None

    def bulk_insert(self, entries: Sequence[Tuple[tuple, int, int]]) -> None:
        """Bulk-add canonically sorted new ``(row, weight, multiplicity)``
        entries — one tree operation per batch, not per row (see
        :meth:`~repro.core.order_tree.OrderedWeightTree.insert_sorted`)."""
        if not entries:
            return
        self._frozen = None
        for entry, handle in zip(entries, self.tree.insert_sorted(entries)):
            self.rank[entry[0]] = handle
            if entry[2] == 0:
                self.tombstones += 1

    def compact(self) -> None:
        """Rebuild without multiplicity-0 rows (weight ranges unchanged —
        tombstones occupy empty ranges, so no reader can tell). The old
        tree is left intact for any snapshot still holding its root."""
        self._frozen = None
        tree, pairs = self.tree.compacted()
        self._adopt(tree)
        self.rank = dict(pairs)
        self.tombstones = 0


class _DynamicNode:
    """One join-tree node with its buckets and key plumbing."""

    __slots__ = (
        "columns",
        "children",
        "shape_position",
        "parent_key_positions",
        "child_key_positions",
        "buckets",
        "dependents",
    )

    def __init__(self, columns: Tuple[str, ...], parent: Optional["_DynamicNode"]):
        self.columns = columns
        #: Preorder position within the forest — the *shape* coordinate
        #: shared by every structurally aligned forest, which is how the
        #: mc-UCQ machinery addresses "the same node" across members and
        #: intersections.
        self.shape_position: int = -1
        shared = (
            tuple(sorted(set(columns) & set(parent.columns)))
            if parent is not None
            else ()
        )
        self.parent_key_positions = tuple(columns.index(c) for c in shared)
        self.children: List["_DynamicNode"] = []
        self.child_key_positions: List[Tuple[int, ...]] = []
        self.buckets: Dict[tuple, _DynamicBucket] = {}
        # Per child position: child bucket key → set of (bucket key, row)
        # pairs of *this* node whose weight depends on that bucket — the
        # reverse index that makes update propagation touch only affected
        # rows. Entries for compacted-away rows are dropped lazily during
        # propagation.
        self.dependents: List[Dict[tuple, set]] = []

    def attach(self, child: "_DynamicNode") -> None:
        self.children.append(child)
        shared = tuple(sorted(set(child.columns) & set(self.columns)))
        self.child_key_positions.append(tuple(self.columns.index(c) for c in shared))
        self.dependents.append({})

    def register_row(self, bucket_key: tuple, row: tuple) -> None:
        """Record the new row in every child's reverse index."""
        for child_position in range(len(self.children)):
            child_key = self.child_bucket_key(row, child_position)
            self.dependents[child_position].setdefault(child_key, set()).add(
                (bucket_key, row)
            )

    def bucket_key_of_row(self, row: tuple) -> tuple:
        return tuple(row[p] for p in self.parent_key_positions)

    def child_bucket_key(self, row: tuple, child_position: int) -> tuple:
        return tuple(row[p] for p in self.child_key_positions[child_position])

    def weight_signature(self, row: tuple) -> tuple:
        """The row's values in every child-key column: rows that agree on
        it read the same child buckets, so they weigh the same."""
        return tuple([row[p] for key in self.child_key_positions for p in key])

    def own_weight(self, row: tuple) -> int:
        """``w(row)`` recomputed from current child bucket totals."""
        weight = 1
        for position, child in enumerate(self.children):
            bucket = child.buckets.get(self.child_bucket_key(row, position))
            total = bucket.total if bucket is not None else 0
            if total == 0:
                return 0
            weight *= total
        return weight


class _SnapshotNode:
    """One frozen join-forest node: the engine's node protocol over the
    buckets' frozen views (:meth:`_DynamicBucket.freeze`). Clean nodes (no
    dirty bucket, unchanged children) are shared between consecutive
    snapshots."""

    __slots__ = ("columns", "children", "child_key_positions", "buckets")

    def __init__(self, columns, children, child_key_positions, buckets):
        self.columns = columns
        self.children = children
        self.child_key_positions = child_key_positions
        self.buckets = buckets

    def child_bucket_key(self, row: tuple, child_position: int) -> tuple:
        return tuple(row[p] for p in self.child_key_positions[child_position])


class IndexSnapshot(EngineServingMixin):
    """One published, immutable version of a dynamic index.

    The lock-free read surface: a writer publishes a snapshot with a
    single atomic reference swap at the end of every mutation
    (:attr:`DynamicJoinForest.snapshot`), and any number of readers
    traverse it concurrently — count, access, batch, inverted access,
    sampling, random-order and in-order enumeration all run against the
    pinned version with zero synchronization, mutually consistent, while
    the writer keeps mutating the live structure. ``version`` is the
    forest-local publish sequence number.
    """

    #: Snapshots are read-only; the service must never route writes here.
    supports_updates = False

    def __init__(
        self,
        roots,
        head_variables: Tuple[str, ...],
        version: int,
        store: str = "tuple",
    ):
        self.roots = roots
        self.head_variables = head_variables
        self.version = version
        #: The publishing forest's bucket backend — carried on the
        #: snapshot so per-backend read accounting works on pinned views.
        self.store = store

    def __repr__(self) -> str:
        return (f"IndexSnapshot(version={self.version}, "
                f"count={self.count})")


class DynamicJoinForest(EngineServingMixin):
    """A maintained Theorem 4.3 structure over a reduced full acyclic join.

    The core the query-level :class:`DynamicCQIndex` and the mc-UCQ
    intersection indexes share: buckets, weights, propagation, and the
    engine-driven serving surface (count / access / batch / inverted
    access / ordered and random-order enumeration), with updates arriving
    as node-level row presence changes. Enumeration order is canonical at
    all times (see the module notes on order maintenance).

    Parameters
    ----------
    reduced:
        The (already normalized) full acyclic join forest. For incremental
        maintenance the reducer must have been disabled — dangling rows
        stay as weight-0 tombstones.
    on_presence_change:
        Optional :data:`PresenceHook` observing multiplicity 0↔positive
        transitions; the mc-UCQ index uses it to keep intersection forests
        consistent with their members.
    compact_fraction:
        Tombstone fraction above which a bucket compacts
        (:data:`DEFAULT_COMPACT_FRACTION` by default).
    store:
        Bucket backend: ``"tuple"`` (object treaps) or ``"flat"`` (slab
        treaps over preallocated arrays —
        :class:`~repro.core.flat_store.FlatOrderTree`). ``None``
        resolves via :func:`repro.core.flat_store.resolve_store`.

    Reads (the :class:`~repro.core.access_engine.EngineServingMixin`
    surface) walk :attr:`roots`, the latest snapshot's frozen nodes; the
    live nodes are reached only by the write path and by publication.
    """

    def __init__(
        self,
        reduced: ReducedJoin,
        on_presence_change: Optional[PresenceHook] = None,
        compact_fraction: float = DEFAULT_COMPACT_FRACTION,
        store: Optional[str] = None,
    ):
        self.reduced = reduced
        self.store = flat_store.resolve_store(store)
        self.head_variables: Tuple[str, ...] = tuple(reduced.head_variables)
        self.on_presence_change = on_presence_change
        self.compact_fraction = compact_fraction
        self.compactions = 0
        #: Snapshot publications performed (also the version stamp of the
        #: latest :class:`IndexSnapshot`).
        self.publishes = 0
        try:
            self._load()
        except flat_store.FlatOverflowError:
            # Weights too large for int64 slabs: build again on the object
            # treaps (python ints are unbounded), as the static index does.
            self.store = "tuple"
            self._load()

    def _load(self) -> None:
        """Build every node over :attr:`store`'s treap and publish."""
        self._bucket_factory = _bucket_factory_for(self.store)
        #: Nodes in preorder; a node's index here is its shape position.
        self.nodes: List[_DynamicNode] = []
        self._by_atom: Dict[int, _DynamicNode] = {}
        # (shape position, bucket key) pairs touched since the last
        # publish, and the published-version plumbing they feed.
        self._dirty: set = set()
        self._snapshot: Optional[IndexSnapshot] = None
        self._snapshot_nodes: Optional[List[Optional[_SnapshotNode]]] = None
        self._live_roots: List[_DynamicNode] = [
            self._build(root, None) for root in self.reduced.roots
        ]
        self._publish()

    def __setstate__(self, state: dict) -> None:
        # Serve-state pickled while reads still walked the live nodes
        # keeps them as ``roots`` and a bucket class as the factory.
        if "roots" in state:
            state["_live_roots"] = state.pop("roots")
            state["_bucket_factory"] = _bucket_factory_for(state["store"])
        self.__dict__.update(state)

    @property
    def roots(self) -> List[_SnapshotNode]:
        """The engine's forest: the latest snapshot's frozen nodes."""
        return self._snapshot.roots

    # ------------------------------------------------------------------ #
    # Construction                                                        #
    # ------------------------------------------------------------------ #

    def _build(
        self, reduced: ReducedNode, parent: Optional[_DynamicNode]
    ) -> _DynamicNode:
        """Build one node and bulk-load its (already normalized) rows.

        Children build first, so this node's initial row weights are one
        product of final child bucket totals each — Algorithm 2 with one
        balanced bulk build per bucket, no per-row propagation.
        """
        node = _DynamicNode(tuple(reduced.variables), parent)
        node.shape_position = len(self.nodes)
        self.nodes.append(node)
        if reduced.atom_index is not None:
            self._by_atom[reduced.atom_index] = node
        for child in reduced.children:
            node.attach(self._build(child, node))
        groups: Dict[tuple, List[tuple]] = {}
        for row in reduced.relation.rows:
            groups.setdefault(node.bucket_key_of_row(row), []).append(row)
        for key, rows in groups.items():
            # Canonical order from the start; later inserts keep it (treap
            # insertion at the sort position), so the dynamic index
            # enumerates exactly like the static index at all times.
            rows.sort(key=row_sort_key)
            # Normalization is injective per atom occurrence (constants
            # and repeated-variable positions are determined by the
            # normalized row), and base relations are sets — so every
            # loaded row is one base fact: multiplicity 1.
            node.buckets[key] = self._bucket_factory(
                [(row, node.own_weight(row), 1) for row in rows]
            )
            for row in rows:
                node.register_row(key, row)
        return node

    # ------------------------------------------------------------------ #
    # Updates (node-level)                                                #
    # ------------------------------------------------------------------ #

    def presence(self, shape_position: int, row: tuple) -> bool:
        """Is ``row`` present (multiplicity > 0) at the given node?"""
        node = self.nodes[shape_position]
        bucket = node.buckets.get(node.bucket_key_of_row(row))
        return bucket is not None and bucket.is_present(row)

    def set_rows_presence(
        self, changes: Sequence[Tuple[int, tuple, bool]]
    ) -> None:
        """Set-semantics presence update: one maintenance pass for many
        ``(shape_position, row, present)`` changes (idempotent each).

        The mc-UCQ maintenance entry point: intersection forests receive
        membership changes, not base facts, so their multiplicities are
        always 0 or 1."""
        ops = []
        for shape_position, row, present in changes:
            if self.presence(shape_position, row) != present:
                ops.append((shape_position, row, +1 if present else -1))
        self.apply_ops(ops)

    def apply_ops(self, ops: Sequence[Tuple[int, tuple, int]]) -> None:
        """Apply a batch of node-row multiplicity deltas in **one pass**.

        ``ops`` is a sequence of ``(shape_position, row, delta)`` — the
        forest's only write path. Several ops on the same node row merge
        into one net delta (set semantics make the final state equal to
        sequential application; a net-zero pair on a fresh row simply
        never materializes, not even as a tombstone).

        The pass is insert-then-propagate with the propagation
        *deduplicated over the dirty bucket paths*: nodes are
        visited children-first (reverse preorder), each touched bucket is
        processed exactly once — new rows grouped, sorted once, and
        bulk-inserted; changed weights recomputed once per child-key
        signature even when many ops hit the same child bucket, and
        written in one :meth:`_DynamicBucket.set_row_weights` pass —
        and a parent recomputes a dependent row at most once per batch
        instead of once per fact. Presence hooks fire once per net
        0↔positive transition, after the structure is fully consistent.
        """
        per_node: Dict[int, Dict[tuple, int]] = {}
        for shape_position, row, delta in ops:
            if delta == 0:
                continue
            rows = per_node.setdefault(shape_position, {})
            rows[row] = rows.get(row, 0) + delta
        if not per_node:
            return
        #: shape position → bucket keys whose total changed this pass.
        dirty: Dict[int, set] = {}
        transitions: List[Tuple[int, tuple, bool]] = []
        for position in range(len(self.nodes) - 1, -1, -1):
            node = self.nodes[position]
            direct = per_node.get(position)
            # Weight-recompute demands flowing up from dirty child buckets
            # (the reverse index lists exactly the rows keyed into each
            # changed bucket; a row is collected once however many of its
            # child buckets changed).
            recompute: Dict[tuple, set] = {}
            for child_position, child in enumerate(node.children):
                child_dirty = dirty.get(child.shape_position)
                if not child_dirty:
                    continue
                table = node.dependents[child_position]
                for child_key in child_dirty:
                    affected = table.get(child_key)
                    if not affected:
                        continue
                    dead = []
                    for parent_key, row in affected:
                        bucket = node.buckets.get(parent_key)
                        if bucket is None or not bucket.has_row(row):
                            dead.append((parent_key, row))  # compacted away
                            continue
                        recompute.setdefault(parent_key, set()).add(row)
                    if dead:
                        affected.difference_update(dead)
            if not direct and not recompute:
                continue
            by_key: Dict[tuple, List[Tuple[tuple, int]]] = {}
            if direct:
                for row, delta in direct.items():
                    by_key.setdefault(node.bucket_key_of_row(row), []).append(
                        (row, delta)
                    )
            for key in set(by_key) | set(recompute):
                changed = self._apply_bucket_batch(
                    node, key, by_key.get(key, ()), recompute.get(key, ()),
                    transitions,
                )
                if changed:
                    dirty.setdefault(position, set()).add(key)
        self._publish()
        for shape_position, row, present in transitions:
            self._notify(self.nodes[shape_position], row, present)

    def _apply_bucket_batch(
        self,
        node: _DynamicNode,
        key: tuple,
        direct: Sequence[Tuple[tuple, int]],
        recompute: Sequence[tuple],
        transitions: List[Tuple[int, tuple, bool]],
    ) -> bool:
        """Process one bucket's share of a batch; ``True`` if its total
        changed (the parent must then recompute its dependent rows).

        ``direct`` carries the net multiplicity deltas landing in this
        bucket, ``recompute`` the rows whose weight must be refreshed
        because a child bucket total changed. Transition records are
        appended to ``transitions`` (fired by the caller at the end).
        """
        bucket = node.buckets.get(key)
        if bucket is None:
            if not any(delta > 0 for __, delta in direct):
                # Pure no-op deletes never allocate a bucket, so
                # delete-misses cannot grow node.buckets.
                return False
            bucket = node.buckets[key] = self._bucket_factory()
        self._mark_dirty(node, key)
        old_total = bucket.total
        # Child totals are final here (children go first), so rows with
        # one weight signature share one weight: compute it once.
        weights: Dict[tuple, int] = {}

        def weight_of(row: tuple) -> int:
            signature = node.weight_signature(row)
            weight = weights.get(signature)
            if weight is None:
                weight = weights[signature] = node.own_weight(row)
            return weight

        touched = set(recompute)
        fresh: List[Tuple[tuple, int]] = []
        for row, delta in direct:
            multiplicity = bucket.multiplicity_of(row)
            if multiplicity is None:
                if delta > 0:
                    fresh.append((row, delta))
                continue  # deleting a row that was never inserted: no-op
            updated = multiplicity + delta
            if updated < 0:
                continue  # deleting a fact that was never inserted
            bucket.set_multiplicity(row, updated)
            if (multiplicity > 0) != (updated > 0):
                transitions.append((node.shape_position, row, updated > 0))
            touched.add(row)
        reweighed: List[Tuple[tuple, int]] = []
        for row in touched:
            multiplicity = bucket.multiplicity_of(row)
            if multiplicity is None:
                continue  # compacted away between collection and now
            reweighed.append((row, weight_of(row) if multiplicity > 0 else 0))
        bucket.set_row_weights(reweighed)
        if fresh:
            fresh.sort(key=lambda entry: row_sort_key(entry[0]))
            bucket.bulk_insert(
                [(row, weight_of(row), delta) for row, delta in fresh]
            )
            for row, __ in fresh:
                node.register_row(key, row)
                transitions.append((node.shape_position, row, True))
        changed = bucket.total != old_total
        self._maybe_compact(bucket)
        return changed

    def _notify(self, node: _DynamicNode, row: tuple, present: bool) -> None:
        if self.on_presence_change is not None:
            self.on_presence_change(node.shape_position, row, present)

    def _maybe_compact(self, bucket: _DynamicBucket) -> None:
        """Compact once tombstones dominate (bounded tombstone growth).

        Only multiplicity-0 rows are dropped: a *present* row with weight
        0 is merely dangling — its base fact exists, and a later insert of
        a join partner must be able to revive it in place. Compaction
        never changes the bucket total (tombstones occupy empty weight
        ranges), so no propagation is needed; stale reverse-index entries
        are cleaned lazily by the next :meth:`apply_ops` that walks them.
        """
        size = len(bucket)
        if size >= COMPACT_MIN_ROWS and bucket.tombstones > self.compact_fraction * size:
            bucket.compact()
            self.compactions += 1

    # ------------------------------------------------------------------ #
    # Snapshot publication (lock-free reads)                              #
    # ------------------------------------------------------------------ #
    # The engine-driven read surface comes from EngineServingMixin over
    # `roots`, the latest snapshot's; a reader that needs one version
    # across several reads pins `self.snapshot` instead.

    @property
    def snapshot(self) -> IndexSnapshot:
        """The latest published :class:`IndexSnapshot` (atomic read).

        Publication is a single reference swap at the end of every
        mutation, so this property always returns a complete, internally
        consistent version — mid-batch it is the pre-batch version.
        """
        return self._snapshot

    def _mark_dirty(self, node: "_DynamicNode", key: tuple) -> None:
        """Remember that a bucket was touched since the last publish."""
        self._dirty.add((node.shape_position, key))

    def _publish(self) -> IndexSnapshot:
        """Publish the current version as an immutable snapshot.

        Incremental: only buckets touched since the last publish are
        re-frozen (an O(1) treap-epoch bump each), untouched buckets share
        their existing frozen view, and clean subtrees share their whole
        snapshot node. The new snapshot becomes visible to readers via
        one atomic attribute swap at the very end.
        """
        if self._snapshot is not None and not self._dirty:
            return self._snapshot
        changed: Dict[int, set] = {}
        for position, key in self._dirty:
            changed.setdefault(position, set()).add(key)
        self._dirty.clear()
        old_nodes = self._snapshot_nodes
        new_nodes: List[Optional[_SnapshotNode]] = [None] * len(self.nodes)

        def rebuild(live: _DynamicNode) -> _SnapshotNode:
            position = live.shape_position
            previous = old_nodes[position] if old_nodes is not None else None
            children = tuple(rebuild(child) for child in live.children)
            dirty_keys = changed.get(position)
            if previous is not None:
                buckets = previous.buckets
                mutated = False
                if dirty_keys:
                    for key in dirty_keys:
                        bucket = live.buckets.get(key)
                        if bucket is None:
                            continue  # marked, but never actually allocated
                        frozen = bucket.freeze()
                        if buckets.get(key) is not frozen:
                            if not mutated:
                                buckets = dict(buckets)
                                mutated = True
                            buckets[key] = frozen
                if not mutated and all(
                    c is p for c, p in zip(children, previous.children)
                ):
                    new_nodes[position] = previous
                    return previous
            else:
                buckets = {
                    key: bucket.freeze() for key, bucket in live.buckets.items()
                }
            node = _SnapshotNode(
                live.columns, children, live.child_key_positions, buckets
            )
            new_nodes[position] = node
            return node

        roots = [rebuild(root) for root in self._live_roots]
        self._snapshot_nodes = new_nodes
        self.publishes += 1
        snapshot = IndexSnapshot(
            roots, self.head_variables, self.publishes, store=self.store
        )
        self._snapshot = snapshot  # the atomic publication point
        return snapshot


class DynamicCQIndex(DynamicJoinForest):
    """A random-access index over a full acyclic CQ, under updates.

    The query-level wrapper of :class:`DynamicJoinForest`: validates the
    query, reduces it (reducer off — see the module notes), and routes
    base-fact :meth:`insert` / :meth:`delete` calls to the node rows of
    every atom occurrence through the atoms' constant/repeated-variable
    normalization.

    Parameters
    ----------
    query:
        A *full* free-connex (equivalently here: acyclic) CQ. Atoms may
        carry constants and repeated variables — normalization happens in
        the reduction layer, the same code path the static index uses.
    database:
        The initial database (may be empty; relations must exist with the
        right arities).
    on_presence_change, compact_fraction, store:
        Forwarded to :class:`DynamicJoinForest`.
    """

    #: The service's capability marker: entries with this flag absorb
    #: mutations in place instead of invalidating.
    supports_updates = True

    def __init__(
        self,
        query: ConjunctiveQuery,
        database: Database,
        on_presence_change: Optional[PresenceHook] = None,
        compact_fraction: float = DEFAULT_COMPACT_FRACTION,
        store: Optional[str] = None,
    ):
        report = free_connex_report(query)
        if not report.tractable:
            raise NotFreeConnexError(query, report.classification())
        if not query.is_full():
            raise NotFreeConnexError(
                query,
                "free-connex but not full; the dynamic index supports full "
                "acyclic joins (maintaining Proposition 4.2's projection "
                "under updates is the Dynamic Yannakakis problem)",
            )
        self.query = query

        # Proposition 4.2's normalization, with the Yannakakis reducer off:
        # dangling tuples must stay in their buckets (weight zero) so a
        # later insert of a join partner can revive them in place.
        reduced = reduce_to_full_acyclic(query, database, reduce=False)
        super().__init__(
            reduced,
            on_presence_change=on_presence_change,
            compact_fraction=compact_fraction,
            store=store,
        )
        # Which atom occurrences does a base relation feed?
        self._routes: Dict[str, List[int]] = {}
        for position, atom in enumerate(query.body):
            self._routes.setdefault(atom.relation, []).append(position)
        self._atoms = list(query.body)

    # ------------------------------------------------------------------ #
    # Updates (base facts)                                                #
    # ------------------------------------------------------------------ #

    def insert(self, relation: str, row: tuple) -> None:
        """Insert a base fact: a one-op :meth:`apply_delta`."""
        self.apply_delta([("insert", relation, row)])

    def delete(self, relation: str, row: tuple) -> None:
        """Delete a base fact (no-op for facts that were never inserted):
        a one-op :meth:`apply_delta`."""
        self.apply_delta([("delete", relation, row)])

    def apply_delta(self, delta) -> None:
        """Absorb a whole write batch in one maintenance pass.

        ``delta`` is a :class:`~repro.database.delta.Delta` (or any
        iterable of ``(op, relation, row)`` triples); facts over relations
        this query does not mention are skipped. All atom-occurrence rows
        are routed first, then :meth:`apply_ops` runs the single grouped
        insert + deduplicated propagation pass — the amortization that
        makes a 10⁴-fact batch cost far less than 10⁴ one-op batches —
        and publishes a fresh :class:`IndexSnapshot` once the structure
        is fully consistent again, so concurrent snapshot readers never
        see the batch half-applied. The result enumerates, order for
        order, like a fresh static build over the updated database (the
        batch property tests assert exactly this, for one N-op batch and
        for N one-op batches).
        """
        ops: List[Tuple[int, tuple, int]] = []
        for op, relation, row in delta:
            routes = self._routes.get(relation)
            if not routes:
                continue
            sign = +1 if op == "insert" else -1
            row = tuple(row)
            for atom_index in routes:
                normalized = self._normalize(atom_index, row)
                if normalized is not None:
                    ops.append(
                        (self._by_atom[atom_index].shape_position, normalized, sign)
                    )
        self.apply_ops(ops)

    def _normalize(self, atom_index: int, row: tuple) -> Optional[tuple]:
        """Apply the atom's constants/repeated-variable filters to a fact,
        returning the node row (sorted-variable order) or ``None``."""
        atom = self._atoms[atom_index]
        if len(row) != atom.arity:
            raise ValueError(
                f"fact arity {len(row)} does not match atom {atom} arity {atom.arity}"
            )
        from repro.query.atoms import Constant

        assignment: Dict[str, object] = {}
        for term, value in zip(atom.terms, row):
            if isinstance(term, Constant):
                if term.value != value:
                    return None
            else:
                seen = assignment.get(term.name, _UNSET)
                if seen is _UNSET:
                    assignment[term.name] = value
                elif seen != value:
                    return None
        node = self._by_atom[atom_index]
        return tuple(assignment[c] for c in node.columns)

    def __repr__(self) -> str:
        return f"DynamicCQIndex({self.query.name}, count={self.count})"


_UNSET = object()
