"""Order-maintained weighted rows: the bucket structure behind dynamic
canonical-order serving.

The static index of Algorithm 2 sorts every bucket once and stores prefix
sums; the first dynamic index kept positions *stable* instead (Fenwick
trees over append-ordered rows), which sacrificed the canonical global
sort that mc-UCQ compatibility (Section 5.2) relies on — a row inserted
after the build appended at its bucket's tail. This module restores the
canonical order under churn: an :class:`OrderedWeightTree` is a treap
(randomized balanced BST) over rows keyed by
:func:`~repro.database.relation.row_sort_key`, augmented with subtree
weight sums, so that

* ``insert_row`` places a new row at its canonical sort position in
  expected O(log n);
* ``set_weights`` adjusts many rows' weights in one pass: each changed
  row's spine is path-copied once, and each subtotal on the union of
  their root paths is updated once, children first — expected
  O(log n) for one row, and little more for a run of adjacent rows
  (``set_weight`` is the one-row case);
* :meth:`from_sorted` bulk-builds a perfectly balanced tree from
  canonically sorted input in O(n) — *including* the priorities: they are
  generated already descending (sequential uniform order statistics, see
  :func:`_descending_priorities`) and assigned in BFS order so the heap
  invariant holds by construction, with no O(n log n) priority sort;
  later random-priority inserts keep the expected balance;
* :meth:`insert_sorted` bulk-inserts a canonically sorted batch of new
  rows: small batches insert one by one (expected O(k log n)), batches
  comparable to the tree merge-and-rebuild in O(n + k), reusing the
  existing :class:`TreeRow` objects so outstanding handles stay valid.

Tree nodes also carry the row's *multiplicity* (how many base facts
normalize to it — the bucket-level bookkeeping of
:mod:`repro.core.dynamic`), so the bucket needs no side tables beyond its
row → node handle map. Deleting to multiplicity 0 keeps the node as a
zero-weight tombstone (positions of the surviving rows are unaffected
because the tombstone's weight range is empty); :meth:`compacted` rebuilds
the tree without tombstones once they dominate.

Priorities come from a module-level seeded PRNG, so tree shapes — and
therefore performance, though never enumeration order, which is fixed by
the keys — are reproducible across runs.

Snapshot isolation (persistence on the write path)
--------------------------------------------------
:meth:`OrderedWeightTree.snapshot` freezes the current tree in O(1): it
bumps the tree's *epoch* and wraps the root in a
:class:`SnapshotBucketStore`, the tree's one read surface. Every node
carries the epoch it was created in (``stamp``); a mutation may only edit
nodes stamped with the current epoch, so after a snapshot the write path
**path-copies** the O(log n) spine from the root down to the touched node
instead of editing shared nodes in place. A frozen root therefore denotes
an immutable tree version: its ``left``/``right``/``key``/``row``/
``weight``/``subtotal`` fields never change again, and readers can
traverse it with zero synchronization while the writer keeps mutating the
live tree. The live tree itself answers no reads: a dynamic index serves
every read from its latest published snapshot.

Two deliberate exceptions keep the write path cheap, both invisible to
snapshot readers (who navigate root-down and never read these fields):

* ``parent`` pointers always describe the **live** tree — cloning a node
  re-points its (possibly shared) children's parents at the clone;
* ``multiplicity`` is writer bookkeeping (tombstone accounting) and may
  be adjusted in place on a shared node.

Handles churn under path copying: a clone replaces the original node in
the live tree, so the owning bucket re-points its row → node map through
the :attr:`OrderedWeightTree.on_clone` callback. Within one
:meth:`OrderedWeightTree.set_weights` batch, copying an earlier row's
spine may clone a later row's node, so the bucket resolves each handle
through its map only when that handle is written.
"""

from __future__ import annotations

import random
from typing import (
    Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple,
)

from repro.database.relation import row_sort_key

#: Deterministic priority source: tree shapes are reproducible run-to-run.
_PRIORITIES = random.Random(0x5EED)


def _descending_priorities(n: int) -> "List[float]":
    """``n`` uniform draws, already sorted descending, in O(n).

    The classic sequential order-statistics scheme: the largest of ``n``
    uniforms is distributed as ``U^(1/n)``, and conditioned on it the next
    largest is that times ``U^(1/(n-1))``, and so on — so generating
    ``current *= U^(1/remaining)`` with ``remaining`` counting down yields
    exactly the descending sorted sequence of ``n`` i.i.d. uniforms,
    without drawing them all and paying an O(n log n) sort. Distributional
    fidelity matters: later single inserts draw plain uniforms and compete
    against these priorities, so bulk-built trees must look like they grew
    from random inserts for the treap's expected balance to hold.
    """
    out: List[float] = []
    current = 1.0
    for remaining in range(n, 0, -1):
        current *= _PRIORITIES.random() ** (1.0 / remaining)
        out.append(current)
    return out


class TreeRow:
    """One row of an :class:`OrderedWeightTree`.

    ``weight`` is the Algorithm-2 weight ``w(t)`` (0 for dangling rows and
    tombstones); ``multiplicity`` counts the base facts normalizing to the
    row (0 marks a tombstone). ``subtotal`` caches the subtree weight sum.
    ``stamp`` is the tree epoch the node was created (or cloned) in — a
    node whose stamp trails the tree's current epoch is frozen into at
    least one snapshot and must be path-copied before mutation.
    """

    __slots__ = ("row", "key", "weight", "multiplicity", "priority",
                 "left", "right", "parent", "subtotal", "stamp")

    def __init__(self, row: tuple, weight: int, multiplicity: int,
                 priority: float, stamp: int = 0):
        self.row = row
        self.key = row_sort_key(row)
        self.weight = weight
        self.multiplicity = multiplicity
        self.priority = priority
        self.left: Optional["TreeRow"] = None
        self.right: Optional["TreeRow"] = None
        self.parent: Optional["TreeRow"] = None
        self.subtotal = weight
        self.stamp = stamp

    def __repr__(self) -> str:
        return (f"TreeRow({self.row!r}, weight={self.weight}, "
                f"multiplicity={self.multiplicity})")


def _subtotal_of(node: Optional[TreeRow]) -> int:
    return node.subtotal if node is not None else 0


class OrderedWeightTree:
    """A treap over rows in canonical order, augmented with weight sums.

    Mutations are persistent with respect to outstanding snapshots: after
    :meth:`snapshot`, the write path copies the spine it touches (see the
    module notes). ``on_clone``, when set, is called with every clone so
    the owning bucket can re-point its row → node handle map.
    :meth:`set_weights` re-weights a batch of rows with one subtotal
    pass over the union of their root paths.
    """

    __slots__ = ("root", "size", "epoch", "on_clone")

    def __init__(self):
        self.root: Optional[TreeRow] = None
        self.size = 0
        #: Current write epoch; nodes stamped earlier are frozen.
        self.epoch = 0
        #: Optional clone observer: ``on_clone(new_node)``.
        self.on_clone: Optional[Callable[[TreeRow], None]] = None

    # ------------------------------------------------------------------ #
    # Construction                                                        #
    # ------------------------------------------------------------------ #

    @classmethod
    def from_sorted(
        cls, rows: Sequence[Tuple[tuple, int, int]]
    ) -> Tuple["OrderedWeightTree", List[TreeRow]]:
        """Bulk-build from canonically sorted ``(row, weight, multiplicity)``.

        O(n) all in: tree construction is one balanced recursion and the
        priorities arrive pre-sorted from :func:`_descending_priorities`
        (no O(n log n) sort). Returns the tree and the created nodes (in
        input order) so the caller can fill its row → node map without a
        second traversal. The balanced shape is a valid treap: priorities
        are assigned largest-first along a breadth-first traversal, so
        every parent outranks its children.
        """
        nodes = [TreeRow(row, weight, multiplicity, 0.0) for row, weight, multiplicity in rows]
        return cls._over_nodes(nodes), nodes

    @classmethod
    def _over_nodes(cls, nodes: "List[TreeRow]") -> "OrderedWeightTree":
        """A balanced tree over existing, key-sorted ``TreeRow`` objects.

        The node objects are *reused* — their ``left``/``right``/``parent``
        pointers, subtotals, and priorities are overwritten — so handles
        held by callers (bucket rank maps) stay valid across a rebuild.
        """
        tree = cls()
        n = len(nodes)
        if n == 0:
            return tree

        def build(lo: int, hi: int) -> Optional[TreeRow]:
            if lo >= hi:
                return None
            mid = (lo + hi) // 2
            node = nodes[mid]
            node.left = build(lo, mid)
            node.right = build(mid + 1, hi)
            node.subtotal = node.weight
            for child in (node.left, node.right):
                if child is not None:
                    child.parent = node
                    node.subtotal += child.subtotal
            return node

        tree.root = build(0, n)
        tree.root.parent = None
        tree.size = n

        priorities = _descending_priorities(n)
        # BFS order without O(n²) pops: an explicit index cursor.
        order: List[TreeRow] = [tree.root]
        cursor = 0
        while cursor < len(order):
            node = order[cursor]
            cursor += 1
            if node.left is not None:
                order.append(node.left)
            if node.right is not None:
                order.append(node.right)
        for node, priority in zip(order, priorities):
            node.priority = priority
        return tree

    # ------------------------------------------------------------------ #
    # Queries                                                             #
    # ------------------------------------------------------------------ #

    @property
    def total(self) -> int:
        """The sum of all weights (the bucket weight ``w(B)``)."""
        return self.root.subtotal if self.root is not None else 0

    def __len__(self) -> int:
        return self.size

    def __iter__(self) -> Iterator[TreeRow]:
        """All nodes (tombstones included) in canonical order."""
        stack: List[TreeRow] = []
        node = self.root
        while stack or node is not None:
            while node is not None:
                stack.append(node)
                node = node.left
            node = stack.pop()
            yield node
            node = node.right

    # The handle accessors the owning bucket reads and writes through;
    # :class:`~repro.core.flat_store.FlatOrderTree` supplies the same ones
    # over row-id handles.

    @staticmethod
    def row_weight(node: TreeRow) -> int:
        return node.weight

    @staticmethod
    def row_multiplicity(node: TreeRow) -> int:
        return node.multiplicity

    @staticmethod
    def set_multiplicity(node: TreeRow, multiplicity: int) -> None:
        """In-place write: writer bookkeeping, invisible to snapshots."""
        node.multiplicity = multiplicity

    # ------------------------------------------------------------------ #
    # Snapshots (persistence)                                             #
    # ------------------------------------------------------------------ #

    def snapshot(self) -> "SnapshotBucketStore":
        """Freeze the current tree version in O(1); returns its frozen view.

        Bumps the epoch, so every node reachable from the view's root is
        immutable from now on (later mutations path-copy their spines —
        see the module notes).
        """
        self.epoch += 1
        return SnapshotBucketStore(self.root)

    def _clone(self, node: TreeRow) -> TreeRow:
        """A current-epoch copy of ``node`` (pointers copied verbatim)."""
        copy = TreeRow.__new__(TreeRow)
        copy.row = node.row
        copy.key = node.key
        copy.weight = node.weight
        copy.multiplicity = node.multiplicity
        copy.priority = node.priority
        copy.left = node.left
        copy.right = node.right
        copy.parent = node.parent
        copy.subtotal = node.subtotal
        copy.stamp = self.epoch
        return copy

    def _own_child(self, parent: Optional[TreeRow], node: TreeRow) -> TreeRow:
        """``node``, made safe to mutate in the current epoch.

        ``parent`` must already be owned (or ``None`` for the root): a
        frozen ``node`` is cloned, the clone replaces it under ``parent``,
        and the (possibly shared) children's parent pointers are re-aimed
        at the clone — parent pointers describe the live tree only.
        """
        if node.stamp == self.epoch:
            return node
        clone = self._clone(node)
        if parent is None:
            self.root = clone
        elif parent.left is node:
            parent.left = clone
        else:
            parent.right = clone
        clone.parent = parent
        if clone.left is not None:
            clone.left.parent = clone
        if clone.right is not None:
            clone.right.parent = clone
        if self.on_clone is not None:
            self.on_clone(clone)
        return clone

    def _owned(self, node: TreeRow) -> TreeRow:
        """An owned version of ``node``, path-copying its frozen spine.

        Ownership is always established root-down, so an owned node's
        ancestors are owned too: the copy starts below the first owned
        ancestor, not at the root.
        """
        epoch = self.epoch
        if node.stamp == epoch:
            return node
        chain = [node]
        owned = node.parent
        while owned is not None and owned.stamp != epoch:
            chain.append(owned)
            owned = owned.parent
        for current in reversed(chain):
            owned = self._own_child(owned, current)
        return owned

    # ------------------------------------------------------------------ #
    # Updates                                                             #
    # ------------------------------------------------------------------ #

    def set_weight(self, node: TreeRow, weight: int) -> TreeRow:
        """Set one row's weight: the one-pair :meth:`set_weights`.

        Returns the (possibly cloned) node carrying the new weight — under
        snapshot isolation the handle may change, and callers tracking
        handles must keep the returned one (``on_clone`` fires for every
        spine clone as well).
        """
        return self.set_weights(((node, weight),))[0]

    def set_weights(
        self, updates: Iterable[Tuple[TreeRow, int]]
    ) -> List[TreeRow]:
        """Set many rows' weights in one pass; returns, per update, the
        node carrying its weight (a clone when the node was frozen).

        ``updates`` is consumed in order and each handle must be live
        when it is drawn: copying an earlier row's spine may clone a
        later row's node, so a caller that tracks handles through
        ``on_clone`` passes a lazy iterable that looks each one up then.
        An unchanged weight is a no-op. Each changed node's frozen spine
        is path-copied and its weight written; then each subtotal on the
        union of the changed nodes' root paths is updated once, children
        first, by the whole weight change below it.
        """
        marked: Set[TreeRow] = set()
        # Per changed node: its weight change, its path up to the first
        # marked ancestor, and that ancestor (None past the root).
        paths = []
        written = []
        for node, weight in updates:
            delta = weight - node.weight
            if delta:
                node = self._owned(node)
                node.weight = weight
                path = []
                current: Optional[TreeRow] = node
                while current is not None and current not in marked:
                    path.append(current)
                    current = current.parent
                marked.update(path)
                paths.append((delta, path, current))
            written.append(node)
        # A later path hangs below an earlier one, so reading the paths
        # last-first, each bottom-up, reaches every node after all of its
        # marked descendants; ``carry`` holds what they pass up to it.
        carry: Dict[TreeRow, int] = {}
        for delta, path, above in reversed(paths):
            for node in path:
                if carry:
                    delta += carry.pop(node, 0)
                node.subtotal += delta
            if above is not None:
                carry[above] = carry.get(above, 0) + delta
        return written

    def insert_row(self, row: tuple, weight: int, multiplicity: int) -> TreeRow:
        """Insert a new row at its canonical sort position (expected O(log)).

        The caller guarantees ``row`` is not already present (buckets keep
        a row → node map and call :meth:`set_weight` for known rows).
        """
        node = TreeRow(row, weight, multiplicity, _PRIORITIES.random(), self.epoch)
        self.size += 1
        if self.root is None:
            self.root = node
            return node
        # BST descent to the leaf position, owning the spine and bumping
        # subtree sums on the way.
        key = node.key
        current = self._own_child(None, self.root)
        while True:
            current.subtotal += weight
            if key < current.key:
                if current.left is None:
                    current.left = node
                    break
                current = self._own_child(current, current.left)
            else:
                if current.right is None:
                    current.right = node
                    break
                current = self._own_child(current, current.right)
        node.parent = current
        # Rotate up while the heap invariant is violated (the rotation
        # only mutates the new node and its owned spine).
        while node.parent is not None and node.priority > node.parent.priority:
            self._rotate_up(node)
        return node

    def _rotate_up(self, node: TreeRow) -> None:
        """One rotation promoting ``node`` above its parent."""
        parent = node.parent
        grand = parent.parent
        if parent.left is node:
            parent.left = node.right
            if node.right is not None:
                node.right.parent = parent
            node.right = parent
        else:
            parent.right = node.left
            if node.left is not None:
                node.left.parent = parent
            node.left = parent
        parent.parent = node
        node.parent = grand
        if grand is None:
            self.root = node
        elif grand.left is parent:
            grand.left = node
        else:
            grand.right = node
        # Only the two rotated nodes' subtotals change; recompute bottom-up.
        parent.subtotal = (parent.weight + _subtotal_of(parent.left)
                           + _subtotal_of(parent.right))
        node.subtotal = (node.weight + _subtotal_of(node.left)
                         + _subtotal_of(node.right))

    def insert_sorted(
        self, entries: Sequence[Tuple[tuple, int, int]]
    ) -> List[TreeRow]:
        """Bulk-insert canonically sorted new rows; returns their nodes.

        The caller guarantees the entries are sorted by
        :func:`~repro.database.relation.row_sort_key` and that none of the
        rows is already present. Small batches fall back to individual
        treap inserts (expected O(k log n)); batches comparable to the
        tree size merge the new nodes with the existing in-order sequence
        and rebuild in O(n + k) via :meth:`_over_nodes` — current-epoch
        ``TreeRow`` objects are reused (outstanding handles stay valid),
        while nodes frozen into a snapshot are cloned first (``on_clone``
        fires for each, so handle maps follow).
        """
        k = len(entries)
        if k == 0:
            return []
        n = self.size
        if n and k * (n + k).bit_length() <= n + k:
            return [
                self.insert_row(row, weight, multiplicity)
                for row, weight, multiplicity in entries
            ]
        epoch = self.epoch
        new_nodes = [
            TreeRow(row, weight, multiplicity, 0.0, epoch)
            for row, weight, multiplicity in entries
        ]
        merged: List[TreeRow] = []
        fresh = iter(new_nodes)
        pending = next(fresh)
        for node in self:
            while pending is not None and pending.key < node.key:
                merged.append(pending)
                pending = next(fresh, None)
            if node.stamp != epoch:
                # Frozen into a snapshot: the rebuild below overwrites
                # every pointer and priority, so it must work on a copy.
                node = self._clone(node)
                if self.on_clone is not None:
                    self.on_clone(node)
            merged.append(node)
        if pending is not None:
            merged.append(pending)
            merged.extend(fresh)
        rebuilt = OrderedWeightTree._over_nodes(merged)
        self.root, self.size = rebuilt.root, rebuilt.size
        return new_nodes

    def compacted(self) -> Tuple["OrderedWeightTree", List[Tuple[tuple, TreeRow]]]:
        """A rebuilt tree containing only the live (multiplicity > 0) rows.

        Tombstones carry weight 0, so the rebuilt tree has the same total
        and the same enumeration order over live rows — compaction is
        invisible to every reader. Returns the new tree and its
        ``(row, node)`` pairs so the caller can re-point its row → node
        map.
        """
        live = [(n.row, n.weight, n.multiplicity) for n in self if n.multiplicity > 0]
        tree, nodes = OrderedWeightTree.from_sorted(live)
        return tree, [(node.row, node) for node in nodes]


class SnapshotBucketStore:
    """The read-only :class:`~repro.core.access_engine.BucketStore` over
    one frozen :class:`OrderedWeightTree` version.

    Wraps the root captured by :meth:`OrderedWeightTree.snapshot`: every
    node reachable from it is immutable (the live tree path-copies around
    frozen nodes), so every engine walk can run against this store with
    **zero synchronization** while a writer keeps mutating the live
    bucket. Traversal is strictly root-down — parent pointers and
    multiplicities belong to the live tree and are never read here.

    Offsets resolve by an order-statistic descent; ``rank_before`` is a
    key-guided descent — within a bucket, equal sort keys imply equal
    rows, so it is deterministic.
    """

    __slots__ = ("root", "total")

    #: Frozen dynamic buckets hold zero-weight tombstones, so bucket-local
    #: offsets are not row positions — the engine must locate.
    unit_leaf = False

    def __init__(self, root: Optional[TreeRow]):
        self.root = root
        self.total = root.subtotal if root is not None else 0

    def __len__(self) -> int:
        count = 0
        for __ in self.iter_rows():
            count += 1
        return count

    def locate_run(self, offset: int) -> Tuple[tuple, int, int]:
        if not 0 <= offset < self.total:
            raise IndexError(f"offset {offset} outside [0, {self.total})")
        node = self.root
        start = 0
        remaining = offset
        while True:
            left = node.left
            left_total = left.subtotal if left is not None else 0
            if remaining < left_total:
                node = left
                continue
            remaining -= left_total
            start += left_total
            if remaining < node.weight:
                return node.row, start, node.weight
            remaining -= node.weight
            start += node.weight
            node = node.right

    def rank_start(self, row: tuple) -> Optional[int]:
        before, present = self.rank_before(row)
        return before if present else None

    def rank_before(self, row: tuple) -> Tuple[int, bool]:
        key = row_sort_key(row)
        node = self.root
        before = 0
        while node is not None:
            left = node.left
            if key < node.key:
                node = left
            elif node.key < key:
                before += (left.subtotal if left is not None else 0) + node.weight
                node = node.right
            else:
                if left is not None:
                    before += left.subtotal
                # Weight 0 is the dangling/tombstone case.
                return before, node.weight > 0 and node.row == row
        return before, False

    def iter_rows(self) -> Iterator[Tuple[tuple, int]]:
        stack: List[TreeRow] = []
        node = self.root
        while stack or node is not None:
            while node is not None:
                stack.append(node)
                node = node.left
            node = stack.pop()
            yield node.row, node.weight
            node = node.right
