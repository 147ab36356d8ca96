"""The shared access engine: one mixed-radix SplitIndex walk over every
bucket store.

Algorithms 3 and 4 (and their amortized batched variant) are walks over a
join forest whose *shape* logic — splitting an index across roots and
children like a multidimensional array subscript, recombining child
offsets on the way back up — is identical for every index in this library.
What differs is only the **bucket primitive**: the static index resolves
offsets with a binary search over prefix-sum arrays
(:class:`repro.core.index._Bucket`), the dynamic index with a descent of
a frozen order-maintained weighted tree
(:class:`repro.core.order_tree.SnapshotBucketStore`). Scalar access, the
batched walk, inverted access, in-order enumeration, and the order rank
Algorithm 8 needs (:func:`rank_walk`) are written once below, over the
:class:`BucketStore` protocol, and :class:`EngineServingMixin` is the one
read surface over them: the static :class:`~repro.core.cq_index.CQIndex`,
the dynamic forest and its published snapshots all serve through it — the
dynamic forest from its latest snapshot, so no walk ever visits a live
(writer-owned) bucket.

Node protocol
-------------
A forest node must provide ``columns`` (the variable names its rows bind),
``children`` (ordered child nodes), ``buckets`` (a dict from bucket key to
a :class:`BucketStore`), and ``child_bucket_key(row, child_position)``
(project one of its rows to the child's bucket key).

The engine never materializes per-item state: batched items travel as
sorted ``(index, payload)`` pairs, offsets are carried as shifts, and one
shared ``acc`` dict holds the column bindings of the current root-to-leaf
path (see ``batch_walk``).
"""

from __future__ import annotations

import json
import random
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    runtime_checkable,
)

import numpy as _np

from repro.core import flat_store as _flat_store
from repro.core.errors import OutOfBoundError
# Defined beside its treap; importable here too, where serve-state
# checkpoints pickled before the move look it up.
from repro.core.order_tree import SnapshotBucketStore  # noqa: F401


@runtime_checkable
class BucketStore(Protocol):
    """The bucket primitive the walks are parameterized over.

    Implementations: the static prefix-array/bisect buckets
    (:class:`repro.core.index._Bucket`,
    :class:`repro.core.flat_store.FlatBucketStore`) and the frozen views
    of the two dynamic treaps
    (:class:`repro.core.order_tree.SnapshotBucketStore`,
    :class:`repro.core.flat_store.FlatSnapshotStore`). A live dynamic
    bucket is write-only and implements none of it.
    """

    #: Class-level flag: ``True`` when every row of a *childless* node's
    #: bucket is guaranteed weight 1 (the static index — Algorithm 2 with
    #: no children), so a bucket-local offset *is* a row position and the
    #: walk may index the store's ``rows`` sequence directly instead of
    #: calling :meth:`locate_run`. A ``unit_leaf`` store must therefore
    #: also expose positional ``rows``. Frozen dynamic buckets hold
    #: zero-weight tombstones (and no positional row list) and set this
    #: ``False``.
    unit_leaf: bool

    @property
    def total(self) -> int:
        """The bucket weight ``w(B)`` — sum of its row weights."""

    def locate_run(self, offset: int) -> Tuple[tuple, int, int]:
        """The row whose index range contains ``offset``.

        Returns ``(row, start, weight)`` with ``start ≤ offset <
        start + weight`` — one call resolves everything a walk needs for a
        whole run of offsets inside the row's range. Zero-weight rows
        occupy empty ranges and are never located. Requires
        ``0 ≤ offset < total``.
        """

    def rank_start(self, row: tuple) -> Optional[int]:
        """``startIndex(row)``, or ``None`` when the row does not
        participate (absent from the bucket, or present with weight 0 —
        the paper's dangling case)."""

    def rank_before(self, row: tuple) -> Tuple[int, bool]:
        """``(before, present)``: the total weight of the rows strictly
        before ``row`` in bucket order — its ``startIndex`` were it here —
        and whether it participates (present with weight > 0). Unlike
        :meth:`rank_start` the row need not be in the bucket; the order is
        :func:`~repro.database.relation.row_sort_key`, so the bucket must
        be canonically sorted."""

    def iter_rows(self) -> Iterator[Tuple[tuple, int]]:
        """``(row, weight)`` pairs in enumeration order, zero-weight rows
        included (callers skip them)."""


# ---------------------------------------------------------------------- #
# Vectorized batched access (the columnar fast path)                      #
# ---------------------------------------------------------------------- #


def vector_batch(
    roots: Sequence, indices: Sequence[int], project: Optional[Sequence[str]]
) -> Optional[List[object]]:
    """The columnar batch walk, or ``None`` when it does not apply.

    When every root carries flat arrays (``store="flat"``), the whole
    batch resolves through :func:`repro.core.flat_store.flat_batch` — one
    ``searchsorted`` + one gather per node level for the entire offset
    array instead of a python loop per answer. Any store that only speaks
    the scalar protocol (tuple buckets, dynamic trees, snapshots, or a
    flat build that fell back on overflow) returns ``None`` and the caller
    proceeds with :func:`batch_walk` — dispatch is transparent. Small
    batches also fall back: numpy's fixed per-call overhead beats the
    vector win under :data:`repro.core.flat_store.VECTOR_MIN` positions.
    :func:`vectorizable` is the one place that decides the columnar path.
    Bounds are the caller's responsibility, as in :func:`batch_walk`.
    """
    if not vectorizable(roots, indices):
        return None
    return _flat_store.flat_batch(roots, indices, project)


def vectorizable(roots: Sequence, indices: Sequence[int]) -> bool:
    """Does a batch of ``indices`` over ``roots`` take the columnar walk?"""
    return (
        bool(roots)
        and len(indices) >= _flat_store.VECTOR_MIN
        and all(getattr(root, "flat", None) is not None for root in roots)
    )


# ---------------------------------------------------------------------- #
# Counting                                                                #
# ---------------------------------------------------------------------- #


def forest_count(roots: Sequence) -> int:
    """``|Q(D)|``: the product of the roots' ``()``-bucket weights."""
    count = 1
    for root in roots:
        bucket = root.buckets.get(())
        count *= bucket.total if bucket is not None else 0
    return count


# ---------------------------------------------------------------------- #
# Algorithm 3 — scalar random access                                      #
# ---------------------------------------------------------------------- #


def scalar_walk(roots: Sequence, index: int, assignment: Dict[str, object]) -> None:
    """Bind the answer at ``index`` into ``assignment`` (caller checks
    bounds against :func:`forest_count` first)."""
    remaining = index
    # Split the global index across roots; the last root is the least
    # significant digit, mirroring SplitIndex over children.
    parts: List[int] = []
    for root in reversed(roots):
        total = root.buckets[()].total
        parts.append(remaining % total)
        remaining //= total
    for root, part in zip(roots, reversed(parts)):
        _subtree_scalar(root, (), part, assignment)


def _subtree_scalar(node, key: tuple, index: int, assignment: Dict[str, object]) -> None:
    bucket = node.buckets[key]
    row, start, __ = bucket.locate_run(index)
    for column, value in zip(node.columns, row):
        assignment[column] = value
    remaining = index - start
    # SplitIndex: the last child takes the modulus.
    parts: List[int] = []
    for child_position in range(len(node.children) - 1, -1, -1):
        child = node.children[child_position]
        child_key = node.child_bucket_key(row, child_position)
        total = child.buckets[child_key].total
        parts.append(remaining % total)
        remaining //= total
    parts.reverse()
    for child_position, child in enumerate(node.children):
        child_key = node.child_bucket_key(row, child_position)
        _subtree_scalar(child, child_key, parts[child_position], assignment)


# ---------------------------------------------------------------------- #
# Batched random access (amortized Algorithm 3)                           #
# ---------------------------------------------------------------------- #


def sorted_items(indices: Sequence[int]) -> List[Tuple[int, int]]:
    """``(position, slot)`` pairs sorted by position (ties by slot).

    Duplicate positions stay adjacent and simply resolve twice. Large
    batches sort through a numpy argsort — for batches of 10⁵ positions
    the sort is otherwise a third of the total batch cost.
    """
    if len(indices) >= 2048:
        try:
            array = _np.fromiter(indices, dtype=_np.int64, count=len(indices))
        except OverflowError:
            # Answer counts are polynomial in |D| and can exceed 2^63
            # (e.g. wide cartesian products); such positions sort fine as
            # Python ints.
            return sorted(zip(indices, range(len(indices))))
        order = _np.argsort(array, kind="stable")
        return list(zip(array[order].tolist(), order.tolist()))
    return sorted(zip(indices, range(len(indices))))


def digit_groups(
    items: List[Tuple[int, object]], shift: int, suffix: int
) -> List[Tuple[int, List[Tuple[int, object]]]]:
    """Group sorted (index, payload) items by ``(index - shift) // suffix``.

    The quotient is the digit consumed at the current level of the
    mixed-radix SplitIndex decomposition; the remainders (still sorted)
    travel as each group's payload to the next level. Sorted input makes
    equal digits contiguous, so grouping is a single linear scan.
    """
    groups: List[Tuple[int, List[Tuple[int, object]]]] = []
    i = 0
    n = len(items)
    while i < n:
        quotient, remainder = divmod(items[i][0] - shift, suffix)
        rest: List[Tuple[int, object]] = [(remainder, items[i][1])]
        i += 1
        while i < n:
            q, r = divmod(items[i][0] - shift, suffix)
            if q != quotient:
                break
            rest.append((r, items[i][1]))
            i += 1
        groups.append((quotient, rest))
    return groups


def make_batch_finish(
    out: List[object], acc: Dict[str, object], project: Optional[Sequence[str]]
):
    """The per-item completion callback for :func:`batch_walk`.

    Materializes ``out[slot]`` from the fully bound ``acc`` — as a dict
    copy when ``project`` is ``None``, else as the tuple of the projected
    variables' values. The returned callable carries a ``leaf_group``
    attribute, the fused terminal fast path :func:`batch_walk` fires when
    a ``unit_leaf`` bucket ends the walk: it writes a whole group of
    answers in one loop, and (under ``project``) skips the dict writes for
    the leaf's own columns via a per-group plan that splits each output
    position into "from this row" vs "already bound upstream".
    """
    if project is None:
        def finish(slot: int) -> None:
            out[slot] = dict(acc)
    elif len(project) == 0:
        def finish(slot: int) -> None:
            out[slot] = ()
    elif len(project) == 1:
        name = project[0]

        def finish(slot: int) -> None:
            out[slot] = (acc[name],)
    else:
        from operator import itemgetter

        getter = itemgetter(*project)

        def finish(slot: int) -> None:
            out[slot] = getter(acc)

    def finish_leaf_group(
        items: List[Tuple[int, int]],
        rows: Sequence[tuple],
        columns: Tuple[str, ...],
        shift: int,
    ) -> None:
        if project is None:
            update = acc.update
            for position, slot in items:
                update(zip(columns, rows[position - shift]))
                out[slot] = dict(acc)
            return
        col_position = {c: i for i, c in enumerate(columns)}
        plan = [
            (col_position[name], None) if name in col_position else (None, acc[name])
            for name in project
        ]
        for position, slot in items:
            row = rows[position - shift]
            out[slot] = tuple(
                [row[p] if p is not None else v for p, v in plan]
            )

    finish.leaf_group = finish_leaf_group
    return finish


def batch_walk(
    roots: Sequence,
    items: List[Tuple[int, int]],
    acc: Dict[str, object],
    finish: Callable[[int], None],
) -> None:
    """Resolve sorted ``(index, slot)`` items over a join forest.

    ``acc`` is one shared working assignment: every node along the current
    path writes its columns into it before descending, and ``finish(slot)``
    fires exactly when a slot's path is fully bound. Each bucket's locate
    tier is entered once per contiguous run of positions instead of once
    per position, and a parent row's column bindings and child-bucket
    resolution are computed once for all positions under its index range.
    Bounds are the caller's responsibility (all-or-nothing, before any
    position is resolved).
    """
    if not roots:
        for __, payload in items:
            finish(payload)
        return
    _batch_roots(roots, 0, items, acc, finish)


def _batch_roots(
    roots: Sequence,
    root_position: int,
    items: List[Tuple[int, object]],
    acc: Dict[str, object],
    cont: Callable[[object], None],
) -> None:
    """Distribute sorted (index, payload) items across the root digits.

    The last root consumes the whole remaining index, so it gets the items
    verbatim — no re-grouping pass.
    """
    root = roots[root_position]
    if root_position == len(roots) - 1:
        _subtree_batch(root, (), items, 0, acc, cont)
        return
    suffix = 1
    for later in roots[root_position + 1:]:
        suffix *= later.buckets[()].total
    _subtree_batch(
        root,
        (),
        digit_groups(items, 0, suffix),
        0,
        acc,
        lambda rest: _batch_roots(roots, root_position + 1, rest, acc, cont),
    )


def _subtree_batch(
    node,
    key: tuple,
    items: List[Tuple[int, object]],
    shift: int,
    acc: Dict[str, object],
    cont: Callable[[object], None],
) -> None:
    """Resolve sorted (index, payload) items within one bucket.

    The bucket-local position of an item is ``item[0] - shift``; carrying
    the shift instead of rebuilding shifted item lists is what keeps
    per-item allocation out of the hot path. Items are grouped by the row
    whose index range contains them — one ``locate_run`` per group, not
    per item — the row's columns are bound into the shared ``acc``, and
    the in-range offsets recurse into the children. ``cont(payload)``
    fires once per item when its path is fully bound.
    """
    bucket = node.buckets[key]
    columns = node.columns
    children = node.children
    if not children and bucket.unit_leaf:
        # Static leaf buckets assign weight 1 to every row (Algorithm 2
        # with no children), so the bucket-local offset *is* the row
        # position — no locate needed. When this leaf terminates the walk
        # (cont is the batch's finish), write the whole group in one fused
        # loop; otherwise bind + continue per item.
        rows = bucket.rows
        leaf_group = getattr(cont, "leaf_group", None)
        if leaf_group is not None:
            leaf_group(items, rows, columns, shift)
            return
        update = acc.update
        for value, payload in items:
            update(zip(columns, rows[value - shift]))
            cont(payload)
        return
    locate_run = bucket.locate_run
    n = len(items)
    i = 0
    while i < n:
        row, start, weight = locate_run(items[i][0] - shift)
        end = shift + start + weight
        j = i + 1
        while j < n and items[j][0] < end:
            j += 1
        for column, value in zip(columns, row):
            acc[column] = value
        if not children:
            for __, payload in items[i:j]:
                cont(payload)
        else:
            _batch_children(node, row, 0, items, i, j, shift + start, acc, cont)
        i = j


def _batch_children(
    node,
    row: tuple,
    child_position: int,
    items: List[Tuple[int, object]],
    lo: int,
    hi: int,
    shift: int,
    acc: Dict[str, object],
    cont: Callable[[object], None],
) -> None:
    """SplitIndex over a batch: peel off one child's digit at a time.

    Handles ``items[lo:hi]``, whose in-row offsets are
    ``item[0] - shift``. The last child takes the offset modulus (as in
    scalar SplitIndex); because it consumes everything that remains, it
    receives the item range verbatim with an adjusted shift — only
    *interior* children (nodes with ≥ 2 children) pay a re-grouping pass
    that materializes quotient/remainder pairs.
    """
    children = node.children
    child = children[child_position]
    child_key = node.child_bucket_key(row, child_position)
    if child_position == len(children) - 1:
        if lo == 0 and hi == len(items):
            group = items
        else:
            group = items[lo:hi]
        _subtree_batch(child, child_key, group, shift, acc, cont)
        return
    suffix = 1
    for later in range(child_position + 1, len(children)):
        suffix *= children[later].buckets[node.child_bucket_key(row, later)].total
    _subtree_batch(
        child,
        child_key,
        digit_groups(items[lo:hi], shift, suffix),
        0,
        acc,
        lambda rest: _batch_children(
            node, row, child_position + 1, rest, 0, len(rest), 0, acc, cont
        ),
    )


# ---------------------------------------------------------------------- #
# Algorithm 4 — inverted access                                           #
# ---------------------------------------------------------------------- #


def inverted_walk(roots: Sequence, assignment: Dict[str, object]) -> Optional[int]:
    """The index of ``assignment`` in the enumeration order, or ``None``.

    ``None`` is the paper's "not-a-member" outcome. Callers handle the
    ``count == 0`` short-circuit (and, for the static index, building the
    rank tables) before walking.
    """
    index = 0
    for root in roots:
        bucket = root.buckets.get(())
        if bucket is None:
            return None
        part = _subtree_inverted(root, (), assignment)
        if part is None:
            return None
        index = index * bucket.total + part
    return index


def _subtree_inverted(node, key: tuple, assignment: Dict[str, object]) -> Optional[int]:
    bucket = node.buckets.get(key)
    if bucket is None:
        return None
    try:
        row = tuple(assignment[c] for c in node.columns)
    except KeyError:
        return None
    start = bucket.rank_start(row)
    if start is None:
        return None
    offset = 0
    for child_position, child in enumerate(node.children):
        child_key = node.child_bucket_key(row, child_position)
        child_bucket = child.buckets.get(child_key)
        if child_bucket is None:
            return None
        child_index = _subtree_inverted(child, child_key, assignment)
        if child_index is None:
            return None
        # CombineIndex: fold left, each child contributing one "digit"
        # in base = its bucket weight.
        offset = offset * child_bucket.total + child_index
    return start + offset


# ---------------------------------------------------------------------- #
# Order rank — Algorithm 4 with a lower bound instead of a hit            #
# ---------------------------------------------------------------------- #


def rank_walk(roots: Sequence, assignment: Dict[str, object]) -> int:
    """How many of the forest's answers do not succeed ``assignment`` in
    the global order fixed by the forest shape.

    ``assignment`` need not be an answer of *this* forest — only bind the
    shape's variables (an answer of any index over the same shape does).
    That is the rank Algorithm 8 needs: ``|{a_1 … a_j} ∩ T|`` is
    ``rank_walk(T.roots, a_j)``, one root-to-leaf descent over ``T`` and
    no probe of the member ``a_j`` came from. Requires canonically sorted
    buckets (see :meth:`BucketStore.rank_before`).
    """
    before = 0
    present = True
    for root in roots:
        bucket = root.buckets.get(())
        if bucket is None:
            return 0  # an empty root empties the whole product
        # Roots fold like children: mixed-radix digits, first root most
        # significant; past the first absent digit only the bases matter.
        before *= bucket.total
        if present:
            part, present = _subtree_rank(root, bucket, assignment)
            before += part
    return before + 1 if present else before


def _subtree_rank(node, bucket, assignment: Dict[str, object]) -> Tuple[int, bool]:
    """``(answers of the bucket's subtree strictly before the assignment,
    the assignment is one of them)``."""
    row = tuple([assignment[c] for c in node.columns])
    before, present = bucket.rank_before(row)
    if not present:
        return before, False
    # The row's own answers are the product of its child buckets, ordered
    # child 0 first (CombineIndex, as in ``_subtree_inverted``); weight > 0
    # guarantees every child bucket exists and is non-empty.
    offset = 0
    for child_position, child in enumerate(node.children):
        child_bucket = child.buckets[node.child_bucket_key(row, child_position)]
        offset *= child_bucket.total
        if present:
            part, present = _subtree_rank(child, child_bucket, assignment)
            offset += part
    return before + offset, present


# ---------------------------------------------------------------------- #
# Ordered enumeration (Fact 3.5: access gives Enum⟨lin, log⟩; this direct #
# generator avoids the per-answer locate calls)                           #
# ---------------------------------------------------------------------- #


def enumerate_walk(roots: Sequence) -> Iterator[Dict[str, object]]:
    """Yield all assignments in enumeration (index) order.

    Callers short-circuit ``count == 0`` themselves; an empty forest
    yields the single empty assignment (count 1, the empty product).
    """
    yield from _forest_assignments(roots, 0, {})


def _forest_assignments(roots: Sequence, position: int, acc: Dict[str, object]):
    if position == len(roots):
        yield dict(acc)
        return
    for assignment in _node_assignments(roots[position], (), acc):
        yield from _forest_assignments(roots, position + 1, assignment)


def _node_assignments(node, key: tuple, acc: Dict[str, object]):
    bucket = node.buckets.get(key)
    if bucket is None:
        return
    for row, weight in bucket.iter_rows():
        if weight == 0:
            continue
        extended = dict(acc)
        for column, value in zip(node.columns, row):
            extended[column] = value
        yield from _children_assignments(node, row, 0, extended)


def _children_assignments(node, row: tuple, child_position: int, acc):
    if child_position == len(node.children):
        yield acc
        return
    child = node.children[child_position]
    child_key = node.child_bucket_key(row, child_position)
    for assignment in _node_assignments(child, child_key, acc):
        yield from _children_assignments(node, row, child_position + 1, assignment)


# ---------------------------------------------------------------------- #
# The read surface of every forest-shaped index                           #
# ---------------------------------------------------------------------- #


class EngineServingMixin:
    """The engine-driven read surface over ``roots`` + ``head_variables``.

    Shared by the static :class:`~repro.core.cq_index.CQIndex`, the
    :class:`~repro.core.dynamic.DynamicJoinForest` (whose ``roots`` are
    its latest snapshot's) and the immutable
    :class:`~repro.core.dynamic.IndexSnapshot`: all expose the same
    forest-node protocol to the walks above, so count / access / batch /
    inverted access / rank and ordered and random-order enumeration are
    written once.
    """

    roots: Sequence
    head_variables: Tuple[str, ...]

    @property
    def count(self) -> int:
        return forest_count(self.roots)

    def __len__(self) -> int:
        return self.count

    def access(self, index: int) -> tuple:
        """The answer at ``index`` of the enumeration order (Algorithm 3).

        Raises :class:`~repro.core.errors.OutOfBoundError` outside
        ``[0, count)`` — the paper's "out-of-bound" message, which
        Theorem 3.7's binary search relies on.
        """
        count = self.count
        if index < 0 or index >= count:
            raise OutOfBoundError(index, count)
        assignment: Dict[str, object] = {}
        scalar_walk(self.roots, index, assignment)
        return tuple(assignment[name] for name in self.head_variables)

    def batch(self, indices: Sequence[int]) -> List[tuple]:
        """The answers at ``indices`` — ``[self.access(i) for i in indices]``.

        The request may be unsorted, contain duplicates, and be a list, a
        ``range`` or an int64 ndarray; the result is aligned with it. Flat
        roots resolve it through the columnar kernel (:func:`vector_batch`);
        any other store through :func:`batch_walk`, which sorts the
        positions once and shares root-to-leaf resolution across adjacent
        ones. Raises :class:`~repro.core.errors.OutOfBoundError` if any
        position is outside ``[0, count)``, before resolving anything.
        """
        if not len(indices):
            return []
        if len(indices) == 1:
            # One position: the scalar walk costs less than batch set-up.
            return [self.access(int(indices[0]))]
        self._check_bounds(indices)
        head = self.head_variables
        vectorized = vector_batch(self.roots, indices, head)
        if vectorized is not None:
            return vectorized
        if isinstance(indices, _np.ndarray):
            # The walk compares and hashes positions tuple by tuple; unbox
            # once so it never touches numpy integers.
            indices = indices.tolist()
        out: List[tuple] = [()] * len(indices)
        acc: Dict[str, object] = {}
        finish = make_batch_finish(out, acc, head)
        batch_walk(self.roots, sorted_items(indices), acc, finish)
        return out

    def batch_json(self, indices: Sequence[int]) -> str:
        """``json.dumps(self.batch(indices))``, byte for byte.

        A batch on the columnar path (:func:`vectorizable`) is written by
        :func:`~repro.core.flat_store.flat_batch_json` straight from the
        flat nodes' id columns and pre-encoded value tables; any other
        dumps the tuples. Bounds as in :meth:`batch`.
        """
        head = self.head_variables
        if not head or not vectorizable(self.roots, indices):
            return json.dumps(self.batch(indices))
        self._check_bounds(indices)
        return _flat_store.flat_batch_json(self.roots, indices, head)

    def _check_bounds(self, indices: Sequence[int]) -> None:
        """Raise :class:`~repro.core.errors.OutOfBoundError` for the first
        position of the non-empty ``indices`` outside ``[0, count)``."""
        count = self.count
        if isinstance(indices, range):
            # O(1) bounds for pagination sweeps: builtins.min would walk
            # the whole range in the interpreter.
            low, high = ((indices[0], indices[-1]) if indices.step > 0
                         else (indices[-1], indices[0]))
        elif isinstance(indices, _np.ndarray):
            low, high = int(indices.min()), int(indices.max())
        else:
            low, high = min(indices), max(indices)
        if low < 0 or high >= count:
            for index in indices:
                if index < 0 or index >= count:
                    raise OutOfBoundError(index, count)

    def sample_many(self, k: int, rng: Optional[random.Random] = None) -> List[tuple]:
        """The first ``min(k, count)`` draws of :meth:`random_order`.

        Element-for-element (and randomness-for-randomness) equal to ``k``
        sequential draws from a seeded
        :class:`~repro.core.permutation.RandomPermutationEnumerator`; the
        positions come from one
        :func:`~repro.core.shuffle.sample_positions` draw, then a single
        batched access serves them all. Draws are without replacement.
        """
        from repro.core.shuffle import sample_positions

        return self.batch(sample_positions(self.count, k, rng))

    def random_order(self, rng: Optional[random.Random] = None):
        """REnum (Theorem 3.7): the answers in uniformly random order,
        resolved one batch per block
        (:func:`~repro.core.permutation.blocked_random_order`, which states
        the delay trade and how ``rng`` is kept in step). Over an
        immutable view the stream is immune to concurrent writes; over a
        dynamic forest each *block* reads its latest snapshot, so
        mutate-while-consuming has container-resize semantics — pin a
        snapshot instead.
        """
        from repro.core.permutation import blocked_random_order

        return blocked_random_order(self, rng)

    def ensure_inverted_support(self) -> None:
        """Build what :meth:`inverted_access` needs (idempotent). A no-op
        here — frozen dynamic buckets rank by key-guided descent; the
        static index overrides it to build its lazy rank tables."""

    def inverted_access(self, answer: tuple) -> Optional[int]:
        """The position of ``answer`` (Algorithm 4), or ``None`` — the
        paper's "not-a-member" — when it is not an answer."""
        if len(answer) != len(self.head_variables) or self.count == 0:
            return None
        self.ensure_inverted_support()
        return inverted_walk(self.roots, dict(zip(self.head_variables, answer)))

    def __contains__(self, answer: tuple) -> bool:
        """Membership test via inverted access (the paper's ``Test``)."""
        return self.inverted_access(tuple(answer)) is not None

    def rank_not_after(self, answer: tuple) -> int:
        """How many answers of this version do not succeed ``answer`` in
        the canonical global order; ``answer`` need not be one of them
        (see :func:`rank_walk`)."""
        if len(answer) != len(self.head_variables):
            raise ValueError(
                f"expected a {len(self.head_variables)}-tuple, got {answer!r}"
            )
        return rank_walk(self.roots, dict(zip(self.head_variables, answer)))

    def __iter__(self) -> Iterator[tuple]:
        """Enumerate in index order — the canonical global order."""
        if self.count == 0:
            return
        head = self.head_variables
        for assignment in enumerate_walk(self.roots):
            yield tuple(assignment[name] for name in head)
