"""Property: a batched weight update is the same updates applied one by
one, on both treaps.

``_DynamicBucket.set_row_weights`` hands a whole batch to the treap's
``set_weights`` (one spine copy per changed row, one subtotal pass over
the union of their root paths); ``set_row_weight`` is the one-pair case.
Random trees — bulk builds grown by random inserts — take random batches
with duplicate targets, zero weights, tombstones and adjacent runs, and
snapshots are taken between batches. The batched bucket must read like
the scalar one, every frozen view must keep serving its capture-time
state, and on the object treap ``rank`` must keep naming live nodes.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.dynamic import _DynamicBucket
from repro.core.flat_store import FlatOrderTree
from repro.core.order_tree import OrderedWeightTree

TREE_CLASSES = (OrderedWeightTree, FlatOrderTree)

#: One update inside a batch: (row index, weight, tombstone?).
update = st.tuples(st.integers(0, 63), st.integers(0, 5), st.booleans())
#: An adjacent run: (first row index, length, weight).
run = st.tuples(st.integers(0, 63), st.integers(1, 12), st.integers(0, 5))
batch = st.tuples(
    st.lists(update, max_size=10),
    st.lists(run, max_size=2),
    st.booleans(),  # snapshot before the batch?
    st.lists(st.integers(0, 200), max_size=3),  # rows inserted first
)


def _state(bucket):
    """What a reader sees: total and in-order (row, weight) pairs."""
    view = bucket.freeze()
    return view.total, list(view.iter_rows())


def _serves(view, total, rows):
    """The frozen ``view`` answers exactly like the state it captured."""
    assert view.total == total
    assert list(view.iter_rows()) == rows
    before = 0
    for row, weight in rows:
        assert view.rank_before(row) == (before, weight > 0)
        if weight:
            assert view.locate_run(before) == (row, before, weight)
            assert view.locate_run(before + weight - 1) == (row, before, weight)
        before += weight


def _rank_is_live(bucket):
    """Every object-treap handle in ``rank`` is the node the live tree
    holds for its row."""
    live = list(bucket.tree)
    assert len(live) == len(bucket.rank)
    for node in live:
        assert bucket.rank[node.row] is node


@pytest.mark.parametrize("tree_class", TREE_CLASSES,
                         ids=lambda c: c.__name__)
@given(st.integers(0, 40), st.lists(batch, min_size=1, max_size=6))
@settings(max_examples=60, deadline=None)
def test_batched_weights_equal_scalar_weights(tree_class, size, batches):
    entries = [((2 * i,), 1 + i % 3, 1) for i in range(size)]
    batched = _DynamicBucket(tree_class, entries)
    scalar = _DynamicBucket(tree_class, entries)
    captured = []
    for updates, runs, freeze, inserts in batches:
        fresh = sorted({(value,) for value in inserts} - set(batched.rank))
        for row in fresh:
            for bucket in (batched, scalar):
                bucket.bulk_insert([(row, 1, 1)])
        if freeze:
            view = batched.freeze()
            captured.append((view, view.total, list(view.iter_rows())))
            scalar.freeze()
        rows = sorted(batched.rank)
        if not rows:
            continue
        pairs = []
        for index, weight, tombstone in updates:
            row = rows[index % len(rows)]
            if tombstone:
                for bucket in (batched, scalar):
                    bucket.set_multiplicity(row, 0)
                weight = 0
            pairs.append((row, weight))
        for first, length, weight in runs:
            first %= len(rows)
            pairs.extend((row, weight) for row in rows[first:first + length])
        batched.set_row_weights(pairs)
        for row, weight in pairs:
            scalar.set_row_weight(row, weight)
        if tree_class is OrderedWeightTree:
            _rank_is_live(batched)
        assert batched.tree.total == scalar.tree.total
        assert _state(batched) == _state(scalar)
        _serves(batched.freeze(), *_state(scalar))
    for view, total, rows in captured:
        _serves(view, total, rows)


def test_a_spine_copy_that_clones_a_later_handle_keeps_rank_live():
    """The first row's spine copy clones the root's node, which the same
    batch writes next: the write must land on the clone, and ``rank``
    must follow it."""
    entries = [((i,), 1, 1) for i in range(15)]
    bucket = _DynamicBucket(OrderedWeightTree, entries)
    frozen = bucket.freeze()
    root = bucket.tree.root
    leaf = bucket.rank[(0,)]
    assert leaf is not root and root.row == (7,)
    bucket.set_row_weights([((0,), 5), ((7,), 3), ((14,), 0)])
    assert bucket.rank[(7,)] is not root  # cloned by (0,)'s spine copy
    _rank_is_live(bucket)
    assert bucket.tree.root is bucket.rank[(7,)]
    weights = [5] + [1] * 6 + [3] + [1] * 6 + [0]
    _serves(bucket.freeze(), sum(weights),
            [((i,), w) for i, w in enumerate(weights)])
    _serves(frozen, 15, [((i,), 1) for i in range(15)])
