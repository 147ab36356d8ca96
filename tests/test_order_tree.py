"""Tests for the order-maintained weighted tree backing dynamic buckets."""

import random

import pytest

from repro.core.order_tree import OrderedWeightTree, _descending_priorities
from repro.database.relation import row_sort_key


def _reference(entries):
    """Sorted (row, weight, multiplicity) triples — the model the tree
    must agree with."""
    return sorted(entries, key=lambda e: row_sort_key(e[0]))


def _check_against_reference(tree, rank, entries):
    reference = _reference(entries)
    assert len(tree) == len(reference)
    assert tree.total == sum(w for __, w, __m in reference)
    # In-order traversal reproduces the canonical row order.
    assert [n.row for n in tree] == [row for row, __, __m in reference]
    live = {id(n) for n in tree}
    # The frozen view ranks each row at the running prefix sum and
    # locates every offset inside a positive-weight row's range.
    view = tree.snapshot()
    running = 0
    for row, weight, multiplicity in reference:
        node = rank[row]
        assert id(node) in live  # the handle is the live node
        assert tree.row_weight(node) == weight
        assert tree.row_multiplicity(node) == multiplicity
        assert view.rank_before(row) == (running, weight > 0)
        for offset in (running, running + weight - 1):
            if weight > 0:
                assert view.locate_run(offset) == (row, running, weight)
        running += weight


def _follow_clones(tree, rank):
    """Keep ``rank`` on the live nodes once a snapshot freezes them."""
    tree.on_clone = lambda node: rank.__setitem__(node.row, node)


class TestBulkBuild:
    def test_empty(self):
        tree, nodes = OrderedWeightTree.from_sorted([])
        assert tree.total == 0 and len(tree) == 0 and nodes == []
        with pytest.raises(IndexError):
            tree.snapshot().locate_run(0)

    def test_build_matches_reference(self):
        entries = [((i, chr(97 + i % 3)), i % 4, 1) for i in range(50)]
        entries = _reference(entries)
        tree, nodes = OrderedWeightTree.from_sorted(entries)
        rank = {n.row: n for n in nodes}
        _check_against_reference(tree, rank, entries)

    def test_heap_invariant_holds_after_bulk_build(self):
        entries = _reference([((i,), 1, 1) for i in range(100)])
        tree, __ = OrderedWeightTree.from_sorted(entries)
        stack = [tree.root]
        while stack:
            node = stack.pop()
            for child in (node.left, node.right):
                if child is not None:
                    assert child.priority <= node.priority
                    assert child.parent is node
                    stack.append(child)

    def test_descending_priorities_are_sorted_uniforms(self):
        """The O(n) order-statistics generator: descending, in (0, 1],
        and distributed like sorted i.i.d. uniforms (spot-check: the
        median of the maximum of n uniforms is 2^(-1/n))."""
        priorities = _descending_priorities(500)
        assert len(priorities) == 500
        assert all(0.0 < p <= 1.0 for p in priorities)
        assert priorities == sorted(priorities, reverse=True)
        assert len(set(priorities)) == 500  # ties would stall rotations
        maxima = [_descending_priorities(16)[0] for __ in range(400)]
        median = sorted(maxima)[200]
        assert abs(median - 2 ** (-1 / 16)) < 0.05


class TestInsertSorted:
    def test_small_batch_uses_individual_inserts(self):
        tree, nodes = OrderedWeightTree.from_sorted(
            _reference([((i,), 1, 1) for i in range(0, 200, 2)])
        )
        rank = {n.row: n for n in nodes}
        kept_root_nodes = set(id(n) for n in tree)
        new = tree.insert_sorted(_reference([((5,), 2, 1), ((7,), 3, 1)]))
        for node in new:
            rank[node.row] = node
        entries = [((i,), 1, 1) for i in range(0, 200, 2)] + \
            [((5,), 2, 1), ((7,), 3, 1)]
        _check_against_reference(tree, rank, _reference(entries))
        # Existing nodes were reused, not rebuilt.
        assert kept_root_nodes <= set(id(n) for n in tree)

    def test_large_batch_merge_rebuild_keeps_handles_valid(self):
        tree, nodes = OrderedWeightTree.from_sorted(
            _reference([((i, "x"), 1, 1) for i in range(0, 40, 4)])
        )
        rank = {n.row: n for n in nodes}
        batch = _reference([((i, "y"), 2, 1) for i in range(0, 40, 2)])
        new = tree.insert_sorted(batch)
        assert len(new) == len(batch)
        for node in new:
            rank[node.row] = node
        entries = [((i, "x"), 1, 1) for i in range(0, 40, 4)] + batch
        # Old handles are still the live nodes.
        _check_against_reference(tree, rank, _reference(entries))

    def test_bulk_insert_into_empty_tree(self):
        tree, __ = OrderedWeightTree.from_sorted([])
        new = tree.insert_sorted(_reference([((i,), 1, 1) for i in range(9)]))
        assert [n.row for n in tree] == [(i,) for i in range(9)]
        assert tree.total == 9 and len(new) == 9

    def test_empty_batch_is_a_noop(self):
        tree, __ = OrderedWeightTree.from_sorted(_reference([((1,), 1, 1)]))
        assert tree.insert_sorted([]) == []
        assert tree.total == 1

    def test_heap_invariant_survives_merge_rebuild(self):
        tree, __ = OrderedWeightTree.from_sorted(
            _reference([((i,), 1, 1) for i in range(10)])
        )
        tree.insert_sorted(_reference([((i + 0.5,), 1, 1) for i in range(10)]))
        stack = [tree.root]
        while stack:
            node = stack.pop()
            for child in (node.left, node.right):
                if child is not None:
                    assert child.priority <= node.priority
                    assert child.parent is node
                    stack.append(child)


class TestUpdates:
    def test_insert_lands_at_canonical_position(self):
        tree, nodes = OrderedWeightTree.from_sorted(
            _reference([((0,), 1, 1), ((4,), 1, 1), ((8,), 1, 1)])
        )
        rank = {n.row: n for n in nodes}
        for value in (6, 2, 10, -1):
            rank[(value,)] = tree.insert_row((value,), 2, 1)
        entries = [((v,), 2 if v in (6, 2, 10, -1) else 1, 1)
                   for v in (-1, 0, 2, 4, 6, 8, 10)]
        _check_against_reference(tree, rank, entries)

    def test_set_weight_and_tombstones(self):
        entries = _reference([((i,), 1, 1) for i in range(6)])
        tree, nodes = OrderedWeightTree.from_sorted(entries)
        rank = {n.row: n for n in nodes}
        # Tombstone (2,): weight 0 keeps the survivors' prefixes compact.
        node = rank[(2,)]
        tree.set_weight(node, 0)
        tree.set_multiplicity(node, 0)
        assert tree.total == 5
        view = tree.snapshot()
        assert view.rank_before((3,)) == (2, True)  # (2,) no longer counts
        assert view.rank_before((2,)) == (2, False)
        assert view.locate_run(2) == ((3,), 2, 1)

    def test_randomized_against_reference_model(self):
        rng = random.Random(7)
        tree, nodes = OrderedWeightTree.from_sorted([])
        rank = {}
        _follow_clones(tree, rank)
        model = {}
        for step in range(400):
            action = rng.random()
            if action < 0.5 or not model:
                row = (rng.randrange(60), rng.randrange(3))
                if row not in model:
                    weight = rng.randrange(4)
                    model[row] = (weight, 1)
                    rank[row] = tree.insert_row(row, weight, 1)
            else:
                row = rng.choice(list(model))
                weight = rng.randrange(4)
                multiplicity = rng.randrange(2)
                model[row] = (weight, multiplicity)
                tree.set_weight(rank[row], weight)
                tree.set_multiplicity(rank[row], multiplicity)
            if step % 50 == 49:
                entries = [(row, w, m) for row, (w, m) in model.items()]
                _check_against_reference(tree, rank, entries)

    def test_compacted_drops_only_tombstones(self):
        entries = _reference([((i,), 1 if i % 2 else 0, i % 2) for i in range(10)])
        tree, nodes = OrderedWeightTree.from_sorted(entries)
        compacted, pairs = tree.compacted()
        assert [n.row for n in compacted] == [(i,) for i in range(10) if i % 2]
        assert compacted.total == tree.total
        rank = dict(pairs)
        _check_against_reference(
            compacted, rank, [e for e in entries if e[2] > 0]
        )

    def test_sorted_insertion_order_stays_balanced(self):
        """Ascending inserts (the adversarial case for a plain BST) must
        stay logarithmic — the treap's whole reason to exist."""
        tree, __ = OrderedWeightTree.from_sorted([])
        for i in range(2000):
            tree.insert_row((i,), 1, 1)

        def depth(node):
            if node is None:
                return 0
            return 1 + max(depth(node.left), depth(node.right))

        assert depth(tree.root) < 60  # ~3.5x the expected 2·log2(n)
