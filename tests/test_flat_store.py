"""Tests for the columnar backend: slab treap, flat buckets, selectors.

The slab-treap suite mirrors ``test_order_tree.py`` — same reference
model, same scenarios — with handles being stable integer row ids
instead of node objects. On top of that: snapshot copy-on-write under
every mutation kind, the read-only store views, the dynamic bucket over
either treap, the JSON batch encoder over the static flat nodes, and the
backend selector (``resolve_store`` / ``REPRO_STORE``).
"""

import json
import random

import numpy as np
import pytest

from repro import CQIndex, Database, Relation, parse_cq
from repro.core import flat_store
from repro.core.dynamic import _DynamicBucket
from repro.core.flat_store import (
    FlatOrderTree,
    FlatOverflowError,
    FlatSnapshotStore,
    resolve_store,
)
from repro.core.order_tree import OrderedWeightTree, SnapshotBucketStore
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
    assert [tree.rows[rid] for rid in tree] == [r for r, __, __m in reference]
    # The frozen view ranks each row at the running prefix sum and
    # locates every offset inside a positive-weight row's range.
    view = tree.snapshot()
    running = 0
    for row, weight, multiplicity in reference:
        row_id = rank[row]
        assert tree.rows[row_id] == row
        assert tree.row_weight(row_id) == weight
        assert tree.row_multiplicity(row_id) == multiplicity
        assert view.rank_before(row) == (running, weight > 0)
        for offset in (running, running + weight - 1):
            if weight > 0:
                assert view.locate_run(offset) == (row, running, weight)
        running += weight


def _depth(tree):
    def node_depth(slot):
        if slot == flat_store._NIL:
            return 0
        return 1 + max(node_depth(int(tree.left[slot])),
                       node_depth(int(tree.right[slot])))

    return node_depth(tree.root)


def _heap_ok(tree):
    """Priority heap order and parent links, over the live slots."""
    stack = [tree.root] if tree.root != flat_store._NIL else []
    while stack:
        slot = stack.pop()
        for child in (int(tree.left[slot]), int(tree.right[slot])):
            if child != flat_store._NIL:
                assert tree.priority[child] <= tree.priority[slot]
                assert tree.parent[child] == slot
                stack.append(child)


class TestBulkBuild:
    def test_empty(self):
        tree, row_ids = FlatOrderTree.from_sorted([])
        assert tree.total == 0 and len(tree) == 0 and row_ids == []
        with pytest.raises(IndexError):
            tree.snapshot().locate_run(0)

    def test_build_matches_reference(self):
        entries = _reference(
            [((i, chr(97 + i % 3)), i % 4, 1) for i in range(50)]
        )
        tree, row_ids = FlatOrderTree.from_sorted(entries)
        rank = {entry[0]: rid for entry, rid in zip(entries, row_ids)}
        _check_against_reference(tree, rank, entries)

    def test_heap_invariant_holds_after_bulk_build(self):
        tree, __ = FlatOrderTree.from_sorted(
            _reference([((i,), 1, 1) for i in range(100)])
        )
        _heap_ok(tree)


class TestInsertSorted:
    def test_small_batch_uses_individual_inserts(self):
        entries = _reference([((i,), 1, 1) for i in range(0, 200, 2)])
        tree, row_ids = FlatOrderTree.from_sorted(entries)
        rank = {entry[0]: rid for entry, rid in zip(entries, row_ids)}
        batch = _reference([((5,), 2, 1), ((7,), 3, 1)])
        new = tree.insert_sorted(batch)
        for entry, rid in zip(batch, new):
            rank[entry[0]] = rid
        _check_against_reference(tree, rank, entries + batch)

    def test_large_batch_merge_rebuild_keeps_handles_valid(self):
        entries = _reference([((i, "x"), 1, 1) for i in range(0, 40, 4)])
        tree, row_ids = FlatOrderTree.from_sorted(entries)
        rank = {entry[0]: rid for entry, rid in zip(entries, row_ids)}
        batch = _reference([((i, "y"), 2, 1) for i in range(0, 40, 2)])
        new = tree.insert_sorted(batch)
        assert len(new) == len(batch)
        for entry, rid in zip(batch, new):
            rank[entry[0]] = rid
        # Old row-id handles still name their rows.
        _check_against_reference(tree, rank, entries + batch)

    def test_bulk_insert_into_empty_tree(self):
        tree, __ = FlatOrderTree.from_sorted([])
        new = tree.insert_sorted(_reference([((i,), 1, 1) for i in range(9)]))
        assert [tree.rows[rid] for rid in tree] == [(i,) for i in range(9)]
        assert tree.total == 9 and len(new) == 9

    def test_empty_batch_is_a_noop(self):
        tree, __ = FlatOrderTree.from_sorted(_reference([((1,), 1, 1)]))
        assert tree.insert_sorted([]) == []
        assert tree.total == 1

    def test_heap_invariant_survives_merge_rebuild(self):
        tree, __ = FlatOrderTree.from_sorted(
            _reference([((i,), 1, 1) for i in range(10)])
        )
        tree.insert_sorted(_reference([((i + 0.5,), 1, 1) for i in range(10)]))
        _heap_ok(tree)


class TestUpdates:
    def test_insert_lands_at_canonical_position(self):
        entries = _reference([((0,), 1, 1), ((4,), 1, 1), ((8,), 1, 1)])
        tree, row_ids = FlatOrderTree.from_sorted(entries)
        rank = {entry[0]: rid for entry, rid in zip(entries, row_ids)}
        for value in (6, 2, 10, -1):
            rank[(value,)] = tree.insert_row((value,), 2, 1)
        expected = [((v,), 2 if v in (6, 2, 10, -1) else 1, 1)
                    for v in (-1, 0, 2, 4, 6, 8, 10)]
        _check_against_reference(tree, rank, expected)

    def test_set_weight_and_tombstones(self):
        entries = _reference([((i,), 1, 1) for i in range(6)])
        tree, row_ids = FlatOrderTree.from_sorted(entries)
        rank = {entry[0]: rid for entry, rid in zip(entries, row_ids)}
        # Tombstone (2,): weight 0 keeps the survivors' prefixes compact.
        tree.set_weight(rank[(2,)], 0)
        tree.set_multiplicity(rank[(2,)], 0)
        assert tree.total == 5
        view = tree.snapshot()
        assert view.rank_before((3,)) == (2, True)  # (2,) no longer counts
        assert view.rank_before((2,)) == (2, False)
        assert view.locate_run(2) == ((3,), 2, 1)

    def test_randomized_against_reference_model(self):
        rng = random.Random(7)
        tree, __ = FlatOrderTree.from_sorted([])
        rank = {}
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
        entries = _reference(
            [((i,), 1 if i % 2 else 0, i % 2) for i in range(10)]
        )
        tree, __ = FlatOrderTree.from_sorted(entries)
        compacted, pairs = tree.compacted()
        assert [compacted.rows[rid] for rid in compacted] == \
            [(i,) for i in range(10) if i % 2]
        assert compacted.total == tree.total
        rank = {row: rid for row, rid in pairs}
        _check_against_reference(
            compacted, rank, [e for e in entries if e[2] > 0]
        )

    def test_sorted_insertion_order_stays_balanced(self):
        """Ascending inserts (the adversarial case for a plain BST) must
        stay logarithmic — the treap's whole reason to exist."""
        tree, __ = FlatOrderTree.from_sorted([])
        for i in range(2000):
            tree.insert_row((i,), 1, 1)
        assert _depth(tree) < 60  # ~3.5x the expected 2·log2(n)

    def test_weight_overflow_raises(self):
        tree, __ = FlatOrderTree.from_sorted([])
        with pytest.raises(FlatOverflowError):
            tree.insert_row((0,), 2 ** 62, 1)
        rid = tree.insert_row((1,), 1, 1)
        with pytest.raises(FlatOverflowError):
            tree.set_weight(rid, 2 ** 62)
        # Each weight fits but the total does not: no build wraps int64.
        big = 2 ** 62 - 1
        with pytest.raises(FlatOverflowError):
            FlatOrderTree.from_sorted([((i,), big, 1) for i in range(3)])
        entries = [((0,), big - 10, 1), ((1,), 5, 1), ((2,), 3, 1)]
        tree, row_ids = FlatOrderTree.from_sorted(entries)
        rank = {entry[0]: rid for entry, rid in zip(entries, row_ids)}
        frozen = tree.snapshot()
        for attempt in (
            lambda: tree.insert_row((3,), 20, 1),
            lambda: tree.insert_sorted([((3,), 1, 1), ((4,), 19, 1)]),
            lambda: tree.set_weights([(rank[(1,)], 4), (rank[(2,)], 15)]),
            lambda: tree.set_weights([(rank[(0,)], 2 ** 62), (rank[(1,)], 0)]),
        ):
            with pytest.raises(FlatOverflowError):
                attempt()
            assert tree.total == big - 2
            _check_against_reference(tree, rank, entries)
            _frozen_reference(frozen, entries)


def _frozen_reference(store, entries):
    """A FlatSnapshotStore must serve exactly its capture-time state."""
    assert isinstance(store, FlatSnapshotStore)
    reference = _reference(entries)
    live = [(row, w) for row, w, m in reference if w > 0]
    assert store.total == sum(w for __, w in live)
    # iter_rows yields tombstones too (protocol: callers skip them).
    assert list(store.iter_rows()) == [(row, w) for row, w, __m in reference]
    running = 0
    for row, weight in live:
        assert store.rank_start(row) == running
        for offset in (running, running + weight - 1):
            located, start, w = store.locate_run(offset)
            assert (located, start, w) == (row, running, weight)
        running += weight
    for row, weight, __m in reference:
        if weight == 0:
            assert store.rank_start(row) is None


class TestSnapshotCopyOnWrite:
    """Captured versions never observe later mutations of any kind."""

    def _build(self, n=40):
        entries = _reference([((i,), 1 + i % 3, 1) for i in range(n)])
        tree, row_ids = FlatOrderTree.from_sorted(entries)
        rank = {entry[0]: rid for entry, rid in zip(entries, row_ids)}
        return tree, rank, entries

    def test_set_weight_after_snapshot(self):
        tree, rank, entries = self._build()
        frozen = tree.snapshot()
        for i in range(0, 40, 3):
            tree.set_weight(rank[(i,)], 7)
        _frozen_reference(frozen, entries)

    def test_insert_row_after_snapshot(self):
        tree, rank, entries = self._build()
        frozen = tree.snapshot()
        for i in range(25):
            rank[(i + 0.5,)] = tree.insert_row((i + 0.5,), 2, 1)
        _frozen_reference(frozen, entries)
        new_entries = entries + [((i + 0.5,), 2, 1) for i in range(25)]
        _check_against_reference(tree, rank, new_entries)

    def test_large_insert_sorted_after_snapshot(self):
        tree, rank, entries = self._build(12)
        frozen = tree.snapshot()
        batch = _reference([((i + 0.5,), 2, 1) for i in range(12)])
        for entry, rid in zip(batch, tree.insert_sorted(batch)):
            rank[entry[0]] = rid
        _frozen_reference(frozen, entries)
        _check_against_reference(tree, rank, entries + batch)

    def test_many_epochs_stay_independent(self):
        tree, rank, __ = self._build(10)
        model = {row: (1 + row[0] % 3, 1) for row, __r in rank.items()}
        captured = []
        rng = random.Random(3)
        for round_number in range(8):
            captured.append((
                tree.snapshot(),
                [(row, w, m) for row, (w, m) in model.items()],
            ))
            for __ in range(6):
                if rng.random() < 0.5:
                    row = (rng.randrange(10), round_number)
                    if row not in model:
                        model[row] = (2, 1)
                        rank[row] = tree.insert_row(row, 2, 1)
                else:
                    row = rng.choice(list(model))
                    weight = rng.randrange(4)
                    model[row] = (weight, 1 if weight else 0)
                    tree.set_weight(rank[row], weight)
                    tree.set_multiplicity(rank[row], model[row][1])
        for frozen, entries in captured:
            _frozen_reference(frozen, entries)


#: The merged dynamic bucket runs over either treap.
TREE_CLASSES = (OrderedWeightTree, FlatOrderTree)


class TestFlatDynamicBucket:
    """The one dynamic bucket, over both tree classes: write-only, read
    through its frozen view."""

    def test_protocol_and_maintenance(self):
        for tree_class in TREE_CLASSES:
            bucket = _DynamicBucket(
                tree_class, _reference([((i,), 2, 1) for i in range(5)])
            )
            for name in ("locate_run", "rank_start", "rank_before",
                         "iter_rows", "unit_leaf"):
                assert not hasattr(bucket, name)
            view = bucket.freeze()
            assert isinstance(view, (SnapshotBucketStore, FlatSnapshotStore))
            assert view.unit_leaf is False
            assert bucket.total == view.total == 10
            assert view.locate_run(5) == ((2,), 4, 2)
            assert view.rank_start((3,)) == 6
            assert view.rank_start((9,)) is None
            assert bucket.has_row((4,)) and not bucket.has_row((9,))
            assert bucket.is_present((4,))
            assert bucket.multiplicity_of((4,)) == 1
            assert bucket.multiplicity_of((9,)) is None
            # Delete via multiplicity 0 + weight 0: a tombstone.
            bucket.set_multiplicity((1,), 0)
            bucket.set_row_weight((1,), 0)
            assert bucket.tombstones == 1
            assert not bucket.is_present((1,))
            assert bucket.has_row((1,))  # the row survives as a tombstone
            assert bucket.freeze().rank_start((1,)) is None
            assert bucket.total == 8
            assert view.total == 10  # the earlier view never moves
            # Resurrect it.
            bucket.set_multiplicity((1,), 2)
            bucket.set_row_weight((1,), 2)
            assert bucket.tombstones == 0
            assert bucket.is_present((1,)) and bucket.total == 10

    def test_freeze_is_memoized_and_invalidated(self):
        for tree_class in TREE_CLASSES:
            bucket = _DynamicBucket(
                tree_class, _reference([((i,), 1, 1) for i in range(4)])
            )
            first = bucket.freeze()
            assert bucket.freeze() is first  # unchanged → same frozen view
            # An equal-weight write is a no-op and must not invalidate.
            bucket.set_row_weight((2,), 1)
            assert bucket.freeze() is first
            bucket.set_row_weight((2,), 5)
            second = bucket.freeze()
            assert second is not first
            assert first.total == 4 and second.total == 8
            assert list(first.iter_rows()) == [((i,), 1) for i in range(4)]

    def test_compact_drops_tombstones_and_keeps_rank(self):
        for tree_class in TREE_CLASSES:
            bucket = _DynamicBucket(
                tree_class, _reference([((i,), 1, 1) for i in range(8)])
            )
            bucket.freeze()  # frozen spines: the writes below path-copy
            for i in range(0, 8, 2):
                bucket.set_multiplicity((i,), 0)
                bucket.set_row_weight((i,), 0)
            assert bucket.tombstones == 4
            bucket.compact()
            assert bucket.tombstones == 0
            assert bucket.total == 4 and len(bucket) == 4
            view = bucket.freeze()
            assert list(view.iter_rows()) == [((i,), 1) for i in range(1, 8, 2)]
            assert view.rank_start((5,)) == 2
            bucket.set_row_weight((5,), 3)  # old rank handles still work
            assert bucket.total == 6
            assert bucket.freeze().rank_start((7,)) == 5

    def test_bulk_insert(self):
        for tree_class in TREE_CLASSES:
            bucket = _DynamicBucket(
                tree_class, _reference([((i,), 1, 1) for i in range(0, 10, 2)])
            )
            bucket.freeze()
            bucket.bulk_insert(
                _reference([((i,), 2, 1) for i in range(1, 10, 2)])
            )
            bucket.bulk_insert([((10,), 0, 0)])
            assert bucket.tombstones == 1
            assert list(bucket.freeze().iter_rows()) == [
                ((i,), 1 if i % 2 == 0 else 2) for i in range(10)
            ] + [((10,), 0)]


class TestResolveStore:
    def test_default_is_tuple(self, monkeypatch):
        monkeypatch.delenv(flat_store.STORE_ENV, raising=False)
        assert resolve_store(None) == "tuple"

    def test_explicit_wins_over_env(self, monkeypatch):
        monkeypatch.setenv(flat_store.STORE_ENV, "flat")
        assert resolve_store("tuple") == "tuple"
        assert resolve_store(None) == "flat"

    def test_unknown_store_rejected(self, monkeypatch):
        with pytest.raises(ValueError):
            resolve_store("columnar")
        monkeypatch.setenv(flat_store.STORE_ENV, "bogus")
        with pytest.raises(ValueError):
            resolve_store(None)


#: One value of every type the canonical codec carries, among them every
#: one whose JSON text is not its ``str``: bools are not ints, floats
#: keep their exponent and sign, strings are escaped to ASCII.
CODEC_VALUES = [
    -7, -(2 ** 63), 2 ** 53 + 1, 2 ** 70, 1, 1.0, True, False, None,
    1e16, -0.0, 2.5, float("nan"), float("inf"), float("-inf"),
    'say "hi"', "back\\slash", "new\nline\ttab", "naïve ☃ 𝄞", "",
]


class TestBatchJson:
    """``CQIndex.batch_json`` on the static flat store is
    ``json.dumps`` of the tuple store's answers, byte for byte."""

    def build(self, store):
        size = len(CODEC_VALUES)
        database = Database([
            Relation("R", ("a", "b"), [
                (value, position % 4)
                for position, value in enumerate(CODEC_VALUES)
            ]),
            Relation("S", ("b", "c"), [
                (b, CODEC_VALUES[(5 * b + i) % size])
                for b in range(4) for i in range(3)
            ]),
        ])
        index = CQIndex(parse_cq("Q(c, a, b) :- R(a, b), S(b, c)"),
                        database, store=store)
        assert index.store == store
        return index

    def test_every_codec_value_encodes_like_json_dumps(self):
        flat, plain = self.build("flat"), self.build("tuple")
        n = flat.count
        assert n == plain.count >= flat_store.VECTOR_MIN + 8
        shuffled = random.Random(1).sample(range(n), n) + [0, n - 1, 0]
        for asked in (range(n), range(5, n - 3), shuffled,
                      np.array(shuffled, dtype=np.int64)):
            expected = json.dumps(plain.batch(asked))
            assert flat.batch_json(asked) == expected
            assert plain.batch_json(asked) == expected
        every = flat.batch_json(range(n))
        assert [json.dumps(answer) for answer in json.loads(every)] == \
            [json.dumps(list(answer)) for answer in plain.batch(range(n))]
        for text in ("true", "false", "null", "NaN", "-Infinity", "1e+16",
                     "-0.0", "9007199254740993", '"say \\"hi\\""',
                     "\\u00efve \\u2603 \\ud834\\udd1e"):
            assert text in every
        assert all(node.flat._encoded is not None
                   for node in flat.roots[0].all_nodes())

    def test_encoded_tables_are_built_once_per_distinct_value(self):
        flat = self.build("flat")
        nodes = [node.flat for node in flat.roots[0].all_nodes()]
        assert all(node._encoded is None for node in nodes)
        flat.batch(range(flat.count))
        assert all(node._encoded is None for node in nodes)
        flat.batch_json(range(flat.count))
        tables = [node._encoded for node in nodes]
        flat.batch_json(range(flat.count))
        assert [node._encoded for node in nodes] == tables
        for node in nodes:
            for table, encoded in zip(node.tables, node.encoded):
                assert encoded.tolist() == [json.dumps(v) for v in table]


class TestSignedZero:
    """``0.0 == -0.0``, yet each is its own value: both stores serve the
    row's own zero, through every read."""

    def test_both_stores_serve_each_rows_own_zero(self):
        database = Database([
            Relation("R", ("a", "b"),
                     [(0.0, 1), (-0.0, 2), (1, 3), (True, 4), (-0.0, 5)]),
        ])
        query = parse_cq("Q(a, b) :- R(a, b)")
        flat = CQIndex(query, database, store="flat")
        plain = CQIndex(query, database, store="tuple")
        assert flat.store == "flat"
        n = plain.count
        # Repeats take the vectorized walk as well as the scalar one.
        for asked in (list(range(n)), list(range(n)) * flat_store.VECTOR_MIN):
            assert repr(flat.batch(asked)) == repr(plain.batch(asked))
            assert flat.batch_json(asked) == plain.batch_json(asked)
        served = json.loads(plain.batch_json(range(n)))
        assert {json.dumps(a) for a, b in served if b in (2, 5)} == {"-0.0"}
        assert {json.dumps(a) for a, b in served if b == 1} == {"0.0"}
        for position, answer in enumerate(plain.batch(range(n))):
            assert flat.inverted_access(answer) == position
            assert plain.inverted_access(answer) == position
            flipped = (-answer[0], answer[1])
            assert flat.inverted_access(flipped) == \
                plain.inverted_access(flipped)


#: A 7-way star: one hub, ``partners[c]`` partners for child ``c``. At 600
#: partners per child it has 600⁷ answers, past the flat store's 2⁶².
STAR = "Q(x, " + ", ".join(f"y{c}" for c in range(7)) + ") :- H(x), " + \
    ", ".join(f"R{c}(x, y{c})" for c in range(7))


def _star(partners) -> Database:
    return Database([Relation("H", ("x",), [(0,)])] + [
        Relation(f"R{c}", ("x", "y"), [(0, y) for y in range(count)])
        for c, count in enumerate(partners)
    ])


def _serves_the_star(view, count) -> None:
    assert view.count == count
    rng = random.Random(7)
    for position in [0, count - 1] + [rng.randrange(count) for __ in range(20)]:
        assert view.position_of(view.get(position)) == position


class TestOverflowFallback:
    """Weights past int64 put a flat index back on the tuple store, as
    the static build does, for a dynamic build and for a dynamic write."""

    def test_dynamic_build_falls_back_to_tuple(self):
        from repro import DynamicCQIndex, QueryService

        database = _star([600] * 7)
        dynamic = DynamicCQIndex(parse_cq(STAR), database, store="flat")
        assert dynamic.store == "tuple"
        assert dynamic.count == 600 ** 7
        assert dynamic.snapshot.store == "tuple"
        _serves_the_star(
            QueryService(database, store="flat", dynamic=True).cursor(STAR),
            600 ** 7,
        )

    def test_dynamic_write_past_int64_is_rebuilt_on_read(self):
        from repro import QueryService

        service = QueryService(_star([600] + [1] * 6), store="flat", dynamic=True)
        cursor = service.cursor(STAR)
        assert cursor.count == 600 and service.index(STAR).store == "flat"
        version = service.database.version
        # Durable once applied: the batch succeeds although the flat index
        # cannot absorb it.
        applied = service.apply([
            ("insert", f"R{c}", (0, y)) for c in range(1, 7) for y in range(1, 600)
        ])
        assert applied.version == service.database.version == version + 1
        _serves_the_star(cursor, 600 ** 7)
        assert service.index(STAR).store == "tuple"


class TestStaticOverflowBoundary:
    """The static flat build falls back to the tuple store exactly when a
    node's cumulative weight reaches 2⁶²: one star just below the line and
    one on it, so an estimate of the check would misjudge one of them."""

    @staticmethod
    def serve(partners):
        from repro import QueryService

        atoms = ", ".join(f"R{c}(x, y{c})" for c in range(len(partners)))
        heads = ", ".join(f"y{c}" for c in range(len(partners)))
        query = f"Q(x, {heads}) :- H(x), {atoms}"
        service = QueryService(_star(partners), store="flat")
        return service.cursor(query), service.index(query)

    def test_three_times_two_to_the_sixty_builds_flat(self):
        cursor, index = self.serve([4] * 30 + [3])
        assert index.store == "flat"
        _serves_the_star(cursor, 3 * 2 ** 60)

    def test_two_to_the_sixty_two_falls_back_to_tuple(self):
        cursor, index = self.serve([4] * 31)
        assert index.store == "tuple"
        _serves_the_star(cursor, 4 ** 31)
