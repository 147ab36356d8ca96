"""Tests for the shared access engine: the static stores and the dynamic
treaps' frozen views drive the same walks, and the static/dynamic indexes
stay interchangeable through them."""

import random

from repro import CQIndex, Database, DynamicCQIndex, Relation, parse_cq
from repro.core import access_engine, flat_store
from repro.core.dynamic import _DynamicBucket
from repro.core.flat_store import FlatOrderTree
from repro.core.index import _Bucket
from repro.core.order_tree import OrderedWeightTree, SnapshotBucketStore


QUERY = parse_cq(
    "Q(a, b, c, d) :- R(a, b), S(b, c), T(b, d)"
)


def _db():
    rng = random.Random(5)
    return Database([
        Relation("R", ("a", "b"), [(i, i % 7) for i in range(60)]),
        Relation("S", ("b", "c"), [(i % 7, rng.randrange(9)) for i in range(40)]),
        Relation("T", ("b", "d"), [(i % 7, rng.randrange(5)) for i in range(30)]),
    ])


def _static_stores(rule, relations, **kwargs):
    """The root ``()`` bucket of a static index over each backend, rank
    tables built."""
    stores = []
    for store in ("tuple", "flat"):
        index = CQIndex(parse_cq(rule), Database(relations), store=store, **kwargs)
        index.ensure_inverted_support()
        stores.append(index.roots[0].buckets[()])
    return stores


def _frozen_stores(entries):
    """Both treaps' frozen views over ``entries``: the read side of the
    dynamic bucket."""
    return [
        _DynamicBucket(tree, entries).freeze()
        for tree in (OrderedWeightTree, FlatOrderTree)
    ]


class TestBucketStoreProtocol:
    def test_all_buckets_satisfy_the_protocol(self):
        entries = [((1,), 1, 1), ((2,), 1, 1)]
        buckets = _static_stores(
            "Q(a) :- R(a)", [Relation("R", ("a",), [(1,), (2,)])]
        ) + _frozen_stores(entries)
        assert len(buckets) == 4
        for bucket in buckets:
            assert isinstance(bucket, access_engine.BucketStore)
            assert bucket.total == 2
            assert bucket.locate_run(0) == ((1,), 0, 1)
            assert bucket.locate_run(1) == ((2,), 1, 1)
            assert list(bucket.iter_rows()) == [((1,), 1), ((2,), 1)]
            assert bucket.rank_start((2,)) == 1
            assert bucket.rank_start((9,)) is None
            # rank_before places rows that are not there, too.
            assert bucket.rank_before((0,)) == (0, False)
            assert bucket.rank_before((1,)) == (0, True)
            assert bucket.rank_before((1.5,)) == (1, False)
            assert bucket.rank_before((2,)) == (1, True)
            assert bucket.rank_before((9,)) == (2, False)
        # The live dynamic bucket is write-only.
        live = _DynamicBucket(OrderedWeightTree, entries)
        assert not isinstance(live, access_engine.BucketStore)

    def test_unit_leaf_split(self):
        assert _Bucket.unit_leaf is True
        assert SnapshotBucketStore.unit_leaf is False
        assert not hasattr(_DynamicBucket, "unit_leaf")
        assert flat_store.FlatBucketStore.unit_leaf is True
        assert flat_store.FlatSnapshotStore.unit_leaf is False

    def test_zero_weight_rows_do_not_rank(self):
        # Without the reducer the dangling root row (1,) stays, weight 0.
        static = _static_stores(
            "Q(a, b) :- R(a), S(a, b)",
            [
                Relation("R", ("a",), [(1,), (2,)]),
                Relation("S", ("a", "b"), [(2, "x"), (2, "y"), (2, "z")]),
            ],
            reduce=False,
            root_atom=0,
        )
        entries = [((1,), 0, 1), ((2,), 3, 1)]
        for bucket in static + _frozen_stores(entries):
            assert list(bucket.iter_rows()) == [((1,), 0), ((2,), 3)]
            assert bucket.rank_start((1,)) is None  # dangling
            assert bucket.rank_start((2,)) == 0
            assert bucket.rank_before((1,)) == (0, False)  # there, not participating
            assert bucket.rank_before((2,)) == (0, True)
            assert bucket.locate_run(0)[0] == (2,)  # skips the empty range


class TestEngineEquivalence:
    """The same walks produce identical results over every bucket store
    (the ``store`` fixture runs each scenario per backend)."""

    def test_static_and_dynamic_agree_everywhere(self, store):
        db = _db()
        static = CQIndex(QUERY, db, store=store)
        dynamic = DynamicCQIndex(QUERY, db, store=store)
        n = static.count
        assert dynamic.count == n
        positions = list(range(n))
        assert dynamic.batch(positions) == static.batch(positions)
        assert list(dynamic) == list(static)
        rng = random.Random(1)
        scattered = [rng.randrange(n) for __ in range(300)]
        assert dynamic.batch(scattered) == static.batch(scattered)
        for position in scattered[:50]:
            answer = static.access(position)
            assert dynamic.access(position) == answer
            assert static.inverted_access(answer) == position
            assert dynamic.inverted_access(answer) == position

    def test_agreement_survives_mutations(self, store):
        """After updates, the dynamic index must agree position-for-position
        with a *fresh* static build — canonical order is maintained under
        churn, not just at load."""
        db = _db()
        dynamic = DynamicCQIndex(QUERY, db, store=store)
        rng = random.Random(2)
        for step in range(120):
            relation = rng.choice(["R", "S", "T"])
            rows = db.relation(relation).rows
            if rng.random() < 0.6:
                row = (rng.randrange(80), rng.randrange(9))
                if row in rows:
                    continue
                rows.append(row)
                dynamic.insert(relation, row)
            else:
                if not rows:
                    continue
                row = rows[rng.randrange(len(rows))]
                rows.remove(row)
                dynamic.delete(relation, row)
            if step % 20 == 19:
                static = CQIndex(QUERY, db, store=store)
                assert dynamic.count == static.count
                assert dynamic.batch(range(dynamic.count)) == \
                    static.batch(range(static.count))

    def test_batch_matches_scalar_through_both_stores(self, store):
        db = _db()
        indexes = (
            CQIndex(QUERY, db, store=store),
            DynamicCQIndex(QUERY, db, store=store),
        )
        for index in indexes:
            rng = random.Random(3)
            positions = [rng.randrange(index.count) for __ in range(100)]
            positions += positions[:7]  # duplicates, unsorted
            assert index.batch(positions) == [index.access(i) for i in positions]

    def test_vectorized_batch_matches_scalar_walk(self):
        """Above VECTOR_MIN the static flat index takes the columnar walk;
        it must agree with the scalar engine position for position."""
        db = _db()
        flat = CQIndex(QUERY, db, store="flat")
        tuple_index = CQIndex(QUERY, db, store="tuple")
        assert flat.store == "flat"
        n = flat.count
        rng = random.Random(4)
        big = [rng.randrange(n) for __ in range(max(4 * flat_store.VECTOR_MIN, 400))]
        assert flat.batch(big) == tuple_index.batch(big)
        assert flat.batch(list(range(n))) == tuple_index.batch(list(range(n)))
        # Small batches stay on the scalar path and still agree.
        small = big[: flat_store.VECTOR_MIN - 1]
        assert flat.batch(small) == tuple_index.batch(small)


class TestDigitGroups:
    def test_groups_by_quotient_with_remainders(self):
        items = [(0, "a"), (2, "b"), (3, "c"), (7, "d")]
        groups = access_engine.digit_groups(items, 0, 3)
        assert groups == [
            (0, [(0, "a"), (2, "b")]),
            (1, [(0, "c")]),
            (2, [(1, "d")]),
        ]

    def test_shift_is_applied_before_splitting(self):
        assert access_engine.digit_groups([(10, "x")], 4, 3) == [(2, [(0, "x")])]


class TestSortedItems:
    def test_small_batches_sort_stably(self):
        assert access_engine.sorted_items([5, 1, 5, 0]) == \
            [(0, 3), (1, 1), (5, 0), (5, 2)]

    def test_large_batches_take_the_numpy_path(self):
        indices = list(range(5000, 0, -1))
        assert access_engine.sorted_items(indices) == \
            sorted(zip(indices, range(len(indices))))

    def test_huge_positions_fall_back_to_python_ints(self):
        indices = [2 ** 80, 1] * 1500  # overflows int64 on purpose
        out = access_engine.sorted_items(indices)
        assert out[0][0] == 1 and out[-1][0] == 2 ** 80
