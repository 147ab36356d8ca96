"""Property-based testing of the write path: one N-op ``apply_delta`` and
N one-op batches (``insert`` / ``delete``) run the same maintenance pass,
so both arms are checked against an independent oracle — a fresh static
build over the updated database: count, full enumeration order
(order-level, not just set-level), the ``position_of(get(i)) == i``
bijection, and for a dynamic union every member and intersection forest —
including cancelling insert/delete pairs and no-ops, which the Delta
normalization collapses and the one-by-one arm actually executes."""

import random

from hypothesis import given, settings, strategies as st

from repro import (
    CQIndex,
    Database,
    Delta,
    DynamicCQIndex,
    MCUCQIndex,
    QueryService,
    Relation,
    parse_cq,
    parse_ucq,
)

CQ = parse_cq("Q(a, b, c) :- R(a, b), S(b, c)")
UCQ = parse_ucq(
    "Q(a, b, c) :- R(a, b), S(b, c) ; Q(a, b, c) :- R(a, b), T(b, c)"
)

RELATIONS = ("R", "S", "T")

# An operation: (relation choice, insert?, value1, value2). The domain is
# tiny so ops frequently collide — yielding genuine no-ops (re-inserting a
# present fact, deleting an absent one), revivals, and cancelling
# insert-then-delete pairs within one batch.
operation = st.tuples(
    st.integers(0, 2), st.booleans(), st.integers(0, 3), st.integers(0, 2)
)


def fresh_db() -> Database:
    return Database([
        Relation("R", ("a", "b"), [(0, 0), (1, 1), (2, 0)]),
        Relation("S", ("b", "c"), [(0, 0), (1, 2)]),
        Relation("T", ("b", "c"), [(0, 0), (0, 2)]),
    ])


def as_ops(operations):
    return [
        ("insert" if is_insert else "delete", RELATIONS[which], (v1, v2))
        for which, is_insert, v1, v2 in operations
    ]


def assert_matches_fresh_build(maintained, fresh):
    """Order-level agreement with the oracle plus the inverted-access
    bijection."""
    assert maintained.count == fresh.count
    answers = list(maintained)
    assert answers == list(fresh)
    for position, answer in enumerate(answers):
        assert maintained.inverted_access(answer) == position


def assert_union_matches_fresh_build(maintained, fresh):
    # The union surface: count and the full Durand–Strozecki order.
    assert maintained.count == fresh.count
    assert [maintained.access(i) for i in range(maintained.count)] == \
        [fresh.access(i) for i in range(fresh.count)]
    # Every member index and every intersection forest, order-level.
    for member, fresh_member in zip(
        maintained.member_indexes, fresh.member_indexes
    ):
        assert_matches_fresh_build(member, fresh_member)
    assert set(maintained.intersection_indexes) == set(fresh.intersection_indexes)
    for key, forest in maintained.intersection_indexes.items():
        assert_matches_fresh_build(forest, fresh.intersection_indexes[key])


def write_both_arms(ops, db_seq, sequential, db_bat, batched):
    # One by one, database-gated exactly like the service's one-fact
    # writes (the index contract: inserts are new facts, deletes may be
    # no-ops).
    for op, relation, row in ops:
        if getattr(db_seq, op)(relation, row):
            getattr(sequential, op)(relation, row)
    # One batch: the database resolves the normalized delta into its
    # effective sub-delta, which the index absorbs in one pass.
    result = db_bat.apply(Delta(ops, database=db_bat))
    batched.apply_delta(result.effective)
    for name in RELATIONS:
        assert db_seq.relation(name).row_set() == db_bat.relation(name).row_set()


@given(st.lists(operation, max_size=30))
@settings(max_examples=60, deadline=None)
def test_cq_batch_and_one_by_one_match_fresh_build(operations):
    db_seq, db_bat = fresh_db(), fresh_db()
    sequential = DynamicCQIndex(CQ, db_seq)
    batched = DynamicCQIndex(CQ, db_bat)
    write_both_arms(as_ops(operations), db_seq, sequential, db_bat, batched)

    fresh = CQIndex(CQ, db_bat)
    assert_matches_fresh_build(batched, fresh)
    assert_matches_fresh_build(sequential, fresh)


@given(st.lists(operation, max_size=25))
@settings(max_examples=40, deadline=None)
def test_union_batch_and_one_by_one_match_fresh_build(operations):
    db_seq, db_bat = fresh_db(), fresh_db()
    sequential = MCUCQIndex(UCQ, db_seq, dynamic=True)
    batched = MCUCQIndex(UCQ, db_bat, dynamic=True)
    write_both_arms(as_ops(operations), db_seq, sequential, db_bat, batched)

    fresh = MCUCQIndex(UCQ, db_bat)
    assert_union_matches_fresh_build(batched, fresh)
    assert_union_matches_fresh_build(sequential, fresh)


@given(st.lists(operation, min_size=1, max_size=25), st.integers(0, 2**30))
@settings(max_examples=40, deadline=None)
def test_service_transaction_matches_per_fact_service(operations, seed):
    """Service-level equivalence: a transaction over a hot dynamic entry
    and the same ops issued one service call at a time both serve exactly
    like a fresh static build — pages, samples, and positions included."""
    ops = as_ops(operations)
    one_by_one = QueryService(fresh_db(), dynamic=True)
    transactional = QueryService(fresh_db(), dynamic=True)
    one_by_one.cursor(CQ).count
    transactional.cursor(CQ).count  # warm: the batch must hit the dynamic entry

    for op, relation, row in ops:
        getattr(one_by_one, op)(relation, row)
    with transactional.transaction() as txn:
        for op, relation, row in ops:
            getattr(txn, op)(relation, row)

    fresh = list(CQIndex(CQ, transactional.database))
    n = len(fresh)
    assert one_by_one.cursor(CQ).count == transactional.cursor(CQ).count == n
    assert one_by_one.cursor(CQ).batch(range(n)) == fresh
    assert transactional.cursor(CQ).batch(range(n)) == fresh
    if n:
        rng_a, rng_b = random.Random(seed), random.Random(seed)
        k = min(5, n)
        assert transactional.cursor(CQ).sample(k, rng_a) == one_by_one.cursor(CQ).sample(k, rng_b)
        for position, answer in enumerate(one_by_one.cursor(CQ).batch(range(n))):
            assert transactional.cursor(CQ).position_of(answer) == position
    relevant = txn.result.effective.relations() & {"R", "S"}
    if txn.result.changed and relevant:
        stats = transactional.stats()
        if len(txn.result.effective) == 1:
            # A one-fact effective delta counts as an in-place update.
            assert stats.in_place_updates == 1
            assert stats.batched_updates == 0
        else:
            assert stats.batched_updates == 1
            assert stats.in_place_updates == 0
            assert stats.batched_update_ops == len(txn.result.effective)
