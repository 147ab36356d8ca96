"""Tests for Algorithms 6–8 / Theorem 5.5 — mc-UCQ random access."""

import random

import pytest

from repro import (
    CQIndex,
    Database,
    IncompatibleUnionError,
    MCUCQIndex,
    OutOfBoundError,
    Relation,
    parse_ucq,
)
from repro.core.union_access import enumerate_union, rank_in_member_order
from repro.database.joins import evaluate_ucq


@pytest.fixture()
def overlapping_union():
    db = Database([
        Relation("R1", ("a", "b"), [(i, i % 3) for i in range(12)]),
        Relation("R2", ("a", "b"), [(i, i % 3) for i in range(6, 18)]),
        Relation("S", ("b", "c"), [(i % 3, i % 2) for i in range(6)]),
    ])
    ucq = parse_ucq(
        "Q(a, b, c) :- R1(a, b), S(b, c) ; Q(a, b, c) :- R2(a, b), S(b, c)"
    )
    return ucq, db


@pytest.fixture()
def three_way_union():
    db = Database([
        Relation("R1", ("a", "b"), [(i, i % 2) for i in range(0, 10)]),
        Relation("R2", ("a", "b"), [(i, i % 2) for i in range(4, 14)]),
        Relation("R3", ("a", "b"), [(i, i % 2) for i in range(8, 18)]),
        Relation("S", ("b", "c"), [(0, "p"), (1, "q"), (1, "r")]),
    ])
    ucq = parse_ucq(
        "Q(a, b, c) :- R1(a, b), S(b, c) ; "
        "Q(a, b, c) :- R2(a, b), S(b, c) ; "
        "Q(a, b, c) :- R3(a, b), S(b, c)"
    )
    return ucq, db


class TestRankInMemberOrder:
    def test_counts_elements_not_succeeding(self, overlapping_union, brute_rank):
        ucq, db = overlapping_union
        index = MCUCQIndex(ucq, db)
        member = index.member_indexes[0]
        subset = index.intersection_indexes[(0, frozenset({1}))]
        # Walk the member order; the rank must be monotone and end at |T|.
        previous = 0
        for position in range(member.count):
            answer = member.access(position)
            rank = rank_in_member_order(subset, member, answer)
            assert rank == subset.rank_not_after(answer)
            assert rank == brute_rank(subset, member, answer)
            assert rank in (previous, previous + 1)
            in_subset = subset.inverted_access(answer) is not None
            assert rank == previous + 1 if in_subset else rank == previous
            previous = rank
        assert previous == subset.count

    def test_requires_member_element(self, overlapping_union):
        ucq, db = overlapping_union
        index = MCUCQIndex(ucq, db)
        member = index.member_indexes[0]
        subset = index.intersection_indexes[(0, frozenset({1}))]
        with pytest.raises(ValueError):
            rank_in_member_order(subset, member, ("nope", 0, 0))

    def test_rank_of_a_foreign_tuple_is_a_lower_bound(self, overlapping_union):
        """The rank walks ``T`` alone: the tuple need not be an answer of
        ``T`` — nor of anything — to have a place in the global order."""
        ucq, db = overlapping_union
        subset = MCUCQIndex(ucq, db).intersection_indexes[(0, frozenset({1}))]
        elements = list(subset)
        # The shape is S(b, c) over R(a, b): (b, c) leads the order, then a.
        assert elements[0] == (6, 0, 0) and elements[-1] == (11, 2, 1)
        # Before the first and after the last element of T.
        assert subset.rank_not_after((6, -1, 0)) == 0
        assert subset.rank_not_after((5, 0, 0)) == 0
        assert subset.rank_not_after((0, 9, 9)) == subset.count == len(elements)
        # Between two elements: on a root row of T, dangling below it
        # ((6, 0, 0) < (7, 0, 0) < (9, 0, 0)) or past its last child.
        assert subset.rank_not_after((7, 0, 0)) == 1
        assert subset.rank_not_after((99, 0, 0)) == 2
        # Between two root rows: no (b, c) = (0, 5) in S.
        assert subset.rank_not_after((6, 0, 5)) == 4

    def test_rank_in_an_empty_intersection(self):
        db = Database([
            Relation("R1", ("a", "b"), [(1, 0), (2, 0)]),
            Relation("R2", ("a", "b"), [(10, 0)]),
            Relation("S", ("b", "c"), [(0, "x")]),
        ])
        ucq = parse_ucq(
            "Q(a, b, c) :- R1(a, b), S(b, c) ; Q(a, b, c) :- R2(a, b), S(b, c)"
        )
        for dynamic in (False, True):
            index = MCUCQIndex(ucq, db, dynamic=dynamic)
            subset = index.intersection_indexes[(0, frozenset({1}))]
            assert subset.count == 0
            for answer in index.member_indexes[0]:
                assert subset.rank_not_after(answer) == 0

    def test_unsorted_index_refuses_to_rank(self, overlapping_union):
        ucq, db = overlapping_union
        unsorted = CQIndex(ucq.queries[0], db, sort_buckets=False)
        with pytest.raises(IncompatibleUnionError):
            unsorted.rank_not_after(unsorted.access(0))

    def test_wrong_arity_has_no_rank(self, overlapping_union):
        ucq, db = overlapping_union
        for dynamic in (False, True):
            member = MCUCQIndex(ucq, db, dynamic=dynamic).member_indexes[0]
            with pytest.raises(ValueError):
                member.rank_not_after((1, 2))


class TestUnionMembership:
    """``answer in cursor`` on a union is the paper's ``Test`` — one
    inverted access per member — not python's iteration fallback."""

    @pytest.mark.parametrize("dynamic", [False, True])
    def test_contains_never_enumerates(self, overlapping_union, monkeypatch, dynamic):
        from repro import QueryService
        from repro.core import union_access

        ucq, db = overlapping_union
        steps = []

        def counting(members):
            for answer in enumerate_union(members):
                steps.append(answer)
                yield answer

        monkeypatch.setattr(union_access, "enumerate_union", counting)
        service = QueryService(db, dynamic=dynamic)
        cursor = service.cursor(ucq)
        index = service.index(ucq)
        views = [cursor, index] + ([index.snapshot] if dynamic else [])
        truth = evaluate_ucq(ucq, db)
        present = sorted(truth)
        absent = [(99, 0, 0), (0, 0, 7), ("a", "b", "c")]
        wrong_arity = [(), (0, 0), (0, 0, 0, 0)]
        for view in views:
            assert all(answer in view for answer in present)
            assert not any(answer in view for answer in absent + wrong_arity)
        assert steps == []
        assert all(list(present[0]) in view for view in views)  # as on a CQ
        # The counter does count: iteration still goes through Algorithm 6.
        assert sorted(index) == present and len(steps) >= len(present)


class TestMCUCQIndex:
    def test_count_matches_ground_truth(self, overlapping_union):
        ucq, db = overlapping_union
        index = MCUCQIndex(ucq, db)
        assert index.count == len(evaluate_ucq(ucq, db))

    def test_access_is_a_bijection_onto_the_union(self, overlapping_union):
        ucq, db = overlapping_union
        index = MCUCQIndex(ucq, db)
        answers = [index.access(i) for i in range(index.count)]
        assert len(set(answers)) == len(answers)
        assert set(answers) == evaluate_ucq(ucq, db)

    def test_access_order_equals_durand_strozecki_order(self, overlapping_union):
        ucq, db = overlapping_union
        index = MCUCQIndex(ucq, db)
        assert list(index) == [index.access(i) for i in range(index.count)]

    def test_out_of_bounds(self, overlapping_union):
        ucq, db = overlapping_union
        index = MCUCQIndex(ucq, db)
        with pytest.raises(OutOfBoundError):
            index.access(index.count)
        with pytest.raises(OutOfBoundError):
            index.access(-1)

    def test_three_way_union(self, three_way_union):
        ucq, db = three_way_union
        index = MCUCQIndex(ucq, db)
        truth = evaluate_ucq(ucq, db)
        assert index.count == len(truth)
        answers = [index.access(i) for i in range(index.count)]
        assert set(answers) == truth
        assert len(set(answers)) == len(answers)
        assert list(index) == answers

    def test_random_order_is_a_permutation(self, three_way_union):
        ucq, db = three_way_union
        index = MCUCQIndex(ucq, db)
        out = list(index.random_order(random.Random(9)))
        assert sorted(out) == sorted(evaluate_ucq(ucq, db))

    def test_disjoint_union(self):
        db = Database([
            Relation("R1", ("a", "b"), [(1, 0), (2, 0)]),
            Relation("R2", ("a", "b"), [(10, 0), (11, 0)]),
            Relation("S", ("b", "c"), [(0, "x")]),
        ])
        ucq = parse_ucq(
            "Q(a, b, c) :- R1(a, b), S(b, c) ; Q(a, b, c) :- R2(a, b), S(b, c)"
        )
        index = MCUCQIndex(ucq, db)
        assert index.count == 4
        assert {index.access(i) for i in range(4)} == evaluate_ucq(ucq, db)

    def test_identical_members(self):
        db = Database([
            Relation("R1", ("a", "b"), [(1, 0), (2, 0)]),
            Relation("S", ("b", "c"), [(0, "x")]),
        ])
        ucq = parse_ucq(
            "Q(a, b, c) :- R1(a, b), S(b, c) ; Q(a, b, c) :- R1(a, b), S(b, c)"
        )
        index = MCUCQIndex(ucq, db)
        assert index.count == 2

    def test_empty_member(self):
        db = Database([
            Relation("R1", ("a", "b"), [(1, 0)]),
            Relation("R2", ("a", "b"), []),
            Relation("S", ("b", "c"), [(0, "x")]),
        ])
        ucq = parse_ucq(
            "Q(a, b, c) :- R1(a, b), S(b, c) ; Q(a, b, c) :- R2(a, b), S(b, c)"
        )
        index = MCUCQIndex(ucq, db)
        assert index.count == 1
        assert index.access(0) == (1, 0, "x")

    def test_misaligned_union_rejected(self):
        # Shapes differ: a 2-atom chain vs a single binary atom.
        db = Database([
            Relation("R", ("a", "b"), [(1, 0)]),
            Relation("S", ("b", "c"), [(0, "x")]),
            Relation("T", ("a", "b", "c"), [(1, 0, "x"), (5, 5, "y")]),
        ])
        ucq = parse_ucq(
            "Q(a, b, c) :- R(a, b), S(b, c) ; Q(a, b, c) :- T(a, b, c)"
        )
        with pytest.raises(IncompatibleUnionError):
            MCUCQIndex(ucq, db)


class TestEnumerateUnion:
    def test_single_member(self, overlapping_union):
        ucq, db = overlapping_union
        index = CQIndex(ucq.queries[0], db)
        assert list(enumerate_union([index])) == list(index)

    def test_no_repetitions(self, overlapping_union):
        ucq, db = overlapping_union
        members = [CQIndex(q, db) for q in ucq.queries]
        out = list(enumerate_union(members))
        assert len(out) == len(set(out))
        assert set(out) == evaluate_ucq(ucq, db)
