"""Unit tests for Database, HashIndex, naive evaluation, and the
Yannakakis full reducer."""

import pytest

from repro.database import Database, HashIndex, Relation, RelationError
from repro.database.joins import evaluate_cq, evaluate_ucq, join_rows
from repro.database.yannakakis import full_reduction, semijoin
from repro.query import join_tree, parse_cq, parse_ucq


class TestDatabase:
    def test_add_and_lookup(self):
        db = Database([Relation("R", ("a",), [(1,)])])
        assert "R" in db
        assert len(db.relation("R")) == 1
        with pytest.raises(RelationError):
            db.relation("missing")

    def test_no_silent_overwrite(self):
        db = Database([Relation("R", ("a",), [])])
        with pytest.raises(RelationError):
            db.add(Relation("R", ("a",), []))
        db.replace(Relation("R", ("a",), [(9,)]))
        assert len(db.relation("R")) == 1

    def test_size_counts_facts(self):
        db = Database([
            Relation("R", ("a",), [(1,), (2,)]),
            Relation("S", ("a",), [(3,)]),
        ])
        assert db.size() == 3

    def test_derive_idempotent(self):
        db = Database([Relation("R", ("a",), [(1,), (2,)])])
        first = db.derive("R", "R_even", lambda t: t[0] % 2 == 0)
        second = db.derive("R", "R_even", lambda t: True)  # ignored: cached
        assert first is second
        assert first.rows == [(2,)]

    def test_copy_isolates_derivations(self):
        db = Database([Relation("R", ("a",), [(1,)])])
        clone = db.copy()
        clone.derive("R", "D", lambda t: True)
        assert "D" in clone and "D" not in db

    def test_copy_gets_fresh_instance_id(self):
        db = Database([Relation("R", ("a",), [(1,)])])
        clone = db.copy()
        assert clone.version == db.version
        assert clone.instance_id != db.instance_id

    def test_pin_is_one_version_that_never_changes(self):
        db = Database([Relation("R", ("a",), [(1,)])])
        pinned = db.pin()
        version = db.version
        db.insert("R", (2,))
        db.add(Relation("S", ("a",), [(3,)]))
        db.version += 5
        assert (pinned.version, pinned.names(), pinned.size()) == (version, ["R"], 1)
        assert pinned.relation("R").rows == [(1,)]
        assert "S" not in pinned and [r.name for r in pinned] == ["R"]
        assert pinned.instance_id == db.instance_id
        assert pinned.pin().version == version  # a pin of a pin: the same version
        with pytest.raises(RelationError):
            pinned.relation("S")

    def test_a_database_resumes_a_pinned_version(self):
        db = Database([Relation("R", ("a",), [(1,)])])
        db.insert("R", (2,))
        resumed = Database(db.pin())
        assert resumed.instance_id == db.instance_id
        assert resumed.version == db.version and resumed.log is None
        assert resumed.relation("R") is db.relation("R")
        resumed.insert("R", (3,))  # ... and then goes its own way
        assert (resumed.version, db.version) == (db.version + 1, db.version)
        assert (3,) not in db.relation("R").rows

    def test_version_and_relations_are_published_together(self, monkeypatch):
        """One batch swaps the generation held by *two* relations. While
        ``apply`` is still building the second relation's successor, the
        first one's must not be visible yet: a reader at any instant sees
        one generation in both, under the version number that names it."""

        def rows(generation):
            return [(generation * 100 + i,) for i in range(5)]

        def observable(view):
            held = {row[0] // 100 for name in ("R", "S") for row in view.relation(name).rows}
            return view.version - base, held

        db = Database([Relation("R", ("a",), rows(0)), Relation("S", ("a",), rows(0))])
        base = db.version
        seen_mid_apply = []
        copy_from = Relation.copy_from.__func__

        def observing_copy_from(cls, name, columns, new_rows):
            # Called once per touched relation, in the middle of apply.
            seen_mid_apply.extend(observable(view) for view in (db, db.pin(), db.copy()))
            return copy_from(cls, name, columns, new_rows)

        monkeypatch.setattr(Relation, "copy_from", classmethod(observing_copy_from))
        applied = db.apply([
            (op, name, row)
            for name in ("R", "S")
            for op, generation in (("delete", 0), ("insert", 1))
            for row in rows(generation)
        ])
        assert seen_mid_apply == [(0, {0})] * 6
        assert observable(db) == (1, {1}) and applied.version == db.version

    def test_delete_wrong_arity_raises(self):
        # Regression: delete() used to silently no-op on a row of the
        # wrong arity (which can never be present) while insert() raised.
        db = Database([Relation("R", ("a", "b"), [(1, 10)])])
        version = db.version
        with pytest.raises(RelationError):
            db.delete("R", (1,))
        with pytest.raises(RelationError):
            db.delete("R", (1, 10, 99))
        with pytest.raises(RelationError):
            db.insert("R", (1,))
        assert db.version == version
        assert db.relation("R").rows == [(1, 10)]

    def test_delete_missing_relation_raises(self):
        db = Database([Relation("R", ("a",), [(1,)])])
        with pytest.raises(RelationError):
            db.delete("missing", (1,))

    def test_insert_delete_version_semantics(self):
        db = Database([Relation("R", ("a",), [(1,)])])
        version = db.version
        assert db.insert("R", (2,)) is True
        assert db.version == version + 1
        assert db.insert("R", (2,)) is False  # duplicate: no-op
        assert db.version == version + 1
        assert db.delete("R", (2,)) is True
        assert db.delete("R", (2,)) is False  # absent: no-op
        assert db.version == version + 2


class TestHashIndex:
    def test_groups(self):
        r = Relation("R", ("a", "b"), [(1, "x"), (1, "y"), (2, "z")])
        ix = HashIndex(r, ("a",))
        assert ix.lookup((1,)) == [(1, "x"), (1, "y")]
        assert ix.lookup((9,)) == []
        assert ix.group_count() == 2
        assert ix.max_group_size() == 2

    def test_empty_key_single_group(self):
        r = Relation("R", ("a",), [(1,), (2,)])
        ix = HashIndex(r, ())
        assert ix.lookup(()) == [(1,), (2,)]


class TestNaiveEvaluation:
    def test_chain(self):
        db = Database([
            Relation("R", ("a", "b"), [(1, 2), (3, 4)]),
            Relation("S", ("b", "c"), [(2, 5), (2, 6)]),
        ])
        q = parse_cq("Q(a, c) :- R(a, b), S(b, c)")
        assert evaluate_cq(q, db) == {(1, 5), (1, 6)}

    def test_constants_and_repeats(self):
        db = Database([Relation("R", ("a", "b", "c"), [(1, 1, 9), (1, 2, 9), (2, 2, 7)])])
        q = parse_cq("Q(x) :- R(x, x, 9)")
        assert evaluate_cq(q, db) == {(1,)}

    def test_self_join(self):
        db = Database([Relation("E", ("u", "v"), [(1, 2), (2, 3)])])
        q = parse_cq("Q(a, c) :- E(a, b), E(b, c)")
        assert evaluate_cq(q, db) == {(1, 3)}

    def test_cyclic_query_supported(self):
        db = Database([Relation("E", ("u", "v"), [(1, 2), (2, 3), (1, 3), (3, 1)])])
        q = parse_cq("Q(x, y, z) :- E(x, y), E(y, z), E(x, z)")
        assert (1, 2, 3) in evaluate_cq(q, db)

    def test_ucq_union(self):
        db = Database([
            Relation("R", ("a",), [(1,)]),
            Relation("S", ("a",), [(1,), (2,)]),
        ])
        u = parse_ucq("Q(a) :- R(a) ; Q(a) :- S(a)")
        assert evaluate_ucq(u, db) == {(1,), (2,)}

    def test_cartesian_product(self):
        db = Database([
            Relation("R", ("a",), [(1,), (2,)]),
            Relation("S", ("b",), [(8,), (9,)]),
        ])
        q = parse_cq("Q(a, b) :- R(a), S(b)")
        assert len(evaluate_cq(q, db)) == 4


class TestJoinRows:
    def test_natural_join(self):
        left = Relation("L", ("a", "b"), [(1, 2), (3, 4)])
        right = Relation("R", ("b", "c"), [(2, "x"), (2, "y")])
        joined = join_rows(left, right)
        assert joined.columns == ("a", "b", "c")
        assert set(joined.rows) == {(1, 2, "x"), (1, 2, "y")}


class TestSemijoinAndReducer:
    def test_semijoin_filters(self):
        left = Relation("L", ("a", "b"), [(1, 2), (3, 4)])
        right = Relation("R", ("b",), [(2,)])
        assert semijoin(left, right).rows == [(1, 2)]

    def test_semijoin_disjoint_columns(self):
        left = Relation("L", ("a",), [(1,)])
        assert semijoin(left, Relation("R", ("z",), [(5,)])).rows == [(1,)]
        assert semijoin(left, Relation("R", ("z",), [])).rows == []

    def test_full_reduction_removes_dangling(self):
        q = parse_cq("Q(a, b, c) :- R(a, b), S(b, c)")
        tree = join_tree(q)
        relations = {
            0: Relation("R", ("a", "b"), [(1, 10), (2, 20), (3, 99)]),
            1: Relation("S", ("b", "c"), [(10, 5), (20, 6), (77, 7)]),
        }
        reduced = full_reduction(relations, tree)
        assert set(reduced[0].rows) == {(1, 10), (2, 20)}
        assert set(reduced[1].rows) == {(10, 5), (20, 6)}

    def test_full_reduction_empties_everything_on_no_answers(self):
        q = parse_cq("Q(a, b) :- R(a), S(b)")
        tree = join_tree(q)
        relations = {
            0: Relation("R", ("a",), [(1,)]),
            1: Relation("S", ("b",), []),
        }
        reduced = full_reduction(relations, tree)
        assert len(reduced[0]) == 0 and len(reduced[1]) == 0

    def test_full_reduction_achieves_global_consistency(self):
        # Every remaining fact must extend to an answer: check by re-joining.
        q = parse_cq("Q(a, b, c, d) :- R(a, b), S(b, c), T(c, d)")
        tree = join_tree(q)
        relations = {
            0: Relation("R", ("a", "b"), [(i, i % 3) for i in range(9)]),
            1: Relation("S", ("b", "c"), [(i % 3, i % 2) for i in range(4)]),
            2: Relation("T", ("c", "d"), [(0, "x")]),
        }
        reduced = full_reduction(relations, tree)
        db = Database([
            reduced[0].rename("R"), reduced[1].rename("S"), reduced[2].rename("T"),
        ])
        answers = evaluate_cq(q, db)
        for index, columns in ((0, ("a", "b")), (1, ("b", "c")), (2, ("c", "d"))):
            positions = [("a", "b", "c", "d").index(c) for c in columns]
            participating = {tuple(ans[p] for p in positions) for ans in answers}
            assert set(reduced[index].rows) == participating
