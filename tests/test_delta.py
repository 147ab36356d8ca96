"""Tests for the Delta write batch and Database.apply."""

import pytest

from repro import (
    AppliedDelta,
    Database,
    Delta,
    DeltaError,
    QueryService,
    Relation,
    ReproError,
)
from repro.database.relation import RelationError


def fresh_db() -> Database:
    return Database([
        Relation("R", ("a", "b"), [(1, 10), (2, 20), (3, 30)]),
        Relation("S", ("b", "c"), [(10, 100), (10, 101), (20, 200), (30, 300)]),
    ])


class TestDeltaNormalization:
    def test_last_op_wins_per_fact(self):
        delta = Delta()
        delta.insert("R", (1, 2)).delete("R", (1, 2)).insert("R", (3, 4))
        assert delta.ops() == [("delete", "R", (1, 2)), ("insert", "R", (3, 4))]
        assert len(delta) == 2

    def test_duplicate_ops_dedupe_keeping_first_touch_order(self):
        delta = Delta([
            ("insert", "R", (1, 2)),
            ("insert", "S", (5, 6)),
            ("insert", "R", (1, 2)),
        ])
        assert delta.ops() == [("insert", "R", (1, 2)), ("insert", "S", (5, 6))]

    def test_relations_len_bool(self):
        delta = Delta()
        assert not delta and len(delta) == 0
        delta.insert("R", (1, 2)).delete("S", (3, 4))
        assert delta and delta.relations() == {"R", "S"}
        assert "R" in repr(delta) and "S" in repr(delta)

    def test_rows_are_normalized_to_tuples(self):
        delta = Delta().insert("R", [1, 2])
        assert delta.ops() == [("insert", "R", (1, 2))]


class TestDeltaValidation:
    def test_wrong_arity_rejected_up_front(self):
        delta = Delta(database=fresh_db())
        with pytest.raises(DeltaError, match="arity 3, expected 2"):
            delta.insert("R", (1, 2, 3))
        assert len(delta) == 0  # nothing recorded

    def test_unknown_relation_rejected_up_front(self):
        with pytest.raises(DeltaError, match="no relation 'Z'"):
            Delta(database=fresh_db()).delete("Z", (1,))

    def test_unknown_op_rejected(self):
        with pytest.raises(DeltaError, match="unknown delta op"):
            Delta().add("upsert", "R", (1, 2))

    def test_error_hierarchy(self):
        # DeltaError is a schema violation: catchable as RelationError,
        # as the library-wide ReproError, and as plain ValueError.
        error = DeltaError("x")
        assert isinstance(error, RelationError)
        assert isinstance(error, ReproError)
        assert isinstance(error, ValueError)

    def test_bound_delta_revalidates_against_schema_drift(self):
        """Regression: a delta recorded before a replace() that changed
        the relation's arity must be rejected at apply time — never
        silently inserted past Relation.copy_from's unchecked fast path."""
        db = fresh_db()
        delta = Delta(database=db).insert("R", (5, 50))
        db.replace(Relation("R", ("a", "b", "c"), [(1, 10, 100)]))
        with pytest.raises(DeltaError, match="arity 2, expected 3"):
            db.apply(delta)
        assert db.relation("R").rows == [(1, 10, 100)]  # untouched

    def test_unbound_delta_validates_at_apply(self):
        db = fresh_db()
        before = [tuple(r.rows) for r in db]
        with pytest.raises(DeltaError, match="arity"):
            db.apply([("insert", "R", (1, 2, 3)), ("insert", "R", (9, 90))])
        # Validation happens before anything mutates: atomic rejection.
        assert [tuple(r.rows) for r in db] == before
        assert db.version == fresh_db().version


class TestDatabaseApply:
    def test_single_version_bump_for_a_whole_batch(self):
        db = fresh_db()
        version = db.version
        result = db.apply(
            Delta(database=db)
            .insert("R", (4, 40))
            .insert("S", (40, 400))
            .delete("R", (1, 10))
        )
        assert db.version == version + 1
        assert isinstance(result, AppliedDelta)
        assert result.changed and result.inserted == 2 and result.deleted == 1
        assert (4, 40) in db.relation("R").rows
        assert (1, 10) not in db.relation("R").rows

    def test_noop_batch_does_not_bump_version(self):
        db = fresh_db()
        version = db.version
        result = db.apply([
            ("insert", "R", (1, 10)),      # already present
            ("delete", "S", (99, 99)),     # absent
        ])
        assert db.version == version
        assert not result.changed
        assert result.noops == 2
        assert result.by_relation["R"]["noop_inserts"] == 1
        assert result.by_relation["S"]["noop_deletes"] == 1

    def test_effective_delta_carries_exactly_the_applied_ops(self):
        db = fresh_db()
        result = db.apply([
            ("insert", "R", (7, 70)),
            ("insert", "R", (1, 10)),      # no-op
            ("delete", "S", (10, 100)),
            ("insert", "S", (5, 50)),
            ("delete", "S", (5, 50)),      # cancels the insert → no-op delete
        ])
        assert result.effective.ops() == [
            ("insert", "R", (7, 70)),
            ("delete", "S", (10, 100)),
        ]
        assert result.by_relation["R"] == {
            "inserted": 1, "deleted": 0, "noop_inserts": 1, "noop_deletes": 0,
        }

    def test_insert_then_delete_of_existing_fact_nets_to_delete(self):
        # Last-op-wins must match sequential semantics: the fact existed,
        # so insert (no-op) then delete removes it.
        db = fresh_db()
        result = db.apply([("insert", "R", (1, 10)), ("delete", "R", (1, 10))])
        assert (1, 10) not in db.relation("R").rows
        assert result.deleted == 1

    def test_batch_matches_fact_by_fact_application(self):
        ops = [
            ("insert", "R", (4, 40)),
            ("delete", "R", (4, 40)),
            ("delete", "R", (2, 20)),
            ("insert", "S", (40, 400)),
            ("insert", "S", (40, 400)),
            ("delete", "S", (30, 300)),
        ]
        batched, sequential = fresh_db(), fresh_db()
        batched.apply(ops)
        for op, relation, row in ops:
            getattr(sequential, op)(relation, row)
        for name in ("R", "S"):
            assert batched.relation(name).row_set() == \
                sequential.relation(name).row_set()


class TestServiceApply:
    CHAIN = "Q(a, b, c) :- R(a, b), S(b, c)"

    def test_batched_apply_counts_and_agreement(self):
        hot = QueryService(fresh_db(), dynamic=True)
        cold = QueryService(fresh_db(), dynamic=False)
        for service in (hot, cold):
            service.cursor(self.CHAIN).count
        delta_ops = [
            ("insert", "R", (4, 10)),
            ("delete", "S", (20, 200)),
            ("insert", "S", (30, 301)),
        ]
        hot.apply(delta_ops)
        cold.apply(delta_ops)
        n = hot.cursor(self.CHAIN).count
        assert n == cold.cursor(self.CHAIN).count
        assert hot.cursor(self.CHAIN).batch(range(n)) == cold.cursor(self.CHAIN).batch(range(n))
        assert hot.stats().batched_updates == 1
        assert hot.stats().batched_update_ops == 3
        assert hot.stats().mutation_invalidations == 0
        assert cold.stats().mutation_invalidations == 1  # one per batch

    def test_batch_churn_counts_one_event_per_batch(self):
        service = QueryService(fresh_db(), promote_after=2)
        for __ in range(2):
            service.cursor(self.CHAIN).count
            service.apply([
                ("insert", "R", (100 + service.database.version, 10)),
                ("insert", "R", (200 + service.database.version, 10)),
            ])
        # Two batches → two churn events → next build promotes.
        from repro import DynamicCQIndex
        assert isinstance(service.index(self.CHAIN), DynamicCQIndex)

    def test_unreferenced_relations_carry_forward_across_batch(self):
        db = fresh_db()
        db.add(Relation("T", ("x",), [(1,)]))
        service = QueryService(db)
        entry = service.index(self.CHAIN)
        service.apply([("insert", "T", (2,)), ("insert", "T", (3,))])
        assert service.index(self.CHAIN) is entry
        assert service.stats().carried_forward == 1

    def test_empty_and_noop_deltas_leave_cache_warm(self):
        service = QueryService(fresh_db())
        service.cursor(self.CHAIN).count
        result = service.apply([("insert", "R", (1, 10))])  # no-op
        assert not result.changed
        assert service.apply([]).changed is False
        service.cursor(self.CHAIN).count
        assert service.stats().hits == 1
