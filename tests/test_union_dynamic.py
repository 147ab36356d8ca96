"""Tests for in-place dynamic mc-UCQ serving: MCUCQIndex(dynamic=True),
service-level promotion of unions, tombstone compaction, write locks."""

import random
import threading

import pytest

from repro import (
    CQIndex,
    Database,
    DynamicCQIndex,
    MCUCQIndex,
    NotFreeConnexError,
    QueryService,
    Relation,
    parse_cq,
    parse_ucq,
)

UNION = "Q(a, b, c) :- R(a, b), S(b, c) ; Q(a, b, c) :- R(a, b), T(b, c)"


def fresh_db() -> Database:
    return Database([
        Relation("R", ("a", "b"), [(1, 10), (2, 20), (3, 10)]),
        Relation("S", ("b", "c"), [(10, 1), (10, 2), (20, 3)]),
        Relation("T", ("b", "c"), [(10, 2), (20, 3), (20, 4)]),
    ])


def _assert_matches_fresh_static(dynamic: MCUCQIndex, database: Database):
    fresh = MCUCQIndex(dynamic.ucq, database)
    assert dynamic.count == fresh.count
    assert list(dynamic) == list(fresh)
    assert [dynamic.access(i) for i in range(dynamic.count)] == \
        [fresh.access(i) for i in range(fresh.count)]
    # The member/intersection inverted-access bijections the union's
    # Durand–Strozecki machinery relies on.
    for member, fresh_member in zip(dynamic.member_indexes, fresh.member_indexes):
        answers = list(member)
        assert answers == list(fresh_member)
        for position, answer in enumerate(answers):
            assert member.inverted_access(answer) == position
    for key, forest in dynamic.intersection_indexes.items():
        assert list(forest) == list(fresh.intersection_indexes[key])


class TestDynamicUnionIndex:
    def test_fresh_build_matches_static(self):
        db = fresh_db()
        _assert_matches_fresh_static(
            MCUCQIndex(parse_ucq(UNION), db, dynamic=True), db
        )

    def test_insert_reaches_members_and_intersections(self):
        db = fresh_db()
        dynamic = MCUCQIndex(parse_ucq(UNION), db, dynamic=True)
        before = dynamic.count
        # (10, 5) lands in S only: member 0 grows, the S∩T intersection
        # does not.
        dynamic.insert("S", (10, 5))
        db.relation("S").rows.append((10, 5))
        assert dynamic.count == before + 2  # two R facts join b=10
        _assert_matches_fresh_static(dynamic, db)
        # (20, 3) is already in both S and T — inserting into S is a
        # no-op set-wise... it is already there, so nothing changes.
        intersection = next(iter(dynamic.intersection_indexes.values()))
        t_before = intersection.count
        # (10, 1) into T: S already holds it, so the intersection grows.
        dynamic.insert("T", (10, 1))
        db.relation("T").rows.append((10, 1))
        assert intersection.count > t_before
        _assert_matches_fresh_static(dynamic, db)

    def test_delete_shrinks_intersections(self):
        db = fresh_db()
        dynamic = MCUCQIndex(parse_ucq(UNION), db, dynamic=True)
        # (10, 2) is in S ∩ T; deleting it from S must remove it from the
        # intersection while T keeps it.
        dynamic.delete("S", (10, 2))
        db.relation("S").rows.remove((10, 2))
        _assert_matches_fresh_static(dynamic, db)
        # Re-insert revives it everywhere.
        dynamic.insert("S", (10, 2))
        db.relation("S").rows.append((10, 2))
        _assert_matches_fresh_static(dynamic, db)

    def test_single_fact_write_under_a_self_join_member(self):
        # One R fact feeds both atom occurrences of member 0 *and* member
        # 1's R atom: the always-buffered hook sees several transitions
        # for one op and must settle every T_{ℓ,I} from the final state.
        db = Database([
            Relation("R", ("x", "y"), [(1, 2), (2, 3), (3, 1)]),
            Relation("S", ("y", "z"), [(2, 3), (2, 2), (3, 1)]),
        ])
        dynamic = MCUCQIndex(
            parse_ucq(
                "Q(a, b, c) :- R(a, b), R(b, c) ; Q(a, b, c) :- R(a, b), S(b, c)"
            ),
            db,
            dynamic=True,
        )
        _assert_matches_fresh_static(dynamic, db)
        for op, row in (("insert", (2, 2)), ("delete", (2, 3)),
                        ("insert", (2, 3)), ("delete", (2, 2))):
            assert getattr(db, op)("R", row)
            getattr(dynamic, op)("R", row)
            _assert_matches_fresh_static(dynamic, db)

    def test_static_union_rejects_in_place_mutation(self):
        static = MCUCQIndex(parse_ucq(UNION), fresh_db())
        assert not static.supports_updates
        with pytest.raises(TypeError):
            static.insert("S", (10, 99))

    def test_dynamic_union_requires_full_members(self):
        projected = parse_ucq(
            "Q(a) :- R(a, b), S(b, c) ; Q(a) :- R(a, b), T(b, c)"
        )
        with pytest.raises(NotFreeConnexError):
            MCUCQIndex(projected, fresh_db(), dynamic=True)
        # The static build of the same union is fine.
        assert MCUCQIndex(projected, fresh_db()).count >= 0

    def test_batch_and_sampling_surface(self):
        db = fresh_db()
        dynamic = MCUCQIndex(parse_ucq(UNION), db, dynamic=True)
        dynamic.insert("R", (9, 20))
        db.relation("R").rows.append((9, 20))
        n = dynamic.count
        positions = [n - 1, 0, n - 1, n // 2]
        assert dynamic.batch(positions) == [dynamic.access(i) for i in positions]
        draws = dynamic.sample_many(n, random.Random(3))
        assert sorted(draws) == sorted(dynamic)
        assert sorted(dynamic.random_order(random.Random(4))) == sorted(dynamic)

    def test_update_storm_stays_consistent(self):
        rng = random.Random(11)
        db = fresh_db()
        dynamic = MCUCQIndex(parse_ucq(UNION), db, dynamic=True)
        for step in range(150):
            relation = rng.choice(["R", "S", "T"])
            rows = db.relation(relation).rows
            row = (rng.randrange(5), rng.randrange(3) * 10 + 10) \
                if relation == "R" else (rng.randrange(3) * 10 + 10, rng.randrange(6))
            if rng.random() < 0.6:
                if row in rows:
                    continue
                rows.append(row)
                dynamic.insert(relation, row)
            else:
                if row not in rows:
                    continue
                rows.remove(row)
                dynamic.delete(relation, row)
            if step % 30 == 29:
                _assert_matches_fresh_static(dynamic, db)
        _assert_matches_fresh_static(dynamic, db)


class TestServiceUnionPromotion:
    def test_forced_dynamic_union_survives_mutations(self):
        service = QueryService(fresh_db(), dynamic=True)
        entry = service.index(UNION)
        assert isinstance(entry, MCUCQIndex) and entry.dynamic
        count = service.cursor(UNION).count
        assert service.insert("S", (20, 5))
        assert service.index(UNION) is entry  # absorbed, not rebuilt
        assert service.cursor(UNION).count == count + 1
        assert service.stats().in_place_updates == 1
        # Served answers equal a cold rebuild, position for position.
        cold = MCUCQIndex(service.resolve(UNION), service.database)
        assert service.cursor(UNION).batch(range(cold.count)) == \
            cold.batch(range(cold.count))

    def test_union_promotion_after_churn(self):
        service = QueryService(fresh_db(), promote_after=2)
        for round_ in range(2):
            entry = service.index(UNION)
            assert isinstance(entry, MCUCQIndex) and not entry.dynamic
            assert service.insert("R", (50 + round_, 10))
        promoted = service.index(UNION)
        assert isinstance(promoted, MCUCQIndex) and promoted.dynamic
        stats = service.stats()
        assert stats.promotions == 1
        assert stats.mutation_invalidations == 2
        assert service.insert("R", (99, 20))
        assert service.index(UNION) is promoted
        assert service.stats().in_place_updates == 1

    def test_ineligible_union_never_promoted(self):
        projected = "Q(a) :- R(a, b), S(b, c) ; Q(a) :- R(a, b), T(b, c)"
        service = QueryService(fresh_db(), dynamic=True)
        entry = service.index(projected)
        assert isinstance(entry, MCUCQIndex) and not entry.dynamic
        assert service.insert("S", (10, 77))
        rebuilt = service.index(projected)
        assert rebuilt is not entry  # invalidated, correctly rebuilt
        assert service.cursor(projected).count == 3


class TestTombstoneCompaction:
    def test_delete_heavy_lifetime_stays_bounded(self):
        """Regression for bounded tombstone growth: a long insert-then-
        delete lifetime must not accumulate multiplicity-0 rows without
        bound — compaction fires once they dominate a bucket."""
        query = parse_cq("Q(a, b, c) :- R(a, b), S(b, c)")
        db = Database([
            Relation("R", ("a", "b"), []),
            Relation("S", ("b", "c"), [(0, 0)]),
        ])
        dynamic = DynamicCQIndex(query, db)
        for wave in range(5):
            rows = [(wave * 1000 + i, 0) for i in range(200)]
            for row in rows:
                dynamic.insert("R", row)
            for row in rows:
                dynamic.delete("R", row)
        assert dynamic.count == 0
        assert dynamic.compactions > 0
        footprint = sum(
            len(bucket)
            for node in dynamic.nodes
            for bucket in node.buckets.values()
        )
        # 1000 rows were inserted and deleted; without compaction the R
        # bucket alone would hold all 1000 tombstones.
        assert footprint < 500
        # The structure still serves correctly after compaction + revival.
        dynamic.insert("R", (123, 0))
        assert dynamic.count == 1
        assert dynamic.access(0) == (123, 0, 0)
        assert dynamic.inverted_access((123, 0, 0)) == 0

    def test_compaction_disabled_by_fraction_one(self):
        query = parse_cq("Q(a, b) :- R(a, b)")
        db = Database([Relation("R", ("a", "b"), [])])
        # A fraction > 1 can never be exceeded: tombstones ≤ size always.
        dynamic = DynamicCQIndex(query, db, compact_fraction=2.0)
        for i in range(100):
            dynamic.insert("R", (i, 0))
        for i in range(100):
            dynamic.delete("R", (i, 0))
        assert dynamic.compactions == 0
        assert sum(len(b) for n in dynamic.nodes for b in n.buckets.values()) == 100

    def test_present_dangling_rows_survive_compaction(self):
        """Compaction may only drop multiplicity-0 rows: a present-but-
        dangling row must stay revivable by a later join-partner insert."""
        query = parse_cq("Q(a, b, c) :- R(a, b), S(b, c)")
        db = Database([
            Relation("R", ("a", "b"), []),
            Relation("S", ("b", "c"), []),
        ])
        dynamic = DynamicCQIndex(query, db)
        dynamic.insert("R", (7, 7))  # dangling: weight 0, multiplicity 1
        # Tombstone churn around it to trigger compaction.
        for i in range(50):
            dynamic.insert("R", (i + 100, 7))
        for i in range(50):
            dynamic.delete("R", (i + 100, 7))
        assert dynamic.compactions > 0
        dynamic.insert("S", (7, 1))  # the join partner arrives late
        assert dynamic.count == 1
        assert dynamic.access(0) == (7, 7, 1)


class TestWriteSafety:
    def test_concurrent_readers_and_writer_do_not_corrupt(self):
        """Single-writer smoke test: a writer hammers insert/delete while
        readers page through the same dynamic entry. Reading the live
        index, readers could observe a half-propagated weight update and
        crash inside the descent; reading the published snapshot, every
        batch is coherent."""
        service = QueryService(fresh_db(), dynamic=True)
        query = "Q(a, b, c) :- R(a, b), S(b, c)"
        service.cursor(query).count  # warm the dynamic entry
        errors = []
        stop = threading.Event()

        def writer():
            try:
                for i in range(300):
                    service.insert("R", (1000 + i, (i % 3) * 10 + 10))
                    service.delete("R", (1000 + i, (i % 3) * 10 + 10))
            except Exception as exc:  # pragma: no cover - the failure mode
                errors.append(exc)
            finally:
                stop.set()

        def reader():
            try:
                while not stop.is_set():
                    # page() clamps to the count of the same pinned
                    # snapshot it reads, so a write landing mid-read
                    # cannot turn the page into an out-of-bound request.
                    page = service.cursor(query).page(0, page_size=10)
                    assert len(page) <= 10
            except Exception as exc:  # pragma: no cover - the failure mode
                errors.append(exc)

        threads = [threading.Thread(target=writer)] + [
            threading.Thread(target=reader) for __ in range(2)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not errors
        # Every write was paired with its deleting twin, so the final
        # state is exactly the pre-storm database's answers.
        from repro.core.cq_index import CQIndex

        fresh = CQIndex(service.resolve(query), service.database)
        assert service.cursor(query).count == fresh.count
        assert service.cursor(query).batch(range(fresh.count)) == \
            fresh.batch(range(fresh.count))


class TestStatsSurface:
    def test_stats_counters_cover_the_mutation_paths(self):
        db = fresh_db()
        db.add(Relation("U", ("x",), [(1,)]))
        service = QueryService(db, promote_after=1)
        chain = "Q(a, b, c) :- R(a, b), S(b, c)"
        service.cursor(chain).count
        stats = service.stats()
        assert stats.static_builds == 1 and stats.dynamic_builds == 0
        service.insert("U", (2,))  # unreferenced: carried forward
        assert service.stats().carried_forward == 1
        service.insert("R", (9, 10))  # referenced: invalidates, churn +1
        assert service.stats().mutation_invalidations == 1
        service.cursor(chain).count  # churn ≥ 1 → promoted dynamic build
        stats = service.stats()
        assert stats.promotions == 1 and stats.dynamic_builds == 1
        service.insert("R", (10, 10))  # absorbed in place now
        stats = service.stats()
        assert stats.in_place_updates == 1
        assert stats.hits + stats.misses == stats.hits + 2  # 2 builds

    def test_stats_reports_compactions_of_live_entries(self):
        query = "Q(a, b) :- R(a, b)"
        db = Database([Relation("R", ("a", "b"), [])])
        service = QueryService(db, dynamic=True)
        service.cursor(query).count
        for i in range(100):
            service.insert("R", (i, 0))
        for i in range(100):
            service.delete("R", (i, 0))
        assert service.stats().compactions > 0

    def test_batch_range_clamps_to_current_count(self):
        service = QueryService(fresh_db(), dynamic=True)
        query = "Q(a, b, c) :- R(a, b), S(b, c)"
        cursor = service.cursor(query)
        n = cursor.count
        expected = CQIndex(parse_cq(query), service.database).batch(range(n))
        assert cursor.batch_range(0, n + 50) == expected
        assert cursor.batch_range(n, n + 5) == []
        assert cursor.batch_range(-3, 2) == expected[:2]
