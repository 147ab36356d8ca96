"""Snapshot-isolated reads: published index versions never move.

Covers the full stack — treap copy-on-write (`order_tree`), the frozen
bucket store (`order_tree.SnapshotBucketStore`), forest snapshots
(`dynamic.IndexSnapshot`), union snapshots
(`union_access.UnionIndexSnapshot`), and the service/cursor read path
(pinning one published `(version, view)` pair, stats counters).
"""

import random

import pytest

from repro import CQIndex, Database, DynamicCQIndex, QueryService, Relation, parse_cq, parse_ucq
from repro.core.order_tree import OrderedWeightTree, SnapshotBucketStore
from repro.core.union_access import MCUCQIndex
from repro.service.cursor import StaleCursorError

CHAIN = "Q(a, b, c) :- R(a, b), S(b, c)"
UNION = "Q(a, b, c) :- R(a, b), S(b, c) ; Q(a, b, c) :- R(a, b), T(b, c)"


def fresh_db():
    return Database([
        Relation("R", ("a", "b"), [(i, i % 3) for i in range(9)]),
        Relation("S", ("b", "c"), [(j, k) for j in range(3) for k in range(2)]),
    ])


def union_db():
    db = fresh_db()
    db.add(Relation("T", ("b", "c"), [(j, k + 1) for j in range(3) for k in range(2)]))
    return db


class TestTreeCopyOnWrite:
    def _build(self, rows):
        entries = [((r,), 1, 1) for r in sorted(rows)]
        tree, nodes = OrderedWeightTree.from_sorted(entries)
        return tree, {node.row: node for node in nodes}

    def test_snapshot_survives_set_weight_and_inserts(self):
        tree, rank = self._build(range(10))
        tree.on_clone = lambda node: rank.__setitem__(node.row, node)
        frozen = tree.snapshot()
        before = list(frozen.iter_rows())
        assert frozen.total == 10
        rank[(3,)] = tree.set_weight(rank[(3,)], 5)
        tree.insert_row((99,), 2, 1)
        assert list(frozen.iter_rows()) == before
        assert frozen.total == 10
        assert tree.total == 16
        # The live handle map followed the path copies.
        assert rank[(3,)].weight == 5
        assert rank[(9,)] in list(tree)
        assert tree.snapshot().rank_start((9,)) == 13

    def test_snapshot_survives_merge_rebuild_bulk_insert(self):
        tree, rank = self._build(range(0, 40, 2))
        tree.on_clone = lambda node: rank.__setitem__(node.row, node)
        frozen = tree.snapshot()
        before = list(frozen.iter_rows())
        # A batch comparable to the tree size takes the O(n + k)
        # merge-rebuild path, which overwrites node pointers — snapshot
        # nodes must be cloned, not reused.
        tree.insert_sorted([((r,), 1, 1) for r in range(1, 40, 2)])
        assert list(frozen.iter_rows()) == before
        assert tree.total == 40
        assert [node.row for node in tree] == [(r,) for r in range(40)]
        # Handles still valid after the rebuild.
        rank[(0,)] = tree.set_weight(rank[(0,)], 7)
        assert tree.total == 46

    def test_frozen_store_locate_and_rank(self):
        tree, rank = self._build(range(6))
        tree.set_weight(rank[(2,)], 0)  # a dangling row: empty range
        frozen = tree.snapshot()
        assert frozen.total == 5
        seen = [frozen.locate_run(offset)[0] for offset in range(frozen.total)]
        assert seen == [(0,), (1,), (3,), (4,), (5,)]
        assert frozen.rank_start((3,)) == 2
        assert frozen.rank_start((2,)) is None   # weight 0: dangling
        assert frozen.rank_start((42,)) is None  # absent
        with pytest.raises(IndexError):
            frozen.locate_run(5)
        assert len(frozen) == 6  # tombstones included

    def test_empty_tree_snapshot(self):
        frozen = OrderedWeightTree().snapshot()
        assert isinstance(frozen, SnapshotBucketStore)
        assert frozen.total == 0
        assert list(frozen.iter_rows()) == []
        assert frozen.rank_start((1,)) is None


class TestForestSnapshot:
    def test_pinned_snapshot_is_immutable_and_matches_static_build(self):
        db = fresh_db()
        query = parse_cq(CHAIN)
        dynamic = DynamicCQIndex(query, db)
        static = CQIndex(query, db)
        pinned = dynamic.snapshot
        want = list(static)
        assert list(pinned) == want
        assert pinned.count == static.count

        dynamic.insert("R", (100, 0))
        dynamic.delete("S", (0, 0))
        # The pinned version did not move; the new publication did.
        assert list(pinned) == want
        assert pinned.count == len(want)
        assert dynamic.snapshot is not pinned
        assert list(dynamic.snapshot) == list(dynamic)
        assert dynamic.snapshot.count == dynamic.count

    def test_snapshot_serving_surface_is_mutually_consistent(self):
        dynamic = DynamicCQIndex(parse_cq(CHAIN), fresh_db())
        dynamic.insert("R", (50, 1))
        snap = dynamic.snapshot
        n = snap.count
        answers = snap.batch(list(range(n)))
        assert [snap.access(i) for i in range(n)] == answers
        for position, answer in enumerate(answers):
            assert snap.inverted_access(answer) == position
            assert answer in snap
        assert snap.inverted_access((123, 456, 789)) is None
        assert sorted(snap.random_order(random.Random(3))) == sorted(answers)
        assert snap.sample_many(4, random.Random(7)) == \
            dynamic.sample_many(4, random.Random(7))
        snap.ensure_inverted_support()  # interface parity no-op

    def test_publish_is_incremental_but_always_current(self):
        dynamic = DynamicCQIndex(parse_cq(CHAIN), fresh_db())
        first = dynamic.publishes
        dynamic.insert("R", (60, 2))
        dynamic.insert("R", (61, 2))
        assert dynamic.publishes == first + 2
        # Untouched buckets share frozen views across versions: S was
        # never written, so its snapshot node is reused wholesale.
        assert list(dynamic.snapshot) == list(dynamic)


    def test_forest_reads_only_its_latest_snapshot(self):
        dynamic = DynamicCQIndex(parse_cq(CHAIN), fresh_db())
        for write in range(2):
            assert dynamic.roots is dynamic.snapshot.roots
            dynamic.insert("R", (70 + write, 1))


class TestUnionSnapshot:
    def test_dynamic_union_pins_whole_family(self):
        ucq = parse_ucq(UNION)
        db = union_db()
        dynamic = MCUCQIndex(ucq, db, dynamic=True)
        static = MCUCQIndex(ucq, db)
        pinned = dynamic.snapshot
        want = list(static)
        assert list(pinned) == want and pinned.count == static.count

        dynamic.insert("S", (0, 99))
        dynamic.delete("T", (1, 1))
        assert list(pinned) == want and pinned.count == len(want)
        now = dynamic.snapshot
        assert now is not pinned
        assert list(now) == list(dynamic) and now.count == dynamic.count
        assert now.batch(list(range(now.count))) == list(now)
        assert list(now.random_order(random.Random(2))) == \
            list(dynamic.random_order(random.Random(2)))

    def test_dynamic_union_reads_through_its_snapshot(self):
        dynamic = MCUCQIndex(parse_ucq(UNION), union_db(), dynamic=True)
        for write in range(2):
            # No access structure over the live members: the index reads
            # through the one its latest snapshot built.
            assert dynamic._union is dynamic.snapshot._union
            assert dynamic._union.members == dynamic.snapshot.member_snapshots
            dynamic.insert("R", (80 + write, 2))
        assert not hasattr(dynamic._union, "refresh")

    def test_static_union_publishes_nothing(self):
        static = MCUCQIndex(parse_ucq(UNION), union_db())
        assert static.snapshot is None
        assert static.publishes == 0


class TestServiceSnapshotReads:
    def test_cursor_pins_one_version_until_staleness(self):
        service = QueryService(fresh_db(), dynamic=True)
        cursor = service.cursor(CHAIN)
        before = cursor.batch(range(cursor.count))
        pinned = cursor.pinned
        service.insert("R", (200, 0))
        # The pinned view still serves the old version...
        assert list(pinned) == before
        # ...while the cursor (reresolve policy) re-pins the new one.
        assert cursor.count == len(before) + 2
        assert cursor.pinned is not pinned

    def test_inflight_streams_survive_concurrent_writes(self):
        """random_order / iteration pin their snapshot: a write landing
        mid-stream can no longer corrupt the shuffle (the old documented
        'do not mutate while consuming' hazard is gone)."""
        service = QueryService(fresh_db(), dynamic=True)
        cursor = service.cursor(CHAIN)
        want = sorted(cursor.batch(range(cursor.count)))
        stream = cursor.random_order(random.Random(11))
        got = [next(stream) for __ in range(3)]
        service.insert("R", (300, 1))
        service.delete("S", (0, 1))
        got.extend(stream)
        assert sorted(got) == want

        plain = iter(service.cursor(CHAIN))
        head = [next(plain)]
        service.insert("R", (301, 2))
        head.extend(plain)
        # The enumeration is exactly the version pinned at the first draw.
        assert len(head) == len(set(head))

    def test_stats_expose_snapshot_read_and_publish_counters(self):
        service = QueryService(fresh_db(), dynamic=True)
        service.cursor(CHAIN).count
        service.cursor(CHAIN).page(0, page_size=4)
        service.insert("R", (400, 1))
        service.cursor(CHAIN).count
        stats = service.stats()
        assert stats.snapshot_reads >= 3
        assert stats.locked_reads == 0
        assert stats.snapshot_publishes >= 2  # initial publish + 1 write
        # The CLI surfaces stats via _asdict(); the new counters ride along.
        assert {"snapshot_reads", "locked_reads", "snapshot_publishes"} <= \
            set(stats._asdict())

    def test_mid_apply_read_serves_and_reports_the_last_published_pair(
        self, frozen_write
    ):
        """A read landing between the version bump and the slot's
        republication serves the pre-batch snapshot wait-free — and
        reports *that* pair's version, not the in-flight one — then picks
        up the new pair on the first read after publication."""
        service = QueryService(fresh_db(), dynamic=True)
        n0 = service.cursor(CHAIN).count
        cursor = service.cursor(CHAIN)
        # The mid-apply window: version published, the slot still
        # publishing the previous version's pair.
        with frozen_write(service, [("insert", "R", (901, 0))]):
            assert cursor.count == n0      # the pre-batch snapshot
            assert cursor.version == service.database.version - 1
        # Once the writer finishes, the very next read serves fresh data.
        assert cursor.count == n0 + 2
        assert cursor.version == service.database.version

    @pytest.mark.parametrize("on_stale", ["reresolve", "raise"])
    def test_pinned_then_version_name_one_published_pair(
        self, on_stale, frozen_write
    ):
        """``cursor.pinned`` followed by ``cursor.version`` (what every
        HTTP payload is built from) names the version the view was
        published for, across an in-flight write."""
        import threading

        service = QueryService(fresh_db(), dynamic=True)
        index = service.index(CHAIN)
        cursor = service.cursor(CHAIN, on_stale=on_stale)
        views = {cursor.version: cursor.pinned}
        # The write, frozen between Database.apply and the slot walk:
        # version published, nothing patched or republished yet.
        with frozen_write(service, [("insert", "R", (902, 0))]) as release:
            if on_stale == "raise":
                with pytest.raises(StaleCursorError):
                    cursor.pinned  # bound to the pre-batch version: stale
                cursor.refresh()   # bound to the in-flight version
                publish = threading.Timer(0.05, release.set)
                publish.start()
                view = cursor.pinned  # waits for the publication
                publish.join()
            else:
                view = cursor.pinned  # wait-free: the last published pair
                assert view is views[cursor.version]
        if on_stale == "reresolve":
            view = cursor.pinned
        assert cursor.version == service.database.version
        assert view is index.snapshot and view is not views[cursor.version - 1]
        assert view.count == views[cursor.version - 1].count + 2

    def test_cold_build_mid_write_is_labelled_with_the_version_it_was_built_from(
        self, frozen_write
    ):
        """A cache miss while a write is in flight does not wait the write
        out: it pins one database version, builds from the pin and is
        served under the pin's version. The writer's walk then finds the
        slot already at the batch's version and leaves it alone — neither
        discarding it nor patching the batch in a second time."""
        service = QueryService(fresh_db(), dynamic=True)
        n0 = service.cursor(CHAIN).count  # the warm slot the frozen walk will patch
        cold = "Q(x, y, z) :- R(x, y), S(y, z)"  # same answers, its own slot
        with frozen_write(service, [("insert", "R", (905, 0))]):
            cursor = service.cursor(cold)
            assert cursor.count == n0 + 2  # served now, from the new version
            assert cursor.version == service.database.version
            built = cursor.pinned
        # The walk has run: the warm slot caught up, the cold one stood.
        assert service.cursor(CHAIN).count == n0 + 2
        assert cursor.pinned is built and cursor.count == n0 + 2
        assert cursor.version == service.database.version
        stats = service.stats()
        assert stats.dynamic_builds == 2  # one per query, none repeated
        assert stats.invalidations == 0
        assert stats.in_place_updates == 1  # the warm slot only

    def test_out_of_band_bump_still_rebuilds_instead_of_serving_stale(self):
        """The mid-apply behind-version read path must not leak into
        out-of-band mutations: a version bump the service never saw
        leaves a lingering entry at version-1, and a read must rebuild
        fresh, not serve that entry's (stale) snapshot."""
        db = fresh_db()
        service = QueryService(db, dynamic=True)
        before = service.cursor(CHAIN).count
        db.insert("R", (900, 0))  # out-of-band: bypasses the service
        assert service.cursor(CHAIN).count == before + 2


class TestDeltaAwarePromotionCredit:
    def test_one_burst_promotes_a_write_heavy_query(self):
        """A single invalidating batch now credits churn per relevant
        effective op, so the threshold is crossed in one burst instead of
        promote_after separate mutations."""
        service = QueryService(fresh_db(), promote_after=3)
        service.cursor(CHAIN).count  # static build
        with service.transaction() as txn:
            for i in range(5):
                txn.insert("R", (500 + i, i % 3))
        assert service.stats().promotions == 0
        service.cursor(CHAIN).count  # next build: promoted by one 5-op burst
        stats = service.stats()
        assert stats.promotions == 1 and stats.dynamic_builds == 1

    def test_irrelevant_ops_do_not_credit_the_query(self):
        """Only effective ops over the query's own relations count: a
        burst over an unrelated relation carries the entry forward and
        leaves its churn pressure untouched."""
        db = fresh_db()
        db.add(Relation("Z", ("z",), [(0,)]))
        service = QueryService(db, promote_after=3)
        service.cursor(CHAIN).count
        with service.transaction() as txn:
            for i in range(10):
                txn.insert("Z", (100 + i,))
        service.cursor(CHAIN).count
        stats = service.stats()
        assert stats.carried_forward == 1
        assert stats.promotions == 0 and stats.dynamic_builds == 0

    def test_single_fact_mutations_keep_the_old_threshold(self):
        service = QueryService(fresh_db(), promote_after=3)
        for i in range(3):
            service.cursor(CHAIN).count
            service.insert("R", (600 + i, i % 3))
        service.cursor(CHAIN).count
        stats = service.stats()
        assert stats.promotions == 1
