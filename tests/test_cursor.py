"""Tests for the Cursor read surface, transactions, and the apply CLI."""

import json
import random
import threading

import numpy as np
import pytest

from repro import (
    CQIndex,
    Cursor,
    Database,
    QueryService,
    Relation,
    ReproError,
    StaleCursorError,
    parse_cq,
)
from repro.cli import main


def fresh_db() -> Database:
    return Database([
        Relation("R", ("a", "b"), [(1, 10), (2, 20), (3, 30)]),
        Relation("S", ("b", "c"), [(10, 100), (10, 101), (20, 200), (30, 300)]),
    ])


CHAIN = "Q(a, b, c) :- R(a, b), S(b, c)"
UNION = "Q(a, b, c) :- R(a, b), S(b, c) ; Q(a, b, c) :- R(a, b), T(b, c)"


def wide_db() -> Database:
    """Enough answers (> VECTOR_MIN) for the flat kernel to take a batch,
    and a union whose members overlap."""
    return Database([
        Relation("R", ("a", "b"), [(a, a % 4) for a in range(16)]),
        Relation("S", ("b", "c"), [(b, 10 * b + i) for b in range(4) for i in range(3)]),
        Relation("T", ("b", "c"), [(b, 10 * b + i) for b in range(1, 4) for i in (2, 5)]),
    ])


def _dynamic_union():
    from repro import MCUCQIndex, parse_ucq

    return MCUCQIndex(parse_ucq(UNION), wide_db(), dynamic=True)


def _dynamic_cq():
    from repro import DynamicCQIndex

    return DynamicCQIndex(parse_cq(CHAIN), wide_db())


#: View kind → a built view, or a cursor whose pinned view is that kind.
READ_VIEWS = {
    "CQIndex-tuple": lambda: QueryService(wide_db(), store="tuple", dynamic=False).cursor(CHAIN),
    "CQIndex-flat": lambda: QueryService(wide_db(), store="flat", dynamic=False).cursor(CHAIN),
    "DynamicCQIndex": _dynamic_cq,
    "IndexSnapshot": lambda: QueryService(wide_db(), dynamic=True).cursor(CHAIN),
    "MCUCQIndex-static": lambda: QueryService(wide_db(), dynamic=False).cursor(UNION),
    "MCUCQIndex-dynamic": _dynamic_union,
    "UnionIndexSnapshot": lambda: QueryService(wide_db(), dynamic=True).cursor(UNION),
}


class TestCursorReads:
    def test_cursor_agrees_with_free_methods(self):
        """Every cursor read equals the same read on a fresh static build."""
        service = QueryService(fresh_db())
        cursor = service.cursor(CHAIN)
        oracle = CQIndex(parse_cq(CHAIN), service.database)
        assert isinstance(cursor, Cursor)
        n = cursor.count
        assert n == oracle.count == len(cursor)
        assert cursor.get(0) == oracle.access(0)
        assert cursor.batch([2, 0, 2]) == oracle.batch([2, 0, 2])
        assert cursor.batch_range(1, 3) == oracle.batch([1, 2])
        assert cursor.sample(2, random.Random(5)) == \
            oracle.sample_many(2, random.Random(5))
        for position, answer in enumerate(oracle.batch(range(n))):
            assert cursor.position_of(answer) == position
            assert answer in cursor
        assert (99, 99, 99) not in cursor
        assert sorted(cursor.random_order(random.Random(1))) == sorted(oracle)

    def test_query_resolves_exactly_once(self):
        service = QueryService(fresh_db())
        cursor = service.cursor(CHAIN)
        resolved = cursor.query
        cursor.count
        cursor.get(0)
        assert cursor.query is resolved  # same parsed object throughout
        # One build and one probe per pinned version: the second read
        # serves from the pinned view without touching the cache again.
        info = service.stats()
        assert info.misses == 1 and info.hits == 0
        assert service.stats().snapshot_reads == 2
        # A mutation re-pins (one more probe), then reads are probe-free.
        service.insert("R", (7, 10))
        cursor.count
        cursor.get(0)
        assert service.stats().misses == 2  # static entry rebuilt
        assert service.stats().locked_reads == 0

    def test_pages_cover_the_enumeration_in_order(self):
        service = QueryService(fresh_db())
        cursor = service.cursor(CHAIN)
        pages = list(cursor.pages(page_size=2))
        assert [len(p) for p in pages] == [2, 2]
        assert [t for page in pages for t in page] == \
            cursor.batch(range(cursor.count))
        assert cursor.page(0, page_size=3) == cursor.batch_range(0, 3)
        assert cursor.page(99, page_size=3) == []  # past the end: empty
        with pytest.raises(ValueError):
            cursor.page(-1)

    def test_membership_on_union_cursor_falls_back_to_enumeration(self):
        """Regression: the union index has no inverted access; membership
        must still answer correctly (via the index's own fallback), not
        conflate 'unsupported' with 'absent'."""
        db = fresh_db()
        db.add(Relation("T", ("b", "c"), [(10, 100), (20, 777)]))
        service = QueryService(db)
        union = "Q(a, b, c) :- R(a, b), S(b, c) ; Q(a, b, c) :- R(a, b), T(b, c)"
        cursor = service.cursor(union)
        answer = cursor.get(0)
        assert answer in cursor
        assert (99, 99, 99) not in cursor
        # position_of refuses (no inverted support) instead of answering
        # None, which would read as "not an answer".
        with pytest.raises(ValueError, match="union"):
            cursor.position_of(answer)

    @pytest.mark.parametrize("dynamic", [False, True], ids=["static", "dynamic"])
    def test_union_cursor_ensures_inverted_support(self, dynamic):
        """Regression: the union views had no ensure_inverted_support, so
        the cursor's raised AttributeError."""
        cursor = QueryService(wide_db(), dynamic=dynamic).cursor(UNION)
        cursor.ensure_inverted_support()
        assert cursor.get(0) in cursor

    def test_cursor_duck_types_the_index_contract(self):
        service = QueryService(fresh_db())
        cursor = service.cursor(CHAIN)
        index = service.index(CHAIN)
        assert cursor.access(1) == index.access(1)
        assert cursor.sample_many(2, random.Random(3)) == \
            index.sample_many(2, random.Random(3))
        assert cursor.inverted_access(index.access(2)) == 2
        assert list(cursor) == list(index)
        cursor.ensure_inverted_support()  # must not raise
        assert cursor.index is index

    @pytest.mark.parametrize("kind", sorted(READ_VIEWS))
    def test_every_view_serves_the_index_contract(self, kind, monkeypatch):
        """Every view kind serves one read surface; a cursor pinning it
        serves the same answers."""
        from repro.core import access_engine, flat_store
        from repro.core.errors import OutOfBoundError

        built = READ_VIEWS[kind]()
        views = [built]
        if isinstance(built, Cursor):
            views.append(built.pinned)
            assert type(built.pinned).__name__ == kind.split("-")[0]
        for view in views:
            n = view.count
            assert n > 40 and len(view) == n
            wanted = [n - 1, 0, 7, 7, n // 2, 0] + list(range(3, n, 5))
            expected = [view.access(i) for i in wanted]
            assert view.batch(wanted) == expected
            assert view.batch(np.array(wanted, dtype=np.int64)) == expected
            every = view.batch(range(n))
            assert every == [view.access(i) for i in range(n)]
            assert list(view) == every
            for seed in (1, 2):
                drawn, streamed = random.Random(seed), random.Random(seed)
                stream = view.random_order(streamed)
                first = [next(stream) for __ in range(n // 2)]
                assert view.sample_many(n // 2, drawn) == first
                assert drawn.getstate() == streamed.getstate()
            assert every[n // 3] in view and list(every[-1]) in view
            assert (-1, -1, -1) not in view
            view.ensure_inverted_support()

            def resolved(*args):
                raise AssertionError("resolved before the bound check")

            # Unsorted, with duplicates, and long enough for the flat
            # kernel (flat_store.VECTOR_MIN) as well as short.
            for asked in (wanted, wanted * 3, range(n), range(3, n, 5),
                          np.array(wanted * 3, dtype=np.int64), [2, 1], []):
                assert view.batch_json(asked) == json.dumps(view.batch(asked))
            for bad in ([0, n], [-1, 1], range(n - 1, n + 1),
                        np.array(list(range(40)) + [n], dtype=np.int64)):
                with pytest.raises(OutOfBoundError) as raised:
                    view.batch(bad)
                with pytest.raises(OutOfBoundError) as encoded:
                    view.batch_json(bad)
                assert encoded.value.args == raised.value.args

            with monkeypatch.context() as patch:
                patch.setattr(access_engine, "batch_walk", resolved)
                patch.setattr(access_engine, "vector_batch", resolved)
                patch.setattr(flat_store, "flat_batch_json", resolved)
                for bad in ([0, n], [-1, 1], range(n - 1, n + 1)):
                    with pytest.raises(OutOfBoundError):
                        view.batch(bad)
                    with pytest.raises(OutOfBoundError):
                        view.batch_json(bad)
        assert views[0].batch(range(views[0].count)) == every


class TestCursorStaleness:
    def test_reresolve_policy_follows_mutations(self):
        service = QueryService(fresh_db(), dynamic=True)
        cursor = service.cursor(CHAIN)
        assert cursor.count == 4
        backing = cursor.index
        version = cursor.version
        assert service.insert("S", (30, 301))
        assert cursor.is_stale
        assert cursor.count == 5          # transparently re-bound
        assert not cursor.is_stale
        assert cursor.version == version + 1
        assert cursor.index is backing    # dynamic entry patched in place

    def test_raise_policy_raises_until_refreshed(self):
        service = QueryService(fresh_db())
        cursor = service.cursor(CHAIN, on_stale="raise")
        assert cursor.count == 4
        assert service.delete("R", (1, 10))
        with pytest.raises(StaleCursorError) as excinfo:
            cursor.count
        assert isinstance(excinfo.value, ReproError)
        assert excinfo.value.bound_version < excinfo.value.current_version
        # Reads stay blocked until the caller acknowledges the new version.
        with pytest.raises(StaleCursorError):
            cursor.get(0)
        assert cursor.refresh() is cursor
        assert cursor.count == 2

    def test_raise_cursor_opened_mid_write_serves_only_after_publication(
        self, frozen_write
    ):
        """A strict cursor bound to the in-flight version must wait for
        that version's publication — never serve the pre-batch view under
        the new version's name."""
        service = QueryService(fresh_db(), dynamic=True)
        before = service.cursor(CHAIN).pinned
        # A write frozen after the version bump, before the slot walk.
        with frozen_write(service, [("insert", "S", (30, 301))]):
            cursor = service.cursor(CHAIN, on_stale="raise")
            assert cursor.version == service.database.version
            served = []
            reader = threading.Thread(
                target=lambda: served.append(cursor.pinned)
            )
            reader.start()
            reader.join(timeout=0.1)
            assert reader.is_alive() and not served  # nothing published yet
        reader.join(timeout=10)
        assert not reader.is_alive()
        assert served[0] is not before
        assert served[0].count == before.count + 1
        assert cursor.version == service.database.version

    def test_unknown_policy_rejected(self):
        service = QueryService(fresh_db())
        with pytest.raises(ValueError):
            service.cursor(CHAIN, on_stale="explode")

    def test_stale_check_happens_before_serving(self):
        """A raise-policy cursor must never serve answers from a newer
        version than the one it reports."""
        service = QueryService(fresh_db())
        cursor = service.cursor(CHAIN, on_stale="raise")
        bound = cursor.version
        service.insert("S", (30, 999))
        with pytest.raises(StaleCursorError):
            cursor.batch_range(0, 10)
        assert cursor.version == bound  # binding unchanged by the failure


class TestTransactions:
    def test_transaction_buffers_and_applies_once(self):
        service = QueryService(fresh_db(), dynamic=True)
        service.cursor(CHAIN).count
        version = service.database.version
        with service.transaction() as txn:
            txn.insert("R", (4, 10))
            txn.delete("S", (20, 200))
            assert service.database.version == version  # nothing applied yet
        assert service.database.version == version + 1
        assert txn.result.inserted == 1 and txn.result.deleted == 1
        assert service.cursor(CHAIN).count == 5
        assert service.stats().batched_updates == 1

    def test_transaction_rolls_back_on_exception(self):
        service = QueryService(fresh_db())
        version = service.database.version
        with pytest.raises(RuntimeError):
            with service.transaction() as txn:
                txn.insert("R", (4, 10))
                raise RuntimeError("abort")
        assert service.database.version == version
        assert txn.result is None
        assert (4, 10) not in service.database.relation("R").rows

    def test_transaction_validates_at_recording_time(self):
        service = QueryService(fresh_db())
        from repro import DeltaError
        with pytest.raises(DeltaError):
            with service.transaction() as txn:
                txn.insert("R", (1, 2, 3))  # wrong arity: fails fast
        assert service.database.version == fresh_db().version


class TestApplyCli:
    @pytest.fixture()
    def csv_db(self, tmp_path):
        (tmp_path / "R.csv").write_text("a,b\n1,10\n2,20\n")
        (tmp_path / "S.csv").write_text("b,c\n10,x\n10,y\n20,z\n")
        return tmp_path

    def test_apply_reports_per_relation_counts_and_persists(self, csv_db, capsys):
        delta_file = csv_db / "delta.jsonl"
        delta_file.write_text(
            '{"op": "insert", "relation": "R", "row": [3, 10]}\n'
            '{"op": "insert", "relation": "R", "row": [1, 10]}\n'
            '{"op": "delete", "relation": "S", "row": [20, "z"]}\n'
            '\n'
            '{"op": "insert", "relation": "S", "row": [10, "w"]}\n'
            '{"op": "delete", "relation": "S", "row": [10, "w"]}\n'
        )
        assert main(["apply", str(csv_db), str(delta_file)]) == 0
        out = capsys.readouterr().out
        assert "R: 1 applied (+1 -0), 1 no-op" in out
        assert "S: 1 applied (+0 -1), 1 no-op" in out
        assert "1 inserted, 1 deleted, 2 no-op" in out
        assert (csv_db / "R.csv").read_text().splitlines()[-1] == "3,10"
        assert "20,z" not in (csv_db / "S.csv").read_text()

    def test_apply_rejects_bad_arity_with_line_number(self, csv_db, capsys):
        delta_file = csv_db / "delta.jsonl"
        delta_file.write_text('{"op": "insert", "relation": "R", "row": [9]}\n')
        before = (csv_db / "R.csv").read_text()
        with pytest.raises(SystemExit) as excinfo:
            main(["apply", str(csv_db), str(delta_file)])
        assert "delta.jsonl:1" in str(excinfo.value)
        assert "arity" in str(excinfo.value)
        assert (csv_db / "R.csv").read_text() == before  # nothing applied

    def test_apply_rejects_malformed_lines(self, csv_db):
        delta_file = csv_db / "delta.jsonl"
        for bad in (
            "not json",
            '{"op": "insert"}',
            '{"op": "insert", "relation": "R", "row": 3}',
            # Nested values must be rejected up front with the line number,
            # not crash later as unhashable rows deep in Database.apply.
            '{"op": "insert", "relation": "R", "row": [2, [3]]}',
            '{"op": "insert", "relation": "R", "row": [2, {"x": 1}]}',
        ):
            delta_file.write_text(bad + "\n")
            with pytest.raises(SystemExit) as excinfo:
                main(["apply", str(csv_db), str(delta_file)])
            assert "delta.jsonl:1" in str(excinfo.value)

    def test_apply_missing_file_exits(self, csv_db):
        with pytest.raises(SystemExit):
            main(["apply", str(csv_db), str(csv_db / "nope.jsonl")])
