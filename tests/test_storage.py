"""Unit tests for the durability tier (PR: crash-safe persistence).

Covers the canonical value encoding, atomic file publication, the
write-ahead log, checkpoints, the DurableStore recovery contract, and
the QueryService storage surface. Crash injection (torn files, missing
manifests) lives in ``test_recovery_crash.py``.
"""

import math
import pickle
import threading

import pytest

from repro import (
    Database,
    Delta,
    MCUCQIndex,
    QueryService,
    Relation,
    ReproError,
    StorageError,
    WalError,
    WriteAheadLog,
    parse_ucq,
)
from repro.database.relation import RelationError
from repro.storage import (
    DurableStore,
    ValueEncodingError,
    atomic_write_text,
    decode_cell,
    decode_row,
    encode_cell,
    encode_row,
    latest_checkpoint,
    load_checkpoint,
    prune_checkpoints,
    valid_checkpoints,
    write_checkpoint,
    write_relation_csv,
)

QUERY = "Q(a, b, c) :- R(a, b), S(b, c)"


def make_database():
    return Database([
        Relation("R", ("a", "b"), [(1, 10), (2, 20)]),
        Relation("S", ("b", "c"), [(10, "x"), (10, "y"), (20, "z")]),
    ])


# --------------------------------------------------------------------- #
# Canonical value encoding                                               #
# --------------------------------------------------------------------- #


class TestValueEncoding:
    @pytest.mark.parametrize("value", [
        None, True, False, 0, 1, -7, 10**30,
        0.5, -2.25, 1e300, float("inf"), float("-inf"),
        "", "x", "hello world", "True", "None", "null", "true", "false",
        "1", "-7", "2.5", "1e5", "nan", "inf", "1_000", " 1", "1 ",
        '"quoted"', '"', "ünïcode", "a,b", 'embedded "quotes" inside',
    ])
    def test_round_trip(self, value):
        assert decode_cell(encode_cell(value)) == value
        assert type(decode_cell(encode_cell(value))) is type(value)

    def test_nan_round_trips_as_nan(self):
        out = decode_cell(encode_cell(float("nan")))
        assert isinstance(out, float) and math.isnan(out)

    def test_json_literals(self):
        assert encode_cell(None) == "null"
        assert encode_cell(True) == "true"
        assert encode_cell(False) == "false"
        assert decode_cell("null") is None
        assert decode_cell("true") is True
        assert decode_cell("false") is False

    def test_ambiguous_strings_are_quoted(self):
        # Strings that would decode as something else must not be raw.
        for text in ("1", "true", "null", "2.5", "1_000", " 1", "nan"):
            assert encode_cell(text).startswith('"')
        # Plain strings stay raw (human-readable CSV).
        assert encode_cell("hello") == "hello"

    def test_int_float_never_collide(self):
        assert decode_cell(encode_cell(1)) == 1
        assert isinstance(decode_cell(encode_cell(1.0)), float)
        assert isinstance(decode_cell(encode_cell(1)), int)

    def test_bool_int_never_collide(self):
        assert decode_cell(encode_cell(True)) is True
        assert decode_cell(encode_cell(1)) == 1
        assert decode_cell(encode_cell(1)) is not True

    def test_legacy_cells_still_load(self):
        # Files written by the pre-durability CSV writer: plain ints,
        # floats, and ordinary strings load with identical results.
        assert decode_cell("42") == 42
        assert decode_cell("2.5") == 2.5
        assert decode_cell("hello") == "hello"

    def test_unsupported_type_raises(self):
        with pytest.raises(ValueEncodingError):
            encode_cell((1, 2))
        with pytest.raises(ValueEncodingError):
            encode_row([(1, 2)])
        with pytest.raises(TypeError):  # ValueEncodingError is a TypeError
            encode_cell(object())

    def test_row_round_trip(self):
        row = (1, "x", None, True, 2.5)
        assert decode_row(encode_row(row)) == row


# --------------------------------------------------------------------- #
# Atomic file publication                                                #
# --------------------------------------------------------------------- #


class TestAtomicWrites:
    def test_publish_and_replace(self, tmp_path):
        target = tmp_path / "data.txt"
        atomic_write_text(target, "one")
        assert target.read_text() == "one"
        atomic_write_text(target, "two")
        assert target.read_text() == "two"
        assert not (tmp_path / "data.txt.tmp").exists()

    def test_csv_round_trips_through_loader(self, tmp_path):
        from repro.cli import load_csv_database

        relation = Relation("T", ("a", "b"), [
            (1, "x"), (None, True), (2.5, "1"), ("true", "a,b"),
        ])
        write_relation_csv(tmp_path, relation)
        loaded = load_csv_database(str(tmp_path)).relation("T")
        assert loaded.columns == ("a", "b")
        assert set(loaded.rows) == set(relation.rows)

    def test_reinsert_after_reload_can_be_deleted(self, tmp_path):
        # The bug the canonical encoding fixes: a persisted fact must
        # compare equal to the in-memory fact, or its delete no-ops.
        from repro.cli import load_csv_database

        write_relation_csv(tmp_path, Relation("T", ("a",), [(True,), ("1",)]))
        db = load_csv_database(str(tmp_path))
        assert db.delete("T", (True,)) is True
        assert db.delete("T", ("1",)) is True
        assert len(db.relation("T")) == 0


# --------------------------------------------------------------------- #
# Write-ahead log                                                        #
# --------------------------------------------------------------------- #


class TestWriteAheadLog:
    def test_create_append_reopen(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        wal = WriteAheadLog.open(path, instance_id="abc", base_version=3)
        wal.append(4, [("insert", "R", (1, 10))])
        wal.append(6, [("delete", "R", (1, 10)), ("insert", "S", ("x", None))])
        wal.close()

        reopened = WriteAheadLog.open(path)
        assert reopened.instance_id == "abc"
        assert reopened.base_version == 3
        assert reopened.last_version == 6
        assert reopened.discarded_records == 0
        records = list(reopened.records())
        assert [r.version for r in records] == [4, 6]
        assert records[1].ops == [
            ("delete", "R", (1, 10)), ("insert", "S", ("x", None)),
        ]

    def test_records_after_filters(self, tmp_path):
        wal = WriteAheadLog.open(tmp_path / "w", instance_id="i")
        for v in (1, 2, 3):
            wal.append(v, [("insert", "R", (v,))])
        assert [r.version for r in wal.records(after=1)] == [2, 3]

    def test_out_of_order_append_raises(self, tmp_path):
        wal = WriteAheadLog.open(tmp_path / "w", instance_id="i", base_version=5)
        with pytest.raises(WalError):
            wal.append(5, [])
        wal.append(6, [("insert", "R", (1,))])
        with pytest.raises(WalError):
            wal.append(6, [("insert", "R", (2,))])

    def test_open_missing_without_instance_raises(self, tmp_path):
        with pytest.raises(WalError):
            WriteAheadLog.open(tmp_path / "nope")

    def test_open_wrong_instance_raises(self, tmp_path):
        path = tmp_path / "w"
        WriteAheadLog.open(path, instance_id="owner").close()
        with pytest.raises(WalError):
            WriteAheadLog.open(path, instance_id="intruder")

    def test_truncate_through_rebases(self, tmp_path):
        path = tmp_path / "w"
        wal = WriteAheadLog.open(path, instance_id="i")
        for v in (1, 2, 3, 4):
            wal.append(v, [("insert", "R", (v,))])
        assert wal.truncate_through(2) == 2
        assert wal.base_version == 2
        assert [r.version for r in wal.records()] == [3, 4]

        reopened = WriteAheadLog.open(path)
        assert reopened.base_version == 2
        assert [r.version for r in reopened.records()] == [3, 4]
        # And the log accepts appends on the rebased tail.
        reopened.append(5, [("insert", "R", (5,))])
        assert reopened.last_version == 5


# --------------------------------------------------------------------- #
# Checkpoints                                                            #
# --------------------------------------------------------------------- #


class TestCheckpoints:
    def test_write_and_load(self, tmp_path):
        db = make_database()
        path = write_checkpoint(tmp_path, db)
        assert path.name == f"ckpt-{db.version:012d}"
        ckpt = load_checkpoint(path)
        assert ckpt.version == db.version
        assert ckpt.instance_id == db.instance_id
        loaded = {name: (columns, rows) for name, columns, rows in ckpt.relations}
        assert set(loaded) == {"R", "S"}
        assert loaded["R"][1] == db.relation("R").rows

    def test_latest_picks_newest(self, tmp_path):
        db = make_database()
        write_checkpoint(tmp_path, db)
        db.insert("R", (3, 30))
        write_checkpoint(tmp_path, db)
        assert len(valid_checkpoints(tmp_path)) == 2
        assert latest_checkpoint(tmp_path).version == db.version

    def test_prune_keeps_newest(self, tmp_path):
        db = make_database()
        for i in range(4):
            db.insert("R", (100 + i, i))
            write_checkpoint(tmp_path, db)
        assert prune_checkpoints(tmp_path, keep=2) == 2
        remaining = valid_checkpoints(tmp_path)
        assert len(remaining) == 2
        assert latest_checkpoint(tmp_path).version == db.version

    def test_serve_state_round_trips(self, tmp_path):
        db = make_database()
        key = ("cq", "canonical", "key")
        path = write_checkpoint(tmp_path, db, serve_state=[(key, {"n": 3})])
        ckpt = load_checkpoint(path)
        assert ckpt.serve_state == [(key, {"n": 3})]

    def test_unpicklable_serve_entry_skipped(self, tmp_path):
        db = make_database()
        path = write_checkpoint(
            tmp_path, db,
            serve_state=[(("bad",), lambda: None), (("good",), 7)],
        )
        ckpt = load_checkpoint(path)
        assert ckpt.serve_state == [(("good",), 7)]

    def test_rewrite_same_version_is_atomic(self, tmp_path):
        db = make_database()
        write_checkpoint(tmp_path, db)
        path = write_checkpoint(tmp_path, db)  # same version again
        assert load_checkpoint(path).version == db.version
        assert len(valid_checkpoints(tmp_path)) == 1


# --------------------------------------------------------------------- #
# DurableStore: bind / checkpoint / recover                              #
# --------------------------------------------------------------------- #


class TestDurableStore:
    def test_bind_writes_base_checkpoint_and_logs(self, tmp_path):
        db = make_database()
        store = DurableStore(tmp_path).bind(db)
        assert db.log is store.wal
        assert latest_checkpoint(tmp_path).version == db.version
        db.insert("R", (3, 30))
        db.apply(Delta(database=db).insert("S", (30, "w")).delete("R", (1, 10)))
        assert store.wal.appends == 2

    def test_recover_replays_to_last_version(self, tmp_path):
        db = make_database()
        DurableStore(tmp_path).bind(db)
        db.insert("R", (3, 30))
        db.delete("S", (10, "x"))
        db.log.close()

        recovered, report = DurableStore(tmp_path).recover()
        assert recovered.version == db.version
        assert recovered.instance_id == db.instance_id
        assert set(recovered.relation("R").rows) == set(db.relation("R").rows)
        assert set(recovered.relation("S").rows) == set(db.relation("S").rows)
        assert report.replayed_batches == 2
        assert report.final_version == db.version
        # The recovered database stays durable: writes keep logging.
        recovered.insert("R", (4, 40))
        again, __ = DurableStore(tmp_path).recover()
        assert again.version == recovered.version

    def test_checkpoint_trims_wal(self, tmp_path):
        db = make_database()
        store = DurableStore(tmp_path).bind(db)
        db.insert("R", (3, 30))
        db.insert("R", (4, 40))
        store.checkpoint(db)
        assert len(store.wal) == 0  # tail folded into the checkpoint
        db.insert("R", (5, 50))
        recovered, report = DurableStore(tmp_path).recover()
        assert report.checkpoint_version == db.version - 1
        assert report.replayed_batches == 1
        assert recovered.version == db.version

    def test_recover_empty_directory_raises(self, tmp_path):
        with pytest.raises(StorageError):
            DurableStore(tmp_path / "empty").recover()

    def test_bind_diverged_database_raises(self, tmp_path):
        db = make_database()
        DurableStore(tmp_path).bind(db)
        db.insert("R", (3, 30))
        db.log.close()
        recovered, __ = DurableStore(tmp_path).recover()
        recovered.insert("R", (9, 90))  # store moves past the stale copy
        recovered.log.close()
        db.bind_log(None)
        with pytest.raises(StorageError):
            DurableStore(tmp_path).bind(db)

    def test_bind_foreign_instance_raises(self, tmp_path):
        db = make_database()
        DurableStore(tmp_path).bind(db)
        db.log.close()
        intruder = make_database()
        with pytest.raises(StorageError):
            DurableStore(tmp_path).bind(intruder)

    def test_copy_clone_cannot_join_history(self, tmp_path):
        db = make_database()
        store = DurableStore(tmp_path).bind(db)
        clone = db.copy()
        assert clone.log is None  # copies shed the log
        with pytest.raises(ReproError):
            clone.bind_log(store.wal)
        with pytest.raises(StorageError):
            store.checkpoint(clone)

    def test_database_recover_classmethod(self, tmp_path):
        db = make_database()
        DurableStore(tmp_path).bind(db)
        db.insert("R", (3, 30))
        db.log.close()
        recovered = Database.recover(tmp_path)
        assert recovered.version == db.version
        assert recovered.log is not None

    def test_wal_append_failure_leaves_database_untouched(self, tmp_path):
        db = make_database()
        DurableStore(tmp_path).bind(db)
        version = db.version
        rows = list(db.relation("R").rows)

        class Exploding:
            instance_id = db.instance_id

            def append(self, version, ops):
                raise OSError("disk full")

        db.bind_log(Exploding())
        with pytest.raises(OSError):
            db.insert("R", (99, 99))
        assert db.version == version
        assert db.relation("R").rows == rows


# --------------------------------------------------------------------- #
# QueryService storage surface                                           #
# --------------------------------------------------------------------- #


class TestServiceDurability:
    def test_storage_path_binds(self, tmp_path):
        service = QueryService(make_database(), storage=tmp_path)
        assert service.storage is not None
        assert service.database.log is service.storage.wal

    def test_stats_counters(self, tmp_path):
        service = QueryService(make_database(), storage=tmp_path)
        service.insert("R", (3, 30))
        service.delete("S", (10, "x"))
        service.checkpoint()
        stats = service.stats()
        assert stats.wal_appends == 2
        assert stats.checkpoints == 2  # base + explicit
        assert stats.wal_replayed_ops == 0

    def test_stats_counters_without_storage(self):
        stats = QueryService(make_database()).stats()
        assert stats.wal_appends == 0
        assert stats.wal_replayed_ops == 0
        assert stats.checkpoints == 0

    def test_checkpoint_without_storage_raises(self):
        with pytest.raises(StorageError):
            QueryService(make_database()).checkpoint()

    def test_recover_round_trips_answers(self, tmp_path):
        service = QueryService(make_database(), storage=tmp_path, dynamic=True)
        before = service.cursor(QUERY).count
        service.insert("S", (20, "w"))
        service.checkpoint()
        service.apply(
            Delta(database=service.database).insert("R", (3, 20)).delete("S", (10, "x"))
        )
        expected = service.cursor(QUERY).count
        assert expected != before

        recovered = QueryService.recover(tmp_path, dynamic=True)
        assert recovered.cursor(QUERY).count == expected
        assert recovered.database.version == service.database.version
        report = recovered.storage.last_report
        assert report.replayed_batches == 1
        assert recovered.stats().wal_replayed_ops == report.replayed_ops

    def test_recover_seeds_serve_state(self, tmp_path):
        service = QueryService(make_database(), storage=tmp_path)
        service.cursor(QUERY).count  # build the index the checkpoint will carry
        service.checkpoint()

        recovered = QueryService.recover(tmp_path)
        report = recovered.storage.last_report
        assert report.serve_entries_seeded >= 1
        # The answer comes from the seeded index: serving the query after
        # recovery adds no cache miss (no fresh O(|D|) build).
        misses_after_recovery = recovered.stats().misses
        assert recovered.cursor(QUERY).count == service.cursor(QUERY).count
        assert recovered.stats().misses == misses_after_recovery

    def test_recovered_service_keeps_serving_through_writes(self, tmp_path):
        service = QueryService(make_database(), storage=tmp_path, dynamic=True)
        service.cursor(QUERY).count
        service.checkpoint()
        service.insert("S", (20, "w"))

        recovered = QueryService.recover(tmp_path, dynamic=True)
        assert recovered.cursor(QUERY).count == service.cursor(QUERY).count
        recovered.insert("S", (20, "v"))
        assert recovered.cursor(QUERY).count == service.cursor(QUERY).count + 1

    def test_dynamic_union_is_checkpointed_and_absorbs_the_tail(
        self, tmp_path, store
    ):
        # Regression: the member presence hook was a local closure, so a
        # dynamic mc-UCQ never pickled — it was counted under
        # skipped_entries and rebuilt (all 2^m indexes) on recovery.
        union = "Q(a, b, c) :- R(a, b), S(b, c) ; Q(a, b, c) :- R(a, b), T(b, c)"
        database = make_database()
        database.add(Relation("T", ("b", "c"), [(10, "y"), (20, "q")]))
        service = QueryService(
            database, storage=tmp_path, dynamic=True, store=store
        )
        service.cursor(union).count
        service.checkpoint()
        assert service.storage.last_manifest["skipped_entries"] == 0
        service.insert("T", (10, "x"))
        service.apply(
            Delta(database=database).delete("S", (10, "y")).insert("R", (3, 20))
        )
        service.delete("T", (20, "q"))

        recovered = QueryService.recover(tmp_path, dynamic=True, store=store)
        report = recovered.storage.last_report
        assert report.serve_entries_seeded == 1
        assert report.replayed_batches == 3
        # The seeded union absorbed the replayed tail in place (no build).
        assert recovered.stats().dynamic_builds == 0
        fresh = list(MCUCQIndex(parse_ucq(union), recovered.database))
        assert recovered.cursor(union).batch(range(len(fresh))) == fresh
        assert recovered.cursor(union).count == len(fresh)
        assert recovered.stats().dynamic_builds == 0

    def test_checkpoints_serialize_with_a_concurrent_writer(self, tmp_path):
        """``QueryService.checkpoint`` is a writer: it runs under the
        service's write lock, so its WAL trim (close + rewrite) never
        lands under a concurrent append, each checkpoint is of exactly
        one version, and recovery lands on the last acknowledged batch."""
        service = QueryService(make_database(), storage=tmp_path, dynamic=True)
        service.cursor(QUERY).count  # serve-state for the checkpoints to pickle
        database = service.database

        def generation_rows(generation):
            return [(generation * 1000 + i, 10 + 10 * (i % 2)) for i in range(6)]

        # version -> the R rows that version holds (one generation each).
        model = {database.version: sorted(database.relation("R").rows)}
        stop = threading.Event()
        errors = []

        def writer():
            previous = database.relation("R").rows
            generation = 0
            try:
                while not stop.is_set() and generation < 2000:
                    generation += 1
                    delta = Delta(database=database)
                    for row in previous:
                        delta.delete("R", row)
                    previous = generation_rows(generation)
                    for row in previous:
                        delta.insert("R", row)
                    service.apply(delta)
                    # The only writer: the version right after its own
                    # apply is the version that batch produced.
                    model[database.version] = sorted(previous)
            except BaseException as error:
                errors.append(error)

        thread = threading.Thread(target=writer)
        thread.start()
        checkpoints = []
        try:
            for __ in range(25):
                ckpt = load_checkpoint(service.checkpoint())
                checkpoints.append((
                    ckpt.version,
                    {name: sorted(rows) for name, __, rows in ckpt.relations},
                ))
        finally:
            stop.set()
            thread.join(timeout=60)
        assert not thread.is_alive()
        assert not errors, errors
        assert service.stats().degraded_entries == 0
        assert len(model) > 1  # the writer did run beside the checkpoints
        for version, relations in checkpoints:
            assert relations["R"] == model[version], version
        service.storage.wal.close()
        recovered = QueryService.recover(tmp_path).database
        recovered.log.close()
        assert recovered.version == database.version
        assert recovered.names() == database.names()
        for relation in database:
            assert sorted(recovered.relation(relation.name).rows) == \
                sorted(relation.rows)
        assert sorted(recovered.relation("R").rows) == model[database.version]

    def test_serve_state_survives_pickle_of_index(self, tmp_path):
        # The checkpointed index objects must actually pickle (they carry
        # no open handles); guard against a future unpicklable field.
        service = QueryService(make_database(), storage=tmp_path)
        service.cursor(QUERY).count
        state = service._serve_state(service.database.version)
        assert state
        for __, entry in state:
            pickle.loads(pickle.dumps(entry))
