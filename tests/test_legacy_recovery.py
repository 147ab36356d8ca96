"""A durable store written before dynamic indexes read only through their
published snapshots still recovers.

``tests/data/legacy_store`` holds one store per bucket backend, written by
``write_legacy_store.py`` when a dynamic forest kept its live nodes as
``roots`` and a dynamic union kept an access structure over its live
members. Each checkpoint pickles a dynamic CQ index and a dynamic mc-UCQ
index; a WAL tail of three batches follows. Recovery must replay that tail
through the pickled entries (the tuple store) or rebuild them (the flat
store's pickles name bucket classes that no longer exist, so the
checkpoint loader skips them), serve what a fresh build serves, and keep
absorbing writes.
"""

import importlib.util
import pathlib
import shutil

import pytest

from repro import Database, MCUCQIndex, QueryService
from repro.storage import latest_checkpoint

FIXTURE = pathlib.Path(__file__).resolve().parent / "data" / "legacy_store"


def _writer():
    spec = importlib.util.spec_from_file_location(
        "_write_legacy_store", FIXTURE / "write_legacy_store.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WRITER = _writer()


def _expected_database() -> Database:
    database = WRITER.database()
    for ops in WRITER.BEFORE + WRITER.TAIL:
        for op, relation, row in ops:
            getattr(database, op)(relation, row)
    return database


def _answers(service, query):
    cursor = service.cursor(query)
    return cursor.batch(range(cursor.count))


def _assert_serves_like_a_fresh_build(service, store):
    fresh = QueryService(service.database.copy(), dynamic=False, store=store)
    for query in (WRITER.CQ, WRITER.UCQ):
        assert _answers(service, query) == _answers(fresh, query)


@pytest.mark.parametrize("store", ["tuple", "flat"])
def test_legacy_store_recovers_serves_and_absorbs_a_write(tmp_path, store):
    directory = tmp_path / store
    shutil.copytree(FIXTURE / store, directory)
    service = QueryService.recover(directory, dynamic=True, store=store)

    report = service.storage.last_report
    assert report.replayed_batches == len(WRITER.TAIL)
    expected = _expected_database()
    for name in ("R", "S", "T"):
        assert set(service.database.relation(name).rows) == set(
            expected.relation(name).rows
        )
    # The tuple entries unpickle and absorb the tail in place; the flat
    # ones name deleted classes, are skipped at load and rebuild.
    seeded = 2 if store == "tuple" else 0
    assert report.serve_entries_seeded == seeded
    _assert_serves_like_a_fresh_build(service, store)
    assert service.stats().dynamic_builds == 2 - seeded

    assert service.insert("R", (40, 2))
    assert service.delete("S", (2, "s29"))
    _assert_serves_like_a_fresh_build(service, store)
    assert service.stats().dynamic_builds == 2 - seeded


def test_legacy_dynamic_union_reads_through_its_snapshot(tmp_path):
    # Before any write replays: the pickled union's own access structure
    # over its live members is replaced by its snapshot's.
    shutil.copytree(FIXTURE / "tuple", tmp_path / "tuple")
    unions = [
        entry for __, entry in latest_checkpoint(tmp_path / "tuple").serve_state
        if isinstance(entry, MCUCQIndex)
    ]
    assert len(unions) == 1
    union = unions[0]
    assert union._union is union.snapshot._union
    assert union.batch(range(union.count)) == list(union.snapshot)
