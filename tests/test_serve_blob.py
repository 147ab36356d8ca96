"""Tests for the columnar serve-state blob format (``serve-flat/``).

Covers the zero-copy contract end to end: lossless round-trips through
the npy-slab format (mixed scalar types, type-exactly), lazy value-table
materialization (recovery constructs **zero** per-row python objects
before the first object-gathering read, and no JSON encodings before the
first served page), pickling of blob-loaded entries, the pickle fallback
for entries the format cannot carry (int64-overflow tuple fallback,
unpicklable cache entries), and the manifest/CLI size-and-skip reporting.
"""

import argparse
import json
import pickle

import numpy as np

from repro import Database, Delta, QueryService, Relation, parse_cq
from repro.cli import _print_serve_report, command_checkpoint, command_recover
from repro.core import flat_store
from repro.core.cq_index import CQIndex
from repro.server import create_app
from repro.server.testing import TestClient
from repro.service.cache import Slot
from repro.storage import serve_blob
from repro.storage.checkpoint import latest_checkpoint, valid_checkpoints

QUERY = "Q(a, b, c) :- R(a, b), S(b, c)"


def mixed_database() -> Database:
    """Mixed scalar types on the non-join columns — the codec must carry
    None/bool/int/float/str through bit-exactly."""
    return Database([
        Relation("R", ("a", "b"), [
            (1, 10), (2.5, 10), ("x", 20), (None, 20), (True, 30), (-7, 30),
        ]),
        Relation("S", ("b", "c"), [
            (10, "alpha"), (10, None), (20, 3.25), (20, ""), (30, False),
        ]),
    ])


def build_entry(database=None):
    """A flat-backed CQIndex plus the key it would be cached under."""
    index = CQIndex(parse_cq(QUERY), database or mixed_database(), store="flat")
    assert index.store == "flat"
    return ("Q-key",), index


def write_bytes(path, payload):
    path.write_bytes(payload)


def cells_identical(left, right):
    """Type-exact tuple equality (True is not 1, 1 is not 1.0)."""
    return len(left) == len(right) and all(
        type(a) is type(b) and a == b for a, b in zip(left, right)
    )


class TestBlobRoundTrip:
    def test_answers_survive_bit_exactly(self, tmp_path):
        key, entry = build_entry()
        serve_blob.write_serve_entry(tmp_path / "e", key, entry, write_bytes)
        loaded_key, loaded = serve_blob.load_serve_entry(tmp_path / "e")

        assert loaded_key == key
        assert loaded.count == entry.count > 0
        assert loaded.store == "flat"
        originals = list(entry)
        recovered = list(loaded)
        for original, answer in zip(originals, recovered):
            assert cells_identical(original, answer)
        assert loaded.batch(range(entry.count)) == originals

    def test_inverted_access_round_trips(self, tmp_path):
        key, entry = build_entry()
        serve_blob.write_serve_entry(tmp_path / "e", key, entry, write_bytes)
        __, loaded = serve_blob.load_serve_entry(tmp_path / "e")

        for position, answer in enumerate(entry):
            assert loaded.inverted_access(answer) == position
        assert loaded.inverted_access(("no", "such", "answer")) is None

    def test_slabs_arrive_as_readonly_mmaps(self, tmp_path):
        key, entry = build_entry()
        serve_blob.write_serve_entry(tmp_path / "e", key, entry, write_bytes)
        __, loaded = serve_blob.load_serve_entry(tmp_path / "e")

        flats = [node.flat
                 for root in loaded._forest.roots
                 for node in root.all_nodes()]
        mmapped = [flat.row_start for flat in flats]
        assert any(isinstance(array, np.memmap) for array in mmapped)
        assert all(not array.flags.writeable for array in mmapped)

    def test_value_tables_stay_deferred_until_a_gather(self, tmp_path):
        key, entry = build_entry()
        serve_blob.write_serve_entry(tmp_path / "e", key, entry, write_bytes)

        before = flat_store.TABLE_MATERIALIZATIONS
        __, loaded = serve_blob.load_serve_entry(tmp_path / "e")
        assert loaded.count == entry.count
        assert loaded._forest.roots[0].flat.weights[0] >= 0  # slab access
        assert flat_store.TABLE_MATERIALIZATIONS == before
        assert loaded.access(0) == entry.access(0)  # first gather pays
        assert flat_store.TABLE_MATERIALIZATIONS > before

    def test_blob_loaded_entry_still_pickles(self, tmp_path):
        key, entry = build_entry()
        serve_blob.write_serve_entry(tmp_path / "e", key, entry, write_bytes)
        __, loaded = serve_blob.load_serve_entry(tmp_path / "e")

        clone = pickle.loads(pickle.dumps(loaded))
        assert clone.count == entry.count
        assert list(clone) == list(entry)

    def test_overflow_fallback_entry_is_not_blob_eligible(self):
        # 10 star atoms with 100 partners each: the root weight would be
        # 100^10 > 2^62, so the flat build falls back to tuple stores —
        # and the blob format (int64 slabs) must refuse the entry.
        atoms = ", ".join(f"R{i}(x, a{i})" for i in range(10))
        heads = ", ".join(f"a{i}" for i in range(10))
        query = parse_cq(f"Q(x, {heads}) :- {atoms}")
        database = Database([
            Relation(f"R{i}", ("x", "y"), [(0, j) for j in range(100)])
            for i in range(10)
        ])
        entry = CQIndex(query, database, store="flat")
        assert entry.store == "tuple"
        assert not serve_blob.can_blob(entry)

    def test_dynamic_and_tuple_entries_are_not_blob_eligible(self):
        __, flat_entry = build_entry()
        assert serve_blob.can_blob(flat_entry)
        tuple_entry = CQIndex(parse_cq(QUERY), mixed_database(), store="tuple")
        assert not serve_blob.can_blob(tuple_entry)
        assert not serve_blob.can_blob(object())


def durable_service(tmp_path, database=None):
    service = QueryService(
        database or mixed_database(), storage=tmp_path, store="flat"
    )
    expected = service.cursor(QUERY).count
    return service, expected


class TestCheckpointBlobLane:
    def test_checkpoint_writes_blob_directory(self, tmp_path):
        service, __ = durable_service(tmp_path)
        service.checkpoint()
        manifest = service.storage.last_manifest
        assert manifest["serve_format"] == "blob"
        assert manifest["serve_flat"] == ["serve-flat/entry-0"]
        newest = valid_checkpoints(tmp_path)[-1]
        assert (newest / "serve-flat" / "entry-0" / "meta.json").exists()
        # Every blob file is checksummed by the manifest.
        blob_files = [name for name in manifest["files"]
                      if name.startswith("serve-flat/")]
        assert len(blob_files) == len(
            list((newest / "serve-flat" / "entry-0").iterdir())
        )

    def test_manifest_reports_per_entry_kind_and_bytes(self, tmp_path):
        service, __ = durable_service(tmp_path)
        service.checkpoint()
        manifest = service.storage.last_manifest
        (entry,) = manifest["entries"]
        assert entry["kind"] == "flat-blob"
        assert entry["label"] == "Q"
        assert entry["location"] == "serve-flat/entry-0"
        newest = valid_checkpoints(tmp_path)[-1]
        on_disk = sum(
            child.stat().st_size
            for child in (newest / "serve-flat" / "entry-0").iterdir()
        )
        assert entry["bytes"] == on_disk > 0

    def test_serve_format_pickle_forces_legacy_path(self, tmp_path):
        service, expected = durable_service(tmp_path)
        service.checkpoint(serve_format="pickle")
        manifest = service.storage.last_manifest
        assert manifest["serve_flat"] == []
        (entry,) = manifest["entries"]
        assert entry["kind"] == "pickle"
        service.database.log.close()
        recovered = QueryService.recover(tmp_path, store="flat")
        assert recovered.storage.last_report.serve_entries_seeded == 1
        assert recovered.cursor(QUERY).count == expected

    def test_recovery_is_mmap_and_go(self, tmp_path):
        service, expected = durable_service(tmp_path)
        expected_page = service.cursor(QUERY).page(2, page_size=3)
        service.checkpoint()
        service.database.log.close()

        before = flat_store.TABLE_MATERIALIZATIONS
        recovered = QueryService.recover(tmp_path, store="flat")
        assert recovered.storage.last_report.serve_entries_seeded == 1
        assert recovered.cursor(QUERY).count == expected
        # Counting runs on the mmapped slabs alone: zero value tables
        # (i.e. zero per-row python objects) materialized so far.
        assert flat_store.TABLE_MATERIALIZATIONS == before
        page = recovered.cursor(QUERY).page(2, page_size=3)
        assert flat_store.TABLE_MATERIALIZATIONS > before
        assert page == expected_page
        for original, answer in zip(expected_page, page):
            assert cells_identical(original, answer)

    def test_recovered_entry_encodes_json_on_its_first_page(self, tmp_path):
        """``count`` over HTTP stays on the slabs; the first page builds
        the value tables and their JSON encodings, once per node."""
        database = Database([
            Relation("R", ("a", "b"), [
                (value, i % 3) for i, value in enumerate(
                    [1, 2.5, "x", None, True, -7, 2 ** 60, "q\"", 0.5, False]
                )
            ]),
            Relation("S", ("b", "c"), [
                (b, c) for b in range(3) for c in ("alpha", None, 3.25, 9)
            ]),
        ])
        service, expected = durable_service(tmp_path, database)
        assert expected >= 40
        cursor = service.cursor(QUERY)
        expected_pages = [json.dumps([list(a) for a in cursor.page(n, 20)])
                          for n in (0, 1)]
        service.checkpoint()
        service.database.log.close()

        before = flat_store.TABLE_MATERIALIZATIONS
        app = create_app(QueryService.recover(tmp_path, store="flat"))
        client = TestClient(app)
        sid = client.post("/cursors", json={"query": QUERY}).json()["cursor"]
        assert client.get(f"/cursors/{sid}/count").json()["count"] == expected
        index = app.sessions.get(sid).cursor.pinned
        nodes = [node.flat
                 for root in index._forest.roots for node in root.all_nodes()]
        assert all(node._encoded is None for node in nodes)
        assert flat_store.TABLE_MATERIALIZATIONS == before

        first = client.get(f"/cursors/{sid}/page?number=0&size=40")
        assert first.json()["answers"] == json.loads(expected_pages[0]) + \
            json.loads(expected_pages[1])
        assert flat_store.TABLE_MATERIALIZATIONS == before + len(nodes)
        encoded = [node._encoded for node in nodes]
        assert all(table is not None for table in encoded)
        again = client.get(f"/cursors/{sid}/batch?start=2&stop=40")
        assert again.json()["answers"] == first.json()["answers"][2:]
        assert all(node._encoded is table
                   for node, table in zip(nodes, encoded))
        assert flat_store.TABLE_MATERIALIZATIONS == before + len(nodes)

    def test_seeded_entry_survives_wal_tail_on_unrelated_relation(
        self, tmp_path
    ):
        database = mixed_database()
        database.add(Relation("E", ("id",), [(0,)]))
        service, expected = durable_service(tmp_path, database)
        service.checkpoint()
        delta = Delta(database=database)
        delta.insert("E", (1,))
        service.apply(delta)
        database.log.close()

        recovered = QueryService.recover(tmp_path, store="flat")
        report = recovered.storage.last_report
        assert report.replayed_batches == 1
        assert report.serve_entries_seeded == 1
        assert recovered.cursor(QUERY).count == expected

    def test_recovered_service_can_checkpoint_again(self, tmp_path):
        service, expected = durable_service(tmp_path)
        service.checkpoint()
        service.database.log.close()

        recovered = QueryService.recover(tmp_path, store="flat")
        recovered.cursor(QUERY).count
        recovered.database.insert("R", (99, 10))
        recovered.cursor(QUERY).count  # rebuild the entry at the new version
        recovered.checkpoint()
        manifest = recovered.storage.last_manifest
        assert any(e["kind"] == "flat-blob" for e in manifest["entries"])
        recovered.database.log.close()

        again = QueryService.recover(tmp_path, store="flat")
        assert again.storage.last_report.serve_entries_seeded == 1
        assert again.cursor(QUERY).count == expected + 2  # (99,10) joins both S rows

    def test_unpicklable_entry_is_skipped_and_counted(self, tmp_path):
        service, expected = durable_service(tmp_path)
        database = service.database
        # A cache resident that neither the blob format nor pickle can
        # carry (a lambda): the checkpoint must skip it, count it, and
        # still persist everything else.
        service._cache.get_or_build(
            (database, ("unserializable",)),
            lambda: Slot(lambda: None, database.version),
        )
        service.checkpoint()
        manifest = service.storage.last_manifest
        assert manifest["skipped_entries"] == 1
        assert manifest["serve_entries"] == 1
        assert service.stats().checkpoint_skipped_entries == 1
        service.database.log.close()

        recovered = QueryService.recover(tmp_path, store="flat")
        assert recovered.storage.last_report.serve_entries_seeded == 1
        assert recovered.cursor(QUERY).count == expected
        assert recovered.stats().checkpoint_skipped_entries == 0

    def test_overflow_fallback_rides_the_pickle_lane(self, tmp_path):
        atoms = ", ".join(f"R{i}(x, a{i})" for i in range(10))
        heads = ", ".join(f"a{i}" for i in range(10))
        query = f"Q(x, {heads}) :- {atoms}"
        database = Database([
            Relation(f"R{i}", ("x", "y"), [(0, j) for j in range(100)])
            for i in range(10)
        ])
        service = QueryService(database, storage=tmp_path, store="flat")
        expected = service.cursor(query).count
        assert expected == 100 ** 10
        service.checkpoint()
        manifest = service.storage.last_manifest
        (entry,) = manifest["entries"]
        assert entry["kind"] == "pickle"  # int64 overflow → tuple store
        assert manifest["serve_flat"] == []
        database.log.close()

        recovered = QueryService.recover(tmp_path, store="flat")
        assert recovered.storage.last_report.serve_entries_seeded == 1
        assert recovered.cursor(query).count == expected


class TestCLIReporting:
    def test_checkpoint_command_reports_blob_entries(self, tmp_path, capsys):
        service, __ = durable_service(tmp_path)
        service.checkpoint()
        service.database.log.close()

        assert command_checkpoint(
            argparse.Namespace(store=str(tmp_path), keep=2)
        ) == 0
        out = capsys.readouterr().out
        assert "serve entries: 1 (1 columnar blob(s)" in out
        assert "flat-blob" in out
        assert "serve-flat/entry-0" in out
        assert "checkpoint written:" in out

    def test_recover_command_reports_serve_state(self, tmp_path, capsys):
        service, __ = durable_service(tmp_path)
        service.checkpoint()
        service.database.log.close()

        assert command_recover(
            argparse.Namespace(store=str(tmp_path), csv=None)
        ) == 0
        out = capsys.readouterr().out
        assert "recovered version:" in out
        assert "1 columnar blob(s)" in out

    def test_skipped_entries_surface_in_the_report(self, capsys):
        _print_serve_report({
            "serve_entries": 1,
            "skipped_entries": 2,
            "entries": [{
                "label": "Q", "kind": "pickle",
                "bytes": 123, "location": "serve.pkl#0",
            }],
        })
        out = capsys.readouterr().out
        assert "serve entries skipped (unserializable): 2" in out
        assert "0 columnar blob(s)" in out

    def test_pre_blob_manifest_tolerated(self, capsys):
        _print_serve_report({"serve_entries": 3})  # no "entries" key
        assert "serve entries: 3" in capsys.readouterr().out
        _print_serve_report(None)  # no manifest at all

    def test_old_style_serve_pickle_still_loads(self, tmp_path):
        # Pre-blob checkpoints stored serve.pkl as inline (key, entry)
        # pairs rather than per-entry pickled bytes: rewrite a fresh
        # checkpoint into the old shape and load it.
        import json
        import pickle as pkl
        import zlib

        service, expected = durable_service(tmp_path)
        service.checkpoint(serve_format="pickle")
        service.database.log.close()
        newest = valid_checkpoints(tmp_path)[-1]
        pairs = [pkl.loads(blob)
                 for blob in pkl.loads((newest / "serve.pkl").read_bytes())]
        payload = pkl.dumps(pairs, protocol=pkl.HIGHEST_PROTOCOL)
        (newest / "serve.pkl").write_bytes(payload)
        manifest = json.loads((newest / "manifest.json").read_text())
        manifest["files"]["serve.pkl"] = "%08x" % zlib.crc32(payload)
        (newest / "manifest.json").write_text(json.dumps(manifest))

        ckpt = latest_checkpoint(tmp_path)
        assert len(ckpt.serve_state) == 1
        recovered = QueryService.recover(tmp_path, store="flat")
        assert recovered.storage.last_report.serve_entries_seeded == 1
        assert recovered.cursor(QUERY).count == expected
