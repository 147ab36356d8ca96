"""Crash-injection tests for the durability tier.

Each test simulates what a crash at a specific instant leaves on disk —
a torn WAL tail, a half-staged checkpoint, a vanished manifest, a
corrupted payload — and asserts that recovery lands on **exactly the
last durable version**: every batch whose fsync completed survives,
every batch whose fsync did not is discarded whole, and no torn artifact
is ever mistaken for state.
"""

import json
import os
import shutil

import pytest

from repro import Database, QueryService, Relation, StorageError
from repro.storage import DurableStore, latest_checkpoint, valid_checkpoints
from repro.storage.checkpoint import checkpoint_root

QUERY = "Q(a, b, c) :- R(a, b), S(b, c)"


def make_store(tmp_path):
    """A durable store with a base checkpoint and a three-batch WAL tail."""
    db = Database([
        Relation("R", ("a", "b"), [(1, 10), (2, 20)]),
        Relation("S", ("b", "c"), [(10, "x"), (10, "y"), (20, "z")]),
    ])
    store = DurableStore(tmp_path).bind(db)
    db.insert("R", (3, 30))          # version base+1
    db.insert("S", (30, "w"))        # version base+2
    db.delete("S", (10, "x"))        # version base+3
    db.log.close()
    return db, store


class TestTornWalTail:
    def test_truncated_tail_record_discarded(self, tmp_path):
        db, store = make_store(tmp_path)
        wal_path = store.wal_path
        raw = wal_path.read_bytes()
        # Crash mid-append: the final record lost its last 5 bytes
        # (including the newline commit marker).
        wal_path.write_bytes(raw[:-5])

        recovered, report = DurableStore(tmp_path).recover()
        assert recovered.version == db.version - 1
        assert report.discarded_wal_records == 1
        assert report.final_version == db.version - 1
        # The discarded delete never happened in the recovered state.
        assert (10, "x") in set(recovered.relation("S").rows)
        assert (30, "w") in set(recovered.relation("S").rows)

    def test_corrupt_checksum_discards_record_and_rest(self, tmp_path):
        db, store = make_store(tmp_path)
        wal_path = store.wal_path
        lines = wal_path.read_bytes().splitlines(keepends=True)
        # Flip one payload byte of the *second* batch (line index 2:
        # header, batch1, batch2, batch3) without touching its checksum.
        target = bytearray(lines[2])
        target[-10] ^= 0x01
        lines[2] = bytes(target)
        wal_path.write_bytes(b"".join(lines))

        recovered, report = DurableStore(tmp_path).recover()
        # Batch 2 is corrupt, so batch 3 — though intact — is untrusted
        # too: appends are strictly ordered and recovery must not leave
        # a hole in the history.
        assert recovered.version == db.version - 2
        assert report.discarded_wal_records == 2
        assert (3, 30) in set(recovered.relation("R").rows)   # batch 1
        assert (30, "w") not in set(recovered.relation("S").rows)  # batch 2

    def test_garbage_appended_to_log(self, tmp_path):
        db, store = make_store(tmp_path)
        with open(store.wal_path, "ab") as handle:
            handle.write(b"\x00\xffgarbage not even a frame")

        recovered, report = DurableStore(tmp_path).recover()
        assert recovered.version == db.version
        assert report.discarded_wal_records == 1

    def test_recovery_truncates_tail_so_appends_resume(self, tmp_path):
        db, store = make_store(tmp_path)
        raw = store.wal_path.read_bytes()
        store.wal_path.write_bytes(raw[:-5])

        recovered, __ = DurableStore(tmp_path).recover()
        recovered.insert("R", (4, 40))  # append lands on a clean boundary
        again, report = DurableStore(tmp_path).recover()
        assert again.version == recovered.version
        assert report.discarded_wal_records == 0
        assert (4, 40) in set(again.relation("R").rows)

    def test_wal_only_header_recovers_checkpoint_state(self, tmp_path):
        db, store = make_store(tmp_path)
        lines = store.wal_path.read_bytes().splitlines(keepends=True)
        store.wal_path.write_bytes(lines[0])  # every batch lost

        recovered, report = DurableStore(tmp_path).recover()
        assert recovered.version == latest_checkpoint(tmp_path).version
        assert report.replayed_batches == 0


class TestTornCheckpoints:
    def test_missing_manifest_invalidates_checkpoint(self, tmp_path):
        db, store = make_store(tmp_path)
        store2 = DurableStore(tmp_path)
        recovered, __ = store2.recover()
        store2.checkpoint(recovered)  # newer checkpoint, WAL trimmed to it
        newest = valid_checkpoints(tmp_path)[-1]
        # Crash between payload writes and the manifest: the directory
        # exists but was never published as a checkpoint.
        os.unlink(newest / "manifest.json")

        with_manifest = valid_checkpoints(tmp_path)
        assert newest not in with_manifest

    def test_partial_staging_directory_ignored(self, tmp_path):
        db, store = make_store(tmp_path)
        root = checkpoint_root(tmp_path)
        litter = root / "ckpt-000000099999.tmp-4242"
        litter.mkdir()
        (litter / "relations.pkl").write_bytes(b"half written")

        recovered, report = DurableStore(tmp_path).recover()
        assert recovered.version == db.version
        # And checkpointing afterwards sweeps the litter away.
        store3 = DurableStore(tmp_path)
        db3, __ = store3.recover()
        store3.checkpoint(db3)
        assert not litter.exists()

    def test_corrupted_payload_fails_checksum(self, tmp_path):
        db, store = make_store(tmp_path)
        newest = valid_checkpoints(tmp_path)[-1]
        blob = (newest / "relations.pkl").read_bytes()
        (newest / "relations.pkl").write_bytes(blob[:-3] + b"zzz")

        assert valid_checkpoints(tmp_path) == []
        with pytest.raises(StorageError):
            DurableStore(tmp_path).recover()

    def test_recovery_uses_previous_checkpoint_when_newest_torn(self, tmp_path):
        db, store = make_store(tmp_path)
        base_version = latest_checkpoint(tmp_path).version
        store2 = DurableStore(tmp_path)
        recovered, __ = store2.recover()
        recovered.insert("R", (4, 40))
        store2.checkpoint(recovered, keep=2)
        newest = valid_checkpoints(tmp_path)[-1]
        os.unlink(newest / "manifest.json")  # newest checkpoint torn

        # The WAL was trimmed at the (now torn) newest checkpoint, so the
        # replayable history no longer reaches back to the older one:
        # recovery must refuse a gap rather than resurrect stale state.
        ckpt = latest_checkpoint(tmp_path)
        assert ckpt.version == base_version
        third = DurableStore(tmp_path)
        database, report = third.recover()
        # Every record still in the log is newer than the old checkpoint,
        # and versions are authoritative: the recovered state is the old
        # checkpoint plus the surviving tail.
        assert database.version == report.final_version
        assert report.checkpoint_version == base_version


class TestWrongDatabaseReplay:
    def test_clone_cannot_recover_into_original_store(self, tmp_path):
        db, store = make_store(tmp_path)
        clone = db.copy()
        with pytest.raises(Exception):
            clone.bind_log(DurableStore(tmp_path).recover()[0].log)

    def test_foreign_wal_next_to_checkpoint_refused(self, tmp_path):
        db, store = make_store(tmp_path)
        # Overwrite the WAL with one owned by a different database.
        other_dir = tmp_path / "other"
        other = Database([Relation("R", ("a", "b"), [])])
        DurableStore(other_dir).bind(other)
        other.insert("R", (1, 1))
        other.log.close()
        shutil.copyfile(other_dir / "wal.jsonl", store.wal_path)

        with pytest.raises(StorageError):
            DurableStore(tmp_path).recover()


class TestServiceRecoveryUnderCrash:
    def test_service_recovers_to_durable_answers(self, tmp_path):
        service = QueryService(
            Database([
                Relation("R", ("a", "b"), [(1, 10), (2, 20)]),
                Relation("S", ("b", "c"), [(10, "x"), (20, "z")]),
            ]),
            storage=tmp_path,
            dynamic=True,
        )
        service.cursor(QUERY).count
        service.checkpoint()
        service.insert("S", (10, "y"))      # durable batch
        durable_count = service.cursor(QUERY).count
        service.insert("S", (20, "late"))   # this batch will be torn
        service.database.log.close()

        wal_path = tmp_path / "wal.jsonl"
        raw = wal_path.read_bytes()
        wal_path.write_bytes(raw[:-4])      # tear the last record

        recovered = QueryService.recover(tmp_path, dynamic=True)
        assert recovered.cursor(QUERY).count == durable_count
        report = recovered.storage.last_report
        assert report.discarded_wal_records == 1
        assert report.serve_entries_seeded >= 1

    def test_empty_wal_and_checkpoint_dir_raises(self, tmp_path):
        (tmp_path / "checkpoints").mkdir()
        with pytest.raises(StorageError):
            QueryService.recover(tmp_path)


class TestTornBlobCheckpoints:
    """Crash injection against the columnar ``serve-flat/`` blob lane.

    Every blob file's crc32 lives in the checkpoint manifest, so the
    established validity rules must cover the new artifacts with no new
    machinery: a torn slab, a flipped byte, or a corrupted sidecar makes
    the *whole* checkpoint invisible and recovery falls back to the
    previous valid checkpoint plus WAL replay — while half-staged
    ``serve-flat`` litter (not in any manifest) changes nothing.
    """

    @staticmethod
    def make_blob_store(tmp_path):
        """A store whose newest checkpoint carries one flat blob entry.

        The bind-time base checkpoint (version 0, no serve-state) stays
        behind as the fallback; the write surviving in the WAL lands in
        S *after* the blob checkpoint, so the served count below is
        insensitive to which checkpoint recovery starts from.
        """
        db = Database([
            Relation("R", ("a", "b"), [(1, 10), (2, 20)]),
            Relation("S", ("b", "c"), [(10, "x"), (10, "y")]),
            Relation("E", ("id", "payload"), []),
        ])
        service = QueryService(db, storage=tmp_path, store="flat")
        base_version = db.version
        # The pre-checkpoint write lands outside the query (its WAL
        # record is trimmed at the checkpoint, so falling back to the
        # base checkpoint must not change the served answers).
        db.insert("E", (1, "boot"))                     # version base+1
        service.cursor(QUERY).count
        service.checkpoint(keep=5)                      # blob ckpt, WAL trimmed
        db.insert("S", (20, "z"))                       # survives in the WAL
        expected = 3                                    # (1,10)x{x,y}, (2,20)x{z}
        db.log.close()
        newest = valid_checkpoints(tmp_path)[-1]
        assert json.loads((newest / "manifest.json").read_text())["serve_flat"]
        return base_version, newest, expected

    def test_blob_files_are_covered_by_the_manifest_checksums(self, tmp_path):
        __, newest, __ = self.make_blob_store(tmp_path)
        manifest = json.loads((newest / "manifest.json").read_text())
        blob_dir = newest / "serve-flat" / "entry-0"
        on_disk = {f"serve-flat/entry-0/{child.name}"
                   for child in blob_dir.iterdir()}
        assert on_disk <= set(manifest["files"])
        assert any(name.endswith(".npy") for name in on_disk)

    @pytest.mark.parametrize("pattern", [
        "*.npy",            # a torn int slab
        "*.tables.json",    # a torn value-table sidecar
        "meta.json",        # the shape manifest itself
    ])
    def test_truncated_blob_file_invalidates_checkpoint(self, tmp_path, pattern):
        base_version, newest, expected = self.make_blob_store(tmp_path)
        victim = sorted((newest / "serve-flat" / "entry-0").glob(pattern))[0]
        raw = victim.read_bytes()
        victim.write_bytes(raw[: len(raw) // 2])        # crash mid-write

        assert newest not in valid_checkpoints(tmp_path)
        service = QueryService.recover(tmp_path, store="flat")
        report = service.storage.last_report
        assert report.checkpoint_version == base_version
        assert report.serve_entries_seeded == 0         # nothing stale served
        assert service.cursor(QUERY).count == expected

    def test_flipped_slab_byte_fails_the_checksum(self, tmp_path):
        base_version, newest, expected = self.make_blob_store(tmp_path)
        victim = sorted((newest / "serve-flat" / "entry-0").glob("*.npy"))[0]
        raw = bytearray(victim.read_bytes())
        raw[-3] ^= 0x01                                 # same size, bad bits
        victim.write_bytes(bytes(raw))

        assert newest not in valid_checkpoints(tmp_path)
        service = QueryService.recover(tmp_path, store="flat")
        assert service.storage.last_report.checkpoint_version == base_version
        assert service.cursor(QUERY).count == expected

    def test_missing_blob_file_invalidates_checkpoint(self, tmp_path):
        base_version, newest, expected = self.make_blob_store(tmp_path)
        victim = sorted((newest / "serve-flat" / "entry-0").glob("*.npy"))[0]
        os.unlink(victim)

        assert newest not in valid_checkpoints(tmp_path)
        service = QueryService.recover(tmp_path, store="flat")
        assert service.storage.last_report.checkpoint_version == base_version
        assert service.cursor(QUERY).count == expected

    def test_half_staged_blob_litter_is_invisible(self, tmp_path):
        __, newest, expected = self.make_blob_store(tmp_path)
        final_version = json.loads(
            (newest / "manifest.json").read_text()
        )["version"]
        # A writer that died between blob staging and the manifest: the
        # litter is not in any manifest's files map, so the checkpoint
        # stays valid and recovery never even looks at it.
        litter = newest / "serve-flat" / ".tmp-4242"
        litter.mkdir(parents=True)
        (litter / "node0.row_start.npy").write_bytes(b"half a slab")
        (litter / "meta.json").write_bytes(b"{ not json")

        assert newest in valid_checkpoints(tmp_path)
        service = QueryService.recover(tmp_path, store="flat")
        report = service.storage.last_report
        assert report.checkpoint_version == final_version
        assert report.serve_entries_seeded == 1         # the real blob loads
        assert service.cursor(QUERY).count == expected
