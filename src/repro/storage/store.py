"""The durability façade: one directory = one crash-safe database.

A :class:`DurableStore` owns a storage directory::

    <directory>/
        wal.jsonl        the append-only Delta write-ahead log
        checkpoints/     atomic ckpt-<version>/ directories

and implements the recovery contract:

    **recovered state = newest valid checkpoint + WAL records with
    version > checkpoint version**, landing on exactly the last durable
    version — a torn checkpoint is invisible (no manifest → not a
    checkpoint) and a torn WAL tail is discarded, so a crash at any
    instant costs at most the batch that had not finished fsyncing.

Binding a store to a live :class:`~repro.database.database.Database`
(:meth:`bind`) writes the **base checkpoint** — the WAL is meaningless
without a base to replay against — and routes every applied batch
through the log *before* its version bump is observable. Schema
operations (``add`` / ``replace`` / ``derive``) are not logged; take a
fresh :meth:`checkpoint` after changing the schema.

Instance identity: the checkpoint and every WAL record carry the
database's :attr:`~repro.database.database.Database.instance_id`.
A :meth:`Database.copy` clone gets a fresh id (clones diverge while
reusing version numbers), so binding or replaying against the wrong
database raises instead of silently interleaving two histories.
"""

from __future__ import annotations

import json
import os
import pathlib
from typing import List, NamedTuple, Optional, Sequence, Tuple, Union

from repro.errors import ReproError
from repro.storage.checkpoint import (
    CheckpointData,
    CheckpointError,
    latest_checkpoint,
    prune_checkpoints,
    write_checkpoint,
)
from repro.storage.retry import DEFAULT_POLICY, RetryPolicy, call_with_retry
from repro.storage.wal import WalError, WriteAheadLog

PathLike = Union[str, os.PathLike]


class StorageError(ReproError):
    """Raised on durability-contract violations: binding a store to the
    wrong database instance, or recovering from a directory that holds
    no usable state."""


class RecoveryReport(NamedTuple):
    """What one recovery did."""

    instance_id: str
    checkpoint_version: int
    replayed_batches: int
    replayed_ops: int
    #: Torn/corrupt WAL records discarded at open (the crash's cost).
    discarded_wal_records: int
    final_version: int
    #: Serve-state indexes re-seeded from the checkpoint (service-level
    #: recovery only; plain database recovery reports 0).
    serve_entries_seeded: int = 0


class DurableStore:
    """WAL + checkpoints for one database, rooted at one directory.

    ``retry`` is the store's transient-I/O budget
    (:class:`~repro.storage.retry.RetryPolicy`): inherited by the WAL it
    opens (append retries) and applied to checkpoint publication. The
    default retries ``EIO``-class errors a few times with backed-off
    jittered sleeps and fails ``ENOSPC`` fast — see
    :mod:`repro.storage.retry`.
    """

    def __init__(self, directory: PathLike, retry: Optional[RetryPolicy] = None):
        self.directory = pathlib.Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.retry = retry if retry is not None else DEFAULT_POLICY
        self.wal: Optional[WriteAheadLog] = None
        #: Checkpoints written through this handle (the base checkpoint
        #: from :meth:`bind` included) — the ``checkpoints`` stat.
        self.checkpoints_written = 0
        #: Transient checkpoint-write failures absorbed by the retry loop.
        self.checkpoint_retries = 0
        self._last_report: Optional[RecoveryReport] = None
        #: Manifest of the last checkpoint written or recovered from
        #: (per-entry sizes, skipped-entry count) — CLI/stats reporting.
        self.last_manifest: Optional[dict] = None

    def _adopt_wal(self, wal: WriteAheadLog) -> WriteAheadLog:
        """Attach ``wal`` with this store's retry policy applied."""
        wal.retry_policy = self.retry
        self.wal = wal
        return wal

    def _publish_checkpoint(self, *args, **kwargs) -> pathlib.Path:
        """:func:`write_checkpoint` under the store's retry budget.

        Checkpoint writes stage-then-rename, so a failed attempt leaves
        no partial state behind and retrying is always safe; only
        transient errors are retried (``ENOSPC`` propagates at once).
        """

        def count_retry(attempt: int, error: BaseException, delay: float) -> None:
            self.checkpoint_retries += 1

        return call_with_retry(
            lambda: write_checkpoint(*args, **kwargs),
            policy=self.retry,
            on_retry=count_retry,
        )

    @property
    def wal_path(self) -> pathlib.Path:
        return self.directory / "wal.jsonl"

    def exists(self) -> bool:
        """Does this directory hold durable state already?"""
        return self.wal_path.exists() or latest_checkpoint(self.directory) is not None

    # ------------------------------------------------------------------ #
    # Binding a live database                                             #
    # ------------------------------------------------------------------ #

    def bind(self, database) -> "DurableStore":
        """Make ``database`` durable in this directory.

        Fresh directory: writes the base checkpoint of the database as it
        stands and creates the WAL. Existing directory: reopens the WAL,
        which must belong to this database instance and be positioned at
        its current version (the state a :func:`recover` just produced) —
        anything else raises :class:`StorageError` rather than risk
        interleaving two histories.
        """
        if self.wal is not None:
            # Already open (a recover() through this handle): reuse the
            # live WAL instead of opening a second handle on the file.
            if self.wal.instance_id != database.instance_id:
                raise StorageError(
                    f"store {self.directory} is owned by instance "
                    f"{self.wal.instance_id!r}, cannot bind instance "
                    f"{database.instance_id!r}"
                )
            if self.wal.last_version != database.version:
                raise StorageError(
                    f"{self.directory} is at version {self.wal.last_version} "
                    f"but the database is at {database.version}; recover() "
                    f"the stored state instead of binding a diverged database"
                )
            database.bind_log(self.wal)
            return self
        if self.exists():
            try:
                wal = WriteAheadLog.open(
                    self.wal_path, instance_id=database.instance_id
                )
            except WalError as error:
                raise StorageError(
                    f"cannot bind {self.directory} to this database: {error}"
                )
            if wal.last_version != database.version:
                raise StorageError(
                    f"{self.directory} is at version {wal.last_version} but "
                    f"the database is at {database.version}; recover() the "
                    f"stored state instead of binding a diverged database"
                )
            self._adopt_wal(wal)
        else:
            pinned = database.pin()  # checkpoint and WAL base: one version
            self._publish_checkpoint(self.directory, pinned)
            self.checkpoints_written += 1
            self._adopt_wal(
                WriteAheadLog.open(
                    self.wal_path,
                    instance_id=pinned.instance_id,
                    base_version=pinned.version,
                )
            )
        database.bind_log(self.wal)
        return self

    # ------------------------------------------------------------------ #
    # Checkpointing                                                       #
    # ------------------------------------------------------------------ #

    def checkpoint(
        self,
        database,
        serve_state: Optional[Sequence[Tuple[tuple, object]]] = None,
        keep: int = 2,
        serve_format: str = "blob",
    ) -> pathlib.Path:
        """Write a fresh checkpoint, prune old ones, trim the WAL.

        After this returns, recovery starts from the new checkpoint and
        the WAL holds only records past it — restart cost is decoupled
        from total write history. ``serve_format`` selects how built
        indexes persist: ``"blob"`` (columnar ``serve-flat/`` npy slabs
        for flat entries, mmap-and-go on recovery) or ``"pickle"``
        (legacy, everything pickled). Checkpoint and trim are of one
        pinned version; trimming rewrites the log, so the caller must hold
        off concurrent appends (:meth:`QueryService.checkpoint` does).
        """
        database = database.pin()
        if self.wal is not None and database.instance_id != self.wal.instance_id:
            raise StorageError(
                f"checkpoint of database instance {database.instance_id!r} "
                f"into a store owned by {self.wal.instance_id!r}"
            )
        path = self._publish_checkpoint(
            self.directory, database, serve_state, serve_format=serve_format
        )
        try:
            self.last_manifest = json.loads(
                (path / "manifest.json").read_text()
            )
        except (OSError, ValueError):  # pragma: no cover - just written
            self.last_manifest = None
        self.checkpoints_written += 1
        prune_checkpoints(self.directory, keep=keep)
        if self.wal is not None:
            self.wal.truncate_through(database.version)
        return path

    # ------------------------------------------------------------------ #
    # Recovery                                                            #
    # ------------------------------------------------------------------ #

    def load_base(self):
        """``(database, checkpoint, wal)`` with the WAL tail **not yet
        replayed** — the database sits at the checkpoint version.

        Service-level recovery uses this to seed serve-state between
        loading the base and replaying the tail; most callers want
        :meth:`recover`.
        """
        from repro.database.database import Database, DatabaseVersion
        from repro.database.relation import Relation

        ckpt = latest_checkpoint(self.directory)
        if ckpt is None:
            raise StorageError(
                f"{self.directory} holds no valid checkpoint to recover from"
            )
        if self.wal_path.exists():
            wal = WriteAheadLog.open(self.wal_path)
            if wal.instance_id != ckpt.instance_id:
                raise StorageError(
                    f"WAL belongs to instance {wal.instance_id!r} but the "
                    f"checkpoint to instance {ckpt.instance_id!r}; refusing "
                    f"to replay a log against the wrong database"
                )
        else:
            wal = WriteAheadLog.open(
                self.wal_path,
                instance_id=ckpt.instance_id,
                base_version=ckpt.version,
            )
        relations = {
            name: Relation.copy_from(name, columns, rows)
            for name, columns, rows in ckpt.relations
        }
        database = Database(
            DatabaseVersion(ckpt.instance_id, ckpt.version, relations)
        )
        self._adopt_wal(wal)
        self.last_manifest = ckpt.manifest
        return database, ckpt, wal

    def replay_tail(self, database, ckpt, wal, apply, serve_entries_seeded=0):
        """Replay the WAL records past ``ckpt`` through ``apply`` (one
        call per durable batch), bind the log for continued durable
        writes, and record the :class:`RecoveryReport` (also returned).

        The one replay loop: plain recovery passes ``database.apply``,
        service-level recovery its own ``apply`` so seeded serve-state
        absorbs the tail by the live write path's rules.
        """
        batches = 0
        ops = 0
        for record in wal.records(after=ckpt.version):
            apply(record.ops)
            batches += 1
            ops += len(record.ops)
            # The recorded version is authoritative (it is what readers
            # observed); resync in case out-of-band bumps (schema ops are
            # not logged) left gaps.
            database.version = record.version
        database.bind_log(wal)
        self._last_report = RecoveryReport(
            instance_id=ckpt.instance_id,
            checkpoint_version=ckpt.version,
            replayed_batches=batches,
            replayed_ops=ops,
            discarded_wal_records=wal.discarded_records,
            final_version=database.version,
            serve_entries_seeded=serve_entries_seeded,
        )
        return self._last_report

    def recover(self):
        """Rebuild the database: checkpoint + replay-to-version.

        Returns ``(database, report)`` with the store bound to the
        recovered database for continued durable writes.
        """
        database, ckpt, wal = self.load_base()
        return database, self.replay_tail(database, ckpt, wal, database.apply)

    @property
    def last_report(self) -> Optional[RecoveryReport]:
        return self._last_report

    def __repr__(self) -> str:
        return f"DurableStore({str(self.directory)!r})"
