"""Databases: named collections of relations.

A :class:`Database` maps relation symbols to :class:`~repro.database.relation.Relation`
instances. It also hosts *derived relations* — selections registered under a
new name, the mechanism by which the paper's UCQ experiments form queries
"using different relations (formed by different selections applied on the
same initial relations)".

A database's state is one published reference — an immutable
``(version, relations)`` pair, replaced whole by every mutation — and only
this module knows how it is published; whatever needs one consistent
version reads one :meth:`Database.pin`.
"""

from __future__ import annotations

import uuid
from typing import Callable, Dict, Iterable, List, Mapping, Union

from repro.database.delta import AppliedDelta, Delta
from repro.database.relation import Relation, RelationError
from repro.errors import ReproError


class DatabaseVersion:
    """One version of one database, readable: identity, version number
    and relations behind the read surface every consumer uses.

    A bare instance — what :meth:`pin` returns — never changes, so
    whatever only reads (index constructors, checkpoint writers) runs on
    it exactly as on the :class:`Database`, which inherits this surface
    and adds the writers. ``relations`` (name → relation) must not be
    mutated once handed over.
    """

    def __init__(
        self, instance_id: str, version: int, relations: Mapping[str, Relation]
    ):
        self.instance_id = instance_id
        # The one published reference: every read below is one load of it.
        self._published = (version, relations)

    @property
    def version(self) -> int:
        return self._published[0]

    def pin(self) -> "DatabaseVersion":
        """The current version as a view that later writes leave alone."""
        return DatabaseVersion(self.instance_id, *self._published)

    def relation(self, name: str) -> Relation:
        try:
            return self._published[1][name]
        except KeyError:
            raise RelationError(f"database has no relation {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._published[1]

    def __iter__(self):
        return iter(self._published[1].values())

    def names(self) -> List[str]:
        return list(self._published[1])

    def size(self) -> int:
        """Total number of facts — the paper's input size ``|D|``."""
        return sum(len(r) for r in self)

    def __repr__(self) -> str:
        parts = ", ".join(f"{r.name}[{len(r)}]" for r in self)
        return f"{type(self).__name__}({parts})"


class Database(DatabaseVersion):
    """Named relations behind one published ``(version, relations)`` pair.

    Every mutation — registering, replacing, inserting into, or deleting
    from a relation — publishes a successor pair, built aside and swapped
    in whole, whose :attr:`version` is one higher: a monotone counter that
    lets derived structures (notably :class:`repro.service.IndexCache`)
    detect staleness in O(1) without fingerprinting the data. One load of
    the pair is a version number *and* the relations it names;
    :meth:`pin` hands it out to reads that span several calls.

    ``relations`` is an iterable of relations to register in a fresh
    database — or a bare :class:`DatabaseVersion`, which the new database
    *resumes*: same identity, version and relations (how recovery
    rebuilds a stored database).

    Identity and durability
    -----------------------
    Each database carries a unique :attr:`instance_id`; :meth:`copy`
    clones get a **fresh** one, because a clone diverges from the
    original while reusing the same version numbers — version ``v`` of
    the clone and version ``v`` of the original are different states, and
    only the instance id tells them apart. Durable artifacts (the
    write-ahead log, checkpoints — see :mod:`repro.storage`) are stamped
    with the instance id and refuse to replay against any other database.

    :meth:`bind_log` attaches a write-ahead log: every applied batch is
    appended — durably — *before* its version is published, so any
    version a reader ever saw can be recovered. Fact operations
    (:meth:`insert` / :meth:`delete` / :meth:`apply`) are logged; schema
    operations (:meth:`add` / :meth:`replace` / :meth:`derive`) are not —
    checkpoint after changing the schema.
    """

    def __init__(
        self, relations: Union[Iterable[Relation], DatabaseVersion] = ()
    ):
        self._log = None
        if type(relations) is DatabaseVersion:
            super().__init__(relations.instance_id, *relations._published)
        else:
            super().__init__(uuid.uuid4().hex, 0, {})
            for relation in relations:
                self.add(relation)

    @DatabaseVersion.version.setter
    def version(self, value: int) -> None:
        # WAL replay resyncing to a recorded version; out-of-band bumps.
        self._published = (value, self._published[1])

    def _publish(
        self, pinned: DatabaseVersion, changed: Mapping[str, Relation]
    ) -> None:
        """Publish the successor of ``pinned``: ``changed`` registered over
        its relations (a replaced one keeps its position), one version up."""
        version, relations = pinned._published
        self._published = (version + 1, {**relations, **changed})

    def add(self, relation: Relation) -> None:
        """Register a relation under its own name (overwrite not allowed)."""
        pinned = self.pin()
        if relation.name in pinned:
            raise RelationError(f"relation {relation.name!r} already present")
        self._publish(pinned, {relation.name: relation})

    def replace(self, relation: Relation) -> None:
        """Register or overwrite a relation under its own name."""
        self._publish(self.pin(), {relation.name: relation})

    def insert(self, name: str, row: tuple) -> bool:
        """Insert a fact into relation ``name`` (set semantics).

        Returns ``True`` when the fact was new; re-inserting an existing
        fact is a no-op that leaves :attr:`version` untouched.

        A thin one-fact :meth:`apply` — copy-on-write (:meth:`copy`
        clones, which share relation objects, are insulated from later
        mutations), validated up front, and covered by the bound
        write-ahead log. The O(|R|) per-call cost is inherent to that
        isolation; bulk loads should construct relations directly, and
        write bursts should go through one :meth:`apply`.
        """
        return self.apply(
            Delta(database=self).insert(name, tuple(row))
        ).changed

    def delete(self, name: str, row: tuple) -> bool:
        """Delete a fact from relation ``name`` (a thin one-fact
        :meth:`apply`, like :meth:`insert`).

        Returns ``True`` when the fact was present; deleting an absent
        fact is a no-op that leaves :attr:`version` untouched. A row of
        the wrong arity (which can never be present) raises
        :class:`~repro.database.delta.DeltaError` — a
        :class:`~repro.database.relation.RelationError` — exactly like
        :meth:`insert`, instead of masquerading as a no-op.
        """
        return self.apply(
            Delta(database=self).delete(name, tuple(row))
        ).changed

    def apply(self, delta) -> AppliedDelta:
        """Apply a batch of fact operations with a **single** version bump.

        ``delta`` is a :class:`~repro.database.delta.Delta` (or any
        iterable of ``(op, relation, row)`` triples, which is normalized
        into one). Per touched relation the copy-on-write rebuild happens
        once — not once per fact — so a write burst costs
        O(|touched relations' data| + |delta|) instead of O(|R| · |delta|).
        Set semantics match :meth:`insert` / :meth:`delete` fact for fact:
        re-inserting a present row or deleting an absent one is a no-op.

        Every operation is validated (relation exists, arity matches)
        *before* anything is mutated; a bad op raises
        :class:`~repro.database.delta.DeltaError` (wrapped by the bound
        :class:`Delta` constructor) and leaves the database untouched.

        Returns an :class:`~repro.database.delta.AppliedDelta` carrying
        the effective sub-delta (what actually changed — exactly what
        dynamic indexes must absorb), per-relation applied/no-op counts,
        and the version the batch produced. :attr:`version` bumps by
        exactly one when anything changed, and not at all otherwise.
        """
        # Always re-validate through a freshly bound Delta — raw iterables,
        # deltas bound to another database, and deltas recorded before a
        # schema change (replace()) alike: apply-time arity is what the
        # unchecked Relation.copy_from below relies on. Re-normalizing an
        # already normalized delta is O(|delta|) and order-preserving.
        pinned = self.pin()
        delta = Delta(delta, database=pinned)
        per_relation: Dict[str, List] = {}
        for op, relation, row in delta:
            per_relation.setdefault(relation, []).append((op, row))

        effective = Delta()
        by_relation: Dict[str, Dict[str, int]] = {}
        changed_relations: Dict[str, List[tuple]] = {}
        for name, ops in per_relation.items():
            relation = pinned.relation(name)
            present = set(relation.rows)
            counts = by_relation[name] = {
                "inserted": 0, "deleted": 0, "noop_inserts": 0, "noop_deletes": 0,
            }
            # The delta holds at most one op per fact, so effectiveness is
            # decided against the pre-batch rows — no interplay to track.
            deleted = set()
            appended: List[tuple] = []
            for op, row in ops:
                if op == "insert":
                    if row in present:
                        counts["noop_inserts"] += 1
                    else:
                        appended.append(row)
                        counts["inserted"] += 1
                        effective.insert(name, row)
                else:
                    if row in present:
                        deleted.add(row)
                        counts["deleted"] += 1
                        effective.delete(name, row)
                    else:
                        counts["noop_deletes"] += 1
            if deleted or appended:
                rows = (
                    [r for r in relation.rows if r not in deleted]
                    if deleted else list(relation.rows)
                )
                rows.extend(appended)
                changed_relations[name] = rows
        if not changed_relations:
            return AppliedDelta(effective, by_relation, pinned.version)
        if self._log is not None:
            # Write-ahead: the effective batch is durable (appended,
            # flushed, fsynced) before the version it produces is
            # published. If the append raises, the database is untouched
            # and the caller sees the error.
            self._log.append(pinned.version + 1, effective)
        self._publish(pinned, {
            name: Relation.copy_from(name, pinned.relation(name).columns, rows)
            for name, rows in changed_relations.items()
        })
        return AppliedDelta(effective, by_relation, pinned.version + 1)

    # ------------------------------------------------------------------ #
    # Durability                                                          #
    # ------------------------------------------------------------------ #

    def bind_log(self, log) -> None:
        """Attach a write-ahead log (see :class:`repro.storage.WriteAheadLog`).

        Every subsequent effective :meth:`apply` / :meth:`insert` /
        :meth:`delete` appends its batch durably before bumping
        :attr:`version`. Pass ``None`` to detach. A log stamped with a
        different database instance is refused.
        """
        owner = getattr(log, "instance_id", None)
        if log is not None and owner is not None and owner != self.instance_id:
            raise ReproError(
                f"log belongs to database instance {owner!r}, refusing to "
                f"bind it to instance {self.instance_id!r}"
            )
        self._log = log

    @property
    def log(self):
        """The bound write-ahead log, or ``None``."""
        return self._log

    @classmethod
    def recover(cls, directory) -> "Database":
        """Rebuild the database stored under ``directory``.

        Loads the newest valid checkpoint and replays the write-ahead
        log's durable tail, landing on exactly the last durable version;
        the recovered database keeps its original :attr:`instance_id` and
        stays bound to the log for continued durable writes. See
        :meth:`repro.storage.DurableStore.recover` for the report (or
        inspect ``database.log``).
        """
        from repro.storage.store import DurableStore

        database, __report = DurableStore(directory).recover()
        return database

    def derive(
        self,
        source: str,
        name: str,
        predicate: Callable[[tuple], bool],
    ) -> Relation:
        """Register ``name := σ_predicate(source)`` and return it.

        If a relation called ``name`` already exists it is returned as-is
        (derivations are idempotent by name), which lets query modules call
        ``derive`` unconditionally.
        """
        pinned = self.pin()
        if name in pinned:
            return pinned.relation(name)
        derived = pinned.relation(source).select(predicate, name=name)
        self._publish(pinned, {name: derived})
        return derived

    def copy(self) -> "Database":
        """A shallow copy (relations are immutable in practice, so this is
        enough to let callers add derived relations without aliasing).

        The clone gets a **fresh** :attr:`instance_id` and no bound log:
        it diverges from the original while reusing the same version
        numbers, so it must not append to — or ever be replayed from —
        the original's durable history.
        """
        return Database(DatabaseVersion(uuid.uuid4().hex, *self._published))
