"""First-class write batches: the ``Delta`` of the serving API.

A :class:`Delta` is an ordered collection of fact operations
``(op, relation, row)`` with ``op`` one of ``"insert"`` / ``"delete"``.
It is *the* unit of writing: :meth:`repro.database.database.Database.apply`
consumes one with a single version bump, and
:meth:`repro.service.query_service.QueryService.apply` amortizes index
maintenance — bucket grouping, one propagation pass, one union publication,
one republication per cache slot — across the whole batch instead of per fact.

Normalization (last-op-wins)
----------------------------
Under set semantics the net effect of a sequence of operations on one fact
is decided entirely by the **last** operation on it: whatever came before,
a final ``insert`` leaves the fact present and a final ``delete`` leaves
it absent. A delta therefore keeps at most one operation per
``(relation, row)`` — recording a new op on a fact *replaces* the earlier
one in place (the delta stays ordered by first touch). In particular an
insert-then-delete pair collapses to a single delete, which
:meth:`~repro.database.database.Database.apply` then resolves against the
actual database state: for a fact that never existed it is a no-op, i.e.
the pair cancels outright. This is exactly equivalent to applying the
original sequence one fact at a time — the batch property tests assert it
order-for-order, not just set-for-set.

Validation
----------
Bind a delta to a database (``Delta(database=db)``) and every recorded
fact is checked **up front**: unknown relation symbols and wrong-arity
rows raise :class:`DeltaError` at recording time, with the offending fact
in the message — not deep inside bucket routing after half the batch has
been applied. An unbound delta defers validation to
:meth:`Database.apply`, which performs the same checks before touching
anything.

Doctest
-------
>>> from repro import Database, Relation
>>> db = Database([Relation("R", ("a", "b"), [(1, 10)])])
>>> delta = Delta(database=db)
>>> delta.insert("R", (2, 20)).delete("R", (1, 10))
Delta(2 ops over R)
>>> delta.insert("R", (3, 30)).delete("R", (3, 30))   # collapses
Delta(3 ops over R)
>>> [op for op, __, __ in delta]
['insert', 'delete', 'delete']
>>> result = db.apply(delta)
>>> (result.inserted, result.deleted, result.noops)
(1, 1, 1)
>>> sorted(db.relation("R").rows)
[(2, 20)]
>>> try:
...     delta.insert("R", (9,))
... except DeltaError as error:
...     print(error)
row (9,) has arity 1, expected 2 in relation 'R'
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.database.relation import RelationError

#: One fact operation: ``(op, relation, row)``.
FactOp = Tuple[str, str, tuple]

_OPS = ("insert", "delete")


class DeltaError(RelationError):
    """Raised when a delta records an operation that can never apply:
    an unknown op name, an unknown relation symbol (for a bound delta),
    or a row of the wrong arity.

    A :class:`~repro.database.relation.RelationError` subclass (hence a
    :class:`~repro.errors.ReproError` and a ``ValueError``): a bad delta
    op is a schema violation, and callers that guarded the single-fact
    write path with ``except RelationError`` keep working unchanged."""


class Delta:
    """An ordered, normalized batch of fact inserts and deletes.

    Parameters
    ----------
    ops:
        Initial operations, recorded in order through :meth:`add`.
    database:
        When given, every recorded fact is validated against this
        database's schema up front (see the module notes); the delta does
        not otherwise hold onto it.
    """

    __slots__ = ("_ops", "_database")

    def __init__(
        self,
        ops: Iterable[FactOp] = (),
        database: Optional[object] = None,
    ):
        # (relation, row) -> op; dicts preserve first-touch order, and
        # re-assigning a present key keeps its position — the ordered
        # last-op-wins normalization.
        self._ops: Dict[Tuple[str, tuple], str] = {}
        self._database = database
        for op, relation, row in ops:
            self.add(op, relation, row)

    # ------------------------------------------------------------------ #
    # Recording                                                           #
    # ------------------------------------------------------------------ #

    def add(self, op: str, relation: str, row: tuple) -> "Delta":
        """Record one operation (validated; last op per fact wins)."""
        if op not in _OPS:
            raise DeltaError(f"unknown delta op {op!r}: expected one of {_OPS}")
        if not isinstance(relation, str):
            raise DeltaError(f"relation must be a symbol (str), got {relation!r}")
        row = tuple(row)
        if self._database is not None:
            if relation not in self._database:
                raise DeltaError(
                    f"database has no relation {relation!r} "
                    f"(known: {sorted(self._database.names())})"
                )
            arity = self._database.relation(relation).arity
            if len(row) != arity:
                raise DeltaError(
                    f"row {row!r} has arity {len(row)}, expected {arity} "
                    f"in relation {relation!r}"
                )
        self._ops[(relation, row)] = op
        return self

    def insert(self, relation: str, row: tuple) -> "Delta":
        """Record an insert (chainable)."""
        return self.add("insert", relation, row)

    def delete(self, relation: str, row: tuple) -> "Delta":
        """Record a delete (chainable)."""
        return self.add("delete", relation, row)

    # ------------------------------------------------------------------ #
    # Introspection                                                       #
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return len(self._ops)

    def __bool__(self) -> bool:
        return bool(self._ops)

    def __iter__(self) -> Iterator[FactOp]:
        """The normalized operations, in first-touch order."""
        for (relation, row), op in self._ops.items():
            yield op, relation, row

    def ops(self) -> List[FactOp]:
        """The normalized operations as a list (see :meth:`__iter__`)."""
        return list(self)

    def relations(self) -> frozenset:
        """The relation symbols this delta touches."""
        return frozenset(relation for (relation, __) in self._ops)

    def __repr__(self) -> str:
        touched = ",".join(sorted(self.relations())) or "nothing"
        return f"Delta({len(self._ops)} ops over {touched})"


class AppliedDelta:
    """The outcome of applying a delta to a database.

    ``effective`` is the sub-delta that actually changed the database —
    the exact operations derived structures (dynamic indexes) must absorb;
    no-ops (re-inserting a present fact, deleting an absent one) are
    dropped from it but tallied per relation in ``by_relation`` as
    ``{"inserted", "deleted", "noop_inserts", "noop_deletes"}`` counts.
    ``version`` is the version the batch produced (unchanged if no-op).
    """

    __slots__ = ("effective", "by_relation", "version")

    def __init__(
        self,
        effective: Delta,
        by_relation: Dict[str, Dict[str, int]],
        version: int,
    ):
        self.effective = effective
        self.by_relation = by_relation
        self.version = version

    @property
    def changed(self) -> bool:
        """Did the database change at all?"""
        return bool(self.effective)

    @property
    def inserted(self) -> int:
        return sum(c["inserted"] for c in self.by_relation.values())

    @property
    def deleted(self) -> int:
        return sum(c["deleted"] for c in self.by_relation.values())

    @property
    def noops(self) -> int:
        return sum(
            c["noop_inserts"] + c["noop_deletes"] for c in self.by_relation.values()
        )

    def __repr__(self) -> str:
        return (
            f"AppliedDelta(inserted={self.inserted}, deleted={self.deleted}, "
            f"noops={self.noops})"
        )


class DeltaLineError(DeltaError):
    """A line of the JSONL delta wire format could not be parsed or
    validated. Carries the 1-based :attr:`line` and the bare
    :attr:`reason` so transports can frame it their own way (the CLI as
    ``file:line: reason``, the HTTP ingest endpoint as a 400 body)."""

    def __init__(self, line: int, reason: str):
        super().__init__(f"line {line}: {reason}")
        self.line = line
        self.reason = reason


def delta_from_jsonl(lines: Iterable[str], database=None) -> Delta:
    """Parse the JSONL delta wire format into one (validated) ``Delta``.

    The format shared by ``repro apply`` delta files and the HTTP
    ``POST /ingest`` body: one ``{"op": "insert"|"delete", "relation":
    "R", "row": [...]}`` object per line, rows as JSON arrays of scalars
    (strings, numbers, booleans, null), blank lines ignored.

    Validation is **all-first**: the whole stream is parsed and — with
    ``database`` bound — schema-checked before anything could apply, and
    the first bad line raises :class:`DeltaLineError` naming it. Nothing
    about the database is touched here; apply the returned delta (one
    version bump for the whole batch) separately.
    """
    delta = Delta(database=database)
    for line_number, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as error:
            raise DeltaLineError(line_number, f"invalid JSON ({error})")
        if not isinstance(record, dict) or not {"op", "relation", "row"} <= set(record):
            raise DeltaLineError(
                line_number,
                'expected an object with "op", "relation" and "row" keys, '
                f"got {line!r}",
            )
        row = record["row"]
        if not isinstance(row, list) or not all(
            value is None or isinstance(value, (str, int, float, bool))
            for value in row
        ):
            raise DeltaLineError(
                line_number,
                '"row" must be a JSON array of scalar values '
                "(strings, numbers, booleans, null)",
            )
        try:
            delta.add(record["op"], record["relation"], tuple(row))
        except DeltaError as error:
            # The up-front validation of the Delta API: the bad fact is
            # reported with its source line before anything is applied.
            raise DeltaLineError(line_number, str(error))
    return delta
