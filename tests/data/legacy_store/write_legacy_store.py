"""Write the legacy durable stores that ``tests/test_legacy_recovery.py``
recovers.

The committed ``tuple/`` and ``flat/`` directories were written by this
script at commit e58327c, the last one whose dynamic indexes kept a live
read path (``DynamicJoinForest.roots`` held the live nodes, a dynamic
``MCUCQIndex`` kept its own ``UnionRandomAccess`` over its live members,
and the flat store had ``FlatDynamicBucket``). Each holds a checkpoint
whose serve-state pickles a dynamic CQ index and a dynamic mc-UCQ index,
followed by a WAL tail of three batches. Rerunning the script at a later
commit writes that commit's format instead, which is not what the test
is for — regenerate only to replace the fixture deliberately.

Usage (from the repository root, at the commit that should write it)::

    PYTHONPATH=src python tests/data/legacy_store/write_legacy_store.py
"""

import pathlib
import shutil

from repro import Database, QueryService, Relation
from repro.database.delta import Delta

HERE = pathlib.Path(__file__).resolve().parent

CQ = "Q(a, b, c) :- R(a, b), S(b, c)"
UCQ = "Q(a, b, c) :- R(a, b), S(b, c) ; Q(a, b, c) :- T(a, b), S(b, c)"


def database() -> Database:
    return Database([
        Relation("R", ("a", "b"), [(a, a % 4) for a in range(12)]),
        Relation("S", ("b", "c"), [(b, f"s{b}{j}") for b in range(4) for j in range(3)]),
        Relation("T", ("a", "b"), [(a, a % 4) for a in range(6, 18)]),
    ])


#: Applied before the checkpoint: deletes leave tombstones and clone
#: frozen treap spines, so the pickled trees carry both.
BEFORE = [
    [("delete", "R", (a, a % 4)) for a in range(0, 12, 3)]
    + [("insert", "R", (a, a % 4)) for a in range(20, 24)]
    + [("delete", "S", (1, "s10")), ("insert", "S", (2, "s29"))],
    [("delete", "T", (a, a % 4)) for a in range(6, 12)]
    + [("insert", "T", (3, 3)), ("insert", "S", (0, "s05"))],
]

#: The WAL tail past the checkpoint, replayed at recovery.
TAIL = [
    [("insert", "R", (30, 1)), ("insert", "T", (30, 1)), ("delete", "S", (0, "s00"))],
    [("delete", "R", (1, 1)), ("insert", "S", (1, "s10")), ("insert", "T", (31, 2))],
    [("insert", "R", (0, 0)), ("delete", "T", (12, 0)), ("insert", "S", (3, "s3x"))],
]


def write(store: str) -> None:
    directory = HERE / store
    shutil.rmtree(directory, ignore_errors=True)
    service = QueryService(database(), storage=directory, dynamic=True, store=store)
    for query in (CQ, UCQ):
        service.cursor(query).count  # build the dynamic entries
    for ops in BEFORE:
        service.apply(Delta(ops))
    service.checkpoint()
    for ops in TAIL:
        service.apply(Delta(ops))
    service.database.log.close()


if __name__ == "__main__":
    for store in ("tuple", "flat"):
        write(store)
