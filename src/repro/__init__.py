"""repro — random access and random-order enumeration for (U)CQs.

A from-scratch Python reproduction of Carmeli, Zeevi, Berkholz, Kimelfeld,
and Schweikardt, *Answering (Unions of) Conjunctive Queries using Random
Access and Random-Order Enumeration* (PODS 2020).

Quickstart
----------
>>> import random
>>> from repro import Database, Relation, parse_cq, CQIndex
>>> db = Database([
...     Relation("R", ("a", "b"), [(1, 10), (2, 20)]),
...     Relation("S", ("b", "c"), [(10, "x"), (10, "y"), (20, "z")]),
... ])
>>> q = parse_cq("Q(a, b, c) :- R(a, b), S(b, c)")
>>> index = CQIndex(q, db)
>>> index.count
3
>>> sorted(index.random_order(random.Random(7))) == sorted(index)
True
"""

from repro.query import (
    Atom,
    ConjunctiveQuery,
    Constant,
    SQLParseError,
    UnionOfConjunctiveQueries,
    Variable,
    free_connex_report,
    is_free_connex,
    parse_atom,
    parse_cq,
    parse_sql_cq,
    parse_ucq,
)
from repro.database import (
    AppliedDelta,
    Database,
    Delta,
    DeltaError,
    Relation,
    evaluate_cq,
    evaluate_ucq,
)
from repro.errors import ReproError
from repro.service import (
    Cursor,
    IndexCache,
    QueryService,
    ServiceDegradedError,
    StaleCursorError,
    Transaction,
)
from repro.storage import (
    CheckpointError,
    DurableStore,
    RecoveryReport,
    RetryPolicy,
    StorageError,
    WalError,
    WriteAheadLog,
)
from repro.core import (
    CQIndex,
    DeletableAnswerSet,
    DynamicCQIndex,
    IncompatibleUnionError,
    LazyShuffle,
    MCUCQIndex,
    NotFreeConnexError,
    OutOfBoundError,
    RandomPermutationEnumerator,
    UnionRandomEnumerator,
    random_order,
    ucq_count,
)

__version__ = "1.0.0"

__all__ = [
    "Atom",
    "ConjunctiveQuery",
    "Constant",
    "UnionOfConjunctiveQueries",
    "Variable",
    "free_connex_report",
    "is_free_connex",
    "parse_atom",
    "parse_cq",
    "parse_sql_cq",
    "parse_ucq",
    "SQLParseError",
    "AppliedDelta",
    "Database",
    "Delta",
    "DeltaError",
    "Relation",
    "ReproError",
    "evaluate_cq",
    "evaluate_ucq",
    "CheckpointError",
    "DurableStore",
    "RecoveryReport",
    "RetryPolicy",
    "ServiceDegradedError",
    "StorageError",
    "WalError",
    "WriteAheadLog",
    "CQIndex",
    "Cursor",
    "IndexCache",
    "QueryService",
    "StaleCursorError",
    "Transaction",
    "DeletableAnswerSet",
    "DynamicCQIndex",
    "IncompatibleUnionError",
    "LazyShuffle",
    "MCUCQIndex",
    "NotFreeConnexError",
    "OutOfBoundError",
    "RandomPermutationEnumerator",
    "UnionRandomEnumerator",
    "random_order",
    "ucq_count",
    "__version__",
]
