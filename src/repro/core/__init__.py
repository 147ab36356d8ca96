"""The paper's primary contribution: random access and random-order
enumeration for (unions of) conjunctive queries.

Module map (paper artifact → module):

* Algorithm 1 (lazy Fisher–Yates shuffle)          → :mod:`repro.core.shuffle`
* Proposition 4.2 (free-connex → full acyclic)     → :mod:`repro.core.reduction`
* Algorithm 2 (preprocessing: buckets & weights)   → :mod:`repro.core.index`
* Algorithms 3–4 walks (shared, both bucket stores) → :mod:`repro.core.access_engine`
* Algorithm 3 (random access)                      → :mod:`repro.core.index`
* Algorithm 4 (inverted access)                    → :mod:`repro.core.index`
* Theorem 4.3 public entry point                   → :mod:`repro.core.cq_index`
* Theorem 4.3 under updates (dynamic index)        → :mod:`repro.core.dynamic`
* Order maintenance for dynamic buckets            → :mod:`repro.core.order_tree`
* Theorem 3.7 (REnum(CQ))                          → :mod:`repro.core.permutation`
* Lemma 5.3 (deletable answer sets)                → :mod:`repro.core.deletable`
* Algorithm 5 (REnum(UCQ))                         → :mod:`repro.core.union_enum`
* Algorithms 6–8, Theorem 5.5 (mc-UCQ access)      → :mod:`repro.core.union_access`
* Inclusion–exclusion UCQ counting                 → :mod:`repro.core.counting`
"""

from repro.core.errors import (
    IncompatibleUnionError,
    NotFreeConnexError,
    OutOfBoundError,
)
from repro.core.shuffle import LazyShuffle, random_permutation_indices
from repro.core.order_tree import OrderedWeightTree
from repro.core.dynamic import DynamicCQIndex, DynamicJoinForest, IndexSnapshot
from repro.core.reduction import PreparedQuery, ReducedJoin, prepare_query, reduce_to_full_acyclic
from repro.core.index import JoinForestIndex
from repro.core.cq_index import CQIndex
from repro.core.permutation import RandomPermutationEnumerator, random_order
from repro.core.deletable import DeletableAnswerSet
from repro.core.union_enum import UnionRandomEnumerator
from repro.core.union_access import (
    MCUCQIndex,
    UnionIndexSnapshot,
    UnionRandomAccess,
    enumerate_union,
)
from repro.core.counting import ucq_count, ucq_intersection_counts

__all__ = [
    "IncompatibleUnionError",
    "NotFreeConnexError",
    "OutOfBoundError",
    "LazyShuffle",
    "random_permutation_indices",
    "OrderedWeightTree",
    "DynamicCQIndex",
    "DynamicJoinForest",
    "IndexSnapshot",
    "PreparedQuery",
    "ReducedJoin",
    "prepare_query",
    "reduce_to_full_acyclic",
    "JoinForestIndex",
    "CQIndex",
    "RandomPermutationEnumerator",
    "random_order",
    "DeletableAnswerSet",
    "UnionRandomEnumerator",
    "MCUCQIndex",
    "UnionIndexSnapshot",
    "UnionRandomAccess",
    "enumerate_union",
    "ucq_count",
    "ucq_intersection_counts",
]
