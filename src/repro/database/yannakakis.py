"""Semijoins and the Yannakakis full reducer.

The *full reduction* of an acyclic join removes every dangling tuple — a
tuple that does not agree with any query answer — in linear time, by two
semijoin sweeps over a join tree (leaf-to-root, then root-to-leaf). After
the reduction, the database is *globally consistent* with respect to the
query: every remaining fact extends to an answer. This is the first step of
Proposition 4.2's reduction from free-connex CQs to full acyclic joins, and
what guarantees Algorithm 2 computes strictly positive weights.

The reducer here operates on *variable-schema* relations: relations whose
columns are query-variable names, one relation per join-tree node (produced
by ``repro.core.reduction``). Semijoins match on shared column names.
"""

from __future__ import annotations

from itertools import compress
from operator import itemgetter
from typing import Dict, List, Sequence

from repro.database.relation import Relation
from repro.query.acyclicity import JoinTree, JoinTreeNode


def semijoin(left: Relation, right: Relation) -> Relation:
    """``left ⋉ right``: rows of ``left`` with a join partner in ``right``.

    The join condition is equality on all shared column names. When the
    relations share no columns, the semijoin keeps ``left`` intact if
    ``right`` is nonempty and empties it otherwise (the natural-join
    semantics of a cartesian factor).
    """
    shared = [c for c in left.columns if c in right.columns]
    if not shared:
        if len(right) == 0:
            return Relation.copy_from(left.name, left.columns, [])
        return left
    # itemgetter makes each key in C: a value for one shared column, a
    # tuple for more, the same on both sides.
    right_keys = set(map(itemgetter(*right.positions_of(shared)), right.rows))
    keys = map(itemgetter(*left.positions_of(shared)), left.rows)
    # A semijoin keeps a subset of already-distinct rows, so the dedup scan
    # of Relation.__init__ is pure overhead on this hot path.
    return Relation.copy_from(
        left.name,
        left.columns,
        compress(left.rows, map(right_keys.__contains__, keys)),
    )


def full_reduction(relations: Dict[int, Relation], tree: JoinTree) -> Dict[int, Relation]:
    """Yannakakis' full reducer over a join forest.

    Parameters
    ----------
    relations:
        Maps each tree-node index to its relation (columns = variable names).
    tree:
        A join forest whose node indices key ``relations``.

    Returns
    -------
    A new mapping with every dangling tuple removed. Within each tree, a
    leaf-to-root semijoin pass followed by a root-to-leaf pass achieves
    global consistency; the two passes touch each edge twice, so the
    reduction is linear in the database size.

    Note: global consistency across *different trees* of the forest is
    all-or-nothing — the trees share no variables, so if any tree becomes
    empty the query has no answers and every relation should be empty. The
    reducer enforces this final sweep too (a detail that matters for the
    paper's invariant that reduced databases are globally consistent).
    """
    reduced = dict(relations)

    for root in tree.roots:
        _reduce_up(root, reduced)
        _reduce_down(root, reduced)

    if any(len(reduced[node.index]) == 0 for node in tree.all_nodes()):
        reduced = {
            index: Relation(rel.name, rel.columns, []) for index, rel in reduced.items()
        }
    return reduced


def _reduce_up(node: JoinTreeNode, relations: Dict[int, Relation]) -> None:
    """Leaf-to-root pass: each parent keeps only tuples supported below."""
    for child in node.children:
        _reduce_up(child, relations)
        relations[node.index] = semijoin(relations[node.index], relations[child.index])


def _reduce_down(node: JoinTreeNode, relations: Dict[int, Relation]) -> None:
    """Root-to-leaf pass: each child keeps only tuples supported above."""
    for child in node.children:
        relations[child.index] = semijoin(relations[child.index], relations[node.index])
        _reduce_down(child, relations)
