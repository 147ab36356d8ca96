"""Proposition 4.2 — reducing a free-connex CQ to a full acyclic join.

Given a free-connex CQ ``Q`` over a database ``D``, one can compute in
linear time a *full* acyclic join query ``Q'`` and database ``D'`` with
``Q'(D') = Q(D)`` and ``D'`` globally consistent w.r.t. ``Q'``. The
random-access machinery (Algorithms 2–4) then operates on ``Q'``.

The construction implemented here:

1. **Normalization** — each atom is replaced by a variable-only atom over a
   derived relation: constants become selections, repeated variables become
   equality filters, and columns are renamed to variable names (one column
   per distinct variable, in sorted-name order). This realizes the paper's
   convention that atoms can be assumed to carry distinct variables.
2. **Full reduction** — Yannakakis' semijoin sweeps over a join tree of
   ``H_Q`` remove every dangling tuple, making the database globally
   consistent.
3. **Projection to the free variables** — every node's relation is projected
   onto its free variables. Projecting the join tree's nodes onto the free
   variable set preserves the running-intersection property, so the
   projected tree is a join tree of the projected (full) query. Nodes whose
   projection is empty disconnect their children, turning the tree into a
   forest; the forest factors count/access across independent components.

Why step 3 is correct (the crux of Proposition 4.2): with ``T''`` a join
tree of ``H ∪ {F}`` rooted at the head edge ``F``, distinct child subtrees
of ``F`` share variables only through ``F``, and every free variable of an
atom below child ``c`` already occurs in ``c``. Hence on a globally
consistent database, a tuple over ``F`` that joins the projected children
extends — independently per subtree — to a homomorphism of the whole body,
and conversely every answer survives every projection. The projected full
join therefore has exactly the answer set ``Q(D)``. Free-connexity is what
guarantees ``T''`` exists; the code only needs to *verify* it and can then
work with the (projected) join tree of ``H`` itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.database.database import Database
from repro.database.relation import Relation
from repro.database.yannakakis import full_reduction
from repro.query.acyclicity import JoinTree, JoinTreeNode
from repro.query.atoms import Atom, Constant, Variable
from repro.query.cq import ConjunctiveQuery
from repro.query.free_connex import free_connex_report

from repro.core.errors import NotFreeConnexError


@dataclass
class PreparedAtom:
    """A normalized atom: distinct variables over a variable-schema relation."""

    atom: Atom
    variables: Tuple[str, ...]  # sorted variable names = relation columns
    relation: Relation


@dataclass
class PreparedQuery:
    """A CQ with every atom normalized against a concrete database."""

    query: ConjunctiveQuery
    atoms: List[PreparedAtom]


def prepare_query(query: ConjunctiveQuery, database: Database) -> PreparedQuery:
    """Normalize each atom of ``query`` against ``database``.

    For an atom ``R(t̄)``: rows of ``R`` are filtered by the atom's constants
    and repeated-variable equalities, then projected to one column per
    distinct variable, named after the variable, in sorted-name order.
    """
    prepared: List[PreparedAtom] = []
    for position, atom in enumerate(query.body):
        base = database.relation(atom.relation)
        if base.arity != atom.arity:
            raise ValueError(
                f"atom {atom} has arity {atom.arity} but relation "
                f"{base.name!r} has arity {base.arity}"
            )
        variables = sorted({t.name for t in atom.terms if isinstance(t, Variable)})
        var_first_position: Dict[str, int] = {}
        checks: List[Tuple[int, object]] = []  # (position, required constant)
        equalities: List[Tuple[int, int]] = []  # (position, earlier position)
        for idx, term in enumerate(atom.terms):
            if isinstance(term, Constant):
                checks.append((idx, term.value))
            else:
                first = var_first_position.setdefault(term.name, idx)
                if first != idx:
                    equalities.append((idx, first))
        out_positions = [var_first_position[name] for name in variables]

        def keep(row, _checks=checks, _eqs=equalities):
            for pos, value in _checks:
                if row[pos] != value:
                    return False
            for pos, first in _eqs:
                if row[pos] != row[first]:
                    return False
            return True

        name = f"{atom.relation}@{position}"
        if checks or equalities:
            rows = (tuple(row[p] for p in out_positions) for row in base.rows if keep(row))
            relation = Relation(name, variables, rows)
        else:
            # Distinct variables and no constants: a projection onto every
            # column, which keeps distinct rows distinct (no dedup scan).
            relation = base.project(
                [base.columns[p] for p in out_positions], name
            ).rename(columns=variables)
        prepared.append(PreparedAtom(atom=atom, variables=tuple(variables), relation=relation))
    return PreparedQuery(query=query, atoms=prepared)


@dataclass
class ReducedNode:
    """A node of the reduced full join: a relation over free variables only."""

    variables: Tuple[str, ...]  # column names (sorted), all free
    relation: Relation
    children: List["ReducedNode"] = field(default_factory=list)
    #: Index of the body atom this node was projected from. Lets consumers
    #: that route per-atom updates (the dynamic index) map reduced nodes
    #: back to atom occurrences.
    atom_index: Optional[int] = None

    def subtree(self) -> List["ReducedNode"]:
        out = [self]
        for child in self.children:
            out.extend(child.subtree())
        return out


@dataclass
class ReducedJoin:
    """The output of Proposition 4.2: a full acyclic join forest.

    ``roots`` is a list of join-tree roots over variable-schema relations
    whose columns are free-variable names; distinct trees share no
    variables, so the answer count is the product of per-tree counts.
    """

    query: ConjunctiveQuery
    roots: List[ReducedNode]
    head_variables: Tuple[str, ...]

    def all_nodes(self) -> List[ReducedNode]:
        out: List[ReducedNode] = []
        for root in self.roots:
            out.extend(root.subtree())
        return out


def reduce_to_full_acyclic(
    query: ConjunctiveQuery,
    database: Database,
    reduce: bool = True,
    root_atom: Optional[int] = None,
) -> ReducedJoin:
    """Apply Proposition 4.2 to a free-connex CQ over a database.

    Parameters
    ----------
    query, database:
        The free-connex CQ and the input database.
    reduce:
        Whether to run the Yannakakis full reducer. Disabling it is sound
        only for *full* queries (Algorithm 2 tolerates dangling tuples by
        assigning them weight zero); for queries with existential variables
        the reducer always runs, since the projection step requires global
        consistency.
    root_atom:
        Optionally re-root the join tree at the given body-atom index (join
        trees are undirected, so any node of a component may serve as its
        root). The default is the deterministic GYO root. The choice affects
        only the enumeration order, not correctness.

    Raises
    ------
    NotFreeConnexError
        If the query is cyclic or not free-connex.
    """
    report = free_connex_report(query)
    if not report.tractable:
        raise NotFreeConnexError(query, report.classification())

    prepared = prepare_query(query, database)
    relations: Dict[int, Relation] = {i: p.relation for i, p in enumerate(prepared.atoms)}
    tree = report.join_tree
    if root_atom is not None:
        tree = tree.rerooted_at(root_atom)

    must_reduce = reduce or not query.is_full()
    if must_reduce:
        relations = full_reduction(relations, tree)

    free_names = frozenset(v.name for v in query.head)
    roots: List[ReducedNode] = []
    for tree_root in tree.roots:
        roots.extend(_project_subtree(tree_root, relations, free_names))
    head_variables = tuple(v.name for v in query.head)
    return ReducedJoin(query=query, roots=roots, head_variables=head_variables)


def _project_subtree(
    node: JoinTreeNode,
    relations: Dict[int, Relation],
    free_names: frozenset,
) -> List[ReducedNode]:
    """Project a join-tree node and its subtree onto the free variables.

    Returns the list of forest roots the subtree contributes: one root when
    the node's projection is nonempty on variables, and — when it is empty —
    the node itself (as a 0-ary cardinality guard) plus each child's roots,
    since an empty separator disconnects the children from everything else.
    """
    relation = relations[node.index]
    own_free = tuple(sorted(c for c in relation.columns if c in free_names))
    projected = relation.project(own_free)
    reduced = ReducedNode(variables=own_free, relation=projected, atom_index=node.index)

    if own_free:
        # A child sharing no free variable with this node (pAtts = ∅, a
        # cartesian factor) is still safe to keep as a child: by running
        # intersection it shares nothing with any node outside its own
        # subtree either, so its single () bucket factors independently.
        for child in node.children:
            reduced.children.extend(_project_subtree(child, relations, free_names))
        return [reduced]

    # Empty projection: this node contributes only its emptiness/nonemptiness
    # (a count factor of 0 or 1) and disconnects its children.
    out = [reduced]
    for child in node.children:
        out.extend(_project_subtree(child, relations, free_names))
    return out
