"""Algorithms 6–8 / Theorem 5.5 — random access for mc-UCQs.

Random access does not survive unions in general (Example 5.1), but it does
for *mutually compatible* UCQs: unions whose intersections are all
free-connex and admit random access in orders compatible with the member
they refine. The access algorithm builds on Durand and Strozecki's union
trick (Algorithm 6): enumerate ``A``, and whenever an element also belongs
to ``B``, emit the next element of ``B`` instead. Random access into that
virtual order (Algorithm 7) needs, for a position ``j`` landing on
``a_j ∈ A ∩ B``, the count ``k = |{a_1 … a_j} ∩ B|`` — computed by
inclusion–exclusion over intersection indexes (Algorithm 8), where each
term ``|{a_1 … a_j} ∩ T|`` is the rank of the largest element of ``T`` not
succeeding ``a_j``.

**Where the paper's log² comes from, and why it is not paid here.** The
appendix's ``Largest`` routine knows nothing of ``T`` but its access
routine, so it binary-searches ``T``'s positions, comparing each probe
``T[k]`` with ``a_j`` through the member's inverted access: O(log|T|)
probes of O(log) each — exactly the ``log²`` of Theorem 5.5. This
library's compatibility is *constructive* (next paragraph): every member
and every ``T`` restricts one global order fixed by the forest shape, so
"how many elements of ``T`` do not succeed ``a_j``" is a lexicographic
lower bound, answered by one root-to-leaf descent over ``T`` alone
(:func:`repro.core.access_engine.rank_walk`, exposed as
``T.rank_not_after(a_j)``): O(depth · log bucket) per ``T``, no access and
no inverted access. The ``2^m`` terms of the inclusion–exclusion remain.

**How this library realizes compatibility.** Every index sorts its buckets
canonically, so an index's enumeration order is the restriction of one
global order on answer tuples determined solely by the join-forest shape.
All member CQs of an mc-UCQ are reduced to full acyclic joins; when the
reduced forests agree in shape (node variable sets and arrangement), each
member's answer set is the join of its per-node projected relations over
the *same* node variable sets, so every intersection is obtained by
intersecting relations node-wise — yielding an index over the same shape,
hence with a compatible order, by construction. Unions whose reduced
shapes disagree are rejected with
:class:`~repro.core.errors.IncompatibleUnionError` (use Algorithm 5 /
:class:`~repro.core.union_enum.UnionRandomEnumerator` instead, which works
for every union of free-connex CQs).
"""

from __future__ import annotations

import functools
import random
from bisect import bisect_left
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple

from repro.database.database import Database
from repro.database.relation import Relation, row_sort_key
from repro.query.ucq import UnionOfConjunctiveQueries

from repro.core.cq_index import CQIndex
from repro.core.errors import IncompatibleUnionError, OutOfBoundError
from repro.core.reduction import ReducedJoin, ReducedNode, reduce_to_full_acyclic
from repro.core.permutation import RandomPermutationEnumerator
from repro.core.shuffle import sample_positions

#: Guard against the 2^m intersection-index blow-up of Lemma A.2.
MAX_UNION_MEMBERS = 12


# ---------------------------------------------------------------------- #
# Reduced-join surgery: shape comparison and node-wise intersection       #
# ---------------------------------------------------------------------- #


def _same_shape(a: ReducedNode, b: ReducedNode) -> bool:
    if a.variables != b.variables or len(a.children) != len(b.children):
        return False
    return all(_same_shape(x, y) for x, y in zip(a.children, b.children))


def _forests_aligned(reduced: Sequence[ReducedJoin]) -> bool:
    first = reduced[0]
    for other in reduced[1:]:
        if len(other.roots) != len(first.roots):
            return False
        if not all(_same_shape(x, y) for x, y in zip(first.roots, other.roots)):
            return False
    return True


def _intersect_nodes(nodes: Sequence[ReducedNode], label: str) -> ReducedNode:
    rows = set(nodes[0].relation.rows)
    for node in nodes[1:]:
        rows &= set(node.relation.rows)
    relation = Relation(f"{nodes[0].relation.name}&{label}", nodes[0].relation.columns, rows)
    combined = ReducedNode(variables=nodes[0].variables, relation=relation)
    for position in range(len(nodes[0].children)):
        combined.children.append(
            _intersect_nodes([n.children[position] for n in nodes], label)
        )
    return combined


def intersect_reduced_joins(
    reduced: Sequence[ReducedJoin], name: str = "intersection"
) -> ReducedJoin:
    """Node-wise intersection of shape-aligned reduced joins.

    Correctness: each member's answer set is the natural join of its node
    relations, all over the same per-node variable sets; therefore
    ``⋂_i ⋈_k P_{i,k} = ⋈_k ⋂_i P_{i,k}``. The resulting relations may
    contain tuples dangling w.r.t. the intersected join — Algorithm 2
    assigns those weight zero, so no re-reduction is needed.
    """
    if not _forests_aligned(reduced):
        raise IncompatibleUnionError(
            "reduced join forests are not shape-aligned; node-wise intersection "
            "(and hence compatible-order random access) is unavailable"
        )
    roots = [
        _intersect_nodes([r.roots[i] for r in reduced], name)
        for i in range(len(reduced[0].roots))
    ]
    return ReducedJoin(
        query=reduced[0].query.with_name(name),
        roots=roots,
        head_variables=reduced[0].head_variables,
    )


# ---------------------------------------------------------------------- #
# The Largest routine (appendix, proof of Theorem 5.5)                    #
# ---------------------------------------------------------------------- #


def rank_in_member_order(subset_index, member_index, answer: tuple) -> int:
    """``|{a_1 … a_j} ∩ T|`` for ``a_j = answer``: how many elements of the
    subset index ``T`` do not succeed ``answer`` in the member's order.

    The paper's ``Largest`` binary-searches ``T`` through the member's
    inverted access; with compatible orders by construction the count is
    ``T``'s own order rank (see the module notes), so the member is only
    consulted to enforce the precondition ``answer ∈ member``.
    """
    if member_index.inverted_access(answer) is None:
        raise ValueError("rank_in_member_order requires an element of the member index")
    return subset_index.rank_not_after(answer)


# ---------------------------------------------------------------------- #
# Algorithm 7 generalized to m sets (Lemma A.2)                           #
# ---------------------------------------------------------------------- #


class UnionRandomAccess:
    """Random access to ``S_0 ∪ … ∪ S_{m−1}`` in Durand–Strozecki order.

    Parameters
    ----------
    members:
        Index per member set (``count`` / ``access`` / ``batch`` /
        ``inverted_access``), orders pairwise compatible.
    intersections:
        For each ``ℓ`` and nonempty ``I ⊆ {ℓ+1, …, m−1}``, an index of
        ``T_{ℓ,I} = S_ℓ ∩ ⋂_{i∈I} S_i`` over the members' forest shape
        (``count`` / ``rank_not_after``), keyed by ``(ℓ, frozenset(I))``.
    """

    def __init__(
        self,
        members: Sequence,
        intersections: Dict[Tuple[int, FrozenSet[int]], object],
        tables: Optional[Tuple[List[int], List[int]]] = None,
    ):
        self.members = list(members)
        m = len(self.members)
        # Per ℓ, the inclusion–exclusion terms over T_{ℓ,I}: (sign, index).
        self._terms: List[List[Tuple[int, object]]] = [
            [
                (1 if len(subset) % 2 == 1 else -1, intersections[(position, subset)])
                for subset in _nonempty_subsets(range(position + 1, m))
            ]
            for position in range(m)
        ]
        if tables is not None:
            # Adopt already-computed (overlap, suffix-count) tables — the
            # snapshot path reuses the live union's fresh refresh instead
            # of recomputing the O(m·2^m) inclusion–exclusion sums.
            self._overlap, self._suffix_count = tables
        else:
            self.refresh()

    def refresh(self) -> None:
        """Recompute the cached member/intersection counts.

        The overlap and suffix-count tables are derived from the member
        and intersection ``count`` values, which are O(1) reads — but they
        are *cached* here, so a caller that mutates the underlying indexes
        (the dynamic mc-UCQ path) must refresh after every batch of
        updates or access would split the index across stale digit bases.
        """
        m = len(self.members)
        # |S_ℓ ∩ (S_{ℓ+1} ∪ …)| by inclusion–exclusion over T_{ℓ,I}.
        self._overlap: List[int] = [
            sum(sign * index.count for sign, index in terms)
            for terms in self._terms
        ]
        # |S_ℓ ∪ … ∪ S_{m−1}| for each suffix.
        self._suffix_count = [0] * (m + 1)
        for position in range(m - 1, -1, -1):
            self._suffix_count[position] = (
                self.members[position].count
                + self._suffix_count[position + 1]
                - self._overlap[position]
            )

    @property
    def count(self) -> int:
        """``|S_0 ∪ … ∪ S_{m−1}|`` (inclusion–exclusion, O(2^m) counts)."""
        return self._suffix_count[0]

    def access(self, index: int) -> tuple:
        """The ``index``-th element of the union's enumeration order."""
        if index < 0 or index >= self.count:
            raise OutOfBoundError(index, self.count)
        return self._suffix_access(0, index)

    def _suffix_access(self, position: int, index: int) -> tuple:
        member = self.members[position]
        if position == len(self.members) - 1:
            return member.access(index)
        if index < member.count:
            answer = member.access(index)
            if not self._in_suffix(position + 1, answer):
                return answer
            # Algorithm 8: k = |{a_1 … a_j} ∩ B| by inclusion–exclusion of
            # compatible-order ranks; 1-based k, so access position k−1.
            k = self._prefix_overlap(position, answer)
            return self._suffix_access(position + 1, k - 1)
        shifted = index - member.count + self._overlap[position]
        return self._suffix_access(position + 1, shifted)

    def batch(self, indices: Sequence[int]) -> List[tuple]:
        """The elements at ``indices``, aligned with the request — equal to
        ``[self.access(i) for i in indices]``, resolved level by level.

        The request may be unsorted and repeat positions: each *distinct*
        position is resolved once, in ascending order. At level ``ℓ`` the
        positions below ``|S_ℓ|`` are fetched with one ``members[ℓ].batch``
        (shared descents; the vector kernel on the flat store); those
        landing in a later member become ``k − 1`` and the positions past
        ``|S_ℓ|`` shift by ``overlap − |S_ℓ|``, exactly as in
        :meth:`access`. That list is again ascending — the rank ``k``
        grows with the position, and every ``k − 1 < overlap ≤`` every
        shifted position — so no level re-sorts. Raises
        :class:`~repro.core.errors.OutOfBoundError` on any position
        outside ``[0, count)`` before resolving anything.
        """
        if hasattr(indices, "tolist"):
            # sample_positions may hand over an int64 ndarray; the levels
            # split lists and add python-int ranks, so unbox once here.
            indices = indices.tolist()
        count = self.count
        for index in indices:
            if index < 0 or index >= count:
                raise OutOfBoundError(index, count)
        distinct = sorted(set(indices))
        resolved = dict(zip(distinct, self._suffix_batch(0, distinct)))
        return [resolved[index] for index in indices]

    def _suffix_batch(self, position: int, indices: List[int]) -> List[tuple]:
        member = self.members[position]
        if position == len(self.members) - 1:
            return member.batch(indices)
        cut = bisect_left(indices, member.count)
        answers = member.batch(indices[:cut])
        slots: List[int] = []  # the answers the suffix union replaces
        deferred: List[int] = []  # …and their positions in that union
        for slot, answer in enumerate(answers):
            if self._in_suffix(position + 1, answer):
                slots.append(slot)
                deferred.append(self._prefix_overlap(position, answer) - 1)
        shift = self._overlap[position] - member.count
        deferred.extend([index + shift for index in indices[cut:]])
        if deferred:
            resolved = self._suffix_batch(position + 1, deferred)
            for slot, answer in zip(slots, resolved):
                answers[slot] = answer
            answers.extend(resolved[len(slots):])
        return answers

    def _in_suffix(self, start: int, answer: tuple) -> bool:
        return _in_some(self.members[start:], answer)

    def __contains__(self, answer: tuple) -> bool:
        return _in_some(self.members, answer)

    def _prefix_overlap(self, position: int, answer: tuple) -> int:
        """``|{a_1 … a_j} ∩ (S_{position+1} ∪ …)|`` where ``a_j = answer``:
        the ± sum of ``answer``'s order rank in every ``T_{position,I}``,
        one descent each (the module notes say why no search is needed)."""
        return sum(
            sign * index.rank_not_after(answer)
            for sign, index in self._terms[position]
        )


def _in_some(members: Sequence, answer: tuple) -> bool:
    """The paper's ``Test`` against a union: one inverted access per
    member (constant each), stopping at the first that holds it."""
    for member in members:
        if member.inverted_access(answer) is not None:
            return True
    return False


def _nonempty_subsets(indices) -> List[FrozenSet[int]]:
    items = list(indices)
    out: List[FrozenSet[int]] = []
    for mask in range(1, 1 << len(items)):
        out.append(frozenset(items[i] for i in range(len(items)) if mask & (1 << i)))
    return out


# ---------------------------------------------------------------------- #
# Algorithm 6 — the Durand–Strozecki enumeration (used as the order       #
# specification in tests, and as an Enum⟨lin,·⟩ algorithm for UCQs)       #
# ---------------------------------------------------------------------- #


def enumerate_union(members: Sequence) -> Iterator[tuple]:
    """Enumerate ``S_0 ∪ …`` in the Durand–Strozecki order (Algorithm 6).

    ``members`` are index objects; membership testing uses inverted access.
    The emitted order equals :class:`UnionRandomAccess`'s access order,
    which the integration tests assert.
    """
    if len(members) == 1:
        yield from iter(members[0])
        return

    first = members[0]
    rest = members[1:]
    rest_iterator = enumerate_union(rest)
    _EOE = object()
    b = next(rest_iterator, _EOE)
    for a in iter(first):
        if not _in_some(rest, a):
            yield a
        else:
            # a ∈ B: emit B's next element instead, consuming both.
            yield b
            b = next(rest_iterator, _EOE)
    while b is not _EOE:
        yield b
        b = next(rest_iterator, _EOE)


# ---------------------------------------------------------------------- #
# The read surface of both union views                                    #
# ---------------------------------------------------------------------- #


class UnionServingMixin:
    """The read surface over ``_union``, a :class:`UnionRandomAccess`.

    Shared by :class:`MCUCQIndex` (static, or the live dynamic family) and
    the immutable :class:`UnionIndexSnapshot`. The union surface offers no
    inverted access; membership (``answer in view``) is the paper's
    ``Test``, one inverted access per member.
    """

    _union: UnionRandomAccess

    @property
    def count(self) -> int:
        """``|Q(D)|`` of the union, via inclusion–exclusion."""
        return self._union.count

    def __len__(self) -> int:
        return self.count

    def access(self, index: int) -> tuple:
        """Random access into the union's Durand–Strozecki order.

        Theorem 5.5 states O(log²): its ``Largest`` binary-searches every
        ``T_{ℓ,I}`` through an access plus an inverted access per probe.
        Here compatibility is constructive, so each of the ``2^m`` terms
        is one order-rank descent of ``T`` — O(depth · log bucket) — and a
        call costs O(2^m · log) (see the module notes).
        """
        return self._union.access(index)

    def batch(self, indices: Sequence[int]) -> List[tuple]:
        """The union answers at ``indices``, aligned with the request.

        Equal to ``[self.access(i) for i in indices]``, but resolved by
        :meth:`UnionRandomAccess.batch`: distinct positions once, level by
        level, one member ``batch`` per level — so the positions of a page
        or a sample share member descents like a CQ batch does.
        """
        return self._union.batch(indices)

    def sample_many(self, k: int, rng: Optional[random.Random] = None) -> List[tuple]:
        """The first ``min(k, count)`` draws of :meth:`random_order`.

        Randomness-compatible with ``k`` sequential draws from
        :meth:`random_order` under the same seeded ``rng``; served by one
        vectorized shuffle plus one deduplicated batch.
        """
        return self.batch(sample_positions(self.count, k, rng))

    def random_order(self, rng: Optional[random.Random] = None) -> Iterator[tuple]:
        """REnum(mcUCQ): a uniformly random permutation of the union.

        Fisher–Yates (Algorithm 1) over :meth:`access` — guaranteed (not
        just expected) polylogarithmic delay.
        """
        return iter(RandomPermutationEnumerator(self, rng=rng))

    def __iter__(self) -> Iterator[tuple]:
        """Enumerate in the union's order (Algorithm 6)."""
        return enumerate_union(self._union.members)

    def __contains__(self, answer: tuple) -> bool:
        """Membership (the paper's ``Test``): one inverted access per
        member — without it ``in`` would enumerate the union."""
        return tuple(answer) in self._union

    def ensure_inverted_support(self) -> None:
        """Build the members' inverted-access support, which membership
        and Algorithm 7 run on (idempotent)."""
        for member in self._union.members:
            member.ensure_inverted_support()


# ---------------------------------------------------------------------- #
# Snapshot publication (lock-free reads over the whole 2^m family)        #
# ---------------------------------------------------------------------- #


class UnionIndexSnapshot(UnionServingMixin):
    """One published, immutable version of a dynamic mc-UCQ index.

    Holds the pinned :class:`~repro.core.dynamic.IndexSnapshot` of every
    member and every ``T_{ℓ,I}`` intersection — all published by the same
    write batch — plus a :class:`UnionRandomAccess` whose overlap and
    suffix-count tables were computed once from those frozen counts.
    Every read (count, access, batch, sampling, Durand–Strozecki
    enumeration, random order) therefore runs against one mutually
    consistent version of the whole 2^m family with zero synchronization,
    while the single writer keeps patching the live index.

    Like the live :class:`MCUCQIndex`, the union surface offers no
    inverted access (membership, ``answer in snapshot``, it does).
    """

    #: Snapshots are read-only; the service must never route writes here.
    supports_updates = False

    def __init__(
        self,
        members: Sequence,
        intersections: Dict[Tuple[int, FrozenSet[int]], object],
        head_variables: Tuple[str, ...],
        version: int,
        tables: Optional[Tuple[List[int], List[int]]] = None,
        store: str = "tuple",
    ):
        self.member_snapshots = list(members)
        self.intersection_snapshots = dict(intersections)
        self.head_variables = head_variables
        self.version = version
        #: The publishing union's bucket backend — carried on the
        #: snapshot so per-backend read accounting works on pinned views.
        self.store = store
        self._union = UnionRandomAccess(
            self.member_snapshots, self.intersection_snapshots, tables=tables
        )

    # The layered benchmark's tracer wraps these by name in
    # vars(UnionIndexSnapshot); binding the mixin's own function keeps one
    # span per call.
    batch = UnionServingMixin.batch  # traced: pinned union engine walk
    sample_many = UnionServingMixin.sample_many  # traced: pinned union engine walk

    def __repr__(self) -> str:
        return (f"UnionIndexSnapshot(version={self.version}, "
                f"count={self.count})")


# ---------------------------------------------------------------------- #
# The public mc-UCQ index (Theorem 5.5, REnum(mcUCQ))                     #
# ---------------------------------------------------------------------- #


class MCUCQIndex(UnionServingMixin):
    """Random access and random-order enumeration for an mc-UCQ.

    Builds, per Lemma A.2, one :class:`~repro.core.cq_index.CQIndex`-style
    structure per member and per ``T_{ℓ,I}`` intersection (``O(2^m)`` of
    them), all over the same join-forest shape so that orders are
    compatible by construction.

    With ``dynamic=True`` the members are
    :class:`~repro.core.dynamic.DynamicCQIndex` instances and every
    intersection a :class:`~repro.core.dynamic.DynamicJoinForest` over the
    same shape, maintained incrementally: a member row's presence
    transition (multiplicity 0 ↔ positive) updates exactly the
    intersections it belongs to, so a write patches the whole 2^m-index
    family in O(2^m · depth · log) per fact instead of rebuilding it.
    Every write is a batch — :meth:`apply_delta` is the one maintenance
    path, and :meth:`insert` / :meth:`delete` are one-op batches. Because
    dynamic buckets maintain the canonical sort
    order under churn (see :mod:`repro.core.order_tree`), the
    compatibility invariant — every structure's order restricts one global
    order fixed by the forest shape — holds at all times, and a mutated
    dynamic union enumerates exactly like a freshly built static one.
    Dynamic mode requires every member to be *full* (the usual dynamic
    restriction; see :class:`~repro.core.dynamic.DynamicCQIndex`).

    Raises
    ------
    NotFreeConnexError
        When some member CQ is not free-connex (or, with ``dynamic=True``,
        not full).
    IncompatibleUnionError
        When the members' reduced joins are not shape-aligned (the union is
        then outside this library's constructive mc-UCQ class).
    """

    def __init__(
        self,
        ucq: UnionOfConjunctiveQueries,
        database: Database,
        dynamic: bool = False,
        store: Optional[str] = None,
    ):
        from repro.core import flat_store

        if len(ucq) > MAX_UNION_MEMBERS:
            raise IncompatibleUnionError(
                f"union has {len(ucq)} members; the 2^m intersection indexes of "
                f"Lemma A.2 are capped at m = {MAX_UNION_MEMBERS}"
            )
        self.ucq = ucq
        self.head_variables: Tuple[str, ...] = tuple(v.name for v in ucq.head)
        self.dynamic = dynamic
        #: Backend for every member and intersection index (one family, one
        #: store — the compatibility machinery needs no further agreement,
        #: since all backends enumerate identically).
        self.store = flat_store.resolve_store(store)
        #: The service's capability marker: a dynamic union absorbs
        #: mutations in place instead of invalidating.
        self.supports_updates = dynamic
        # Member presence transitions buffer here (forest id → (forest,
        # member group, touched node rows)) until apply_delta drains them
        # into one batched presence pass per intersection forest.
        self._hook_buffer: Dict[int, tuple] = {}

        if dynamic:
            self._build_dynamic(database)
        else:
            self._build_static(database)
        self._union = UnionRandomAccess(self.member_indexes, self.intersection_indexes)
        #: Published union snapshots (dynamic mode only; also the version
        #: stamp of the latest :class:`UnionIndexSnapshot`).
        self.publishes = 0
        self._snapshot: Optional[UnionIndexSnapshot] = None
        if dynamic:
            self._publish()

    def _build_static(self, database: Database) -> None:
        ucq = self.ucq
        reduced = [reduce_to_full_acyclic(q, database) for q in ucq.queries]
        if not _forests_aligned(reduced):
            raise IncompatibleUnionError(
                "member queries reduce to differently-shaped join forests; "
                "compatible-order random access is unavailable for this union "
                "(Theorem 5.4's UnionRandomEnumerator still applies)"
            )
        self.member_indexes: List[CQIndex] = [
            CQIndex.from_reduced(r, sort_buckets=True, store=self.store)
            for r in reduced
        ]
        m = len(ucq)
        self.intersection_indexes: Dict[Tuple[int, FrozenSet[int]], CQIndex] = {}
        for position in range(m):
            for subset in _nonempty_subsets(range(position + 1, m)):
                label = "T_%d_%s" % (position, "_".join(str(i) for i in sorted(subset)))
                joined = intersect_reduced_joins(
                    [reduced[position]] + [reduced[i] for i in sorted(subset)],
                    name=label,
                )
                self.intersection_indexes[(position, subset)] = CQIndex.from_reduced(
                    joined, sort_buckets=True, store=self.store
                )

    def _build_dynamic(self, database: Database) -> None:
        """Members as dynamic CQ indexes, intersections as dynamic forests.

        Members construct with the reducer off (their reduced relations
        keep dangling rows as weight-0 tombstones), so the node-wise
        intersections are supersets of the reduced-relation intersections
        — harmless, since Algorithm 2 weights dangling rows zero. Each
        member reports presence transitions through a hook that carries
        its position, which is all the intersection maintenance needs.
        """
        from repro.core.dynamic import DynamicCQIndex, DynamicJoinForest

        ucq = self.ucq
        self.member_indexes = [
            DynamicCQIndex(
                query,
                database,
                # A partial, not a closure: dynamic unions must pickle
                # (checkpointed serve-state).
                on_presence_change=functools.partial(
                    self._on_member_presence, position
                ),
                store=self.store,
            )
            for position, query in enumerate(ucq.queries)
        ]
        reduced = [member.reduced for member in self.member_indexes]
        if not _forests_aligned(reduced):
            raise IncompatibleUnionError(
                "member queries reduce to differently-shaped join forests; "
                "compatible-order random access is unavailable for this union "
                "(Theorem 5.4's UnionRandomEnumerator still applies)"
            )
        m = len(ucq)
        self.intersection_indexes = {}
        # Per member position: the intersections it participates in, each
        # with its full member-index group — the hook's dispatch table.
        self._memberships: List[List[Tuple[FrozenSet[int], DynamicJoinForest]]] = [
            [] for __ in range(m)
        ]
        for position in range(m):
            for subset in _nonempty_subsets(range(position + 1, m)):
                label = "T_%d_%s" % (position, "_".join(str(i) for i in sorted(subset)))
                joined = intersect_reduced_joins(
                    [reduced[position]] + [reduced[i] for i in sorted(subset)],
                    name=label,
                )
                forest = DynamicJoinForest(joined, store=self.store)
                self.intersection_indexes[(position, subset)] = forest
                group = frozenset({position}) | subset
                for i in group:
                    self._memberships[i].append((group, forest))

    # ------------------------------------------------------------------ #
    # Incremental maintenance (dynamic mode)                              #
    # ------------------------------------------------------------------ #

    def _on_member_presence(
        self, member_position: int, shape_position: int, row: tuple, present: bool
    ) -> None:
        """Record one member node-row transition for its intersections.

        A row belongs to intersection ``T`` at a node iff *every* member of
        ``T`` holds it there. The hook only records *which* intersection
        rows were touched; their final presence is decided (and applied,
        one batched pass per forest) by :meth:`apply_delta` after every
        member has absorbed the whole delta — ``set_rows_presence`` is
        idempotent, so deciding from the final member state is equivalent
        to replaying the transitions, and safe under self-joins and
        repeated transitions.
        """
        for group, forest in self._memberships[member_position]:
            __, __, touched = self._hook_buffer.setdefault(
                id(forest), (forest, group, set())
            )
            touched.add((shape_position, row))

    def insert(self, relation: str, row: tuple) -> None:
        """Insert a base fact into every member and every affected
        intersection in place: a one-op :meth:`apply_delta`. Dynamic mode
        only."""
        self.apply_delta([("insert", relation, row)])

    def delete(self, relation: str, row: tuple) -> None:
        """Delete a base fact from every member and every affected
        intersection in place: a one-op :meth:`apply_delta`. Dynamic mode
        only."""
        self.apply_delta([("delete", relation, row)])

    def apply_delta(self, delta) -> None:
        """Absorb a whole write batch across the 2^m index family with
        **exactly one** :meth:`UnionRandomAccess.refresh`.

        Every member absorbs the batch through its own
        :meth:`~repro.core.dynamic.DynamicCQIndex.apply_delta` (grouped
        buckets, one deduplicated propagation pass each); presence
        transitions are buffered, then each touched intersection forest
        takes one batched presence pass decided from the members' final
        state, and the union's digit bases are recomputed once for the
        whole batch. Dynamic mode only.
        """
        if not self.dynamic:
            raise TypeError(
                "this MCUCQIndex is static; build with dynamic=True for "
                "in-place updates (static entries invalidate-and-rebuild)"
            )
        members = self.member_indexes
        for member in members:
            member.apply_delta(delta)
        buffered, self._hook_buffer = self._hook_buffer, {}
        for forest, group, touched in buffered.values():
            forest.set_rows_presence([
                (
                    shape_position,
                    row,
                    all(members[i].presence(shape_position, row) for i in group),
                )
                # Deterministic maintenance order (sets hash-order rows).
                for shape_position, row in sorted(
                    touched, key=lambda t: (t[0], row_sort_key(t[1]))
                )
            ])
        self._union.refresh()
        self._publish()

    # ------------------------------------------------------------------ #
    # Snapshot publication (dynamic mode)                                 #
    # ------------------------------------------------------------------ #

    @property
    def snapshot(self) -> Optional[UnionIndexSnapshot]:
        """The latest published :class:`UnionIndexSnapshot` (atomic read).

        ``None`` for a static index — a static union is immutable and
        *is* its own consistent version. Mid-mutation this property still
        returns the pre-mutation snapshot: members and intersections
        publish their own forest snapshots as they absorb the write, but
        the union version flips only at the final reference swap, after
        ``UnionRandomAccess.refresh()``.
        """
        return self._snapshot

    def _publish(self) -> UnionIndexSnapshot:
        """Pin every member/intersection snapshot into one union version.

        Runs right after ``self._union.refresh()``, and the snapshots
        being pinned carry exactly the counts that refresh read — so the
        just-computed overlap/suffix tables are handed to the snapshot
        instead of being recomputed (``refresh`` rebinds fresh lists each
        time, so sharing them is safe).
        """
        self.publishes += 1
        snapshot = UnionIndexSnapshot(
            [member.snapshot for member in self.member_indexes],
            {
                key: forest.snapshot
                for key, forest in self.intersection_indexes.items()
            },
            self.head_variables,
            self.publishes,
            tables=(self._union._overlap, self._union._suffix_count),
            store=self.store,
        )
        self._snapshot = snapshot  # the atomic publication point
        return snapshot

    # The layered benchmark's tracer wraps these by name in vars(MCUCQIndex);
    # binding the mixin's own function keeps one span per call.
    batch = UnionServingMixin.batch  # traced: union engine walk
    sample_many = UnionServingMixin.sample_many  # traced: union engine walk

    def __repr__(self) -> str:
        return f"MCUCQIndex({self.ucq.name}, count={self.count})"
