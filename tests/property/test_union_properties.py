"""Property-based tests for the union machinery (Algorithms 5–8)."""

import itertools
import random

from hypothesis import given, settings, strategies as st

from repro import (
    CQIndex,
    Database,
    MCUCQIndex,
    Relation,
    UnionRandomEnumerator,
    parse_ucq,
)
from repro.database.joins import evaluate_ucq

UNION2 = "Q(a, b, c) :- R1(a, b), S(b, c) ; Q(a, b, c) :- R2(a, b), S(b, c)"
UNION3 = UNION2 + " ; Q(a, b, c) :- R3(a, b), S(b, c)"


def _pairs(max_size=14):
    return st.lists(
        st.tuples(st.integers(0, 5), st.integers(0, 2)), max_size=max_size
    )


@st.composite
def union_case(draw, members=2):
    names = ["R1", "R2", "R3"][:members]
    relations = [Relation(n, ("a", "b"), draw(_pairs())) for n in names]
    relations.append(
        Relation("S", ("b", "c"), draw(st.lists(
            st.tuples(st.integers(0, 2), st.integers(0, 2)), max_size=8
        )))
    )
    text = UNION2 if members == 2 else UNION3
    return parse_ucq(text), Database(relations)


@given(union_case(members=2), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_algorithm5_emits_union_exactly(case, seed):
    ucq, db = case
    truth = evaluate_ucq(ucq, db)
    enum = UnionRandomEnumerator.for_indexes(
        [CQIndex(q, db) for q in ucq.queries], rng=random.Random(seed)
    )
    out = list(enum)
    assert set(out) == truth
    assert len(out) == len(truth)
    # Amortized-constant argument: at most one rejection per answer overall.
    assert enum.iterations <= 2 * max(1, len(truth))


@given(union_case(members=3), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_algorithm5_three_members(case, seed):
    ucq, db = case
    truth = evaluate_ucq(ucq, db)
    enum = UnionRandomEnumerator.for_indexes(
        [CQIndex(q, db) for q in ucq.queries], rng=random.Random(seed)
    )
    out = list(enum)
    assert set(out) == truth and len(out) == len(truth)


@given(union_case(members=2))
@settings(max_examples=60, deadline=None)
def test_mcucq_access_bijective_onto_union(case):
    ucq, db = case
    truth = evaluate_ucq(ucq, db)
    index = MCUCQIndex(ucq, db)
    assert index.count == len(truth)
    answers = [index.access(i) for i in range(index.count)]
    assert set(answers) == truth
    assert len(set(answers)) == len(answers)


@given(union_case(members=3))
@settings(max_examples=30, deadline=None)
def test_mcucq_matches_durand_strozecki_order(case):
    ucq, db = case
    index = MCUCQIndex(ucq, db)
    assert list(index) == [index.access(i) for i in range(index.count)]


@given(union_case(members=2))
@settings(max_examples=40, deadline=None)
def test_intersection_order_compatible_with_members(case):
    ucq, db = case
    index = MCUCQIndex(ucq, db)
    member = index.member_indexes[0]
    subset = index.intersection_indexes[(0, frozenset({1}))]
    member_rank = {answer: i for i, answer in enumerate(member)}
    ranks = [member_rank[answer] for answer in subset]
    assert ranks == sorted(ranks)


# ---------------------------------------------------------------------- #
# Algorithm 8's rank (one descent per T) against brute force, and the     #
# level-by-level batch against scalar access — over the store matrix      #
# ---------------------------------------------------------------------- #

#: One member of a shape-aligned union whose forest has two roots (``U``
#: is disconnected) and a node with several children (``A`` joins three
#: leaves), so the rank walk folds mixed-radix digits at both places.
MEMBER = "Q(a, b, c, x, y, z, e) :- A{i}(a, b, c), B{i}(a, x), C{i}(b, y), D(c, z), U{i}(e)"

#: relation prefix → (columns, per-column domain size); ``D`` is shared by
#: every member, the others exist once per member.
SCHEMA = {
    "A": (("a", "b", "c"), (2, 2, 2)),
    "B": (("a", "x"), (2, 2)),
    "C": (("b", "y"), (2, 2)),
    "D": (("c", "z"), (2, 2)),
    "U": (("e",), (3,)),
}


def _domain(sizes):
    return list(itertools.product(*[range(size) for size in sizes]))


@st.composite
def aligned_union(draw):
    """``(ucq, database, churn)``: 2–4 aligned members, each relation at
    least half of its tiny domain (so members are non-empty and overlap,
    while the deeper intersections thin out to nothing), and a list of
    ``(relation, row)`` toggles to churn the dynamic builds."""
    m = draw(st.integers(2, 4))
    names = {"D": "D"}
    names.update({
        f"{prefix}{i}": prefix for i in range(m) for prefix in "ABCU"
    })
    relations = []
    for name, prefix in sorted(names.items()):
        columns, sizes = SCHEMA[prefix]
        domain = _domain(sizes)
        rows = draw(st.sets(st.sampled_from(domain), min_size=len(domain) // 2))
        relations.append(Relation(name, columns, sorted(rows)))
    churn = draw(st.lists(
        st.sampled_from(sorted(names)).flatmap(lambda name: st.tuples(
            st.just(name), st.sampled_from(_domain(SCHEMA[names[name]][1]))
        )),
        max_size=12,
    ))
    ucq = parse_ucq(" ; ".join(MEMBER.format(i=i) for i in range(m)))
    return ucq, Database(relations), churn


def _toggle_delta(live, toggles):
    """Effective ops for the toggles: delete what is there, insert what is
    not — deletes leave zero-weight tombstones and may empty a bucket."""
    delta = []
    for name, row in toggles:
        if row in live[name]:
            live[name].remove(row)
            delta.append(("delete", name, row))
        else:
            live[name].add(row)
            delta.append(("insert", name, row))
    return delta


def _check_family(union, members, intersections, brute_rank, positions):
    """Every (member answer, ``T``) pair of one index family, then batch."""
    for (level, __), subset in intersections.items():
        member = members[level]
        for answer in member:
            assert subset.rank_not_after(answer) == brute_rank(subset, member, answer)
    requested = [p % union.count for p in positions] if union.count else []
    assert union.batch(requested) == [union.access(i) for i in requested]


@given(aligned_union(), st.lists(st.integers(0, 10**6), max_size=20))
@settings(max_examples=10, deadline=None)
def test_rank_and_batch_match_brute_force_on_every_store(
    store, brute_rank, case, positions
):
    ucq, db, churn = case
    static = MCUCQIndex(ucq, db, store=store)
    roots = static.member_indexes[0]._forest.roots
    assert len(roots) == 2 and any(
        len(node.children) >= 2 for root in roots for node in root.all_nodes()
    )
    _check_family(
        static, static.member_indexes, static.intersection_indexes,
        brute_rank, positions,
    )

    dynamic = MCUCQIndex(ucq, db, dynamic=True, store=store)
    live = {relation.name: set(relation.rows) for relation in db}
    half = len(churn) // 2
    # Fresh, then after each of two churn batches (the second revives or
    # re-deletes rows the first one touched): the live structures and the
    # snapshot that batch published.
    for toggles in ([], churn[:half], churn[half:]):
        dynamic.apply_delta(_toggle_delta(live, toggles))
        _check_family(
            dynamic, dynamic.member_indexes, dynamic.intersection_indexes,
            brute_rank, positions,
        )
        published = dynamic.snapshot
        _check_family(
            published, published.member_snapshots,
            published.intersection_snapshots, brute_rank, positions,
        )
    # …and the churned union still is the union a fresh build serves.
    fresh = MCUCQIndex(ucq, Database([
        Relation(r.name, r.columns, sorted(live[r.name])) for r in db
    ]), store=store)
    assert [dynamic.access(i) for i in range(dynamic.count)] == list(fresh)
