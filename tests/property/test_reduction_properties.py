"""Property: the reduction's fast paths give the rows, in the order, that
the duplicate-removing paths give. ``Relation.project`` onto every
column and ``prepare_query`` on an atom of distinct variables skip the
dedup scan; ``semijoin`` matches on a set of keys, not a hash index."""

from hypothesis import given, settings, strategies as st

from repro import Database, Relation, parse_cq
from repro.core.reduction import prepare_query
from repro.database.indexes import HashIndex
from repro.database.yannakakis import semijoin

#: Few values, equal ones of different types among them: projections
#: onto fewer columns collide often.
VALUES = [0, 1, 1.0, True, 2, -0.0, None, "x"]
COLUMNS = ("a", "b", "c")
ORDERS = st.permutations(range(3))


def rows(arity=3):
    return st.lists(st.tuples(*[st.sampled_from(VALUES)] * arity), max_size=12)


def exactly(relation: Relation) -> list:
    """Rows with each value's type, so 1 and True stay apart."""
    return [tuple((type(v), v) for v in row) for row in relation.rows]


@settings(max_examples=50, deadline=None)
@given(rows(), ORDERS, st.lists(st.sampled_from(COLUMNS), max_size=3, unique=True))
def test_project_fast_path_is_the_dedupe_projection(data, order, subset):
    relation = Relation("R", COLUMNS, data)
    for columns in ([COLUMNS[p] for p in order], subset):
        positions = relation.positions_of(columns)
        fast = relation.project(columns)
        slow = Relation("R", columns,
                        (tuple(row[p] for p in positions) for row in relation.rows))
        assert fast.columns == slow.columns
        assert exactly(fast) == exactly(slow)
        assert fast.rows is not relation.rows


@settings(max_examples=50, deadline=None)
@given(rows(), ORDERS)
def test_prepare_query_on_distinct_variables_is_the_dedupe_path(data, order):
    variables = [("x", "y", "z")[p] for p in order]
    base = Relation("R", COLUMNS, data)
    query = parse_cq(f"Q(x, y, z) :- R({', '.join(variables)})")
    (atom,) = prepare_query(query, Database([base])).atoms
    positions = [variables.index(name) for name in ("x", "y", "z")]
    slow = Relation("R@0", ("x", "y", "z"),
                    (tuple(row[p] for p in positions) for row in base.rows))
    assert atom.relation.columns == slow.columns
    assert exactly(atom.relation) == exactly(slow)
    assert atom.relation.rows is not base.rows


@settings(max_examples=50, deadline=None)
@given(rows(), rows(), st.sampled_from([("b",), ("b", "c")]))
def test_semijoin_keeps_what_a_hash_index_keeps(left_rows, right_rows, shared):
    left = Relation("L", COLUMNS, left_rows)
    right = Relation("R", shared + ("d", "e")[: 3 - len(shared)], right_rows)
    keys = set(HashIndex(right, shared).keys())
    positions = left.positions_of(shared)
    expected = [row for row in left.rows if tuple(row[p] for p in positions) in keys]
    kept = semijoin(left, right)
    assert kept.columns == left.columns
    assert exactly(kept) == [tuple((type(v), v) for v in row) for row in expected]
