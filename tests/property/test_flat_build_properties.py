"""Property: the flat store's array build (``build_flat_forest``) is the
tuple store's python build (``JoinForestIndex._build``), node for node
and bucket for bucket, on the same reduced join."""

import math

from hypothesis import given, settings, strategies as st

from repro import CQIndex, Database, Relation, parse_cq
from repro.core.index import JoinForestIndex
from repro.core.reduction import reduce_to_full_acyclic

NAN = float("nan")

#: The values the flat store's codec tests serve (``CODEC_VALUES`` in
#: ``tests/test_flat_store.py``).
VALUES = [
    -7, -(2 ** 63), 2 ** 53 + 1, 2 ** 70, 1, 1.0, True, False, None,
    1e16, -0.0, 2.5, NAN, float("inf"), float("-inf"),
    'say "hi"', "back\\slash", "new\nline\ttab", "naïve ☃ 𝄞", "",
]
#: Join-key values: equal values of different types (1, 1.0, True;
#: 0, 0.0, -0.0, False), a NaN, None and an int past int64.
KEYS = [0, 1, 2, 1.0, True, 0.0, -0.0, False, NAN, None, 2 ** 70]

#: (query, root atom, relation → columns, join variables).
SHAPES = [
    # a two-path: one root bucket, a child keyed by b
    ("Q(a, b, c) :- R(a, b), S(b, c)", None,
     {"R": "ab", "S": "bc"}, "b"),
    # bucket keys of two columns
    ("Q(a, b, c, d) :- R(a, b, c), S(b, c, d)", None,
     {"R": "abc", "S": "bcd"}, "bc"),
    # a node with two children
    ("Q(a, b, c, d) :- R(a, b), S(b, c), T(b, d)", 1,
     {"R": "ab", "S": "bc", "T": "bd"}, "b"),
    # a forest of two roots
    ("Q(a, b, c) :- R(a, b), T(c)", None,
     {"R": "ab", "T": "c"}, ""),
    # a 0-ary guard root beside a one-column root
    ("Q(a) :- R(a, b), S(b, c)", None,
     {"R": "ab", "S": "bc"}, "b"),
]


@st.composite
def build_case(draw):
    text, root_atom, schema, joins = draw(st.sampled_from(SHAPES))
    relations = []
    for name, columns in schema.items():
        cell = {
            column: st.sampled_from(KEYS if column in joins else VALUES)
            for column in columns
        }
        rows = draw(st.lists(
            st.tuples(*(cell[column] for column in columns)), max_size=8
        ))
        relations.append(Relation(name, tuple(columns), rows))
    return (parse_cq(text), Database(relations), root_atom,
            draw(st.booleans()), draw(st.booleans()))


def identical(left, right) -> bool:
    """Same type and value; a float zero keeps its sign, a NaN its object."""
    if type(left) is not type(right):
        return False
    if left is right:
        return True
    if isinstance(left, float) and left == right == 0:
        return math.copysign(1.0, left) == math.copysign(1.0, right)
    return left == right


def same_tuple(left: tuple, right: tuple) -> bool:
    return len(left) == len(right) and all(map(identical, left, right))


def assert_same_node(python, arrays) -> None:
    """``arrays`` (flat) holds exactly the buckets, rows, weights and
    starts of ``python`` (tuple), and its child arrays are what the
    python forest implies."""
    assert len(python.buckets) == len(arrays.buckets)
    for (key, bucket), (flat_key, view) in zip(python.buckets.items(),
                                               arrays.buckets.items()):
        assert same_tuple(key, flat_key)
        assert len(bucket.rows) == len(view.rows)
        assert all(map(same_tuple, bucket.rows, view.rows))
        assert view.weights == bucket.weights
        assert view.start == bucket.start
        assert view.total == bucket.total

    # What the columnar arrays must say, derived from the python forest.
    child_bases = []
    for child in python.children:
        base, bases = 0, {}
        for key, bucket in child.buckets.items():
            bases[key] = base
            base += bucket.total
        child_bases.append(bases)
    row_start, weights, bucket_base = [], [], {}
    suffix = [[] for __ in python.children]
    child_base = [[] for __ in python.children]
    base = 0
    for key, bucket in python.buckets.items():
        bucket_base[key] = (base, len(weights))
        for row, weight, start in zip(bucket.rows, bucket.weights, bucket.start):
            row_start.append(base + start)
            weights.append(weight)
            running = 1
            for i in reversed(range(len(python.children))):
                child_key = python.child_bucket_key(row, i)
                suffix[i].append(running if weight else 1)
                child_base[i].append(child_bases[i][child_key] if weight else 0)
                if weight:
                    running *= python.children[i].buckets[child_key].total
        base += bucket.total
    flat = arrays.flat
    assert flat.row_start.tolist() == row_start
    assert flat.weights.tolist() == weights
    assert [column.tolist() for column in flat.child_suffix] == suffix
    assert [column.tolist() for column in flat.child_base] == child_base
    assert flat.bucket_base == bucket_base
    stride = weights[0] if weights else 0
    uniform = stride > 0 and all(weight == stride for weight in weights)
    assert flat.uniform_stride == (stride if uniform else 0)

    assert len(python.children) == len(arrays.children)
    for child, flat_child in zip(python.children, arrays.children):
        assert_same_node(child, flat_child)


@settings(max_examples=50, deadline=None)
@given(build_case())
def test_array_build_is_the_python_build(case):
    query, database, root_atom, reduce, sort_buckets = case
    reduced = reduce_to_full_acyclic(query, database, reduce=reduce,
                                     root_atom=root_atom)
    python = JoinForestIndex(reduced, sort_buckets, store="tuple")
    arrays = JoinForestIndex(reduced, sort_buckets, store="flat")
    assert arrays.store == "flat"
    assert arrays.count == python.count
    assert len(arrays.roots) == len(python.roots)
    for root, flat_root in zip(python.roots, arrays.roots):
        assert flat_root.flat is not None
        assert_same_node(root, flat_root)

    plain = CQIndex.from_reduced(reduced, sort_buckets, store="tuple")
    flat = CQIndex.from_reduced(reduced, sort_buckets, store="flat")
    every = range(flat.count)
    assert all(map(same_tuple, flat.batch(every), plain.batch(every)))
    for position in every:
        assert flat.inverted_access(flat.access(position)) == position
