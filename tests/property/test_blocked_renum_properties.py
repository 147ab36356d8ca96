"""Property tests for REnum in blocks (``random_order``).

Every view's ``random_order(rng)`` resolves its shuffle one batch per
block, yet it must be the scalar Theorem 3.7 stream:

* element for element equal to ``RandomPermutationEnumerator`` under the
  same seed;
* with the caller's ``rng`` in the scalar stream's state after every
  prefix length;
* ending exactly at ``count`` (counts 0, 1 and 2 included);

with the block cap at its default and at 4, so that capped blocks are
crossed. Uniformity is the chi-square tests' (``tests/test_uniformity.py``).
"""

import random

import pytest
from hypothesis import example, given, settings, strategies as st

from repro import (
    CQIndex,
    Database,
    DynamicCQIndex,
    MCUCQIndex,
    QueryService,
    Relation,
    parse_cq,
    parse_ucq,
)
from repro.core import permutation
from repro.core.permutation import RandomPermutationEnumerator

CHAIN = "Q(a, b, c) :- R(a, b), S(b, c)"
UNION = "Q(a, b, c) :- R(a, b), S(b, c) ; Q(a, b, c) :- R(a, b), T(b, c)"

#: View kind → the view built over a database.
VIEWS = {
    "CQIndex-tuple": lambda db: CQIndex(parse_cq(CHAIN), db, store="tuple"),
    "CQIndex-flat": lambda db: CQIndex(parse_cq(CHAIN), db, store="flat"),
    "DynamicCQIndex": lambda db: DynamicCQIndex(parse_cq(CHAIN), db),
    "IndexSnapshot": lambda db: DynamicCQIndex(parse_cq(CHAIN), db).snapshot,
    "MCUCQIndex-static": lambda db: MCUCQIndex(parse_ucq(UNION), db),
    "MCUCQIndex-dynamic": lambda db: MCUCQIndex(parse_ucq(UNION), db, dynamic=True),
    "UnionIndexSnapshot":
        lambda db: MCUCQIndex(parse_ucq(UNION), db, dynamic=True).snapshot,
    "Cursor-cq": lambda db: QueryService(db).cursor(CHAIN),
    "Cursor-ucq": lambda db: QueryService(db).cursor(UNION),
}

rows = st.lists(st.tuples(st.integers(0, 3), st.integers(0, 5)), max_size=10)


@pytest.mark.parametrize("kind", sorted(VIEWS))
@settings(max_examples=15, deadline=None)
@given(r=rows, s=rows, t=rows, seed=st.integers(0, 2**32 - 1),
       cap=st.sampled_from([4, permutation.BLOCK_CAP]))
@example(r=[], s=[], t=[], seed=0, cap=4)                       # count 0
@example(r=[(0, 0)], s=[(0, 1)], t=[], seed=1, cap=4)           # count 1
@example(r=[(0, 0)], s=[(0, 1), (0, 2)], t=[], seed=2, cap=4)   # count 2
def test_blocked_stream_is_the_scalar_stream(kind, r, s, t, seed, cap):
    database = Database([
        Relation("R", ("a", "b"), r),
        Relation("S", ("b", "c"), s),
        Relation("T", ("b", "c"), t),
    ])
    view = VIEWS[kind](database)
    n = view.count
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(permutation, "BLOCK_CAP", cap)
        blocked, scalar = random.Random(seed), random.Random(seed)
        stream = view.random_order(blocked)
        enumerator = RandomPermutationEnumerator(view, rng=scalar)
        assert blocked.getstate() == scalar.getstate()
        for __ in range(n):
            assert next(stream) == next(enumerator)
            assert blocked.getstate() == scalar.getstate()
        assert next(stream, None) is None
        assert next(enumerator, None) is None
        assert blocked.getstate() == scalar.getstate()
