"""Property-based tests for the columnar serve-blob format.

Strategy: random databases whose non-join columns range over the whole
canonical-codec scalar domain (None, bool, int, float, str), indexed by
the flat backend, pushed through ``write_serve_entry``/``load_serve_entry``.
Invariant: the loaded entry is **bit-exact** — every answer cell equal
*and of the same type* (True is not 1, 1 is not 1.0), every rank and
inverted lookup unchanged — because recovery that silently perturbs a
value is worse than recovery that fails.
"""

import pathlib
import shutil
import tempfile

import numpy as np

from hypothesis import given, settings, strategies as st

from repro import CQIndex, Database, Relation, parse_cq
from repro.storage import serve_blob

QUERY = parse_cq("Q(a, b, c) :- R(a, b), S(b, c)")

#: The codec's whole scalar domain (mirrors test_values_roundtrip).
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False),
    st.text(max_size=40),
)

#: Small join-key domain so joins actually produce answers.
join_keys = st.integers(0, 3)


def identical(left, right):
    return type(left) is type(right) and left == right


@st.composite
def flat_database(draw):
    r_rows = draw(st.lists(st.tuples(scalars, join_keys), max_size=10))
    s_rows = draw(st.lists(st.tuples(join_keys, scalars), max_size=10))
    return Database([
        Relation("R", ("a", "b"), r_rows),
        Relation("S", ("b", "c"), s_rows),
    ])


def round_trip(entry, key=("k",)):
    workdir = pathlib.Path(tempfile.mkdtemp(prefix="serve_blob_prop_"))
    try:
        serve_blob.write_serve_entry(
            workdir / "e", key, entry,
            lambda path, payload: path.write_bytes(payload),
        )
        loaded_key, loaded = serve_blob.load_serve_entry(workdir / "e")
        assert loaded_key == key
        answers = list(loaded)
        # Materialize every deferred value table before the sidecar files
        # vanish with the workdir (zero answers never trigger a gather;
        # the mmapped slabs themselves survive the unlink).
        for root in loaded._forest.roots:
            for node in root.all_nodes():
                node.flat.tables
        return loaded, answers
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


@given(flat_database())
@settings(max_examples=60, deadline=None)
def test_entry_round_trips_bit_exactly(database):
    entry = CQIndex(QUERY, database, store="flat")
    assert entry.store == "flat"  # no overflow at these sizes
    loaded, answers = round_trip(entry)

    originals = list(entry)
    assert loaded.count == entry.count == len(originals)
    assert len(answers) == len(originals)
    for original, answer in zip(originals, answers):
        assert len(original) == len(answer)
        for left, right in zip(original, answer):
            assert identical(left, right)


@given(flat_database())
@settings(max_examples=40, deadline=None)
def test_inverted_access_survives_round_trip(database):
    entry = CQIndex(QUERY, database, store="flat")
    loaded, answers = round_trip(entry)
    for position, answer in enumerate(answers):
        assert loaded.inverted_access(answer) == position


@given(flat_database())
@settings(max_examples=40, deadline=None)
def test_flat_slabs_and_tables_round_trip_losslessly(database):
    entry = CQIndex(QUERY, database, store="flat")
    loaded, __ = round_trip(entry)

    originals = [node.flat
                 for root in entry._forest.roots
                 for node in root.all_nodes()]
    recovered = [node.flat
                 for root in loaded._forest.roots
                 for node in root.all_nodes()]
    assert len(originals) == len(recovered)
    for original, clone in zip(originals, recovered):
        assert clone.columns == original.columns
        assert clone.uniform_stride == original.uniform_stride
        assert clone.bucket_base == original.bucket_base
        __, original_slabs, __ = original.to_slabs()
        __, clone_slabs, __ = clone.to_slabs()
        assert set(clone_slabs) == set(original_slabs)
        for name, slab in original_slabs.items():
            mirror = clone_slabs[name]
            assert np.asarray(mirror).dtype == np.asarray(slab).dtype
            assert np.array_equal(np.asarray(mirror), np.asarray(slab))
        for table, mirror in zip(original.tables, clone.tables):
            assert len(table) == len(mirror)
            for left, right in zip(table, mirror):
                assert identical(left, right)


def test_int64_overflow_falls_back_to_tuple_and_is_refused():
    # Deterministic edge, not hypothesis: a 10-atom star whose root
    # weight (100^10 ≈ 10^20) exceeds the 2^62 int64 guard. The flat
    # build falls back to tuple stores and the blob writer must refuse
    # the entry (its slabs could not hold the weights).
    atoms = ", ".join(f"R{i}(x, a{i})" for i in range(10))
    heads = ", ".join(f"a{i}" for i in range(10))
    query = parse_cq(f"Q(x, {heads}) :- {atoms}")
    database = Database([
        Relation(f"R{i}", ("x", "y"), [(0, j) for j in range(100)])
        for i in range(10)
    ])
    entry = CQIndex(query, database, store="flat")
    assert entry.store == "tuple"
    assert not serve_blob.can_blob(entry)
    assert entry.count == 100 ** 10
