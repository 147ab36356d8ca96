"""Shared fixtures: small databases reused across the test suite."""

from __future__ import annotations

import contextlib
import threading

import pytest

from repro import Database, Relation
from repro.tpch import TPCHConfig, attach_derived_relations, generate


@pytest.fixture(params=["tuple", "flat"], scope="session")
def store(request) -> str:
    """Bucket backend under test — every contract test parameterized by
    this fixture runs once per backend.

    Session-scoped: the value is a constant string, which keeps
    hypothesis' function-scoped-fixture health check satisfied."""
    return request.param


@pytest.fixture(scope="session")
def brute_rank():
    """The oracle for ``subset.rank_not_after(answer)``, shared by the unit
    and the property tests: how many elements of ``subset`` do not succeed
    ``answer`` in ``member``'s order, counted one inverted access at a
    time. Requires ``answer ∈ member`` and ``subset ⊆ member`` (the
    paper's ``Largest`` setting)."""

    def count(subset, member, answer: tuple) -> int:
        position = member.inverted_access(answer)
        return sum(1 for t in subset if member.inverted_access(t) <= position)

    return count


@pytest.fixture()
def chain_db() -> Database:
    """A tiny chain-join database with dangling tuples on both sides."""
    return Database([
        Relation("R", ("a", "b"), [(1, 10), (2, 20), (3, 30), (4, 99)]),
        Relation("S", ("b", "c"), [(10, "x"), (10, "y"), (20, "z"), (77, "w")]),
    ])


@pytest.fixture()
def example44_db() -> Database:
    """The database of the paper's Example 4.4."""
    return Database([
        Relation(
            "R1",
            ("v", "w", "x"),
            [("a1", "b1", "c1"), ("a1", "b1", "c2"), ("a2", "b2", "c1"), ("a2", "b2", "c2")],
        ),
        Relation("R2", ("w", "y"), [("b1", "d1"), ("b1", "d2"), ("b2", "d2"), ("b2", "d3")]),
        Relation("R3", ("x", "z"), [("c1", "e1"), ("c1", "e2"), ("c1", "e3"), ("c2", "e4")]),
    ])


@pytest.fixture(scope="session")
def tiny_tpch() -> Database:
    """A very small TPC-H instance shared by the slower integration tests.

    Scale 0.002 with seed 9 gives 20 suppliers including both an American
    and a British one, so the UCQ benchmarks (QA ∪ QE, QS7 ∪ QC7) have
    nonempty members.
    """
    db = generate(TPCHConfig(scale_factor=0.002, seed=9))
    return attach_derived_relations(db)


@pytest.fixture()
def frozen_write():
    """``with frozen_write(service, ops) as release:`` — a real write,
    frozen in flight.

    Runs ``service.apply(ops)`` on a writer thread and parks it right
    after ``Database.apply`` returned: the service's write lock is held,
    the database has published the batch's version, and no cache slot has
    been patched or republished yet. Leaving the block (or setting
    ``release`` earlier) lets the writer finish; the block joins it and
    re-raises whatever it raised.
    """

    @contextlib.contextmanager
    def freeze(service, ops):
        database = service.database
        parked, release = threading.Event(), threading.Event()
        outcome = []

        def apply_then_park(delta):
            result = Database.apply(database, delta)
            parked.set()
            assert release.wait(10), "the frozen writer was never released"
            return result

        def write():
            try:
                outcome.append(service.apply(ops))
            except BaseException as error:
                outcome.append(error)

        database.apply = apply_then_park
        writer = threading.Thread(target=write)
        writer.start()
        try:
            assert parked.wait(10), "the writer never reached Database.apply"
            yield release
        finally:
            release.set()
            writer.join(10)
            del database.apply
        assert not writer.is_alive()
        if isinstance(outcome[0], BaseException):
            raise outcome[0]

    return freeze
