"""Threaded stress: readers must observe exactly one published version.

The writer swaps whole *generations* of R facts, one ``Delta`` per swap —
so every published snapshot holds a single generation of answers, always
with the same count. Reader threads page and sample through cursors while
the writer churns; any torn read (a half-applied batch, or a view mixing
two published versions) shows up as a mixed-generation page or a wrong
count, and any read whose cursor reports a version other than the one its
view was published for shows up as a version serving the wrong
generation. Runs in the fast (``-m "not slow"``) CI lane by design: the whole
storm is a few thousand reads over a small database.
"""

import random
import sys
import threading
import time

from repro import Database, QueryService, Relation
from repro.service.cache import canonical_query_key

QUERY = "Q(a, b, c) :- R(a, b), S(b, c)"

GEN_STRIDE = 10_000   # generation g owns R values [g*stride, g*stride + N)
N_PER_GEN = 30
KEYS = 5
PARTNERS = 4
GENERATIONS = 40
EXPECTED_COUNT = N_PER_GEN * PARTNERS


def generation_rows(generation):
    return [(generation * GEN_STRIDE + i, i % KEYS) for i in range(N_PER_GEN)]


def build_service(**kwargs):
    db = Database([
        Relation("R", ("a", "b"), generation_rows(0)),
        Relation(
            "S", ("b", "c"),
            [(j, k) for j in range(KEYS) for k in range(PARTNERS)],
        ),
    ])
    return QueryService(db, dynamic=True, **kwargs)


def swap_generation(service, generation):
    """One ``Delta``, one version: generation - 1 out, generation in."""
    with service.transaction() as txn:
        for row in generation_rows(generation - 1):
            txn.delete("R", row)
        for row in generation_rows(generation):
            txn.insert("R", row)


def test_every_read_observes_exactly_one_published_version():
    service = build_service()
    service.cursor(QUERY).count  # warm the dynamic entry
    base_version = service.database.version
    errors = []
    done = threading.Event()
    # cursor.version → the generations readers saw served under it. Each
    # swap is one version bump, so version v holds generation v - base.
    served_at = {}

    def check_single_generation(answers, where):
        generations = {a // GEN_STRIDE for a, __, __ in answers}
        if len(generations) > 1:
            raise AssertionError(
                f"{where} mixed generations {sorted(generations)}"
            )
        return generations

    def writer():
        try:
            for generation in range(1, GENERATIONS + 1):
                swap_generation(service, generation)
        except Exception as exc:  # pragma: no cover - the failure mode
            errors.append(exc)
        finally:
            done.set()

    def pager():
        try:
            while not done.is_set():
                # A reresolving cursor follows newly published versions
                # *between* reads (live-pagination semantics); a reader
                # that needs one consistent multi-read session holds the
                # pinned snapshot itself.
                cursor = service.cursor(QUERY)
                view = cursor.pinned
                version = cursor.version
                count = view.count
                assert count == EXPECTED_COUNT, count
                seen = []
                for start in range(0, count, 17):
                    seen.extend(view.batch(range(start, min(start + 17, count))))
                assert len(seen) == count
                served_at.setdefault(version, set()).update(
                    check_single_generation(seen, "pages")
                )
        except Exception as exc:  # pragma: no cover - the failure mode
            errors.append(exc)

    def sampler():
        rng = random.Random(0xBEEF)
        try:
            while not done.is_set():
                view = service.cursor(QUERY).pinned
                sample = view.sample_many(25, rng)
                assert len(sample) == 25
                check_single_generation(sample, "sample")
                # Mutual consistency of a pinned view: an answer the
                # snapshot served must invert to its own position.
                answer = view.access(7)
                assert view.inverted_access(answer) == 7
        except Exception as exc:  # pragma: no cover - the failure mode
            errors.append(exc)

    def shuffler():
        rng = random.Random(0xCAFE)
        try:
            while not done.is_set():
                # A full in-flight shuffle while the writer churns: the
                # pinned snapshot keeps it a permutation of one version.
                answers = list(service.cursor(QUERY).random_order(rng))
                assert len(answers) == EXPECTED_COUNT
                assert len(set(answers)) == EXPECTED_COUNT
                check_single_generation(answers, "random_order")
        except Exception as exc:  # pragma: no cover - the failure mode
            errors.append(exc)

    threads = [
        threading.Thread(target=writer),
        threading.Thread(target=pager),
        threading.Thread(target=pager),
        threading.Thread(target=sampler),
        threading.Thread(target=shuffler),
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not errors, errors
    assert not any(thread.is_alive() for thread in threads)
    # Version honesty across all readers: one generation per reported
    # version, and the right one.
    assert served_at
    assert served_at == {
        version: {version - base_version} for version in served_at
    }

    # The storm settled on the final generation, and no reader ever took
    # a lock.
    final = service.cursor(QUERY)
    assert final.count == EXPECTED_COUNT
    assert {a // GEN_STRIDE for a, __, __ in final.batch(range(final.count))} \
        == {GENERATIONS}
    stats = service.stats()
    assert stats.locked_reads == 0
    assert stats.snapshot_reads > 0
    # The slot never moves, so no reader can miss it mid-write: every
    # burst was absorbed in place by the one warm dynamic index.
    assert stats.batched_updates == GENERATIONS
    assert stats.dynamic_builds == 1
    assert stats.in_place_updates == 0
    assert stats.snapshot_publishes >= 1


def test_cold_builds_under_churn_are_labelled_with_the_version_they_read():
    """Readers that throw their slot away before every read, so each read
    is a cold build racing the writer: a build pins one database version,
    so whatever it overlaps — before the batch is published, between
    publication and the writer's walk, mid-walk — the answers it serves
    are one generation, and the generation of the version it reports."""
    service = build_service()
    database = service.database
    base_version = database.version
    # The same answers under three spellings: one slot per reader.
    queries = [
        f"Q({a}, {b}, {c}) :- R({a}, {b}), S({b}, {c})"
        for a, b, c in ("abc", "xyz", "uvw")
    ]
    errors = []
    done = threading.Event()
    served_at = {}
    started = []  # one element per cold read begun

    def writer():
        try:
            for generation in range(1, GENERATIONS + 1):
                # Pace the swaps on the readers, so that cold builds keep
                # landing between (and inside) them instead of after.
                seen = len(started)
                while len(started) == seen and not errors:
                    time.sleep(0)
                swap_generation(service, generation)
        except Exception as exc:  # pragma: no cover - the failure mode
            errors.append(exc)
        finally:
            done.set()

    def cold_reader(query):
        key = canonical_query_key(service.resolve(query))
        reads = 0
        try:
            while not (done.is_set() and reads > 0):
                service._cache.discard(key)
                started.append(query)
                cursor = service.cursor(query)
                view = cursor.pinned
                version = cursor.version
                answers = view.batch(range(view.count))
                assert len(answers) == EXPECTED_COUNT, len(answers)
                generations = {a // GEN_STRIDE for a, __, __ in answers}
                assert len(generations) == 1, sorted(generations)
                served_at.setdefault(version, set()).update(generations)
                reads += 1
        except Exception as exc:  # pragma: no cover - the failure mode
            errors.append(exc)

    threads = [threading.Thread(target=writer)] + [
        threading.Thread(target=cold_reader, args=(query,))
        for query in queries
    ]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(0.0001)  # preempt inside builds and the walk
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(switch)
    assert not errors, errors
    assert not any(thread.is_alive() for thread in threads)
    assert served_at
    assert served_at == {
        version: {version - base_version} for version in served_at
    }
    # Cold builds really did race the writer, not just run after it.
    assert service.stats().dynamic_builds >= GENERATIONS
    assert len(served_at) > 1
    # And the storm settled: every query serves the final generation.
    for query in queries:
        final = service.cursor(query)
        assert final.version == database.version
        assert {a // GEN_STRIDE for a, __, __ in final.batch(range(final.count))} \
            == {GENERATIONS}
