"""Tests for the serving layer: IndexCache and QueryService.

Covers the PR's cache satellites: LRU eviction order under capacity
pressure, invalidation after mutations (checked against a
``DynamicCQIndex`` fed the same update stream), and a chi-square check
that cached-index sampling stays uniform at the tolerance used by
``repro.experiments.uniformity`` elsewhere in the suite.
"""

import random

import pytest

from repro import (
    CQIndex,
    Database,
    DynamicCQIndex,
    IndexCache,
    QueryService,
    Relation,
    parse_cq,
    parse_ucq,
)
from repro.apps.online_aggregation import estimate_mean_via_index
from repro.database.relation import RelationError
from repro.experiments.uniformity import chi_square_uniform
from repro.service.cache import canonical_query_key


def fresh_db() -> Database:
    return Database([
        Relation("R", ("a", "b"), [(1, 10), (2, 20), (3, 30)]),
        Relation("S", ("b", "c"), [(10, 100), (10, 101), (20, 200), (30, 300)]),
    ])


CHAIN = "Q(a, b, c) :- R(a, b), S(b, c)"


class TestCanonicalQueryKey:
    def test_insensitive_to_name_and_whitespace(self):
        key1 = canonical_query_key(parse_cq("Q(a, b) :- R(a, b)"))
        key2 = canonical_query_key(parse_cq("Other(a,b)  :-  R(a , b)"))
        assert key1 == key2

    def test_sensitive_to_structure(self):
        base = canonical_query_key(parse_cq("Q(a, b) :- R(a, b)"))
        assert base != canonical_query_key(parse_cq("Q(b, a) :- R(a, b)"))
        assert base != canonical_query_key(parse_cq("Q(a, b) :- R(b, a)"))
        assert base != canonical_query_key(parse_cq("Q(a, b) :- R(a, b), R(b, a)"))

    def test_variable_names_matter(self):
        # Alpha-renaming can change bucket sort order (columns sort by
        # name), so equivalent-but-renamed queries must hash apart.
        key1 = canonical_query_key(parse_cq("Q(x, y) :- R(x, y)"))
        key2 = canonical_query_key(parse_cq("Q(y, x) :- R(y, x)"))
        assert key1 != key2

    def test_constants_distinguish(self):
        key1 = canonical_query_key(parse_cq("Q(a) :- R(a, 1)"))
        key2 = canonical_query_key(parse_cq("Q(a) :- R(a, 2)"))
        assert key1 != key2

    def test_ucq_keys(self):
        u = parse_ucq("Q(x, y) :- R(x, y) ; Q(x, y) :- S(x, y)")
        assert canonical_query_key(u)[0] == "ucq"
        with pytest.raises(TypeError):
            canonical_query_key("not a query object")


class TestIndexCacheLRU:
    def test_eviction_order_under_capacity_pressure(self):
        cache = IndexCache(capacity=2)
        cache.get_or_build("a", lambda: "A")
        cache.get_or_build("b", lambda: "B")
        # Touch "a" so "b" becomes least recently used.
        cache.get_or_build("a", lambda: "never")
        cache.get_or_build("c", lambda: "C")
        assert "b" not in cache
        assert cache.keys() == ["a", "c"]
        assert cache.evictions == 1

    def test_hit_returns_cached_object(self):
        cache = IndexCache(capacity=4)
        built = []
        entry = cache.get_or_build("k", lambda: built.append(1) or object())
        again = cache.get_or_build("k", lambda: built.append(1) or object())
        assert entry is again
        assert built == [1]
        assert (cache.hits, cache.misses) == (1, 1)

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            IndexCache(capacity=0)

    def test_peek_has_no_side_effects(self):
        cache = IndexCache(capacity=4)
        cache.get_or_build("a", lambda: "A")
        cache.get_or_build("b", lambda: "B")
        assert cache.peek("a") == "A"
        assert cache.peek("missing") is None
        assert cache.keys() == ["a", "b"]  # LRU order untouched
        assert (cache.hits, cache.misses) == (0, 2)

    def test_discard_counts_as_invalidation(self):
        cache = IndexCache(capacity=4)
        cache.get_or_build("a", lambda: "A")
        assert cache.discard("a")
        assert not cache.discard("a")
        assert "a" not in cache
        assert cache.invalidations == 1

    def test_hit_survives_a_discard_between_probe_and_touch(self):
        """Regression: the hit path probes, then touches the LRU order; a
        writer's discard landing between the two must not turn the hit
        into a KeyError (a 500 at the HTTP tier) — the entry already in
        hand is served."""
        from collections import OrderedDict

        class DiscardedMidHit(OrderedDict):
            def get(self, key, default=None):
                entry = super().get(key, default)
                self.pop(key, None)  # the concurrent discard
                return entry

        cache = IndexCache(capacity=4)
        cache.get_or_build("k", lambda: "X")
        cache._entries = DiscardedMidHit(cache._entries)
        assert cache.get_or_build("k", lambda: "never built") == "X"
        assert cache.hits == 1 and "k" not in cache

    def test_get_counts_hits_only(self):
        cache = IndexCache(capacity=4)
        assert cache.get("a") is None
        cache.get_or_build("a", lambda: "A")
        cache.get_or_build("b", lambda: "B")
        assert cache.get("a") == "A"
        assert cache.keys() == ["b", "a"]  # the hit is an LRU touch
        assert (cache.hits, cache.misses) == (1, 2)

    @pytest.mark.slow
    def test_stress_many_queries_cycling_under_pressure(self):
        """Regression: a long mixed workload never serves stale answers and
        never exceeds capacity.

        Under write pressure the service may promote hot full queries to
        dynamic indexes; their order-maintained buckets enumerate exactly
        like a fresh static build, so positions are checked against one.
        """
        db = fresh_db()
        service = QueryService(db, cache_capacity=3)
        queries = [
            CHAIN,
            "Q(a) :- R(a, b), S(b, c)",
            "Q(a, b) :- R(a, b)",
            "Q(b, c) :- S(b, c)",
            "Q(a, b) :- R(a, b), S(b, c), S(b, d)",
        ]
        rng = random.Random(7)
        for step in range(300):
            q = rng.choice(queries)
            if rng.random() < 0.1:
                row = (rng.randrange(50) + 100, rng.randrange(5) * 10 + 10)
                service.insert("R", (row[0], row[1]))
            expected = CQIndex(parse_cq(q), db)
            assert service.cursor(q).count == expected.count
            if expected.count:
                position = rng.randrange(expected.count)
                answer = service.cursor(q).get(position)
                assert answer == expected.access(position)
                assert service.cursor(q).position_of(answer) == position
            assert service.stats().size <= 3
            assert service.cursor(q).batch(range(service.cursor(q).count)) == \
                expected.batch(range(expected.count))


class TestQueryServiceCaching:
    def test_repeat_calls_hit_the_cache(self):
        service = QueryService(fresh_db())
        first = service.index(CHAIN)
        again = service.index(CHAIN)
        assert first is again
        info = service.stats()
        assert info.hits == 1 and info.misses == 1

    def test_batch_page_sample_agree_with_index(self):
        service = QueryService(fresh_db())
        index = service.index(CHAIN)
        positions = [3, 0, 3, 1]
        assert service.cursor(CHAIN).batch(positions) == [index.access(i) for i in positions]
        assert service.cursor(CHAIN).page(1, page_size=2) == index.batch([2, 3])
        assert service.cursor(CHAIN).sample(2, random.Random(5)) == index.sample_many(
            2, random.Random(5)
        )

    def test_ucq_queries_are_served(self):
        db = Database([
            Relation("R", ("x", "y"), [(1, 2), (3, 4)]),
            Relation("T", ("x", "y"), [(3, 4), (5, 6)]),
        ])
        service = QueryService(db)
        u = parse_ucq("Q(x, y) :- R(x, y) ; Q(x, y) :- T(x, y)")
        assert service.cursor(u).count == 3
        assert sorted(service.cursor(u).batch(range(3))) == [(1, 2), (3, 4), (5, 6)]

    def test_online_mean_uses_cached_index(self):
        service = QueryService(fresh_db())
        estimates = list(
            estimate_mean_via_index(
                service.cursor(CHAIN).pinned, lambda t: t[2], rng=random.Random(3)
            )
        )
        oracle = CQIndex(parse_cq(CHAIN), service.database)
        assert estimates[-1].seen == oracle.count
        truth = sum(t[2] for t in oracle)
        assert estimates[-1].mean == pytest.approx(truth / oracle.count)
        assert service.stats().misses == 1


class TestInvalidationOnMutation:
    def test_insert_and_delete_refresh_results(self):
        service = QueryService(fresh_db())
        assert service.cursor(CHAIN).count == 4
        assert service.insert("S", (30, 301))
        assert service.cursor(CHAIN).count == 5
        assert service.delete("R", (1, 10))
        assert service.cursor(CHAIN).count == 3

    def test_noop_mutations_keep_the_cache_warm(self):
        service = QueryService(fresh_db())
        service.cursor(CHAIN).count
        version = service.database.version
        assert not service.insert("R", (1, 10))       # already present
        assert not service.delete("R", (99, 99))      # absent
        assert service.database.version == version
        service.cursor(CHAIN).count
        assert service.stats().hits == 1

    def test_insert_arity_is_checked(self):
        service = QueryService(fresh_db())
        with pytest.raises(RelationError):
            service.insert("R", (1, 2, 3))

    def test_matches_dynamic_index_under_update_stream(self):
        """The cache's rebuild-on-mutation must agree with the incremental
        DynamicCQIndex fed the same inserts/deletes (full CQ, so both
        apply)."""
        full = "Q(a, b, c) :- R(a, b), S(b, c)"
        db = fresh_db()
        service = QueryService(db)
        dynamic = DynamicCQIndex(parse_cq(full), fresh_db())
        rng = random.Random(11)
        for step in range(120):
            relation = rng.choice(["R", "S"])
            arity2 = (rng.randrange(4), rng.randrange(4) * 10 + 10) \
                if relation == "R" else (rng.randrange(4) * 10 + 10, rng.randrange(400))
            if rng.random() < 0.6:
                changed = service.insert(relation, arity2)
                if changed:
                    dynamic.insert(relation, arity2)
            else:
                changed = service.delete(relation, arity2)
                if changed:
                    dynamic.delete(relation, arity2)
            assert service.cursor(full).count == dynamic.count
        assert sorted(service.cursor(full)) == sorted(dynamic)


class TestDynamicMutationPath:
    """The update-in-place serving mode: cached DynamicCQIndex entries
    absorb mutations; static entries invalidate; hot keys get promoted."""

    def test_forced_dynamic_entry_survives_mutations(self):
        service = QueryService(fresh_db(), dynamic=True)
        first = service.index(CHAIN)
        assert isinstance(first, DynamicCQIndex)
        assert service.insert("S", (30, 301))
        assert service.delete("R", (1, 10))
        assert service.index(CHAIN) is first  # same object, carried forward
        assert service.stats().in_place_updates == 2
        assert service.stats().invalidations == 0
        assert service.cursor(CHAIN).count == 3

    def test_dynamic_never_used_when_disabled(self):
        service = QueryService(fresh_db(), dynamic=False, promote_after=1)
        for __ in range(5):
            service.cursor(CHAIN).count
            service.insert("R", (100 + service.database.version, 10))
        assert isinstance(service.index(CHAIN), CQIndex)

    def test_promotion_after_k_invalidations(self):
        service = QueryService(fresh_db(), promote_after=3)
        for round_ in range(3):
            assert not isinstance(service.index(CHAIN), DynamicCQIndex)
            service.insert("R", (200 + round_, 10))  # drops the entry: churn +1
        promoted = service.index(CHAIN)
        assert isinstance(promoted, DynamicCQIndex)
        # From now on mutations update in place instead of invalidating.
        invalidations = service.stats().invalidations
        service.insert("R", (300, 20))
        assert service.index(CHAIN) is promoted
        assert service.stats().invalidations == invalidations
        assert service.cursor(CHAIN).count == CQIndex(parse_cq(CHAIN), service.database).count

    def test_non_full_queries_are_never_promoted(self):
        projected = "Q(a) :- R(a, b), S(b, c)"
        service = QueryService(fresh_db(), dynamic=True)
        assert isinstance(service.index(projected), CQIndex)
        service.insert("R", (50, 10))
        # The static entry was dropped (not updatable), the rebuild is
        # correct, and it stays static no matter the churn.
        assert service.cursor(projected).count == 4
        assert isinstance(service.index(projected), CQIndex)

    def test_dynamic_and_rebuild_backed_services_agree_under_mutation(self):
        """The service-level equivalence: page/sample/count served through
        the dynamic path agree with invalidate-and-rebuild — position for
        position, since order-maintained buckets keep the canonical
        enumeration order under churn."""
        hot = QueryService(fresh_db(), dynamic=True)
        cold = QueryService(fresh_db(), dynamic=False)
        rng = random.Random(23)
        for step in range(80):
            relation = rng.choice(["R", "S"])
            row = (rng.randrange(6), rng.randrange(4) * 10 + 10) \
                if relation == "R" else (rng.randrange(4) * 10 + 10, rng.randrange(40))
            if rng.random() < 0.6:
                assert hot.insert(relation, row) == cold.insert(relation, row)
            else:
                assert hot.delete(relation, row) == cold.delete(relation, row)
            assert hot.cursor(CHAIN).count == cold.cursor(CHAIN).count
            n = hot.cursor(CHAIN).count
            assert hot.cursor(CHAIN).batch(range(n)) == cold.cursor(CHAIN).batch(range(n))
            if n:
                hot_pages = [t for page in hot.cursor(CHAIN).pages(3) for t in page]
                cold_pages = [t for page in cold.cursor(CHAIN).pages(3) for t in page]
                assert hot_pages == cold_pages
                sample = hot.cursor(CHAIN).sample(min(5, n), random.Random(step))
                assert sample == cold.cursor(CHAIN).sample(min(5, n), random.Random(step))
        assert hot.stats().in_place_updates > 0

    def test_live_paginator_follows_dynamic_updates(self):
        service = QueryService(fresh_db(), dynamic=True)
        cursor = service.cursor(CHAIN)
        first_before = cursor.page(0, page_size=2)
        backing = service.index(CHAIN)
        assert service.insert("S", (30, 999))
        assert service.index(CHAIN) is backing  # updated in place, not rebuilt
        assert cursor.count == 5
        all_pages = [t for page in cursor.pages(page_size=2) for t in page]
        assert (3, 30, 999) in all_pages
        # The new row landed at its canonical sort position (after every
        # b=10 answer), so the already-served first page is stable.
        assert cursor.page(0, page_size=2) == first_before
        # And the whole pagination equals a fresh static build's order.
        assert all_pages == CQIndex(parse_cq(CHAIN), service.database).batch(range(5))

    def test_unreferenced_relation_mutations_keep_entries_and_churn(self):
        """Writes to a relation a cached query never mentions must neither
        drop the (static) entry nor count as promotion pressure."""
        db = fresh_db()
        db.add(Relation("T", ("x",), [(1,)]))
        service = QueryService(db, promote_after=2)
        entry = service.index(CHAIN)
        assert isinstance(entry, CQIndex)
        for i in range(5):
            assert service.insert("T", (100 + i,))
            assert service.index(CHAIN) is entry  # carried forward untouched
        stats = service.stats()
        assert stats.invalidations == 0 and stats.carried_forward == 5
        # Far past promote_after, yet never promoted: no churn accrued.
        assert isinstance(service.index(CHAIN), CQIndex)
        # A write to a referenced relation still invalidates as usual.
        assert service.insert("R", (50, 10))
        assert service.stats().invalidations == 1

    def test_out_of_band_version_bump_drops_dynamic_entry(self):
        """A mutation not driven through the service leaves the cached
        dynamic entry unpatchable — the service must drop it, not carry a
        stale structure forward."""
        db = fresh_db()
        service = QueryService(db, dynamic=True)
        entry = service.index(CHAIN)
        db.version += 1  # out-of-band change the entry knows nothing about
        assert service.insert("S", (30, 777))
        rebuilt = service.index(CHAIN)
        assert rebuilt is not entry
        assert service.cursor(CHAIN).count == 5


class TestCachedSamplingUniformity:
    @pytest.mark.slow
    def test_first_draw_of_cached_sample_many_is_uniform(self):
        """Chi-square audit at the tolerance the uniformity experiments
        use (significance 0.001): the first element of ``sample_many``
        from a *cached* index must be uniform over the answer set — the
        cache must not freeze any sampling state, only the structure."""
        service = QueryService(fresh_db())
        n = service.cursor(CHAIN).count
        universe = service.cursor(CHAIN).batch(range(n))
        counts = {answer: 0 for answer in universe}
        trials = 4000
        for seed in range(trials):
            first = service.cursor(CHAIN).sample(1, random.Random(seed))[0]
            counts[first] += 1
        result = chi_square_uniform([counts[u] for u in universe])
        assert result.consistent_with_uniform(significance=0.001)
        # Every draw came through the one cached build.
        assert service.stats().misses == 1
