"""Tests for Theorem 3.7 — REnum from random access, including a
statistical uniformity check over whole permutations of the answer set."""

import random
from collections import Counter

import pytest

from repro import CQIndex, Database, Relation, parse_cq
from repro.core.permutation import (
    RandomPermutationEnumerator,
    count_by_binary_search,
    random_order,
)


@pytest.fixture()
def small_index():
    db = Database([
        Relation("R", ("a", "b"), [(1, 0), (2, 0)]),
        Relation("S", ("b", "c"), [(0, "x"), (0, "y")]),
    ])
    return CQIndex(parse_cq("Q(a, b, c) :- R(a, b), S(b, c)"), db)


class TestCountByBinarySearch:
    def test_matches_known_count(self, small_index):
        assert count_by_binary_search(small_index.access) == small_index.count

    def test_zero(self):
        def access(i):
            raise IndexError

        assert count_by_binary_search(access) == 0

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 9, 100, 1023, 1024, 1025])
    def test_exact_for_many_sizes(self, n):
        def access(i):
            if not 0 <= i < n:
                raise IndexError
            return i

        assert count_by_binary_search(access) == n

    def test_probe_budget_is_logarithmic(self):
        n = 1_000_000
        probes = 0

        def access(i):
            nonlocal probes
            probes += 1
            if not 0 <= i < n:
                raise IndexError
            return i

        assert count_by_binary_search(access) == n
        assert probes <= 2 * 21 + 2  # doubling + binary search, each ≤ log2(2n)


class TestRandomPermutation:
    def test_emits_each_answer_once(self, small_index):
        out = list(RandomPermutationEnumerator(small_index, rng=random.Random(0)))
        assert sorted(out) == sorted(small_index)

    def test_remaining(self, small_index):
        enum = RandomPermutationEnumerator(small_index, rng=random.Random(0))
        next(enum)
        assert enum.remaining() == small_index.count - 1

    def test_works_without_count_attribute(self, small_index):
        class AccessOnly:
            def __init__(self, inner):
                self.access = inner.access

        out = list(RandomPermutationEnumerator(AccessOnly(small_index), rng=random.Random(1)))
        assert sorted(out) == sorted(small_index)

    def test_block_stream_takes_a_stateless_rng(self, small_index):
        """``SystemRandom`` has no state to copy or keep in step; the block
        stream then draws on it directly."""
        out = list(small_index.random_order(random.SystemRandom()))
        assert sorted(out) == sorted(small_index)

    def test_permutation_uniformity(self, small_index):
        """All 4! orderings of the 4 answers should be equally likely."""
        trials = 12_000
        rng = random.Random(99)
        counts = Counter(
            tuple(random_order(small_index, rng=rng)) for __ in range(trials)
        )
        assert len(counts) == 24
        expected = trials / 24
        chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
        assert chi2 < 49.7, f"chi2={chi2:.1f}"  # 23 dof, 99.9% quantile
