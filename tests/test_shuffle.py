"""Unit + statistical tests for Algorithm 1 (the lazy Fisher–Yates shuffle)."""

import math
import random
from collections import Counter
from itertools import permutations

import numpy as np
import pytest

from repro.core.shuffle import (
    LazyShuffle,
    random_permutation_indices,
    sample_positions,
)


class TestBasics:
    def test_is_a_permutation(self):
        out = list(LazyShuffle(100, random.Random(0)))
        assert sorted(out) == list(range(100))

    def test_empty(self):
        assert list(LazyShuffle(0, random.Random(0))) == []

    def test_single(self):
        assert list(LazyShuffle(1, random.Random(0))) == [0]

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            LazyShuffle(-1)

    def test_remaining(self):
        shuffle = LazyShuffle(5, random.Random(0))
        assert shuffle.remaining() == 5
        next(shuffle)
        assert shuffle.remaining() == 4

    def test_functional_wrapper(self):
        assert sorted(random_permutation_indices(10, random.Random(1))) == list(range(10))

    def test_deterministic_under_seed(self):
        a = list(LazyShuffle(50, random.Random(7)))
        b = list(LazyShuffle(50, random.Random(7)))
        assert a == b

    def test_memory_is_lazy(self):
        # Emitting a small prefix of a huge permutation touches O(prefix) cells.
        shuffle = LazyShuffle(10**9, random.Random(0))
        for __ in range(100):
            next(shuffle)
        assert len(shuffle._cells) <= 200


class TestSamplePositions:
    """``sample_positions`` is ``LazyShuffle(n, rng).take(k)``, draw for
    draw and word for word, on the vectorized path as on the scalar one."""

    @pytest.mark.parametrize("n, k, vectorized", [
        (2 ** 20 + 500, 3_000, True),     # draw widths cross 2**20
        (1_500, 1_200, True),             # most j < m: swap collisions
        (1_500, 1_500, True),             # the whole permutation
        (1_200, 2_000, True),             # k > n
        (2 ** 32 - 1, 2_000, True),       # widest 32-bit draws
        (2 ** 32 + 5, 1_500, False),      # > 32 bits: the scalar loop
        (5_000_000, 256, True),           # the fewest vectorized draws
        (5_000_000, 255, False),
        (1_000, 600, False),              # few items: the scalar loop
    ])
    @pytest.mark.parametrize("seed", range(5))
    def test_equals_the_scalar_take(self, n, k, vectorized, seed):
        drawn, taken = random.Random(seed), random.Random(seed)
        positions = sample_positions(n, k, drawn)
        expected = LazyShuffle(n, taken).take(k)
        assert isinstance(positions, np.ndarray) == vectorized
        assert len(positions) == min(n, k)
        assert [int(p) for p in positions] == expected
        assert drawn.getstate() == taken.getstate()
        assert drawn.random() == taken.random()


class TestUniformity:
    """Chi-square tests; seeds fixed so the suite is deterministic."""

    def test_all_permutations_of_4_equally_likely(self):
        n, trials = 4, 24_000
        rng = random.Random(123)
        counts = Counter(tuple(LazyShuffle(n, rng)) for __ in range(trials))
        assert len(counts) == 24
        expected = trials / 24
        chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
        # 23 degrees of freedom: the 99.9% quantile is ≈ 49.7.
        assert chi2 < 49.7, f"chi2={chi2:.1f}"

    def test_first_element_uniform(self):
        n, trials = 10, 20_000
        rng = random.Random(42)
        counts = Counter(next(LazyShuffle(n, rng)) for __ in range(trials))
        expected = trials / n
        chi2 = sum((counts[i] - expected) ** 2 / expected for i in range(n))
        # 9 degrees of freedom: the 99.9% quantile is ≈ 27.9.
        assert chi2 < 27.9, f"chi2={chi2:.1f}"

    def test_every_position_marginally_uniform(self):
        n, trials = 5, 10_000
        rng = random.Random(7)
        position_counts = [Counter() for __ in range(n)]
        for __ in range(trials):
            for position, value in enumerate(LazyShuffle(n, rng)):
                position_counts[position][value] += 1
        expected = trials / n
        for counter in position_counts:
            chi2 = sum((counter[v] - expected) ** 2 / expected for v in range(n))
            # 4 degrees of freedom: the 99.9% quantile is ≈ 18.5.
            assert chi2 < 18.5
