"""Theorem 3.7 — random permutation from random access (REnum(CQ)).

Given a random-access structure with a known answer count, composing the
lazy Fisher–Yates shuffle (Algorithm 1) with the access routine yields an
enumeration of the answers in uniformly random order, with the same delay
as the access time. For free-connex CQs this realizes the paper's
``REnum(CQ)`` algorithm: linear preprocessing, O(log n) delay, and a
provably uniform distribution over all permutations of the answer set.

The paper's proof computes the count by binary search over out-of-bound
probes; our index already exposes an O(1) count, but
:func:`count_by_binary_search` implements (and the tests verify) the
probing technique, since it is what makes Theorem 3.7 apply to *any*
random-access structure with polynomially many answers.

:class:`RandomPermutationEnumerator` is the theorem's scalar form: one
``access`` per answer, so every delay is one access.
:func:`blocked_random_order` yields the same permutation from the same
randomness but resolves it one ``batch`` per block of positions; it is what
every index's ``random_order`` returns.
"""

from __future__ import annotations

import random
from typing import Iterator, Optional

from repro.core.errors import OutOfBoundError
from repro.core.shuffle import LazyShuffle


def count_by_binary_search(access, upper_bound_hint: int = 1) -> int:
    """The number of answers, using only the access routine.

    Doubles a probe until it goes out of bounds, then binary-searches the
    boundary — O(log |answers|) probes, as in the proof of Theorem 3.7.

    Parameters
    ----------
    access:
        A callable ``access(i)`` raising
        :class:`~repro.core.errors.OutOfBoundError` (or ``IndexError``)
        for ``i ≥ count``.
    upper_bound_hint:
        An optional starting probe (must be ≥ 1).
    """
    def in_bounds(i: int) -> bool:
        try:
            access(i)
        except IndexError:
            return False
        return True

    if not in_bounds(0):
        return 0
    high = max(1, upper_bound_hint)
    while in_bounds(high):
        high *= 2
    low = high // 2  # in bounds (or 0, handled above)
    # Invariant: low is in bounds, high is out of bounds.
    while high - low > 1:
        mid = (low + high) // 2
        if in_bounds(mid):
            low = mid
        else:
            high = mid
    return high


class RandomPermutationEnumerator:
    """Enumerate a random-access structure's answers in random order.

    Parameters
    ----------
    index:
        Any object with ``access(i) -> answer`` and either a ``count``
        attribute or out-of-bound errors (the count is then recovered by
        binary search, as in the paper's proof).
    rng:
        Source of randomness; defaults to a fresh ``random.Random``.

    Iterating the object yields each answer exactly once; the order is a
    uniformly random permutation of the answer set.
    """

    def __init__(self, index, rng: Optional[random.Random] = None):
        self.index = index
        count = getattr(index, "count", None)
        if count is None:
            count = count_by_binary_search(index.access)
        self.count = count
        self._shuffle = LazyShuffle(count, rng)

    def __iter__(self) -> Iterator[tuple]:
        return self

    def __next__(self) -> tuple:
        position = next(self._shuffle)  # raises StopIteration when done
        return self.index.access(position)

    def remaining(self) -> int:
        return self._shuffle.remaining()


def random_order(index, rng: Optional[random.Random] = None) -> Iterator[tuple]:
    """Functional wrapper: iterate ``index``'s answers in random order."""
    return iter(RandomPermutationEnumerator(index, rng=rng))


#: The most positions :func:`blocked_random_order` resolves in one batch.
BLOCK_CAP = 4096


def blocked_random_order(view, rng: Optional[random.Random] = None) -> Iterator[tuple]:
    """REnum (Theorem 3.7) in blocks: ``view``'s answers in uniformly
    random order, one ``view.batch`` per block of shuffle positions.

    Element for element the stream of
    ``RandomPermutationEnumerator(view, rng)``. Blocks take 1, 2, 4, …
    positions, up to :data:`BLOCK_CAP`, and the last ends exactly at the
    ``count`` read when the stream is made. Over a live dynamic index
    each block reads that block's latest snapshot.

    *Delay.* The amortized delay stays O(log n) per answer, and a batch
    shares descents, so it is cheaper than an access each. The worst-case
    delay becomes one block, O(:data:`BLOCK_CAP` · log n). The first
    answer is a one-position block, which costs about one access;
    :class:`RandomPermutationEnumerator` keeps the per-answer bound.

    *The caller's rng stays in step.* The first position is drawn on
    ``rng``. Later blocks are drawn ahead on a private copy of it, and
    each answer handed out makes the same ``randrange(i, n)`` draw on
    ``rng`` itself. After ``k`` answers, ``rng`` is in exactly the state
    ``k`` scalar draws (or ``view.sample_many(k, rng)``) leave. If the
    caller draws from ``rng`` between answers, the stream is still a
    uniform permutation, but no longer the scalar one.
    """
    return _blocks(view, view.count, rng)


def _blocks(view, n: int, rng: Optional[random.Random]) -> Iterator[tuple]:
    if n == 0:
        return
    shuffle = LazyShuffle(n, rng)
    # A one-position block needs no lookahead: draw it on the caller's rng
    # and copy the rng only when a longer block is wanted.
    yield view.batch(shuffle.take(1))[0]
    step = None  # the caller's draw per answer handed out, if kept in step
    if rng is not None:
        try:
            state = rng.getstate()
        except NotImplementedError:  # SystemRandom: no state to keep in step
            pass
        else:
            shuffle.rng = type(rng).__new__(type(rng))
            shuffle.rng.setstate(state)
            step = rng.randrange
    i, size = 1, 2
    while i < n:
        answers = view.batch(shuffle.take(size))
        size = min(2 * size, BLOCK_CAP)
        if step is None:
            i += len(answers)
            yield from answers
            continue
        for answer in answers:
            step(i, n)
            i += 1
            yield answer
