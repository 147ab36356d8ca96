"""Algorithm 1 — the lazy Fisher–Yates shuffle.

The classical Fisher–Yates (Knuth) shuffle initializes an array of ``n``
items before producing any output, which would violate the paper's
constant-preprocessing requirement: ``n`` (the number of query answers) can
be polynomially larger than the input database. Algorithm 1 avoids the
initialization by *simulating* the array with a lookup table: a cell absent
from the table holds its own index. Each emission costs O(1), preprocessing
is O(1), and after ``i`` steps only O(i) memory is used.

Proposition 3.6: the emitted sequence is a uniformly random permutation of
``0 … n−1``.
"""

from __future__ import annotations

import random
from typing import Dict, Iterator, List, Optional

import numpy as _np


class LazyShuffle:
    """A constant-delay random permutation of ``0 … n−1``.

    The object is an iterator; each :func:`next` returns the next element of
    a uniformly random permutation. The permutation is determined lazily as
    randomness is consumed from ``rng``.

    Parameters
    ----------
    n:
        The number of items to permute (``n ≥ 0``).
    rng:
        The random generator; defaults to a fresh unseeded ``random.Random``.

    Examples
    --------
    >>> sorted(LazyShuffle(5, random.Random(0)))
    [0, 1, 2, 3, 4]
    """

    def __init__(self, n: int, rng: Optional[random.Random] = None):
        if n < 0:
            raise ValueError(f"cannot permute a negative number of items: {n}")
        self.n = n
        #: The generator the next draws come from; it may be rebound
        #: between draws.
        self.rng = rng if rng is not None else random.Random()
        # The lazy array: cells absent from the table are "uninitialized"
        # and conceptually hold their own index.
        self._cells: Dict[int, int] = {}
        self._i = 0

    def remaining(self) -> int:
        """How many elements have not been emitted yet."""
        return self.n - self._i

    def __iter__(self) -> Iterator[int]:
        return self

    def __next__(self) -> int:
        i = self._i
        if i >= self.n:
            raise StopIteration
        j = self.rng.randrange(i, self.n)
        cells = self._cells
        value_i = cells.get(i, i)
        value_j = cells.get(j, j)
        # Swap a[i] and a[j]; after the swap, a[i] is the emitted value and
        # the not-yet-emitted value previously at i moves to position j.
        cells[i] = value_j
        cells[j] = value_i
        self._i = i + 1
        return value_j

    def take(self, k: int) -> List[int]:
        """The next ``min(k, remaining())`` elements as a list.

        Equal to ``[next(self) for __ in range(k)]`` (stopping at
        exhaustion) — including in how much randomness is consumed — but
        runs as one tight loop with the lookup table and the generator
        bound locally, which is what the batched access path wants.

        >>> LazyShuffle(5, random.Random(0)).take(3) == \\
        ...     [next(s) for s in [LazyShuffle(5, random.Random(0))] for __ in range(3)]
        True
        """
        if k < 0:
            raise ValueError(f"cannot take a negative number of elements: {k}")
        cells = self._cells
        randrange = self.rng.randrange
        n = self.n
        i = self._i
        out: List[int] = []
        append = out.append
        for __ in range(min(k, n - i)):
            j = randrange(i, n)
            value_i = cells.get(i, i)
            value_j = cells.get(j, j)
            cells[i] = value_j
            cells[j] = value_i
            append(value_j)
            i += 1
        self._i = i
        return out


#: Below this many draws the pure-python ``take`` loop beats the fixed
#: cost of the vectorized path (≈0.1 ms: a state save and restore plus a
#: few full-array passes); at n = 5M the two cross near 160 draws. Below
#: four times as many items the draw widths span many bit lengths, the
#: fixpoint needs many rounds, and the scalar loop stays faster too.
_VECTOR_MIN_DRAWS = 256


def sample_positions(n: int, k: int, rng: Optional[random.Random] = None):
    """``LazyShuffle(n, rng).take(k)`` without the resumable object.

    Bit-for-bit the same positions, consuming bit-for-bit the same
    randomness from ``rng`` (its state afterwards is exactly as if
    ``take`` had run) — but, for large draws, computed vectorized:
    ``random.Random`` is MT19937, each per-draw ``randrange(i, n)`` call
    consumes whole 32-bit words, and a saved state can be restored, so the
    word stream behind those calls can be produced as one array and the
    rejection sampling + lazy Fisher–Yates swap chain replayed over it in
    bulk (see :func:`_vector_take`). ``sample_many`` draws positions
    through this instead of ``take`` because a throwaway shuffle needs no
    lookup-table maintenance — the dominant cost of the scalar loop.

    Returns a python list on the scalar path and an int64 ndarray on the
    vectorized one — the batch entry points accept either, and the flat
    backend consumes the array with no per-position boxing at all.
    """
    if (k < _VECTOR_MIN_DRAWS or n < 4 * _VECTOR_MIN_DRAWS
            or n.bit_length() > 32):
        return LazyShuffle(n, rng).take(k)
    if rng is None:
        rng = random.Random()
    positions = _vector_take(n, min(k, n), rng)
    if positions is None:  # pragma: no cover - safety valve
        return LazyShuffle(n, rng).take(k)
    return positions


def _vector_take(n: int, m: int, rng: random.Random):
    """The vectorized lazy Fisher–Yates draw (``m ≥ 1`` positions).

    CPython's ``randrange(i, n)`` is ``i + _randbelow(n - i)``:
    ``getrandbits(k)`` takes the **top** ``k = (n-i).bit_length()`` bits
    of one 32-bit Mersenne word, rejecting values ``≥ n - i``. Stages:

    1. *Word stream* — save ``rng``'s state and pull the upcoming raw
       words as one array: ``getrandbits(32 · w)`` draws exactly ``w``
       words, the first in its lowest 32 bits.
    2. *Rejection replay* — which draw consumes which word depends on the
       earlier rejections, so solve for the assignment by fixpoint: guess
       "no rejections", recompute each word's draw index from the accept
       flags, repeat. Any fixpoint equals the sequential assignment (first
       divergent word would have the same draw index and hence the same
       accept flag — induction), and convergence is fast because a flag
       only flips when the draw index shifts across a width boundary.
    3. *Swap-chain patch-up* — draw ``t`` emits slot ``j_t``'s current
       occupant, which is just ``j_t`` unless some other draw touched that
       slot. Only duplicated ``j`` values and ``j < m`` (slots a later
       draw reads as its ``i``) can collide — a scalar replay over that
       sparse subset fixes them.
    4. *State sync* — restore the saved state and advance ``rng`` by
       exactly the consumed word count, in one ``getrandbits`` call.

    Returns ``None`` (caller falls back to the scalar loop) if the
    fixpoint has not settled after 48 rounds.
    """
    saved = rng.getstate()
    if saved[0] != 3:  # pragma: no cover - not a Mersenne Twister state
        return None

    widths = n - _np.arange(m, dtype=_np.int64)
    # Vectorized bit_length: index of the first power of two > width.
    powers = 2 ** _np.arange(1, 34, dtype=_np.int64)
    shifts = 32 - (_np.searchsorted(powers, widths, side="right") + 1)

    # Enough words for the expected rejection overhead, topped up if an
    # unlucky stream runs short. When every draw shares one bit width
    # (the overwhelmingly common case — widths only span m), the per-word
    # candidate values don't depend on the fixpoint and hoist out of it,
    # and the expected acceptance rate seeds the draw-index guess.
    flat_shift = int(shifts[0]) if shifts[0] == shifts[-1] else None
    rate = float(widths[0] + widths[-1]) / 2.0 / float(
        1 << (32 - (flat_shift if flat_shift is not None else int(shifts[0])))
    )
    words = _raw_words(rng, int(m / rate) + (m >> 4) + 64)
    while True:
        total = len(words)
        lanes = _np.arange(total, dtype=_np.int64)
        if flat_shift is not None:
            candidates = words >> flat_shift
            draw = _np.minimum((lanes * rate).astype(_np.int64), m - 1)
        else:
            candidates = None
            draw = _np.minimum(lanes, m - 1)
        for __ in range(48):
            if candidates is not None:
                accept = candidates < widths[draw]
            else:
                accept = (words >> shifts[draw]) < widths[draw]
            accepted = _np.cumsum(accept)
            shifted = _np.empty_like(draw)
            shifted[0] = 0
            _np.minimum(accepted[:-1], m - 1, out=shifted[1:])
            if _np.array_equal(shifted, draw):
                break
            draw = shifted
        else:  # pragma: no cover - never observed; scalar loop is exact
            return None
        if accepted[-1] >= m:
            break
        missing = m - int(accepted[-1])
        words = _np.concatenate([words, _raw_words(rng, missing * 2 + 64)])

    hits = _np.flatnonzero(accept)[:m]
    consumed = int(hits[-1]) + 1
    emitted = _np.arange(m, dtype=_np.int64) + (words[hits] >> shifts)

    # Swap-chain patch-up: resolve the sparse set of colliding draws.
    order = _np.argsort(emitted)
    ranked = emitted[order]
    tied = ranked[1:] == ranked[:-1]
    collide_sorted = _np.zeros(m, dtype=bool)
    collide_sorted[1:] |= tied
    collide_sorted[:-1] |= tied
    collide = _np.empty(m, dtype=bool)
    collide[order] = collide_sorted
    collide |= emitted < m
    special = _np.flatnonzero(collide)
    if special.size:
        cells: Dict[int, int] = {}
        patched = []
        for t, j in zip(special.tolist(), emitted[special].tolist()):
            value_j = cells.get(j, j)
            value_i = cells.get(t, t)
            cells[t] = value_j
            cells[j] = value_i
            patched.append(value_j)
        emitted[special] = patched

    # Advance rng past exactly the words the scalar loop would have used.
    rng.setstate(saved)
    rng.getrandbits(32 * consumed)
    return emitted


def _raw_words(rng: random.Random, count: int):
    """The next ``count`` 32-bit Mersenne words of ``rng``, in draw order,
    as an int64 array."""
    stream = rng.getrandbits(32 * count).to_bytes(4 * count, "little")
    return _np.frombuffer(stream, dtype="<u4").astype(_np.int64)


def random_permutation_indices(n: int, rng: Optional[random.Random] = None) -> Iterator[int]:
    """Iterate a uniformly random permutation of ``range(n)`` lazily.

    A thin functional wrapper over :class:`LazyShuffle`, convenient for
    ``for`` loops and generator pipelines.
    """
    return iter(LazyShuffle(n, rng))
