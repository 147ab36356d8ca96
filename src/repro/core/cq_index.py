"""Theorem 4.3 — the public random-access index for free-connex CQs.

``CQIndex`` packages Proposition 4.2's reduction with Algorithms 2–4 behind
a tuple-level interface: after linear-time construction it supports

* ``len(index)`` / ``index.count`` — the answer count ``|Q(D)|`` in O(1);
* ``index.access(i)`` — the *i*-th answer (head-ordered tuple) in O(log n);
* ``index.inverted_access(t)`` — the position of answer ``t``, or ``None``;
* ``iter(index)`` — enumeration in index order (Fact 3.5);
* ``index.random_order(rng)`` — a uniformly random permutation of the
  answers (Theorem 3.7), see :mod:`repro.core.permutation`.
"""

from __future__ import annotations

import random
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.database.database import Database
from repro.query.cq import ConjunctiveQuery

from repro.core.index import JoinForestIndex
from repro.core.reduction import reduce_to_full_acyclic


class CQIndex:
    """A linear-preprocessing random-access structure for a free-connex CQ.

    Parameters
    ----------
    query:
        A free-connex acyclic CQ (otherwise
        :class:`~repro.core.errors.NotFreeConnexError` is raised).
    database:
        The input database.
    sort_buckets:
        Keep bucket contents canonically sorted (default). This fixes the
        enumeration order to a restriction of a global order on answer
        tuples, which is required by the mc-UCQ machinery; disable only for
        the ablation benchmarks.
    reduce:
        Run the Yannakakis full reducer (default). Disabling is possible
        for full queries only; see
        :func:`~repro.core.reduction.reduce_to_full_acyclic`.
    store:
        Bucket backend: ``"tuple"`` (prefix-sum lists + bisect) or
        ``"flat"`` (columnar arrays with the vectorized batch walk —
        see :mod:`repro.core.flat_store`). ``None`` resolves via
        :func:`repro.core.flat_store.resolve_store` (the ``REPRO_STORE``
        environment variable, defaulting to ``"tuple"``).
    """

    def __init__(
        self,
        query: ConjunctiveQuery,
        database: Database,
        sort_buckets: bool = True,
        reduce: bool = True,
        root_atom: int = None,
        store: Optional[str] = None,
    ):
        self.query = query
        self.head_variables: Tuple[str, ...] = tuple(v.name for v in query.head)
        self._reduced = reduce_to_full_acyclic(
            query, database, reduce=reduce, root_atom=root_atom
        )
        self._forest = JoinForestIndex(
            self._reduced, sort_buckets=sort_buckets, store=store
        )

    @classmethod
    def from_reduced(
        cls, reduced, sort_buckets: bool = True, store: Optional[str] = None
    ) -> "CQIndex":
        """Build an index over an already-reduced full acyclic join.

        Used by the mc-UCQ machinery, which reduces each member once and
        derives the intersection joins by node-wise relation intersection.
        """
        instance = cls.__new__(cls)
        instance.query = reduced.query
        instance.head_variables = reduced.head_variables
        instance._reduced = reduced
        instance._forest = JoinForestIndex(
            reduced, sort_buckets=sort_buckets, store=store
        )
        return instance

    @property
    def store(self) -> str:
        """The backend actually serving (``"tuple"`` after an int64
        overflow fallback even when ``"flat"`` was requested)."""
        return self._forest.store

    # ------------------------------------------------------------------ #
    # Counting                                                            #
    # ------------------------------------------------------------------ #

    @property
    def count(self) -> int:
        """``|Q(D)|`` — available in O(1) after preprocessing."""
        return self._forest.count

    def __len__(self) -> int:
        return self.count

    # ------------------------------------------------------------------ #
    # Random access (Algorithm 3) and inverted access (Algorithm 4)       #
    # ------------------------------------------------------------------ #

    def access(self, index: int) -> tuple:
        """The answer at ``index`` of the enumeration order (0-based).

        Raises :class:`~repro.core.errors.OutOfBoundError` outside
        ``[0, count)``.
        """
        assignment = self._forest.access(index)
        return tuple(assignment[name] for name in self.head_variables)

    def batch(self, indices: Sequence[int]) -> List[tuple]:
        """The answers at ``indices`` — ``[self.access(i) for i in indices]``.

        The request may be unsorted and contain duplicates; the result is
        aligned with it. Amortized via
        :meth:`~repro.core.index.JoinForestIndex.batch_access`: positions
        are served in sorted order so that root-to-leaf walks, bucket
        binary searches, and parent-tuple resolutions are shared across
        adjacent positions. Raises
        :class:`~repro.core.errors.OutOfBoundError` if any position is
        outside ``[0, count)``.
        """
        return self._forest.batch_access(indices, project=self.head_variables)

    def sample_many(self, k: int, rng: Optional[random.Random] = None) -> List[tuple]:
        """The first ``min(k, count)`` draws of :meth:`random_order`.

        Exactly equal — element for element, and in randomness consumed —
        to ``k`` sequential draws from a
        :class:`~repro.core.permutation.RandomPermutationEnumerator` seeded
        with the same ``rng``: the positions come from one
        :func:`~repro.core.shuffle.sample_positions` draw (the lazy
        Fisher–Yates stream, replayed vectorized), then a single batched
        access serves them all. Draws are without replacement.
        """
        from repro.core.shuffle import sample_positions

        return self.batch(sample_positions(self.count, k, rng))

    def inverted_access(self, answer: tuple) -> Optional[int]:
        """The position of ``answer``, or ``None`` when not an answer."""
        if len(answer) != len(self.head_variables):
            return None
        assignment = dict(zip(self.head_variables, answer))
        if len(assignment) != len(self.head_variables):
            # Repeated head variables cannot occur (CQ heads are distinct),
            # so this is unreachable; kept as a guard.
            return None
        return self._forest.inverted_access(assignment)

    def __contains__(self, answer: tuple) -> bool:
        """Membership test via inverted access (the paper's ``Test``)."""
        return self.inverted_access(tuple(answer)) is not None

    def rank_not_after(self, answer: tuple) -> int:
        """How many answers of this index do not succeed ``answer`` in the
        global order of the join-forest shape.

        ``answer`` need not be an answer of *this* query — any head tuple
        of an index over the same shape ranks (the mc-UCQ machinery ranks
        a member's answers in the intersection indexes this way, one
        descent each). Refused on ``sort_buckets=False`` indexes.
        """
        if len(answer) != len(self.head_variables):
            raise ValueError(
                f"expected a {len(self.head_variables)}-tuple, got {answer!r}"
            )
        return self._forest.rank_not_after(dict(zip(self.head_variables, answer)))

    def ensure_inverted_support(self) -> None:
        """Eagerly build the inverted-access tables (otherwise lazy)."""
        self._forest.ensure_inverted_support()

    # ------------------------------------------------------------------ #
    # Enumeration                                                         #
    # ------------------------------------------------------------------ #

    def __iter__(self) -> Iterator[tuple]:
        """Enumerate the answers in index order (no repetitions)."""
        head = self.head_variables
        for assignment in self._forest.enumerate_in_order():
            yield tuple(assignment[name] for name in head)

    def random_order(self, rng: Optional[random.Random] = None) -> Iterator[tuple]:
        """REnum(CQ): the answers in uniformly random order (Theorem 3.7)."""
        from repro.core.permutation import RandomPermutationEnumerator

        return iter(RandomPermutationEnumerator(self, rng=rng))

    def __repr__(self) -> str:
        return f"CQIndex({self.query.name}, count={self.count})"
