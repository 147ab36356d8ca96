"""Theorem 4.3 — the public random-access index for free-connex CQs.

``CQIndex`` packages Proposition 4.2's reduction with Algorithm 2's
preprocessing (:class:`~repro.core.index.JoinForestIndex`) and serves
through :class:`~repro.core.access_engine.EngineServingMixin`, the read
surface every forest-shaped index shares. After linear-time construction
it supports

* ``len(index)`` / ``index.count`` — the answer count ``|Q(D)|`` in O(1);
* ``index.access(i)`` — the *i*-th answer (head-ordered tuple) in O(log n);
* ``index.inverted_access(t)`` — the position of answer ``t``, or ``None``;
* ``iter(index)`` — enumeration in index order (Fact 3.5);
* ``index.random_order(rng)`` — a uniformly random permutation of the
  answers (Theorem 3.7), see :mod:`repro.core.permutation`.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.database.database import Database
from repro.query.cq import ConjunctiveQuery

from repro.core.access_engine import EngineServingMixin
from repro.core.errors import IncompatibleUnionError
from repro.core.index import JoinForestIndex, _IndexNode
from repro.core.reduction import reduce_to_full_acyclic


class CQIndex(EngineServingMixin):
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

    @property
    def roots(self) -> List[_IndexNode]:
        """The join-forest roots the engine walks."""
        return self._forest.roots

    @property
    def count(self) -> int:
        """``|Q(D)|`` — available in O(1) after preprocessing."""
        return self._forest.count

    def ensure_inverted_support(self) -> None:
        """Eagerly build the inverted-access tables (otherwise built on the
        first :meth:`inverted_access`)."""
        self._forest.ensure_inverted_support()

    def rank_not_after(self, answer: tuple) -> int:
        """How many answers of this index do not succeed ``answer`` in the
        global order of the join-forest shape.

        ``answer`` need not be an answer of *this* query — any head tuple
        of an index over the same shape ranks (the mc-UCQ machinery ranks
        a member's answers in the intersection indexes this way, one
        descent each). Raises :class:`IncompatibleUnionError` on an index
        built with ``sort_buckets=False``: its order restricts no global
        order, so the rank of a foreign answer is undefined.
        """
        if not self._forest.sort_buckets:
            raise IncompatibleUnionError(
                "rank_not_after needs canonically sorted buckets; this index "
                "was built with sort_buckets=False and has no global order"
            )
        return super().rank_not_after(answer)

    # The layered benchmark's tracer wraps these by name in vars(CQIndex);
    # binding the mixin's own function keeps one span per call.
    batch = EngineServingMixin.batch  # traced: static engine walk
    sample_many = EngineServingMixin.sample_many  # traced: static engine walk
    inverted_access = EngineServingMixin.inverted_access  # traced: static engine walk

    def __repr__(self) -> str:
        return f"CQIndex({self.query.name}, count={self.count})"
