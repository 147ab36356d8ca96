"""Sample(EW) — exact-weight join sampling (never rejects).

The dynamic program of Algorithm 2 assigns every tuple the number of
answers it participates in below its node; sampling a uniform answer is
then a single weighted top-down descent — equivalently, a uniform index
draw followed by random access. Preprocessing is linear, each sample costs
O(log n) (the per-bucket binary searches), and the acceptance rate is 1.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core import access_engine
from repro.core.index import JoinForestIndex

from repro.sampling.base import JoinSampler


class ExactWeightSampler(JoinSampler):
    """Uniform with-replacement sampling via exact weights."""

    def _prepare(self) -> None:
        self._index = JoinForestIndex(self.reduced, sort_buckets=False)

    @property
    def answer_count(self) -> int:
        """Exact weights double as a counter — ``|Q(D)|`` for free."""
        return self._index.count

    def is_empty(self) -> bool:
        return self._index.count == 0

    def _try_sample(self) -> Optional[Dict[str, object]]:
        assignment: Dict[str, object] = {}
        access_engine.scalar_walk(
            self._index.roots, self.rng.randrange(self._index.count), assignment
        )
        return assignment
