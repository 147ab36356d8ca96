"""Sample(RS) — naive rejection sampling from the cross product.

Draw one uniform row from every node relation independently and accept only
when the rows agree on every shared variable (i.e. the combination is a
join result). Each answer is produced with the constant probability
``∏ 1/|R_u|``, so accepted samples are uniform — but the acceptance rate is
``|Q(D)| / ∏|R_u|``, astronomically small for real joins. Appendix B.2.3
reports that RS cannot produce even 1% of Q3's answers within an hour; the
``rs_note`` case of ``benchmarks/bench_figures.py`` reproduces that
observation at our scale.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.reduction import ReducedNode

from repro.sampling.base import JoinSampler


class NaiveRejectionSampler(JoinSampler):
    """Uniform sampling by rejection from the cross product of relations."""

    def _prepare(self) -> None:
        self._nodes: List[ReducedNode] = self.reduced.all_nodes()
        self._rows: List[List[tuple]] = [list(n.relation.rows) for n in self._nodes]

    def is_empty(self) -> bool:
        # After the full reduction of Proposition 4.2, emptiness of any
        # relation is equivalent to emptiness of the answer set.
        return any(not rows for rows in self._rows)

    def _try_sample(self) -> Optional[Dict[str, object]]:
        assignment: Dict[str, object] = {}
        for node, rows in zip(self._nodes, self._rows):
            row = rows[self.rng.randrange(len(rows))]
            for column, value in zip(node.relation.columns, row):
                if column in assignment and assignment[column] != value:
                    return None
                assignment[column] = value
        return assignment
