"""Search-result pagination via random access.

The paper's third motivating application: "presenting the first pages of
search results (e.g., as in keyword search over structured data)". A
random-access structure turns page retrieval into ``page_size`` access
calls — page 4711 costs the same as page 0, with no enumeration of the
pages in between — and the total page count is known upfront from the O(1)
answer count.

Serving note: a page is a contiguous index range, exactly the best case of
the batched access engine, so :meth:`Paginator.page` issues one
``batch(range(start, stop))`` call when the index supports it. Call sites
that serve many pages (or many queries) over a mutating database should
read through a service cursor instead —
``service.cursor(q).page(number, page_size)`` reuses one cached index and
clamps each page to the count of the same pinned view it reads, so pages
stay correct across mutations.
"""

from __future__ import annotations

import math
from typing import List, Optional


class Paginator:
    """Fixed-size pages over any random-access index.

    Parameters
    ----------
    index:
        An object with ``count`` and ``access(i)`` — a
        :class:`~repro.core.cq_index.CQIndex`, an
        :class:`~repro.core.union_access.MCUCQIndex`, or anything
        implementing the same contract.
    page_size:
        Number of answers per page (≥ 1).
    """

    def __init__(self, index, page_size: int = 10):
        if page_size < 1:
            raise ValueError(f"page size must be positive, got {page_size}")
        self.index = index
        self.page_size = page_size

    @property
    def total_answers(self) -> int:
        return self.index.count

    @property
    def total_pages(self) -> int:
        return math.ceil(self.total_answers / self.page_size)

    def page(self, number: int) -> List[tuple]:
        """Page ``number`` (0-based) of the enumeration order.

        Raises ``IndexError`` for pages outside ``[0, total_pages)``
        (except that page 0 of an empty result is the empty page).
        """
        count = self.total_answers
        if number == 0 and count == 0:
            return []
        if not 0 <= number < self.total_pages:
            raise IndexError(
                f"page {number} out of range (result has {self.total_pages} pages)"
            )
        start = number * self.page_size
        stop = min(start + self.page_size, count)
        batch = getattr(self.index, "batch", None)
        if batch is not None:
            return batch(range(start, stop))
        return [self.index.access(position) for position in range(start, stop)]

    def page_of_answer(self, answer: tuple) -> Optional[int]:
        """Which page contains ``answer``? ``None`` if it is not an answer.

        Needs the index to provide inverted access (CQ indexes do; the
        union index does not — there it returns ``None``, and a cursor over
        a union raises ``ValueError``)."""
        inverted = getattr(self.index, "inverted_access", None)
        if inverted is None:
            return None
        position = inverted(answer)
        if position is None:
            return None
        return position // self.page_size

