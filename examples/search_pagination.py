"""Search-result paging with random access.

Jumping to page 4711 of a join's results normally means enumerating (and
discarding) the 47,110 answers before it. With the Theorem 4.3 index, any
page costs page_size × O(log n): retrieval time is independent of the page
number — and each page is served by one *batched* access over its
contiguous index range. Pages come from one ``QueryService`` cursor, so
every page request after the first reuses the same cached index instead
of rebuilding it. The demo pages through TPC-H Q3 and also locates the
page of a specific known answer via inverted access.

Run:  python examples/search_pagination.py
"""

import math
import time

from repro import QueryService
from repro.tpch import TPCHConfig, generate
from repro.tpch.queries import make_q3


def main() -> None:
    db = generate(TPCHConfig(scale_factor=0.005))
    cursor = QueryService(db).cursor(make_q3())
    page_size = 10
    total_pages = math.ceil(cursor.count / page_size)

    print(f"result: {cursor.count} answers, {total_pages} pages of {page_size}")

    for number in (0, total_pages // 2, total_pages - 1):
        started = time.perf_counter()
        page = cursor.page(number, page_size)
        elapsed = (time.perf_counter() - started) * 1e6
        print(f"\npage {number} (retrieved in {elapsed:.0f}µs):")
        for answer in page[:3]:
            print(f"  order={answer[0]} customer={answer[1]} part={answer[2]}")
        if len(page) > 3:
            print(f"  … {len(page) - 3} more rows")

    needle = cursor.get(cursor.count // 3)
    print(f"\nwhere does {needle} live?")
    print(f"  page {cursor.position_of(needle) // page_size} (via inverted access, O(1))")
    print(f"  not-an-answer probe: {cursor.position_of(('x',) * 5)}")


if __name__ == "__main__":
    main()
