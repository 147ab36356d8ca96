"""Acceptance gate: HTTP readers stay fast and consistent under ingest.

The serving-tier question: four HTTP clients are paging a hot **dynamic
mc-UCQ** through server-side cursor sessions (real sockets, the stdlib
thread-per-connection bridge) while JSONL ``Delta`` batches stream into
``POST /ingest``. The gate asserts the two properties the tier promises:

* **throughput** — aggregate reader throughput under the ingest stream
  stays within **2×** of the read-only baseline, measured over equal
  windows (readers ride wait-free snapshot reads; the writer never
  blocks them — only the GIL is shared);
* **consistency** — every page matches its pinned version's answers.
  The workload makes this checkable over the wire: ``R`` is a static
  bulk plus one *generational slice*, and each ingest batch swaps the
  whole current generation of that slice for the next one (one
  ``Delta``, one version bump). The generation visible at version ``v``
  is exactly ``v - v₀ + 1``, so readers — on strict
  ``on_stale="raise"`` sessions (``409`` → refresh) — assert every page
  carries answers of at most one generation *and* that it is the one
  its reported ``version`` pins. A page assembled across a version
  boundary, or tagged with the wrong version, fails the run.

Usage
-----
``PYTHONPATH=src python benchmarks/bench_http.py``          (full, ≥1e5 facts)
``PYTHONPATH=src python benchmarks/bench_http.py --smoke``  (small, CI-fast)

Not a pytest file on purpose: like the other gates, CI runs it directly
(in ``--smoke`` mode).
"""

from __future__ import annotations

import argparse
import http.client
import json
import random
import sys
import threading
import time

from repro import Database, Relation
from repro.server import create_app, start_background

#: Generation ``g`` of R's swapped slice owns [g*STRIDE, g*STRIDE + rows).
#: Generation 0 is the static bulk that never moves.
STRIDE = 1_000_000

QUERY_TEXT = (
    "Q(a, b, c) :- R(a, b), S(b, c) ; Q(a, b, c) :- R(a, b), T(b, c)"
)


def gen_rows(generation: int, rows: int, keys: int):
    return [(generation * STRIDE + i, i % keys) for i in range(rows)]


def build_database(static_rows, slice_rows, keys, partners) -> Database:
    """The bench_concurrent_reads shape with a generational R slice: S and
    T overlap on half their partner rows, so the union is a genuine
    mc-UCQ (per R row: ``partners`` S-matches + ``partners`` T-matches,
    half shared → 1.5 × partners distinct answers)."""
    half = partners // 2
    return Database([
        Relation(
            "R", ("a", "b"),
            gen_rows(0, static_rows, keys) + gen_rows(1, slice_rows, keys),
        ),
        Relation(
            "S", ("b", "c"),
            [(j, k) for j in range(keys) for k in range(partners)],
        ),
        Relation(
            "T", ("b", "c"),
            [(j, k + half) for j in range(keys) for k in range(partners)],
        ),
    ])


def swap_body(old: int, new: int, rows: int, keys: int) -> bytes:
    """The JSONL ingest body replacing slice generation ``old`` with ``new``."""
    ops = [
        {"op": "delete", "relation": "R", "row": list(row)}
        for row in gen_rows(old, rows, keys)
    ] + [
        {"op": "insert", "relation": "R", "row": list(row)}
        for row in gen_rows(new, rows, keys)
    ]
    return "".join(json.dumps(op) + "\n" for op in ops).encode("utf-8")


class HttpClient:
    """A keep-alive JSON client on one persistent connection."""

    def __init__(self, port: int):
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)

    def request(self, method: str, path: str, body: bytes = None):
        self.conn.request(method, path, body=body)
        response = self.conn.getresponse()
        return response.status, json.loads(response.read())

    def close(self):
        self.conn.close()


class ReaderStats:
    __slots__ = ("pages", "answers", "generational_pages", "refreshes")

    def __init__(self):
        self.pages = 0
        self.answers = 0
        self.generational_pages = 0
        self.refreshes = 0


def run_readers(port, n_readers, page_size, pages_hot, base_version,
                seconds=None, writer=None):
    """Readers page for a fixed window (or until ``writer`` returns);
    returns (stats, window_seconds)."""
    start = threading.Barrier(n_readers + 1)
    done = threading.Event()
    stats = [ReaderStats() for __ in range(n_readers)]
    errors = []

    def reader(position):
        rng = random.Random(1000 + position)
        mine = stats[position]
        client = HttpClient(port)
        try:
            status, session = client.request(
                "POST", "/cursors",
                body=json.dumps(
                    {"query": QUERY_TEXT, "on_stale": "raise"}
                ).encode(),
            )
            assert status == 201, session
            sid = session["cursor"]
            start.wait()
            while not done.is_set():
                number = rng.randrange(pages_hot)
                status, payload = client.request(
                    "GET", f"/cursors/{sid}/page?number={number}&size={page_size}"
                )
                if status == 409:
                    # Stale: acknowledge and re-bind (refresh itself may
                    # lose the race to yet another swap — just continue).
                    status, __ = client.request(
                        "POST", f"/cursors/{sid}/refresh"
                    )
                    assert status in (200, 409)
                    mine.refreshes += 1
                    continue
                assert status == 200, payload
                generations = {
                    a // STRIDE for a, _b, _c in payload["answers"]
                } - {0}  # generation 0 is the static bulk
                if generations:
                    # At most one slice generation per page, and exactly
                    # the one the page's pinned version publishes.
                    expected = payload["version"] - base_version + 1
                    if generations != {expected}:
                        raise AssertionError(
                            f"version {payload['version']} served slice "
                            f"generation(s) {sorted(generations)}, "
                            f"expected {{{expected}}}"
                        )
                    mine.generational_pages += 1
                mine.pages += 1
                mine.answers += len(payload["answers"])
        except Exception as exc:  # pragma: no cover - the failure mode
            errors.append(exc)
            done.set()
        finally:
            client.close()

    threads = [
        threading.Thread(target=reader, args=(position,))
        for position in range(n_readers)
    ]
    for thread in threads:
        thread.start()
    start.wait()
    began = time.perf_counter()
    if writer is not None:
        writer()
    else:
        time.sleep(seconds)
    window = time.perf_counter() - began
    done.set()
    for thread in threads:
        thread.join(timeout=300)
    if errors:
        raise errors[0]
    return stats, window


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="small instance, CI sanity run")
    parser.add_argument("--readers", type=int, default=4)
    parser.add_argument("--json", default="BENCH_http.json",
                        help="where to write the measured numbers")
    args = parser.parse_args(argv)

    if args.smoke:
        static_rows, slice_rows, keys, partners = 500, 100, 60, 20
        generations, pause = 5, 0.15
        page_size, pages_hot = 20, 20
        max_slowdown = 3.0  # looser: smoke windows are noise-dominated
    else:
        static_rows, slice_rows, keys, partners = 3_400, 600, 500, 100
        generations, pause = 12, 0.3
        page_size, pages_hot = 50, 100
        max_slowdown = 2.0  # the acceptance bar: within 2x of read-only

    # Reader and writer threads are CPU-bound Python; a 1ms GIL quantum
    # keeps scheduling noise out of both measured windows alike.
    sys.setswitchinterval(0.001)

    database = build_database(static_rows, slice_rows, keys, partners)
    app = create_app(database, dynamic=True, session_ttl=None)
    base_version = database.version
    service = app.service
    answers = service.cursor(QUERY_TEXT).count  # warm the dynamic union entry
    print(f"|D| = {database.size()} facts, |Q(D)| = {answers}, "
          f"{generations} slice swaps x {2 * slice_rows} ops "
          f"every {pause}s, {args.readers} HTTP readers (page {page_size})")

    server, thread, port = start_background(app)
    try:
        writer_client = HttpClient(port)

        def writer():
            # A paced stream: one whole-generation slice swap per tick.
            for generation in range(1, generations + 1):
                status, payload = writer_client.request(
                    "POST", "/ingest",
                    swap_body(generation, generation + 1, slice_rows, keys),
                )
                assert status == 200, payload
                assert payload["inserted"] == slice_rows, payload
                assert payload["deleted"] == slice_rows, payload
                assert payload["version"] == base_version + generation
                time.sleep(pause)

        concurrent_stats, concurrent_window = run_readers(
            port, args.readers, page_size, pages_hot, base_version,
            writer=writer,
        )
        # Read-only baseline over the identical window length (the slice
        # swaps preserve every cardinality, so the workload is the same).
        baseline_stats, baseline_window = run_readers(
            port, args.readers, page_size, pages_hot, base_version,
            seconds=concurrent_window,
        )
        writer_client.close()
    finally:
        server.shutdown()
        thread.join(timeout=30)

    baseline_pages = sum(s.pages for s in baseline_stats)
    concurrent_pages = sum(s.pages for s in concurrent_stats)
    generational = sum(s.generational_pages for s in concurrent_stats)
    refreshes = sum(s.refreshes for s in concurrent_stats)
    baseline_tput = baseline_pages / baseline_window
    concurrent_tput = concurrent_pages / concurrent_window
    if baseline_pages == 0 or concurrent_pages == 0:
        print("FAIL: a reader arm served no pages")
        return 1
    if generational == 0:
        print("FAIL: no page ever touched the swapped slice — the "
              "consistency check never engaged")
        return 1
    slowdown = baseline_tput / concurrent_tput
    # The emitted headline keeps the gate's >= convention: how far inside
    # the allowed degradation envelope the concurrent arm landed.
    measured = max_slowdown / slowdown

    print(f"with ingest: {concurrent_pages} pages in {concurrent_window:.2f}s "
          f"({concurrent_tput:.0f}/s), {generational} pages touched the "
          f"slice, {refreshes} stale refreshes")
    print(f"read-only  : {baseline_pages} pages in {baseline_window:.2f}s "
          f"({baseline_tput:.0f}/s)")
    print(f"slowdown {slowdown:.2f}x (allowed {max_slowdown:.1f}x)")

    from conftest import emit_bench

    emit_bench(
        "bench_http",
        measured,
        1.0,
        args.json,
        params={
            "query": QUERY_TEXT,
            "facts": database.size(),
            "answers": answers,
            "readers": args.readers,
            "page_size": page_size,
            "generations": generations,
            "ops_per_swap": 2 * slice_rows,
            "swap_pause_seconds": pause,
            "baseline_pages": baseline_pages,
            "baseline_window_seconds": round(baseline_window, 6),
            "baseline_pages_per_second": round(baseline_tput, 2),
            "concurrent_pages": concurrent_pages,
            "concurrent_window_seconds": round(concurrent_window, 6),
            "concurrent_pages_per_second": round(concurrent_tput, 2),
            "generational_pages": generational,
            "stale_refreshes": refreshes,
            "slowdown": round(slowdown, 3),
            "max_slowdown": max_slowdown,
        },
        smoke=args.smoke,
    )

    if slowdown > max_slowdown:
        print(f"FAIL: readers degraded {slowdown:.2f}x under ingest "
              f"(allowed {max_slowdown:.1f}x)")
        return 1
    print(f"OK: HTTP readers stayed within {slowdown:.2f}x of the read-only "
          f"baseline under streaming ingest (allowed {max_slowdown:.1f}x), "
          f"every page version-consistent")
    return 0


if __name__ == "__main__":
    sys.exit(main())
