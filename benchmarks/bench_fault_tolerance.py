"""Acceptance gate: the read plane survives a write-path fault storm.

The fault-tolerance question: four HTTP readers are paging a hot dynamic
mc-UCQ through server-side cursor sessions (real sockets, the stdlib
bridge) when the WAL's fsync path starts failing with ``ENOSPC`` — a
full disk under the durable store. The gate asserts the degraded-mode
contract end to end:

* **reads hold** — aggregate reader throughput during the storm stays at
  **≥ 0.5×** the healthy baseline over an equal window (reads are
  wait-free snapshot probes; a dead write path must not drag them down);
* **pages stay version-consistent** — the generational-slice check of
  ``bench_http`` runs throughout (every page's answers match the
  version it reports);
* **writes shed cleanly** — every ingest during the storm answers
  ``503`` + ``Retry-After`` (the first failure flips the service into
  degraded read-only mode; later writes shed without touching the dying
  device outside the probe cadence), and ``/healthz`` reports
  ``status: degraded`` with the root cause;
* **self-healing** — once the fault clears, the **first** post-storm
  ingest (after the probe interval) succeeds and ``/healthz`` returns to
  ``ok`` — no restart, no operator intervention.

Usage
-----
``PYTHONPATH=src python benchmarks/bench_fault_tolerance.py``
``PYTHONPATH=src python benchmarks/bench_fault_tolerance.py --smoke``

Not a pytest file on purpose: like the other gates, CI runs it directly
(in ``--smoke`` mode).
"""

from __future__ import annotations

import argparse
import sys
import tempfile
import time

from repro import faults
from repro.server import create_app, start_background

from bench_http import (
    QUERY_TEXT,
    HttpClient,
    build_database,
    run_readers,
    swap_body,
)

#: Reader throughput during the storm must stay at or above this
#: fraction of the healthy baseline.
MIN_HOLD = 0.5


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="small instance, CI sanity run")
    parser.add_argument("--readers", type=int, default=4)
    parser.add_argument("--json", default="BENCH_fault_tolerance.json",
                        help="where to write the measured numbers")
    args = parser.parse_args(argv)

    if args.smoke:
        static_rows, slice_rows, keys, partners = 500, 100, 60, 20
        window, page_size, pages_hot = 1.5, 20, 20
    else:
        static_rows, slice_rows, keys, partners = 3_400, 600, 500, 100
        window, page_size, pages_hot = 4.0, 50, 100
    probe_interval = 0.1
    storm_ingest_pause = 0.05

    sys.setswitchinterval(0.001)

    database = build_database(static_rows, slice_rows, keys, partners)
    storage = tempfile.mkdtemp(prefix="bench-fault-")
    app = create_app(
        database, storage=storage, dynamic=True, session_ttl=None
    )
    app.service.degraded_probe_interval = probe_interval
    base_version = database.version
    answers = app.service.cursor(QUERY_TEXT).count  # warm the dynamic union entry
    print(f"|D| = {database.size()} facts, |Q(D)| = {answers}, "
          f"{args.readers} HTTP readers (page {page_size}), "
          f"durable store {storage}")

    server, thread, port = start_background(app)
    try:
        control = HttpClient(port)

        # ---- phase 1: healthy baseline ------------------------------- #
        healthy_stats, healthy_window = run_readers(
            port, args.readers, page_size, pages_hot, base_version,
            seconds=window,
        )
        healthy_pages = sum(s.pages for s in healthy_stats)
        healthy_tput = healthy_pages / healthy_window
        print(f"healthy: {healthy_pages} pages in {healthy_window:.2f}s "
              f"({healthy_tput:.0f}/s)")

        # ---- phase 2: ENOSPC fault storm on the WAL fsync path ------- #
        storm_statuses = []

        def storm_writer():
            # Hammer the write path for the whole window; every attempt
            # must shed with 503 (the slice swap body is the real
            # workload's write, not a toy no-op).
            deadline = time.monotonic() + window
            writer_client = HttpClient(port)
            body = swap_body(1, 2, slice_rows, keys)
            try:
                while time.monotonic() < deadline:
                    status, payload = writer_client.request(
                        "POST", "/ingest", body
                    )
                    storm_statuses.append(status)
                    time.sleep(storm_ingest_pause)
            finally:
                writer_client.close()

        faults.arm("wal.fsync", "error(ENOSPC)")
        storm_stats, storm_window = run_readers(
            port, args.readers, page_size, pages_hot, base_version,
            writer=storm_writer,
        )
        health = control.request("GET", "/healthz")[1]
        faults.disarm_all()

        storm_pages = sum(s.pages for s in storm_stats)
        storm_tput = storm_pages / storm_window
        rejected = sum(1 for status in storm_statuses if status == 503)
        print(f"storm  : {storm_pages} pages in {storm_window:.2f}s "
              f"({storm_tput:.0f}/s), {len(storm_statuses)} ingest "
              f"attempts, {rejected} x 503")

        if not storm_statuses or rejected != len(storm_statuses):
            print(f"FAIL: expected every storm ingest to answer 503, got "
                  f"{sorted(set(storm_statuses))}")
            return 1
        if health.get("status") != "degraded":
            print(f"FAIL: /healthz during the storm said {health!r}, "
                  f"expected status=degraded")
            return 1

        # ---- phase 3: recovery without restart ----------------------- #
        time.sleep(probe_interval * 1.5)
        status, payload = control.request(
            "POST", "/ingest", swap_body(1, 2, slice_rows, keys)
        )
        if status != 200:
            print(f"FAIL: first post-storm ingest answered {status}: "
                  f"{payload}")
            return 1
        recovered_health = control.request("GET", "/healthz")[1]
        if recovered_health.get("status") != "ok":
            print(f"FAIL: /healthz after recovery said {recovered_health!r}")
            return 1
        print(f"recovered: first post-storm ingest applied "
              f"{payload['ops']} ops at version {payload['version']}, "
              f"healthz ok")
        stats_payload = control.request("GET", "/stats")[1]["service"]
        control.close()
    finally:
        server.shutdown()
        thread.join(timeout=30)
        faults.disarm_all()

    generational = sum(s.generational_pages for s in storm_stats)
    if healthy_pages == 0 or storm_pages == 0:
        print("FAIL: a reader arm served no pages")
        return 1
    if generational == 0:
        print("FAIL: no storm page touched the generational slice — the "
              "consistency check never engaged")
        return 1

    hold = storm_tput / healthy_tput
    measured = hold / MIN_HOLD

    from conftest import emit_bench

    emit_bench(
        "bench_fault_tolerance",
        measured,
        1.0,
        args.json,
        params={
            "query": QUERY_TEXT,
            "facts": database.size(),
            "answers": answers,
            "readers": args.readers,
            "page_size": page_size,
            "window_seconds": window,
            "probe_interval_seconds": probe_interval,
            "healthy_pages": healthy_pages,
            "healthy_pages_per_second": round(healthy_tput, 2),
            "storm_pages": storm_pages,
            "storm_pages_per_second": round(storm_tput, 2),
            "storm_ingest_attempts": len(storm_statuses),
            "storm_ingest_503s": rejected,
            "generational_pages": generational,
            "throughput_hold": round(hold, 3),
            "min_hold": MIN_HOLD,
            "degraded_entries": stats_payload["degraded_entries"],
            "degraded_seconds": round(stats_payload["degraded_seconds"], 3),
            "faults_injected": stats_payload["faults_injected"],
        },
        smoke=args.smoke,
    )

    if hold < MIN_HOLD:
        print(f"FAIL: readers held only {hold:.2f}x of healthy throughput "
              f"during the fault storm (required >= {MIN_HOLD}x)")
        return 1
    print(f"OK: readers held {hold:.2f}x of healthy throughput through an "
          f"ENOSPC fault storm (required >= {MIN_HOLD}x), every page "
          f"version-consistent, writes shed with 503, first post-storm "
          f"ingest succeeded without restart")
    return 0


if __name__ == "__main__":
    sys.exit(main())
