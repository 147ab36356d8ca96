"""Acceptance gate: snapshot-isolated reads vs. a reader-writer-lock baseline.

The question behind snapshot isolation: a hot **dynamic mc-UCQ** is cached
and serving reader traffic (pagination + sampling) when a writer starts
replaying ``Delta`` bursts. If reads of a live dynamic index had to
exclude its writer with a lock, a batched ``apply`` would hold that lock
for the *entire* burst and a reader's p99 latency would degenerate to the
burst duration. Instead writers publish an immutable snapshot per batch
(one atomic reference swap) and readers pin it, so a read never blocks on
a write.

The gate runs the identical workload twice against one service:

* **locked baseline** — the strawman, built from a lock this benchmark
  owns (the service has none to offer): the writer holds ``gate`` around
  each ``service.apply(burst)``, and readers take ``gate`` to read the
  live index (``service.index(query)``) directly.
* **snapshot path** — readers read through ``service.cursor(...)``:
  wait-free pinned-snapshot reads, the production path; the writer takes
  no gate.

Both runs measure, over the writer's full burst window: aggregate reader
throughput (reads/s), per-read p99 latency, and how many reads began *and*
ended inside one burst's ``apply`` interval. The gate asserts the
snapshot path beats the locked baseline **≥ 5×** on throughput and p99
(the ISSUE 5 acceptance bar), sanity-checks that reads stayed correct
(right count, single consistent version per read) and that no production
read took a lock (``stats().locked_reads == 0``), and writes the measured
numbers to ``BENCH_concurrent_reads.json``.

Usage
-----
``PYTHONPATH=src python benchmarks/bench_concurrent_reads.py``          (full, asserts 5×)
``PYTHONPATH=src python benchmarks/bench_concurrent_reads.py --smoke``  (small, CI-fast:
asserts correctness and — in place of a ratio, which is scheduling noise
at this scale — the property the ratio stands for: snapshot readers
complete reads inside a burst's ``apply`` interval, locked readers none)

Not a pytest file on purpose: like the other gates, CI runs it directly
(in ``--smoke`` mode).
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import random
import statistics
import sys
import threading
import time

from repro import Database, Delta, QueryService, Relation, parse_ucq

QUERY_TEXT = (
    "Q(a, b, c) :- R(a, b), S(b, c) ; Q(a, b, c) :- R(a, b), T(b, c)"
)


def build_database(left_rows: int, keys: int, partners: int) -> Database:
    """Two chain members sharing R; S and T overlap on half their rows (the
    bench_batch_update shape, so the S∩T index is genuinely maintained)."""
    half = partners // 2
    return Database([
        Relation("R", ("a", "b"), [(i, i % keys) for i in range(left_rows)]),
        Relation(
            "S", ("b", "c"),
            [(j, k) for j in range(keys) for k in range(partners)],
        ),
        Relation(
            "T", ("b", "c"),
            [(j, k + half) for j in range(keys) for k in range(partners)],
        ),
    ])


def burst_stream(n_bursts: int, burst_size: int, left_rows: int, keys: int, seed: int):
    """Paired insert/delete bursts over R: every burst is all-effective,
    and the database returns to its initial contents after each pair, so
    both timed runs see identical work."""
    rng = random.Random(seed)
    bursts = []
    fresh = left_rows
    for __ in range(n_bursts):
        rows = [(fresh + i, rng.randrange(keys)) for i in range(burst_size)]
        fresh += burst_size
        bursts.append([("insert", "R", row) for row in rows])
        bursts.append([("delete", "R", row) for row in rows])
    return bursts


class ReaderStats:
    __slots__ = ("spans", "reads")

    def __init__(self):
        #: (began, ended) perf_counter pair per completed read.
        self.spans = []
        self.reads = 0


def run_storm(service, query, n_readers, page_size, sample_size, bursts, locked):
    """One full storm: a writer replays every burst while readers hammer
    pagination + sampling; returns (reader stats, writer seconds, the
    (began, ended) interval of each burst's ``apply``)."""
    # The strawman's reader-writer exclusion; the snapshot arm has none.
    gate = threading.Lock() if locked else contextlib.nullcontext()
    start = threading.Barrier(n_readers + 1)
    done = threading.Event()
    stats = [ReaderStats() for __ in range(n_readers)]
    errors = []
    expected_count = service.cursor(query).count

    def reader(position):
        rng = random.Random(1000 + position)
        mine = stats[position]
        try:
            start.wait()
            while not done.is_set():
                page = rng.randrange(8)
                began = time.perf_counter()
                with gate:
                    if locked:
                        view = service.index(query)
                    else:
                        view = service.cursor(query).pinned
                    answers = view.batch(
                        range(page * page_size,
                              min((page + 1) * page_size, view.count))
                    ) + view.sample_many(sample_size, rng)
                mine.spans.append((began, time.perf_counter()))
                mine.reads += 1
                if len(answers) != page_size + sample_size:
                    raise AssertionError(
                        f"short read: {len(answers)} answers "
                        f"(count drifted mid-read?)"
                    )
        except Exception as exc:  # pragma: no cover - the failure mode
            errors.append(exc)
            done.set()

    threads = [
        threading.Thread(target=reader, args=(position,))
        for position in range(n_readers)
    ]
    for thread in threads:
        thread.start()
    start.wait()
    applies = []
    began = time.perf_counter()
    for burst in bursts:
        delta = Delta(burst, database=service.database)
        with gate:
            apply_began = time.perf_counter()
            service.apply(delta)
            applies.append((apply_began, time.perf_counter()))
    writer_seconds = time.perf_counter() - began
    done.set()
    for thread in threads:
        thread.join(timeout=120)
    if errors:
        raise errors[0]
    if service.cursor(query).count != expected_count:
        raise AssertionError("paired bursts must restore the initial count")
    return stats, writer_seconds, applies


def summarize(stats, window, applies):
    spans = [span for s in stats for span in s.spans]
    latencies = sorted(ended - began for began, ended in spans)
    reads = sum(s.reads for s in stats)
    if not latencies:
        raise AssertionError("readers never completed a read in the window")
    p99 = latencies[min(len(latencies) - 1, int(0.99 * len(latencies)))]
    # Reads that began and ended while one burst's apply was in flight
    # (the applies are sequential, so their start times are sorted).
    apply_starts = [began for began, __ in applies]
    inside = 0
    for began, ended in spans:
        burst = bisect.bisect_right(apply_starts, began) - 1
        if burst >= 0 and ended <= applies[burst][1]:
            inside += 1
    return {
        "reads": reads,
        "reads_inside_apply": inside,
        "throughput_per_second": reads / window,
        "p50_seconds": statistics.median(latencies),
        "p99_seconds": p99,
        "max_seconds": latencies[-1],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="small instance, no ratio bar (CI sanity run)")
    parser.add_argument("--readers", type=int, default=4)
    parser.add_argument("--seed", type=int, default=20200614)
    parser.add_argument("--json", default="BENCH_concurrent_reads.json",
                        help="where to write the measured numbers")
    args = parser.parse_args(argv)

    if args.smoke:
        # Bursts must dwarf the GIL scheduling quantum, or the locked
        # baseline's stall (== burst duration) hides inside timing noise.
        left_rows, keys, partners = 1_000, 50, 8
        n_bursts, burst_size = 4, 2_000
        page_size, sample_size = 10, 5
        required_speedup = None
    else:
        left_rows, keys, partners = 20_000, 400, 100
        n_bursts, burst_size = 6, 4_000
        page_size, sample_size = 10, 5
        required_speedup = 5.0

    # Both runs are CPU-bound Python threads; the default 5ms GIL switch
    # interval adds tens of milliseconds of pure scheduling noise to every
    # latency tail, drowning the signal this gate measures (lock stalls).
    # A 1ms quantum applies to baseline and snapshot runs alike.
    sys.setswitchinterval(0.001)

    query = parse_ucq(QUERY_TEXT)
    database = build_database(left_rows, keys, partners)
    service = QueryService(database, dynamic=True)
    service.cursor(query).count  # warm the dynamic union entry
    bursts = burst_stream(n_bursts, burst_size, left_rows, keys, args.seed)
    print(f"|D| = {database.size()} facts, |Q(D)| = {service.cursor(query).count}, "
          f"{len(bursts)} bursts x {burst_size} ops, "
          f"{args.readers} readers (page {page_size} + sample {sample_size})")

    # Locked baseline first, then the snapshot path, on the same warmed
    # service (paired bursts restore the contents between runs).
    locked_stats, locked_window, locked_applies = run_storm(
        service, query, args.readers, page_size, sample_size, bursts,
        locked=True,
    )
    snapshot_stats, snapshot_window, snapshot_applies = run_storm(
        service, query, args.readers, page_size, sample_size, bursts,
        locked=False,
    )

    locked = summarize(locked_stats, locked_window, locked_applies)
    snapshot = summarize(snapshot_stats, snapshot_window, snapshot_applies)
    service_stats = service.stats()
    if service_stats.locked_reads != 0:
        print("FAIL: a production (snapshot-path) read took a lock")
        return 1
    if service_stats.snapshot_publishes < 1:
        print("FAIL: the dynamic entry published no snapshots")
        return 1

    throughput_speedup = (
        snapshot["throughput_per_second"] / locked["throughput_per_second"]
    )
    p99_speedup = locked["p99_seconds"] / snapshot["p99_seconds"]
    for label, numbers, window in (
        ("locked  ", locked, locked_window),
        ("snapshot", snapshot, snapshot_window),
    ):
        print(f"{label}: {numbers['reads']} reads in {window:.2f}s "
              f"({numbers['throughput_per_second']:.0f}/s, "
              f"{numbers['reads_inside_apply']} inside an apply), "
              f"p50 {numbers['p50_seconds'] * 1e3:.2f}ms, "
              f"p99 {numbers['p99_seconds'] * 1e3:.2f}ms, "
              f"max {numbers['max_seconds'] * 1e3:.2f}ms")
    print(f"reader throughput speedup {throughput_speedup:.1f}x, "
          f"p99 latency improvement {p99_speedup:.1f}x")

    from conftest import emit_bench

    emit_bench(
        "bench_concurrent_reads",
        min(throughput_speedup, p99_speedup),
        required_speedup,
        args.json,
        params={
            "query": QUERY_TEXT,
            "facts": database.size(),
            "answers": service.cursor(query).count,
            "readers": args.readers,
            "bursts": len(bursts),
            "burst_size": burst_size,
            "locked": {k: round(v, 6) for k, v in locked.items()},
            "snapshot": {k: round(v, 6) for k, v in snapshot.items()},
            "locked_window_seconds": round(locked_window, 6),
            "snapshot_window_seconds": round(snapshot_window, 6),
            "throughput_speedup": round(throughput_speedup, 2),
            "p99_speedup": round(p99_speedup, 2),
            "snapshot_publishes": service_stats.snapshot_publishes,
        },
        smoke=args.smoke,
    )

    failed = []
    if locked["reads_inside_apply"] != 0:
        failed.append(f"{locked['reads_inside_apply']} locked reads ran "
                      f"inside an apply (the gate excludes nobody)")
    if snapshot["reads_inside_apply"] < 1:
        failed.append("no snapshot read completed inside an apply "
                      "(readers waited the writer out)")
    if required_speedup is not None:
        if throughput_speedup < required_speedup:
            failed.append(f"throughput speedup {throughput_speedup:.1f}x "
                          f"below required {required_speedup:.1f}x")
        if p99_speedup < required_speedup:
            failed.append(f"p99 improvement {p99_speedup:.1f}x "
                          f"below required {required_speedup:.1f}x")
    if failed:
        for reason in failed:
            print(f"FAIL: {reason}")
        return 1
    if required_speedup is None:
        print(f"OK: {snapshot['reads_inside_apply']} snapshot reads ran "
              f"wait-free inside a burst's apply, 0 locked reads did "
              f"(throughput {throughput_speedup:.1f}x, p99 "
              f"{p99_speedup:.1f}x, not gated in --smoke)")
        return 0
    print(f"OK: snapshot readers beat the locked baseline "
          f"{throughput_speedup:.1f}x on throughput and {p99_speedup:.1f}x "
          f"on p99 latency (required {required_speedup:.1f}x)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
