"""Throughput benchmark: batched vs. scalar random access.

Measures, at n ≈ 10⁵ answers, the wall-clock of

* the scalar loop ``[index.access(i) for i in positions]``,
* one ``index.batch(positions)`` call (same positions, random order),
* a sorted (pagination-shaped) batch,
* ``sample_many(k)`` vs. ``k`` sequential REnum draws,
* a cached-service page sweep vs. rebuilding the index per page,

verifies batch/scalar equivalence on every workload, and enforces the
acceptance bar — batch ≥ 5× scalar on the full-size random workload.

Usage
-----
``PYTHONPATH=src python benchmarks/bench_batch.py``          (full, asserts 5×)
``PYTHONPATH=src python benchmarks/bench_batch.py --smoke``  (small, CI-fast,
asserts equivalence and a modest ≥ 1.5× bar)

Not a pytest file on purpose: the figure benchmarks are pytest-benchmark
driven, but this one is an acceptance gate that CI runs directly.
"""

from __future__ import annotations

import argparse
import gc
import random
import sys
import time

from repro import CQIndex, Database, QueryService, Relation, parse_cq
from repro.core.permutation import RandomPermutationEnumerator


def build_instance(answers_per_key: int, keys: int, left_rows: int):
    """A two-atom chain with |answers| = left_rows × answers_per_key.

    ``R1(x0, x1)`` fans each of ``left_rows`` rows into one of ``keys``
    join keys; ``R2(x1, x2)`` gives every key ``answers_per_key``
    partners.
    """
    database = Database([
        Relation("R1", ("x0", "x1"), [(i, i % keys) for i in range(left_rows)]),
        Relation(
            "R2",
            ("x1", "x2"),
            [(j, k) for j in range(keys) for k in range(answers_per_key)],
        ),
    ])
    query = parse_cq("Q(x0, x1, x2) :- R1(x0, x1), R2(x1, x2)")
    return query, database


def timed(thunk):
    """Time one call with the cyclic GC paused.

    The workloads allocate 10⁵-element lists of tuples; letting a cycle
    collection land inside one arm of an A/B measurement skews it by tens
    of percent, so each arm runs GC-quiesced and collection happens
    between measurements.
    """
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        result = thunk()
        elapsed = time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()
    return elapsed, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="small instance, no 5x assertion (CI sanity run)")
    parser.add_argument("--seed", type=int, default=20200614)
    parser.add_argument("--json", default="BENCH_batch.json",
                        help="where to write the measured numbers")
    args = parser.parse_args(argv)

    if args.smoke:
        query, database = build_instance(answers_per_key=10, keys=10, left_rows=200)
        required_speedup = 1.5
    else:
        query, database = build_instance(answers_per_key=50, keys=50, left_rows=2000)
        required_speedup = 5.0

    rng = random.Random(args.seed)
    built, index = timed(lambda: CQIndex(query, database))
    n = index.count
    k = n
    positions = [rng.randrange(n) for __ in range(k)]
    print(f"answers n={n}, batch size k={k}, preprocessing {built:.3f}s")

    repeats = 1 if args.smoke else 3
    scalar_seconds = batch_seconds = float("inf")
    for __ in range(repeats):
        seconds, scalar = timed(lambda: [index.access(i) for i in positions])
        scalar_seconds = min(scalar_seconds, seconds)
        seconds, batched = timed(lambda: index.batch(positions))
        batch_seconds = min(batch_seconds, seconds)
        if batched != scalar:
            print("FAIL: batch(positions) != scalar loop")
            return 1
        del scalar, batched
    speedup = scalar_seconds / batch_seconds
    print(f"random batch   : scalar {scalar_seconds:.3f}s  "
          f"batch {batch_seconds:.3f}s  speedup {speedup:.1f}x")

    sorted_positions = sorted(positions)
    sorted_scalar_s, sorted_scalar = timed(
        lambda: [index.access(i) for i in sorted_positions])
    sorted_batch_s, sorted_batch = timed(lambda: index.batch(sorted_positions))
    if sorted_batch != sorted_scalar:
        print("FAIL: sorted batch != scalar loop")
        return 1
    del sorted_scalar, sorted_batch
    print(f"sorted batch   : scalar {sorted_scalar_s:.3f}s  "
          f"batch {sorted_batch_s:.3f}s  speedup {sorted_scalar_s / sorted_batch_s:.1f}x")

    draws = max(1, k // 2)
    sample_seconds, sampled = timed(
        lambda: index.sample_many(draws, random.Random(args.seed)))
    def sequential():
        enumerator = RandomPermutationEnumerator(index, rng=random.Random(args.seed))
        return [next(enumerator) for __ in range(draws)]
    sequential_seconds, sequential_draws = timed(sequential)
    if sampled != sequential_draws:
        print("FAIL: sample_many != sequential REnum draws")
        return 1
    del sampled, sequential_draws
    print(f"sample_many    : sequential {sequential_seconds:.3f}s  "
          f"batched {sample_seconds:.3f}s  "
          f"speedup {sequential_seconds / sample_seconds:.1f}x")

    page_size = 100
    pages = list(range(0, n // page_size, max(1, (n // page_size) // 50)))
    service = QueryService(database)
    rebuild_seconds, __ = timed(lambda: [
        CQIndex(query, database).batch(
            range(p * page_size, min((p + 1) * page_size, n)))
        for p in pages
    ])
    cached_seconds, __ = timed(lambda: [
        service.cursor(query).page(p, page_size=page_size) for p in pages
    ])
    print(f"{len(pages)} pages       : rebuild-per-page {rebuild_seconds:.3f}s  "
          f"cached service {cached_seconds:.3f}s  "
          f"speedup {rebuild_seconds / cached_seconds:.1f}x")

    from conftest import emit_bench

    emit_bench(
        "bench_batch", speedup, required_speedup, args.json,
        params={
            "query": "Q(x0, x1, x2) :- R1(x0, x1), R2(x1, x2)",
            "answers": n,
            "batch_size": k,
            "preprocessing_seconds": round(built, 6),
            "scalar_seconds": round(scalar_seconds, 6),
            "batch_seconds": round(batch_seconds, 6),
            "sorted_scalar_seconds": round(sorted_scalar_s, 6),
            "sorted_batch_seconds": round(sorted_batch_s, 6),
            "sample_sequential_seconds": round(sequential_seconds, 6),
            "sample_batched_seconds": round(sample_seconds, 6),
            "page_rebuild_seconds": round(rebuild_seconds, 6),
            "page_cached_seconds": round(cached_seconds, 6),
        },
        smoke=args.smoke,
    )

    if speedup < required_speedup:
        print(f"FAIL: random-batch speedup {speedup:.1f}x "
              f"below required {required_speedup:.1f}x")
        return 1
    print(f"OK: batch is {speedup:.1f}x scalar "
          f"(required {required_speedup:.1f}x)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
