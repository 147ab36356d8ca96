"""Acceptance gate: the dynamic mutation path vs. invalidate-and-rebuild.

The serving question behind ``QueryService``'s update-in-place mode: a hot
query is cached, the database takes single-tuple writes, and every write is
followed by a re-query (count + first page — a live search page under
churn). Two services process the identical update stream:

* ``dynamic=True`` — the cached :class:`~repro.core.dynamic.DynamicCQIndex`
  absorbs each write in O(depth · log) and is republished for the new
  database version;
* ``dynamic=False`` — each write invalidates the cached
  :class:`~repro.core.cq_index.CQIndex`, so the next re-query pays a full
  O(|D|) rebuild.

The gate asserts the dynamic path is ≥ 10× faster at ~10⁵ facts (the
ISSUE 2 acceptance bar), verifies count agreement after every update and
answer-set agreement at the end, and writes the measured numbers to
``BENCH_dynamic.json`` so the perf trajectory records write-path numbers.

Usage
-----
``PYTHONPATH=src python benchmarks/bench_dynamic.py``          (full, asserts 10×)
``PYTHONPATH=src python benchmarks/bench_dynamic.py --smoke``  (small, CI-fast,
asserts equivalence and a modest ≥ 2× bar)

Not a pytest file on purpose: like ``bench_batch.py``, this is an
acceptance gate that CI runs directly.
"""

from __future__ import annotations

import argparse
import gc
import random
import sys
import time

from repro import Database, QueryService, Relation, parse_cq

QUERY_TEXT = "Q(a, b, c) :- R(a, b), S(b, c)"


def build_database(left_rows: int, keys: int, partners: int) -> Database:
    """A two-atom chain: |D| ≈ left_rows + keys·partners facts,
    |answers| = left_rows × partners."""
    return Database([
        Relation("R", ("a", "b"), [(i, i % keys) for i in range(left_rows)]),
        Relation(
            "S",
            ("b", "c"),
            [(j, k) for j in range(keys) for k in range(partners)],
        ),
    ])


def update_stream(n_updates: int, left_rows: int, keys: int, seed: int):
    """Alternating inserts and deletes of fresh R facts (every one a real
    change, so both services do real work on every step)."""
    rng = random.Random(seed)
    stream = []
    fresh = left_rows
    for step in range(n_updates):
        if step % 2 == 0:
            row = (fresh, rng.randrange(keys))
            stream.append(("insert", "R", row))
            fresh += 1
        else:
            # Delete the row the previous step inserted: keeps |D| stable.
            stream.append(("delete", "R", stream[-1][2]))
    return stream


def timed(thunk):
    """Time one call with the cyclic GC paused (see bench_batch.timed)."""
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


def mutate_and_requery(service: QueryService, query, updates, counts, page_size=10):
    """Apply every update, re-serving count + first page after each."""
    for operation, relation, row in updates:
        if operation == "insert":
            service.insert(relation, row)
        else:
            service.delete(relation, row)
        count = service.cursor(query).count
        counts.append(count)
        if count:
            service.cursor(query).page(0, page_size=page_size)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="small instance, modest bar (CI sanity run)")
    parser.add_argument("--updates", type=int, default=None,
                        help="length of the update stream (default 40, smoke 12)")
    parser.add_argument("--seed", type=int, default=20200614)
    parser.add_argument("--json", default="BENCH_dynamic.json",
                        help="where to write the measured numbers")
    args = parser.parse_args(argv)

    if args.smoke:
        left_rows, keys, partners = 2_000, 100, 2
        required_speedup = 2.0
    else:
        left_rows, keys, partners = 100_000, 1_000, 2
        required_speedup = 10.0
    n_updates = args.updates if args.updates is not None else (12 if args.smoke else 40)

    query = parse_cq(QUERY_TEXT)
    db_dynamic = build_database(left_rows, keys, partners)
    db_rebuild = build_database(left_rows, keys, partners)
    updates = update_stream(n_updates, left_rows, keys, args.seed)

    dynamic_service = QueryService(db_dynamic, dynamic=True)
    rebuild_service = QueryService(db_rebuild, dynamic=False)
    # Warm both caches: the gate measures the mutate-then-requery loop on a
    # hot query, not the initial build.
    warm_dynamic, __ = timed(lambda: dynamic_service.cursor(query).count)
    warm_rebuild, __ = timed(lambda: rebuild_service.cursor(query).count)
    n_facts = db_dynamic.size()
    print(f"|D| = {n_facts} facts, |Q(D)| = {dynamic_service.cursor(query).count}, "
          f"{n_updates} updates")
    print(f"warm build     : dynamic {warm_dynamic:.3f}s  "
          f"static {warm_rebuild:.3f}s")

    dynamic_counts, rebuild_counts = [], []
    dynamic_seconds, __ = timed(
        lambda: mutate_and_requery(dynamic_service, query, updates, dynamic_counts))
    rebuild_seconds, __ = timed(
        lambda: mutate_and_requery(rebuild_service, query, updates, rebuild_counts))

    if dynamic_counts != rebuild_counts:
        print("FAIL: dynamic and rebuild paths disagree on counts")
        return 1
    in_place = dynamic_service.stats().in_place_updates
    if in_place != n_updates:
        print(f"FAIL: expected {n_updates} in-place updates, "
              f"service recorded {in_place}")
        return 1
    n = dynamic_service.cursor(query).count
    final_dynamic = sorted(dynamic_service.cursor(query).batch(range(n)))
    final_rebuild = sorted(rebuild_service.cursor(query).batch(range(n)))
    if final_dynamic != final_rebuild:
        print("FAIL: final answer sets differ between the two paths")
        return 1
    del final_dynamic, final_rebuild

    speedup = rebuild_seconds / dynamic_seconds
    print(f"mutate+requery : rebuild {rebuild_seconds:.3f}s  "
          f"dynamic {dynamic_seconds:.3f}s  speedup {speedup:.1f}x")

    from conftest import emit_bench

    emit_bench(
        "bench_dynamic", speedup, required_speedup, args.json,
        params={
            "query": QUERY_TEXT,
            "facts": n_facts,
            "answers": n,
            "updates": n_updates,
            "warm_build_dynamic_seconds": round(warm_dynamic, 6),
            "warm_build_static_seconds": round(warm_rebuild, 6),
            "dynamic_seconds": round(dynamic_seconds, 6),
            "rebuild_seconds": round(rebuild_seconds, 6),
        },
        smoke=args.smoke,
    )

    if speedup < required_speedup:
        print(f"FAIL: mutate+requery speedup {speedup:.1f}x "
              f"below required {required_speedup:.1f}x")
        return 1
    print(f"OK: dynamic path is {speedup:.1f}x invalidate-and-rebuild "
          f"(required {required_speedup:.1f}x)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
