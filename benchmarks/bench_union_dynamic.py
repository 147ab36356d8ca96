"""Acceptance gate: dynamic mc-UCQ serving vs. invalidate-and-rebuild.

The serving question behind the dynamic union path: a hot mc-UCQ is
cached, the database takes single-tuple writes, and every write is
followed by a re-query (count + first page — a live federated search page
under churn). Two services process the identical update stream:

* ``dynamic=True`` — the cached
  :class:`~repro.core.union_access.MCUCQIndex` (dynamic mode) absorbs each
  write in place: every member index takes an O(depth · log) delta, and
  presence transitions patch exactly the affected intersection forests;
* ``dynamic=False`` — each write invalidates the cached static union, so
  the next re-query pays a full O(|D|) rebuild of the whole 2^m index
  family (members *and* intersections).

The gate asserts the dynamic path is ≥ 5× faster at ~10⁵ facts (the
ISSUE 3 acceptance bar), verifies count agreement after every update and
position-for-position answer agreement at the end (order-maintained
buckets keep the canonical enumeration order under churn), and writes the
measured numbers to ``BENCH_union_dynamic.json``.

Usage
-----
``PYTHONPATH=src python benchmarks/bench_union_dynamic.py``          (full, asserts 5×)
``PYTHONPATH=src python benchmarks/bench_union_dynamic.py --smoke``  (small, CI-fast,
asserts equivalence and a modest ≥ 2× bar)

Not a pytest file on purpose: like ``bench_batch.py`` and
``bench_dynamic.py``, this is an acceptance gate that CI runs directly.
"""

from __future__ import annotations

import argparse
import gc
import random
import sys
import time

from repro import Database, QueryService, Relation, parse_ucq

QUERY_TEXT = (
    "Q(a, b, c) :- R(a, b), S(b, c) ; Q(a, b, c) :- R(a, b), T(b, c)"
)


def build_database(left_rows: int, keys: int, partners: int) -> Database:
    """Two chain members sharing R; S and T overlap on half their rows, so
    the S∩T intersection index is nonempty and genuinely maintained."""
    half = partners // 2
    return Database([
        Relation("R", ("a", "b"), [(i, i % keys) for i in range(left_rows)]),
        Relation(
            "S",
            ("b", "c"),
            [(j, k) for j in range(keys) for k in range(partners)],
        ),
        Relation(
            "T",
            ("b", "c"),
            [(j, k + half) for j in range(keys) for k in range(partners)],
        ),
    ])


def update_stream(n_updates: int, left_rows: int, keys: int, partners: int, seed: int):
    """A mixed stream: fresh-R insert/delete pairs (both members update)
    interleaved with S/T writes that flip intersection membership."""
    rng = random.Random(seed)
    stream = []
    fresh = left_rows
    extra_c = 10 * partners  # values no initial S/T row uses
    for step in range(n_updates):
        phase = step % 4
        if phase == 0:
            stream.append(("insert", "R", (fresh, rng.randrange(keys))))
            fresh += 1
        elif phase == 1:
            # Delete the row the previous step inserted: keeps |D| stable.
            stream.append(("delete", "R", stream[-1][2]))
        elif phase == 2:
            # A fresh S row; the matching T row arrives... never — this
            # exercises the member-only (non-intersection) transition.
            stream.append(("insert", "S", (rng.randrange(keys), extra_c + step)))
        else:
            # Delete an original T row that S also holds: an S∩T exit.
            stream.append(("delete", "T", (rng.randrange(keys), partners - 1)))
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
                        help="length of the update stream (default 16, smoke 8)")
    parser.add_argument("--seed", type=int, default=20200614)
    parser.add_argument("--json", default="BENCH_union_dynamic.json",
                        help="where to write the measured numbers")
    args = parser.parse_args(argv)

    if args.smoke:
        left_rows, keys, partners = 1_000, 50, 4
        required_speedup = 2.0
    else:
        left_rows, keys, partners = 80_000, 500, 20
        required_speedup = 5.0
    n_updates = args.updates if args.updates is not None else (8 if args.smoke else 16)

    query = parse_ucq(QUERY_TEXT)
    db_dynamic = build_database(left_rows, keys, partners)
    db_rebuild = build_database(left_rows, keys, partners)
    updates = update_stream(n_updates, left_rows, keys, partners, args.seed)

    dynamic_service = QueryService(db_dynamic, dynamic=True)
    rebuild_service = QueryService(db_rebuild, dynamic=False)
    # Warm both caches: the gate measures the mutate-then-requery loop on a
    # hot union, not the initial build.
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
    stats = dynamic_service.stats()
    if stats.in_place_updates != n_updates:
        print(f"FAIL: expected {n_updates} in-place updates, "
              f"service recorded {stats.in_place_updates}")
        return 1
    n = dynamic_service.cursor(query).count
    final_dynamic = dynamic_service.cursor(query).batch(range(n))
    final_rebuild = rebuild_service.cursor(query).batch(range(n))
    if final_dynamic != final_rebuild:
        print("FAIL: final enumerations differ between the two paths "
              "(order maintenance is broken, not just the answer set)")
        return 1
    del final_dynamic, final_rebuild

    speedup = rebuild_seconds / dynamic_seconds
    print(f"mutate+requery : rebuild {rebuild_seconds:.3f}s  "
          f"dynamic {dynamic_seconds:.3f}s  speedup {speedup:.1f}x")

    from conftest import emit_bench

    emit_bench(
        "bench_union_dynamic", speedup, required_speedup, args.json,
        params={
            "query": QUERY_TEXT,
            "facts": n_facts,
            "answers": n,
            "updates": n_updates,
            "warm_build_dynamic_seconds": round(warm_dynamic, 6),
            "warm_build_static_seconds": round(warm_rebuild, 6),
            "dynamic_seconds": round(dynamic_seconds, 6),
            "rebuild_seconds": round(rebuild_seconds, 6),
            "in_place_updates": stats.in_place_updates,
        },
        smoke=args.smoke,
    )

    if speedup < required_speedup:
        print(f"FAIL: mutate+requery speedup {speedup:.1f}x "
              f"below required {required_speedup:.1f}x")
        return 1
    print(f"OK: dynamic union path is {speedup:.1f}x invalidate-and-rebuild "
          f"(required {required_speedup:.1f}x)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
