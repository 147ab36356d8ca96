"""Acceptance gate: batched ``apply`` vs. the single-fact write loop.

The question behind the ``Delta`` API: a hot dynamic mc-UCQ is cached and
a write **burst** arrives — ~10⁴ mixed inserts and deletes over a ~10⁵
fact database. Two identical ``dynamic=True`` services absorb the same
burst:

* the **single-fact loop** calls ``service.insert`` / ``service.delete``
  once per fact — each call pays a copy-on-write relation rebuild, a full
  cache walk with one lock/republish per slot, a per-fact propagation pass
  through the member forests, and one union publication;
* the **batched path** calls ``service.apply(delta)`` once — one database
  version bump (one copy-on-write per touched relation), one cache walk,
  one lock/republish, bucket-grouped bulk inserts, one *deduplicated*
  propagation pass over the dirty bucket paths, and exactly one union
  publication.

The gate asserts the batched path is ≥ 5× faster (the ISSUE 4 acceptance
bar), verifies the two services agree on the final count and — order
maintenance being the point — position-for-position on a systematic
sample of the enumeration, and writes the measured numbers to
``BENCH_batch_update.json``.

Usage
-----
``PYTHONPATH=src python benchmarks/bench_batch_update.py``          (full, asserts 5×)
``PYTHONPATH=src python benchmarks/bench_batch_update.py --smoke``  (small, CI-fast,
asserts equivalence and a modest ≥ 2× bar)

Not a pytest file on purpose: like ``bench_batch.py`` and
``bench_union_dynamic.py``, this is an acceptance gate that CI runs
directly (in ``--smoke`` mode).
"""

from __future__ import annotations

import argparse
import gc
import random
import sys
import time

from repro import Database, Delta, QueryService, Relation, parse_ucq

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
    """A mixed burst touching every relation and every maintenance path:
    fresh-R inserts (both members gain answers), deletes of some of those
    same fresh rows (insert-then-delete pairs the Delta normalization
    collapses), fresh member-only S rows, and deletes of original T rows
    that S also holds (S∩T intersection exits)."""
    rng = random.Random(seed)
    half = partners // 2
    # Distinct original T rows to delete (c < partners hits S∩T — an
    # intersection exit; c ≥ partners is a member-only delete).
    t_rows = [(j, k + half) for j in range(keys) for k in range(partners)]
    rng.shuffle(t_rows)
    stream = []
    fresh = left_rows
    extra_c = 10 * partners  # values no initial S/T row uses
    for step in range(n_updates):
        phase = step % 8
        if phase in (0, 2, 4):
            stream.append(("insert", "R", (fresh, rng.randrange(keys))))
            fresh += 1
        elif phase == 6:
            # Delete the fresh row phase 4 just inserted: a genuine
            # insert+delete for the loop, a pair the Delta normalization
            # collapses to a no-op delete for the batch.
            stream.append(("delete", "R", stream[-2][2]))
        elif phase in (1, 5):
            # A fresh S row whose T partner never arrives — the
            # member-only (non-intersection) transition.
            stream.append(("insert", "S", (rng.randrange(keys), extra_c + step)))
        else:
            stream.append(("delete", "T", t_rows.pop()))
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


def single_fact_loop(service: QueryService, updates) -> None:
    for operation, relation, row in updates:
        if operation == "insert":
            service.insert(relation, row)
        else:
            service.delete(relation, row)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="small instance, modest bar (CI sanity run)")
    parser.add_argument("--updates", type=int, default=None,
                        help="size of the write burst (default 10000, smoke 200)")
    parser.add_argument("--seed", type=int, default=20200614)
    parser.add_argument("--json", default="BENCH_batch_update.json",
                        help="where to write the measured numbers")
    args = parser.parse_args(argv)

    if args.smoke:
        left_rows, keys, partners = 1_000, 50, 8
        required_speedup = 2.0
    else:
        left_rows, keys, partners = 20_000, 400, 100
        required_speedup = 5.0
    n_updates = args.updates if args.updates is not None else (200 if args.smoke else 10_000)

    query = parse_ucq(QUERY_TEXT)
    db_loop = build_database(left_rows, keys, partners)
    db_batch = build_database(left_rows, keys, partners)
    updates = update_stream(n_updates, left_rows, keys, partners, args.seed)

    loop_service = QueryService(db_loop, dynamic=True)
    batch_service = QueryService(db_batch, dynamic=True)
    # Warm both caches: the gate measures write absorption on a hot union,
    # not the initial build.
    warm_loop, __ = timed(lambda: loop_service.cursor(query).count)
    warm_batch, __ = timed(lambda: batch_service.cursor(query).count)
    n_facts = db_loop.size()
    print(f"|D| = {n_facts} facts, |Q(D)| = {loop_service.cursor(query).count}, "
          f"burst of {len(updates)} updates")
    print(f"warm build     : loop-side {warm_loop:.3f}s  "
          f"batch-side {warm_batch:.3f}s")

    delta = Delta(updates, database=db_batch)
    loop_seconds, __ = timed(lambda: single_fact_loop(loop_service, updates))
    batch_seconds, __ = timed(lambda: batch_service.apply(delta))

    loop_stats = loop_service.stats()
    batch_stats = batch_service.stats()
    if batch_stats.batched_updates != 1:
        print(f"FAIL: expected 1 batched update, service recorded "
              f"{batch_stats.batched_updates}")
        return 1
    if batch_stats.in_place_updates != 0 or loop_stats.batched_updates != 0:
        print("FAIL: services crossed paths (loop must be single-fact, "
              "batch must be one delta)")
        return 1
    if loop_stats.invalidations or batch_stats.invalidations:
        print("FAIL: a dynamic entry was invalidated instead of updated")
        return 1

    n_loop = loop_service.cursor(query).count
    n_batch = batch_service.cursor(query).count
    if n_loop != n_batch:
        print(f"FAIL: final counts disagree (loop {n_loop}, batch {n_batch})")
        return 1
    # Order-level agreement on a systematic sample (full enumeration of
    # millions of union answers would dominate the gate's runtime).
    stride = max(1, n_loop // 2_000)
    probe = list(range(0, n_loop, stride)) + [n_loop - 1]
    if loop_service.cursor(query).batch(probe) != batch_service.cursor(query).batch(probe):
        print("FAIL: enumerations disagree position-for-position "
              "(order maintenance broken, not just the answer set)")
        return 1

    speedup = loop_seconds / batch_seconds
    print(f"write burst    : single-fact loop {loop_seconds:.3f}s  "
          f"batched apply {batch_seconds:.3f}s  speedup {speedup:.1f}x")

    from conftest import emit_bench

    emit_bench(
        "bench_batch_update", speedup, required_speedup, args.json,
        params={
            "query": QUERY_TEXT,
            "facts": n_facts,
            "answers": n_loop,
            "delta_ops": len(delta),
            "updates": len(updates),
            "warm_build_loop_seconds": round(warm_loop, 6),
            "warm_build_batch_seconds": round(warm_batch, 6),
            "single_fact_seconds": round(loop_seconds, 6),
            "batched_seconds": round(batch_seconds, 6),
            "single_fact_in_place_updates": loop_stats.in_place_updates,
            "batched_update_ops": batch_stats.batched_update_ops,
        },
        smoke=args.smoke,
    )

    if speedup < required_speedup:
        print(f"FAIL: batched apply speedup {speedup:.1f}x "
              f"below required {required_speedup:.1f}x")
        return 1
    print(f"OK: batched apply is {speedup:.1f}x the single-fact loop "
          f"(required {required_speedup:.1f}x)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
