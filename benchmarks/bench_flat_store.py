"""Acceptance gate: the columnar flat store vs. the tuple store.

The tentpole question of the columnar data plane: at ~10⁵ facts and
~3×10⁶ answers, how much faster does the flat backend serve the
read-heavy workloads that dominate a warm index — one big unsorted
batch, a pagination sweep, and ``sample_many``? Both backends are built
over the identical database and the gate first verifies they agree
position for position on every workload before timing anything.

The flat wins come from the vectorized batch walk
(:func:`repro.core.flat_store.flat_batch`): one ``searchsorted`` plus
one gather per level for the *whole* offset array, instead of a python
treap/bisect descent per position.

The acceptance bar is a ≥ 5× single-thread speedup (minimum over the
three workloads, each the best of three repeats) on the full instance;
``--smoke`` runs a small instance against a modest 1.5× bar for CI.

Usage
-----
``PYTHONPATH=src python benchmarks/bench_flat_store.py``          (full, asserts 5×)
``PYTHONPATH=src python benchmarks/bench_flat_store.py --smoke``  (small, CI-fast)

Not a pytest file on purpose: like the other gates, CI runs it directly.
"""

from __future__ import annotations

import argparse
import random
import sys

from repro import CQIndex, parse_cq  # noqa: F401  (parse_cq via build_instance)

from bench_batch import build_instance, timed


def measure(make_thunks, repeats):
    """Best-of-``repeats`` seconds for each thunk in one aligned pass."""
    best = [float("inf")] * len(make_thunks)
    outputs = [None] * len(make_thunks)
    for __ in range(repeats):
        for position, thunk in enumerate(make_thunks):
            seconds, result = timed(thunk)
            best[position] = min(best[position], seconds)
            outputs[position] = result
    return best, outputs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="small instance, modest bar (CI sanity run)")
    parser.add_argument("--seed", type=int, default=20200614)
    parser.add_argument("--json", default="BENCH_flat_store.json",
                        help="where to write the measured numbers")
    args = parser.parse_args(argv)

    if args.smoke:
        # ~4·10³ facts, ~4·10⁴ answers.
        query, database = build_instance(
            answers_per_key=20, keys=100, left_rows=2_000)
        required_speedup = 1.5
        batch_size = 20_000
        repeats = 1
    else:
        # ~10⁵ facts, 3·10⁶ answers: left_rows × answers_per_key.
        query, database = build_instance(
            answers_per_key=50, keys=800, left_rows=60_000)
        required_speedup = 5.0
        batch_size = 200_000
        # Best-of-5: the timing floor, not the mean — the shared CI hosts
        # show ±30% contention spikes and both arms deserve their best run.
        repeats = 5

    built_tuple, tuple_index = timed(
        lambda: CQIndex(query, database, store="tuple"))
    built_flat, flat_index = timed(
        lambda: CQIndex(query, database, store="flat"))
    if flat_index.store != "flat":
        print("FAIL: flat build fell back to the tuple store")
        return 1
    n = tuple_index.count
    if flat_index.count != n:
        print("FAIL: backends disagree on the answer count")
        return 1
    print(f"|D| = {database.size()} facts, |Q(D)| = {n}")
    print(f"build          : tuple {built_tuple:.3f}s  flat {built_flat:.3f}s")

    rng = random.Random(args.seed)
    positions = [rng.randrange(n) for __ in range(batch_size)]
    page_size = 1_000
    page_starts = range(0, n, max(page_size, n // 500 // page_size * page_size
                                  or page_size))
    pages = [range(s, min(s + page_size, n)) for s in page_starts]

    workloads = []  # (label, tuple_thunk, flat_thunk)
    workloads.append((
        "random batch",
        lambda: tuple_index.batch(positions),
        lambda: flat_index.batch(positions),
    ))
    workloads.append((
        f"{len(pages)} pages",
        lambda: [tuple_index.batch(page) for page in pages],
        lambda: [flat_index.batch(page) for page in pages],
    ))
    workloads.append((
        "sample_many",
        lambda: tuple_index.sample_many(batch_size, random.Random(args.seed)),
        lambda: flat_index.sample_many(batch_size, random.Random(args.seed)),
    ))

    speedups = {}
    timings = {}
    for label, tuple_thunk, flat_thunk in workloads:
        (tuple_s, flat_s), (want, got) = measure(
            [tuple_thunk, flat_thunk], repeats)
        if got != want:
            print(f"FAIL: backends disagree on the {label} workload")
            return 1
        del want, got
        ratio = tuple_s / flat_s
        key = label.split()[-1] if label.endswith("pages") else label.replace(" ", "_")
        speedups[label] = ratio
        timings[key] = {"tuple_seconds": round(tuple_s, 6),
                        "flat_seconds": round(flat_s, 6),
                        "speedup": round(ratio, 2)}
        print(f"{label:<15}: tuple {tuple_s:.3f}s  flat {flat_s:.3f}s  "
              f"speedup {ratio:.1f}x")

    floor = min(speedups.values())

    from conftest import emit_bench

    emit_bench(
        "bench_flat_store", floor, required_speedup, args.json,
        params={
            "query": "Q(x0, x1, x2) :- R1(x0, x1), R2(x1, x2)",
            "facts": database.size(),
            "answers": n,
            "batch_size": batch_size,
            "page_size": page_size,
            "pages": len(pages),
            "build_tuple_seconds": round(built_tuple, 6),
            "build_flat_seconds": round(built_flat, 6),
            "workloads": timings,
        },
        smoke=args.smoke,
    )

    if floor < required_speedup:
        print(f"FAIL: flat-store floor speedup {floor:.1f}x "
              f"below required {required_speedup:.1f}x")
        return 1
    print(f"OK: flat store is ≥ {floor:.1f}x the tuple store on every "
          f"workload (required {required_speedup:.1f}x)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
