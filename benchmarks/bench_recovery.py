"""Acceptance gate: columnar (mmap) vs. pickle restart, vs. cold rebuild.

The durability question (ISSUE 6): a serving process dies and restarts —
how long until it serves its **first answer** again? ISSUE 8 sharpens
it: the restart cost of a *flat-heavy* cache should be O(metadata), not
O(answers). Three restart paths over the same ~10⁵-fact database
(~3×10⁶ answers for the hot query, plus two smaller cached queries),
each measured to the first ``count``:

* the **cold path** re-parses every relation's CSV text and rebuilds the
  hot query's index from scratch — O(|D|) parse + O(|D|) preprocessing,
  the paper's whole preprocessing phase paid again on every restart;
* the **pickle path** (``serve_format="pickle"``) recovers from a
  checkpoint whose serve-state is pickled — every interned value, id
  array, and prefix-sum slab is rebuilt as python objects before the
  first answer;
* the **blob path** (``serve_format="blob"``, the default) recovers from
  ``serve-flat/`` columnar blobs: int slabs arrive as read-only
  ``np.load(..., mmap_mode="r")`` views and value tables stay deferred,
  so seeding constructs **zero** per-row python objects (asserted here
  via ``flat_store.TABLE_MATERIALIZATIONS``) until a read gathers.

The gate asserts the blob restart beats the pickle restart ≥ 3× and the
cold rebuild ≥ 5×, verifies all paths agree on counts, versions, and a
sampled page of answers, and writes the per-backend split (a
tuple-backend pickle lane included, for reference) to
``BENCH_recovery.json``.

Usage
-----
``PYTHONPATH=src python benchmarks/bench_recovery.py``          (full, asserts 3×/5×)
``PYTHONPATH=src python benchmarks/bench_recovery.py --smoke``  (small, CI-fast,
asserts agreement and modest bars)

Not a pytest file on purpose: like ``bench_batch.py`` and
``bench_batch_update.py``, this is an acceptance gate that CI runs
directly (in ``--smoke`` mode).
"""

from __future__ import annotations

import argparse
import gc
import pathlib
import shutil
import sys
import tempfile
import time

from repro import Database, Delta, QueryService, Relation
from repro.cli import load_csv_database
from repro.core import flat_store
from repro.storage import write_relation_csv

QUERY_TEXT = "Q(a, b, c) :- R(a, b), S(b, c)"
#: The two smaller cached queries that make the serve-state flat-heavy.
SIDE_QUERIES = ("QS(b, c) :- S(b, c)", "QR(a, b) :- R(a, b)")
PAGE_AT = 1234
PAGE_SIZE = 50


def build_database(left_rows: int, keys: int, partners: int) -> Database:
    """R ⋈ S drives the served query (string-heavy S values, the shape
    where object reconstruction dominates a pickle restart); E is the
    event relation the post-checkpoint write tail lands in (disjoint
    from the queries — the common restart shape: the hot query's inputs
    are stable while an append-heavy relation takes the writes)."""
    return Database([
        Relation("R", ("a", "b"), [(i, i % keys) for i in range(left_rows)]),
        Relation(
            "S",
            ("b", "c"),
            [(j, f"partner-{j}-{k}")
             for j in range(keys) for k in range(partners)],
        ),
        Relation("E", ("id", "payload"), [(0, "boot")]),
    ])


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


def cold_restart(csv_dir: pathlib.Path, query: str):
    """Parse the CSVs, build the service, serve the first answer."""
    service = QueryService(load_csv_database(str(csv_dir)), store="flat")
    return service.cursor(query).count, service


def recovered_restart(store_dir: pathlib.Path, query: str, backend: str):
    """Checkpoint + WAL tail + seeded serve-state, then the first answer."""
    service = QueryService.recover(store_dir, store=backend)
    return service.cursor(query).count, service


def prepare_store(base: Database, store_dir: pathlib.Path, backend: str,
                  serve_format: str, tail_batches: int) -> int:
    """One pre-crash service lifetime: build the cache, checkpoint it in
    ``serve_format``, apply the write tail, crash. Returns the final
    durable version."""
    database = base.copy()
    service = QueryService(database, storage=store_dir, store=backend)
    service.cursor(QUERY_TEXT).count
    for query in SIDE_QUERIES:
        service.cursor(query).count
    service.checkpoint(serve_format=serve_format)
    for batch in range(tail_batches):
        delta = Delta(database=database)
        for i in range(5):
            delta.insert("E", (1 + batch * 5 + i, f"event-{batch}-{i}"))
        service.apply(delta)
    final_version = database.version
    database.log.close()  # the "crash": nothing further is written
    return final_version


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="small instance, modest bars (CI sanity run)")
    parser.add_argument("--tail-batches", type=int, default=20,
                        help="write batches applied after the checkpoint")
    parser.add_argument("--json", default="BENCH_recovery.json",
                        help="where to write the measured numbers")
    args = parser.parse_args(argv)

    if args.smoke:
        # Big enough that the pickle lane's object rebuild dominates its
        # fixed costs (the blob-vs-pickle crossover sits near 10⁴ facts:
        # below it, one serve.pkl read beats a dozen npy opens).
        left_rows, keys, partners = 25_000, 500, 40
        required_blob_speedup = 1.3
        required_cold_speedup = 2.0
        # Restarts are tens of ms at this size, so one scheduler stall
        # swamps the ratio; noise is one-sided, so best-of-N is the
        # honest estimator of each lane's floor.
        repeats = 3
    else:
        left_rows, keys, partners = 60_000, 1_000, 50
        required_blob_speedup = 3.0
        required_cold_speedup = 5.0
        repeats = 1

    workdir = pathlib.Path(tempfile.mkdtemp(prefix="bench_recovery_"))
    csv_dir = workdir / "csv"
    csv_dir.mkdir()
    lanes = [
        # (name, backend, serve_format) — flat-blob last, so its store
        # directory is written with the page cache warm like the others.
        ("tuple-pickle", "tuple", "pickle"),
        ("flat-pickle", "flat", "pickle"),
        ("flat-blob", "flat", "blob"),
    ]
    try:
        # ---- the life of each process before its crash --------------- #
        base = build_database(left_rows, keys, partners)
        n_facts = base.size()
        for relation in base:
            write_relation_csv(csv_dir, relation)
        probe = QueryService(base.copy(), store="flat")
        expected = probe.cursor(QUERY_TEXT).count
        expected_page = probe.cursor(QUERY_TEXT).page(PAGE_AT, page_size=PAGE_SIZE)
        del probe

        final_versions = {}
        for name, backend, serve_format in lanes:
            final_versions[name] = prepare_store(
                base, workdir / name, backend, serve_format,
                args.tail_batches,
            )
        tail_relation = base.copy()
        for batch in range(args.tail_batches):
            for i in range(5):
                tail_relation.insert("E", (1 + batch * 5 + i,
                                           f"event-{batch}-{i}"))
        write_relation_csv(csv_dir, tail_relation.relation("E"))

        print(f"|D| = {n_facts} facts (+{args.tail_batches * 5} tail), "
              f"|Q(D)| = {expected}, serve entries = {1 + len(SIDE_QUERIES)}")

        # ---- the restart paths --------------------------------------- #
        cold_seconds = None
        for __ in range(repeats):
            seconds, (cold_count, __service) = timed(
                lambda: cold_restart(csv_dir, QUERY_TEXT)
            )
            cold_seconds = seconds if cold_seconds is None \
                else min(cold_seconds, seconds)
            if cold_count != expected:
                print(f"FAIL: cold count {cold_count} != expected {expected}")
                return 1

        results = {}
        for name, backend, __ in lanes:
            store_dir = workdir / name
            best = None
            for attempt in range(repeats):
                before = flat_store.TABLE_MATERIALIZATIONS
                seconds, (count, service) = timed(
                    lambda: recovered_restart(store_dir, QUERY_TEXT, backend)
                )
                materialized = flat_store.TABLE_MATERIALIZATIONS - before
                best = seconds if best is None else min(best, seconds)
                if attempt < repeats - 1:
                    service.database.log.close()  # release for the next try
            seconds = best
            report = service.storage.last_report
            if count != expected:
                print(f"FAIL[{name}]: count {count} != expected {expected}")
                return 1
            if service.database.version != final_versions[name]:
                print(f"FAIL[{name}]: landed on version "
                      f"{service.database.version}, last durable was "
                      f"{final_versions[name]}")
                return 1
            if report.serve_entries_seeded != 1 + len(SIDE_QUERIES):
                print(f"FAIL[{name}]: {report.serve_entries_seeded} serve "
                      f"entries seeded, expected {1 + len(SIDE_QUERIES)}")
                return 1
            if report.replayed_batches != args.tail_batches:
                print(f"FAIL[{name}]: replayed {report.replayed_batches} "
                      f"batches, expected {args.tail_batches}")
                return 1
            if name == "flat-blob" and materialized != 0:
                print(f"FAIL[{name}]: restart-to-first-count materialized "
                      f"{materialized} value tables (must be 0 — recovery "
                      f"is supposed to be mmap-and-go)")
                return 1
            page = service.cursor(QUERY_TEXT).page(PAGE_AT, page_size=PAGE_SIZE)
            if page != expected_page:
                print(f"FAIL[{name}]: recovered page disagrees with the "
                      f"fresh build")
                return 1
            manifest = service.storage.last_manifest or {}
            serve_bytes = sum(
                entry["bytes"] for entry in manifest.get("entries", ())
            )
            results[name] = {
                "restart_seconds": round(seconds, 6),
                "serve_state_bytes": serve_bytes,
                "value_tables_materialized_before_first_count": materialized,
            }
            print(f"restart[{name:12s}]: {seconds:.3f}s "
                  f"(serve-state {serve_bytes / 1e6:.1f} MB, "
                  f"{materialized} tables materialized before first count)")

        blob_seconds = results["flat-blob"]["restart_seconds"]
        pickle_seconds = results["flat-pickle"]["restart_seconds"]
        blob_speedup = pickle_seconds / blob_seconds
        cold_speedup = cold_seconds / blob_seconds
        print(f"cold CSV rebuild: {cold_seconds:.3f}s")
        print(f"speedups        : blob vs pickle {blob_speedup:.1f}x "
              f"(required {required_blob_speedup:.1f}x), blob vs cold "
              f"{cold_speedup:.1f}x (required {required_cold_speedup:.1f}x)")

        from conftest import emit_bench

        emit_bench(
            "bench_recovery", blob_speedup, required_blob_speedup, args.json,
            params={
                "query": QUERY_TEXT,
                "side_queries": list(SIDE_QUERIES),
                "facts": n_facts,
                "answers": expected,
                "tail_batches": args.tail_batches,
                "tail_ops": args.tail_batches * 5,
                "cold_restart_seconds": round(cold_seconds, 6),
                "backends": results,
                "blob_vs_pickle_speedup": round(blob_speedup, 3),
                "blob_vs_cold_speedup": round(cold_speedup, 3),
                "required_cold_speedup": required_cold_speedup,
            },
            smoke=args.smoke,
        )

        if blob_speedup < required_blob_speedup:
            print(f"FAIL: blob restart only {blob_speedup:.1f}x over the "
                  f"pickle path (required {required_blob_speedup:.1f}x)")
            return 1
        if cold_speedup < required_cold_speedup:
            print(f"FAIL: blob restart only {cold_speedup:.1f}x over the "
                  f"cold rebuild (required {required_cold_speedup:.1f}x)")
            return 1
        print(f"OK: columnar recovery reaches the first served answer "
              f"{blob_speedup:.1f}x faster than the pickle path and "
              f"{cold_speedup:.1f}x faster than the cold rebuild")
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
