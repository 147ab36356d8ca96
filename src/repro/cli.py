"""The command-line interface: ``python -m repro <command>``.

Commands
--------
``classify``
    Structural analysis of a CQ: acyclicity, free-connexity, join tree.
``count`` / ``access`` / ``shuffle``
    Build the index for a query over a CSV-loaded database and count the
    answers, fetch specific positions, or stream a random permutation.
``page`` / ``sample``
    Serve one page of the enumeration order, or ``k`` uniform draws
    without replacement — both through a single batched access. Both
    accept ``--insert``/``--delete`` mutations (``REL:v1,v2,…``) applied
    through the service *after* the index is warm, and ``--dynamic`` to
    serve via an update-in-place index (a
    :class:`~repro.core.dynamic.DynamicCQIndex`, or a dynamic
    :class:`~repro.core.union_access.MCUCQIndex` for UCQ rules) so the
    mutations patch the index instead of forcing a rebuild.
``stats``
    Serve a query once (with optional warm-index mutations, like ``page``)
    and print the service's effectiveness counters: cache hits/misses,
    promotions, in-place updates vs. rebuild invalidations, compactions.
``insert`` / ``delete``
    Mutate the CSV database itself: apply one fact insert/delete through a
    service and write the relation's ``.csv`` back.
``apply``
    Mutate the CSV database with a whole JSONL **delta file** — one
    ``{"op": "insert"|"delete", "relation": "R", "row": [...]}`` object
    per line — applied as a single batch (one
    :class:`~repro.database.delta.Delta`, one version bump); reports
    per-relation applied/no-op counts and writes the touched ``.csv``
    files back. With ``--wal DIR`` the batch is also made durable in a
    :class:`~repro.storage.DurableStore` at ``DIR`` (created and seeded
    from the CSVs on first use; thereafter ``DIR`` is the source of
    truth and the CSVs are refreshed as an export).
``recover`` / ``checkpoint``
    Operate on a durable store directory: ``recover`` rebuilds the
    database from the newest checkpoint plus the write-ahead log's
    durable tail and prints the recovery report (``--csv OUT`` exports
    the recovered relations); ``checkpoint`` recovers and then writes a
    fresh checkpoint, pruning old ones and trimming the log.
``tpch``
    Generate the synthetic TPC-H instance and print table cardinalities.
``figures``
    Regenerate one of the paper's figures (prints the text rendering).

Databases are directories of CSV files: each ``<name>.csv`` becomes the
relation ``<name>``, the first line naming its columns. Cells use the
canonical scalar encoding of :mod:`repro.storage.values` — shared with
the write-ahead log and checkpoints — so a persisted value always reads
back equal to the in-memory value. Relation files are written via
write-temp-then-rename, never truncated in place.

All query-serving commands go through a
:class:`~repro.service.QueryService` **cursor**, so a command that touches
the same query several times (e.g. ``access`` with many positions)
resolves the query and builds the index exactly once and serves the
positions from one batch.
"""

from __future__ import annotations

import argparse
import csv
import pathlib
import random
import sys
from typing import List, Optional

from repro import Database, Delta, DeltaError, QueryService, Relation, parse_cq
from repro.apps.pagination import Paginator
from repro.database.delta import DeltaLineError, delta_from_jsonl
from repro.query.render import describe_query
from repro.storage import DurableStore, StorageError, decode_cell, write_relation_csv


def load_csv_database(directory: str) -> Database:
    """Load every ``*.csv`` in a directory as a relation."""
    path = pathlib.Path(directory)
    if not path.is_dir():
        raise SystemExit(f"not a directory: {directory}")
    database = Database()
    for file in sorted(path.glob("*.csv")):
        with open(file, newline="") as handle:
            reader = csv.reader(handle)
            try:
                columns = next(reader)
            except StopIteration:
                raise SystemExit(f"{file} is empty (needs a header row)")
            rows = [tuple(decode_cell(v) for v in row) for row in reader]
        database.add(Relation(file.stem, [c.strip() for c in columns], rows))
    if not database.names():
        raise SystemExit(f"no .csv files found in {directory}")
    return database


def _parse_value(text: str):
    """Command-line value parsing: the canonical cell decoding, after
    stripping the padding users type around ``,`` separators."""
    return decode_cell(text.strip())


def _count_at_least(minimum: int):
    """An argparse ``type`` for an int count of at least ``minimum``; a
    smaller value is a usage error naming the argument."""

    def parse(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"must be at least {minimum}, got {value}"
            )
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def _format_answer(answer: tuple) -> str:
    return ", ".join(str(v) for v in answer)


def _parse_fact(spec: str):
    """``"R:1,10"`` → ``("R", (1, 10))`` — the --insert/--delete format."""
    relation, sep, values = spec.partition(":")
    if not sep or not relation or not values:
        raise SystemExit(f"bad fact {spec!r}: expected RELATION:v1,v2,...")
    return relation, tuple(_parse_value(v) for v in values.split(","))


def _write_relation_csv(directory: str, relation) -> pathlib.Path:
    """Persist one relation atomically (write temp + rename): a crash
    mid-write leaves the previous file intact, never a truncated one."""
    return write_relation_csv(directory, relation)


def command_classify(args) -> int:
    print(describe_query(parse_cq(args.query)))
    return 0


def _build_service(args) -> QueryService:
    dynamic = True if getattr(args, "dynamic", False) else None
    return QueryService(
        load_csv_database(args.database),
        dynamic=dynamic,
        store=getattr(args, "store", None),
    )


def _apply_mutations(service: QueryService, args) -> None:
    """Apply --insert/--delete facts with the query's index already warm.

    Warming first is what exercises the update-in-place path: under
    ``--dynamic`` the cached index absorbs each fact in O(depth · log)
    instead of being invalidated, and the subsequent serving reads the
    patched structure.
    """
    inserts = [_parse_fact(spec) for spec in (getattr(args, "insert", None) or ())]
    deletes = [_parse_fact(spec) for spec in (getattr(args, "delete", None) or ())]
    if not inserts and not deletes:
        return
    service.cursor(args.query).count  # warm the index before the write burst
    for relation, row in inserts:
        service.insert(relation, row)
    for relation, row in deletes:
        service.delete(relation, row)
    stats = service.stats()
    absorbed = stats.in_place_updates + stats.batched_updates + stats.carried_forward
    print(
        f"applied {len(inserts)} insert(s), {len(deletes)} delete(s) "
        f"({absorbed} absorbed in place, {stats.invalidations} invalidations)"
    )


def command_count(args) -> int:
    print(_build_service(args).cursor(args.query).count)
    return 0


def command_access(args) -> int:
    cursor = _build_service(args).cursor(args.query)
    count = cursor.count
    in_bounds = [p for p in args.positions if 0 <= p < count]
    answers = dict(zip(in_bounds, cursor.batch(in_bounds)))
    for position in args.positions:
        if position in answers:
            print(f"{position}\t{_format_answer(answers[position])}")
        else:
            print(f"{position}\tout-of-bound (count is {count})")
    return 0


def command_shuffle(args) -> int:
    cursor = _build_service(args).cursor(args.query)
    rng = random.Random(args.seed) if args.seed is not None else random.Random()
    limit = args.limit if args.limit is not None else cursor.count
    for emitted, answer in enumerate(cursor.random_order(rng)):
        if emitted >= limit:
            break
        print(_format_answer(answer))
    return 0


def command_page(args) -> int:
    service = _build_service(args)
    _apply_mutations(service, args)
    paginator = Paginator(service.cursor(args.query), page_size=args.page_size)
    try:
        answers = paginator.page(args.number)
    except IndexError:
        print(
            f"page {args.number} out-of-bound "
            f"(result has {paginator.total_pages} pages)"
        )
        return 1
    print(f"page {args.number} of {paginator.total_pages} "
          f"({paginator.total_answers} answers)")
    for answer in answers:
        print(_format_answer(answer))
    return 0


def command_sample(args) -> int:
    service = _build_service(args)
    _apply_mutations(service, args)
    rng = random.Random(args.seed) if args.seed is not None else random.Random()
    for answer in service.cursor(args.query).sample(args.k, rng):
        print(_format_answer(answer))
    return 0


def command_stats(args) -> int:
    """Serve a query, optionally mutate, and print the serving counters."""
    service = _build_service(args)
    service.cursor(args.query).count  # warm build
    _apply_mutations(service, args)
    print(f"answers: {service.cursor(args.query).count}")
    # The same canonical serialization GET /stats returns over HTTP.
    for name, value in service.stats().to_dict().items():
        print(f"{name}: {value}")
    return 0


def command_mutate(args) -> int:
    """Apply one insert/delete to the CSV database and persist it."""
    database = load_csv_database(args.database)
    service = QueryService(database)
    row = tuple(_parse_value(v) for v in args.values)
    if args.command == "insert":
        changed = service.insert(args.relation, row)
        outcome = "inserted" if changed else "already present (no-op)"
    else:
        changed = service.delete(args.relation, row)
        outcome = "deleted" if changed else "absent (no-op)"
    if changed:
        path = _write_relation_csv(args.database, database.relation(args.relation))
        print(f"{outcome}: {args.relation}({_format_answer(row)}) -> {path}")
    else:
        print(f"{outcome}: {args.relation}({_format_answer(row)})")
    return 0


def _load_delta_jsonl(path: pathlib.Path, database: Database) -> Delta:
    """Parse a JSONL delta file into a database-bound (validated) Delta.

    The parsing itself lives in
    :func:`repro.database.delta.delta_from_jsonl` — the same wire format
    the HTTP ``POST /ingest`` endpoint speaks — framed here as
    ``file:line: reason`` exits.
    """
    if not path.is_file():
        raise SystemExit(f"not a delta file: {path}")
    try:
        return delta_from_jsonl(path.read_text().splitlines(), database=database)
    except DeltaLineError as error:
        raise SystemExit(f"{path}:{error.line}: {error.reason}")


def command_apply(args) -> int:
    """Apply a JSONL delta as one batch and persist the touched CSVs.

    With ``--wal DIR`` the batch goes through a durable store: on first
    use the CSV database seeds a base checkpoint in ``DIR``; on every
    later run the database is *recovered from* ``DIR`` (the durable
    state, not the CSVs, is the source of truth) and the batch is
    appended to the write-ahead log before it becomes observable. The
    CSV files are still rewritten — as an export of the durable state.
    """
    store = DurableStore(args.wal) if getattr(args, "wal", None) else None
    if store is not None and store.exists():
        try:
            database, report = store.recover()
        except StorageError as error:
            raise SystemExit(f"cannot recover {args.wal}: {error}")
        print(
            f"recovered {args.wal} at version {report.final_version} "
            f"(checkpoint {report.checkpoint_version} "
            f"+ {report.replayed_batches} replayed batch(es))"
        )
        service = QueryService(database, storage=store)
    else:
        database = load_csv_database(args.database)
        service = QueryService(database, storage=store)
    delta = _load_delta_jsonl(pathlib.Path(args.delta), database)
    result = service.apply(delta)
    for name in sorted(result.by_relation):
        counts = result.by_relation[name]
        applied = counts["inserted"] + counts["deleted"]
        noops = counts["noop_inserts"] + counts["noop_deletes"]
        print(
            f"{name}: {applied} applied "
            f"(+{counts['inserted']} -{counts['deleted']}), {noops} no-op"
        )
        if applied:
            _write_relation_csv(args.database, database.relation(name))
    print(
        f"applied {len(delta)} op(s) in one batch: {result.inserted} "
        f"inserted, {result.deleted} deleted, {result.noops} no-op"
    )
    return 0


def _open_store(directory: str) -> DurableStore:
    store = DurableStore(directory)
    if not store.exists():
        raise SystemExit(f"no durable state in {directory} (no checkpoint, no log)")
    return store


def _print_report(report) -> None:
    print(f"instance: {report.instance_id}")
    print(f"checkpoint version: {report.checkpoint_version}")
    print(
        f"replayed: {report.replayed_batches} batch(es), "
        f"{report.replayed_ops} op(s)"
    )
    if report.discarded_wal_records:
        print(f"discarded torn log records: {report.discarded_wal_records}")
    print(f"recovered version: {report.final_version}")


def _print_serve_report(manifest) -> None:
    """Per-entry serve-state breakdown of one checkpoint manifest."""
    if not manifest:
        return
    entries = manifest.get("entries")
    if entries is None:
        # A pre-blob checkpoint: only the entry count was recorded.
        if manifest.get("serve_entries"):
            print(f"serve entries: {manifest['serve_entries']}")
        return
    if entries:
        blobs = [e for e in entries if e["kind"] == "flat-blob"]
        pickles = [e for e in entries if e["kind"] != "flat-blob"]
        print(
            f"serve entries: {len(entries)} "
            f"({len(blobs)} columnar blob(s), "
            f"{sum(e['bytes'] for e in blobs)} bytes; "
            f"{len(pickles)} pickled, "
            f"{sum(e['bytes'] for e in pickles)} bytes)"
        )
        for entry in entries:
            print(
                f"  {entry['label']}\t{entry['kind']}\t"
                f"{entry['bytes']} bytes\t{entry['location']}"
            )
    skipped = manifest.get("skipped_entries", 0)
    if skipped:
        print(f"serve entries skipped (unserializable): {skipped}")


def command_recover(args) -> int:
    """Rebuild the database from a durable store and report what it took."""
    store = _open_store(args.store)
    try:
        database, report = store.recover()
    except StorageError as error:
        raise SystemExit(f"cannot recover {args.store}: {error}")
    _print_report(report)
    _print_serve_report(store.last_manifest)
    for relation in database:
        print(f"{relation.name}\t{len(relation)}")
    if args.csv:
        out = pathlib.Path(args.csv)
        out.mkdir(parents=True, exist_ok=True)
        for relation in database:
            path = write_relation_csv(out, relation)
            print(f"exported {path}")
    return 0


def command_checkpoint(args) -> int:
    """Recover a durable store — serve-state included — then fold its log
    tail into a fresh checkpoint (pruning old checkpoints, trimming the
    log). Cached indexes carried by the old checkpoint are re-persisted,
    flat-backed entries as columnar ``serve-flat/`` blobs."""
    from repro.service.query_service import QueryService

    _open_store(args.store)
    try:
        service = QueryService.recover(args.store)
        path = service.checkpoint(keep=args.keep)
    except StorageError as error:
        raise SystemExit(f"cannot checkpoint {args.store}: {error}")
    store = service.storage
    _print_report(store.last_report)
    _print_serve_report(store.last_manifest)
    print(f"checkpoint written: {path}")
    return 0


def _build_serve_app(args):
    """The ASGI app ``repro serve`` hosts (factored out for tests).

    Source resolution mirrors ``apply --wal``: an existing ``--storage``
    store is the source of truth (recovered — checkpoint, serve-state,
    WAL tail — and served at the last durable version; the CSV
    directory, if also given, is ignored); otherwise the CSV database is
    loaded, and a fresh ``--storage`` directory is seeded from it so
    every subsequent ingest is WAL-durable.
    """
    from repro.server import create_app

    dynamic = True if getattr(args, "dynamic", False) else None
    config = dict(
        store=args.store,
        dynamic=dynamic,
        session_capacity=args.session_capacity,
        session_ttl=args.session_ttl,
        read_budget=args.read_budget,
        client_rate=getattr(args, "client_rate", None),
        client_burst=getattr(args, "client_burst", None),
    )
    if args.storage and DurableStore(args.storage).exists():
        app = create_app(args.storage, **config)
        report = app.service.storage.last_report
        print(
            f"recovered {args.storage} at version {report.final_version} "
            f"(checkpoint {report.checkpoint_version} "
            f"+ {report.replayed_batches} replayed batch(es), "
            f"{report.serve_entries_seeded} serve entr(ies) seeded)"
        )
        return app
    if not args.database:
        raise SystemExit(
            "serve needs a CSV database directory, or --storage pointing "
            "at an existing durable store"
        )
    database = load_csv_database(args.database)
    app = create_app(database, storage=args.storage, **config)
    if args.storage:
        print(f"seeded durable store {args.storage} from {args.database}")
    return app


def command_serve(args) -> int:
    """Serve the database over HTTP (uvicorn when available, else the
    dependency-free stdlib bridge)."""
    app = _build_serve_app(args)
    database = app.service.database
    print(
        f"serving {len(database.names())} relation(s), "
        f"{database.size()} fact(s) at version {database.version} "
        f"on http://{args.host}:{args.port}"
    )
    try:
        import uvicorn
    except ImportError:
        uvicorn = None
    if uvicorn is not None and not args.stdlib:
        # --workers passes through; uvicorn itself requires an import
        # string (see examples/gunicorn.conf.py) for true multi-process
        # serving and will say so for workers > 1.
        uvicorn.run(app, host=args.host, port=args.port, workers=args.workers)
        return 0
    if args.workers > 1:
        print(
            "note: --workers > 1 needs an ASGI process manager "
            "(pip install 'repro[server]', see examples/gunicorn.conf.py); "
            "the stdlib bridge serves one process with a thread per "
            "connection"
        )
    from repro.server import serve as serve_stdlib

    try:
        # serve() drains gracefully on the first interrupt: no new
        # requests are admitted, in-flight responses get up to
        # --drain-timeout seconds to finish.
        serve_stdlib(
            app, host=args.host, port=args.port,
            drain_timeout=args.drain_timeout,
        )
    except KeyboardInterrupt:  # pragma: no cover - interrupted mid-drain
        pass
    return 0


def command_tpch(args) -> int:
    from repro.tpch import TPCHConfig, attach_derived_relations, generate

    database = attach_derived_relations(
        generate(TPCHConfig(scale_factor=args.scale_factor, seed=args.seed))
    )
    for relation in database:
        print(f"{relation.name}\t{len(relation)}")
    return 0


def command_figures(args) -> int:
    from repro.experiments import figures as figure_drivers

    drivers = {
        "1": figure_drivers.figure1,
        "2": lambda c: figure_drivers.figure2_3(1.0, c, figure_name="Figure 2"),
        "3": lambda c: figure_drivers.figure2_3(0.5, c, figure_name="Figure 3"),
        "4a": figure_drivers.figure4a,
        "4b": figure_drivers.figure4b,
        "5": figure_drivers.figure5,
        "6": figure_drivers.figure6,
        "7": figure_drivers.figure7_tables,
        "8": figure_drivers.figure8,
        "rs": figure_drivers.rs_note,
    }
    config = figure_drivers.ExperimentConfig(scale_factor=args.scale_factor)
    print(drivers[args.figure](config).render())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Random access and random-order enumeration for (U)CQs "
        "(Carmeli et al., PODS 2020).",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    classify = commands.add_parser("classify", help="structural analysis of a CQ")
    classify.add_argument("query", help="datalog rule, e.g. 'Q(x) :- R(x, y)'")
    classify.set_defaults(run=command_classify)

    for name, help_text, runner in (
        ("count", "count the answers of a free-connex CQ", command_count),
        ("access", "random-access specific answer positions", command_access),
        ("shuffle", "stream answers in uniformly random order", command_shuffle),
        ("page", "serve one page of the enumeration order", command_page),
        ("sample", "draw k uniform answers without replacement", command_sample),
        ("stats", "serve a query and print the serving counters", command_stats),
    ):
        sub = commands.add_parser(name, help=help_text)
        sub.add_argument("query", help="datalog rule over the CSV relations")
        sub.add_argument("database", help="directory of <relation>.csv files")
        sub.add_argument("--store", choices=("tuple", "flat"), default=None,
                         help="bucket backend (default: REPRO_STORE or tuple)")
        if name == "access":
            sub.add_argument("positions", nargs="+", type=int,
                             help="0-based answer positions")
        if name == "shuffle":
            sub.add_argument("--seed", type=int, default=None)
            sub.add_argument("--limit", type=_count_at_least(0), default=None,
                             help="stop after this many answers")
        if name == "page":
            sub.add_argument("number", type=int, help="0-based page number")
            sub.add_argument("--page-size", type=_count_at_least(1), default=10)
        if name == "sample":
            sub.add_argument("k", type=_count_at_least(0),
                             help="number of draws")
            sub.add_argument("--seed", type=int, default=None)
        if name in ("page", "sample", "stats"):
            sub.add_argument("--insert", action="append", metavar="REL:v1,v2",
                             help="insert a fact before serving (repeatable)")
            sub.add_argument("--delete", action="append", metavar="REL:v1,v2",
                             help="delete a fact before serving (repeatable)")
            sub.add_argument("--dynamic", action="store_true",
                             help="serve via an update-in-place dynamic index")
        sub.set_defaults(run=runner)

    for name, help_text in (
        ("insert", "insert one fact into a CSV relation and persist it"),
        ("delete", "delete one fact from a CSV relation and persist it"),
    ):
        sub = commands.add_parser(name, help=help_text)
        sub.add_argument("database", help="directory of <relation>.csv files")
        sub.add_argument("relation", help="relation (CSV file stem) to mutate")
        sub.add_argument("values", nargs="+", help="the fact's values, in order")
        sub.set_defaults(run=command_mutate)

    apply_cmd = commands.add_parser(
        "apply", help="apply a JSONL delta file as one batch and persist it"
    )
    apply_cmd.add_argument("database", help="directory of <relation>.csv files")
    apply_cmd.add_argument(
        "delta",
        help='JSONL file: one {"op", "relation", "row"} object per line',
    )
    apply_cmd.add_argument(
        "--wal", metavar="DIR", default=None,
        help="durable store directory: WAL-log the batch (seeded from the "
        "CSVs on first use, recovered from DIR thereafter)",
    )
    apply_cmd.set_defaults(run=command_apply)

    recover_cmd = commands.add_parser(
        "recover", help="rebuild a database from its durable store"
    )
    recover_cmd.add_argument("store", help="durable store directory (see apply --wal)")
    recover_cmd.add_argument(
        "--csv", metavar="DIR", default=None,
        help="also export the recovered relations as <DIR>/<name>.csv",
    )
    recover_cmd.set_defaults(run=command_recover)

    checkpoint_cmd = commands.add_parser(
        "checkpoint", help="fold a durable store's log tail into a fresh checkpoint"
    )
    checkpoint_cmd.add_argument("store", help="durable store directory")
    checkpoint_cmd.add_argument(
        "--keep", type=int, default=2,
        help="checkpoints to retain after pruning (default 2)",
    )
    checkpoint_cmd.set_defaults(run=command_checkpoint)

    serve_cmd = commands.add_parser(
        "serve", help="serve the database over HTTP (see repro.server)"
    )
    serve_cmd.add_argument(
        "database", nargs="?", default=None,
        help="directory of <relation>.csv files (optional when --storage "
        "names an existing durable store)",
    )
    serve_cmd.add_argument("--host", default="127.0.0.1")
    serve_cmd.add_argument("--port", type=int, default=8000)
    serve_cmd.add_argument(
        "--store", choices=("tuple", "flat"), default=None,
        help="bucket backend (default: REPRO_STORE or tuple)",
    )
    serve_cmd.add_argument(
        "--storage", metavar="DIR", default=None,
        help="durable store directory: recover and serve from DIR if it "
        "exists, else seed it from the CSVs; ingests are WAL-logged",
    )
    serve_cmd.add_argument(
        "--workers", type=int, default=1,
        help="worker processes (uvicorn passthrough; the stdlib bridge "
        "is single-process)",
    )
    serve_cmd.add_argument(
        "--dynamic", action="store_true",
        help="serve via update-in-place dynamic indexes",
    )
    serve_cmd.add_argument(
        "--session-capacity", type=int, default=256,
        help="max concurrent cursor sessions before LRU eviction (default 256)",
    )
    serve_cmd.add_argument(
        "--session-ttl", type=float, default=300.0,
        help="idle seconds before a cursor session expires (default 300)",
    )
    serve_cmd.add_argument(
        "--read-budget", type=int, default=None,
        help="max answers served per session before HTTP 429 (default: unlimited)",
    )
    serve_cmd.add_argument(
        "--client-rate", type=float, default=None,
        help="per-client admitted requests/second (token bucket keyed by "
             "X-Client-Id, falling back to the peer address; excess gets "
             "429 + Retry-After; default: unlimited)",
    )
    serve_cmd.add_argument(
        "--client-burst", type=int, default=None,
        help="per-client burst size of the admission bucket "
             "(default: 2 x --client-rate)",
    )
    serve_cmd.add_argument(
        "--drain-timeout", type=float, default=10.0,
        help="seconds to wait for in-flight requests on shutdown before "
             "closing the listener (stdlib bridge; default 10)",
    )
    serve_cmd.add_argument(
        "--stdlib", action="store_true",
        help="force the stdlib HTTP bridge even if uvicorn is installed",
    )
    serve_cmd.set_defaults(run=command_serve)

    tpch = commands.add_parser("tpch", help="generate TPC-H and print sizes")
    tpch.add_argument("--scale-factor", type=float, default=0.01)
    tpch.add_argument("--seed", type=int, default=20200614)
    tpch.set_defaults(run=command_tpch)

    figures = commands.add_parser("figures", help="regenerate a paper figure")
    figures.add_argument("figure",
                         choices=["1", "2", "3", "4a", "4b", "5", "6", "7", "8", "rs"])
    figures.add_argument("--scale-factor", type=float, default=0.002)
    figures.set_defaults(run=command_figures)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.run(args)


if __name__ == "__main__":
    sys.exit(main())
