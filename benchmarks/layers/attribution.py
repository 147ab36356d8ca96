"""From observations to metrics.

:func:`end_to_end` turns one untraced window into the end-to-end metrics;
:func:`per_layer` joins a traced window's client records with the server's
spans (by request id) and charges every millisecond of a request to exactly
one layer: the client-observed latency minus the ``ReproApp.__call__`` span
is the HTTP bridge's, and inside that span each layer gets its spans' self
time.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Sequence

import metrics
from metrics import Span, Window, median, percentile

#: span name → the per-request read-stack row it feeds (self time, ms).
READ_LAYERS = {
    "app.call": "server.app.encode_ms",
    "app.dispatch": "server.app.dispatch_ms",
    "sessions": "server.sessions.self_ms",
    "service.resolve": "service.resolve_ms",
    "engine.walk": "core.engine.walk_ms",
    "flat_store.batch": "core.flat_store.batch_ms",
    "shuffle.sample": "core.shuffle.sample_ms",
}


def _ms(seconds: float) -> float:
    return seconds * 1e3


def end_to_end(window: Window, setup_s: float, facts: Dict[str, float]) -> Dict[str, float]:
    """Every ``metrics.BOUNDED`` metric one untraced window defines.

    The ``op``/``rows`` triple is the read side where the workload reads
    and the write side where it only writes; writes beside reads are the
    ``write_*`` rows. A metric the traffic does not define is omitted.
    """
    reads = window.read_samples or [read.latency for read in window.reads]
    writes = [write.latency for write in window.writes]
    ops = reads or writes
    out = {
        "setup_s": setup_s,
        "rows_per_s": read_rate(window) if reads else write_rate(window),
        "op_p50_ms": _ms(percentile(ops, 50)),
        "op_p95_ms": _ms(percentile(ops, 95)),
        "peak_rss_mb": facts["peak_rss_mb"],
        "failed_share": len(window.failures) / window.attempted,
    }
    if reads and writes:
        out["write_facts_per_s"] = write_rate(window)
        out["write_p50_ms"] = _ms(percentile(writes, 50))
        out["write_p95_ms"] = _ms(percentile(writes, 95))
    for name in ("restart_s", "disk_bytes_per_fact"):
        if name in facts:
            out[name] = facts[name]
    return out


def read_rate(window: Window) -> float:
    return window.read_rate or sum(r.answers for r in window.reads) / window.seconds


def write_rate(window: Window) -> float:
    return sum(w.ops for w in window.writes) / window.seconds


def throughput(window: Window) -> float:
    """Rows per second across both directions (the tracing-overhead base)."""
    return read_rate(window) + write_rate(window)


# ---------------------------------------------------------------------- #
# The traced run                                                          #
# ---------------------------------------------------------------------- #


def per_layer(
    workload: str,
    window: Window,
    spans: Sequence[Span],
    facts: Dict[str, float],
    untraced: Dict[str, float],
    overhead_share: float,
) -> Dict[str, float]:
    """Every ``PER_LAYER`` row for one workload (0 where a layer is idle);
    the ``SIDE`` rows are the untraced half's."""
    rows: Dict[str, float] = {
        metric.name: untraced.get(metric.name, 0.0) for metric in metrics.PER_LAYER
    }
    own = metrics.self_times(spans)
    by_id = {span.id: span for span in spans}
    calls = {span.rid: span for span in spans if span.name == "app.call" and span.rid}
    # rid → span name → summed self seconds; and the spans themselves.
    shares: Dict[str, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
    counts: Dict[str, Dict[str, int]] = defaultdict(lambda: defaultdict(int))
    for span in spans:
        if span.rid:
            shares[span.rid][span.name] += own[span.id]
            counts[span.rid][span.name] += 1

    def request_rows(records, names: Dict[str, str]) -> Dict[str, List[float]]:
        """row name → one value per traced request that has the span."""
        out: Dict[str, List[float]] = defaultdict(list)
        for record in records:
            call = calls.get(record.rid)
            if call is None:
                continue
            wire = getattr(record, "wire", record.latency)
            out["server.http.self_ms"].append(_ms(wire - call.duration))
            for name, row in names.items():
                if name in shares[record.rid]:
                    out[row].append(_ms(shares[record.rid][name]))
        return out

    # -- read stack ----------------------------------------------------- #
    http_self: List[float] = []
    if workload == "paper_renum":
        # No server: a "request" is a chunk of 1,000 answers and the whole
        # of it is engine work.
        rows["core.engine.walk_ms"] = _ms(median(r.latency for r in window.reads))
    else:
        per_read = request_rows(window.reads, READ_LAYERS)
        for row, values in per_read.items():
            rows[row] = median(values)
        http_self += per_read.get("server.http.self_ms", [])
    answers = sum(read.answers for read in window.reads)
    if answers:
        paged = [r for r in window.reads if r.kind in ("page", "sample")]
        if paged:
            rows["server.app.bytes_per_answer"] = (
                sum(r.body_bytes for r in paged) / sum(r.answers for r in paged)
            )
        engine = sum(
            span.duration for span in spans
            if span.name == "engine.walk" and span.rid in calls
            and _top_level(span, by_id)
        )
        rows["core.engine.us_per_answer"] = (
            sum(r.latency for r in window.reads) if workload == "paper_renum" else engine
        ) * 1e6 / answers
    attempts = len(window.reads) + window.stale_409
    rows["server.sessions.stale_409_share"] = (
        window.stale_409 / attempts if attempts else 0.0
    )
    rows["service.cache_hit_share"] = facts.get("cache_hit_share", 0.0)
    rows["service.locked_reads"] = facts.get("locked_reads", 0)
    for kind, row in (
        ("cq", "core.renum.cq_us_per_answer"),
        ("mcucq", "core.renum.mcucq_us_per_answer"),
        ("union_enum", "core.union_enum.us_per_answer"),
    ):
        chunks = [r for r in window.reads if r.kind == kind]
        if chunks:
            rows[row] = sum(r.latency for r in chunks) * 1e6 / sum(r.answers for r in chunks)
    rows["core.union_enum.accept_share"] = facts.get("accept_share", 0.0)

    # -- client diagnostics --------------------------------------------- #
    latencies: Dict[str, List[float]] = defaultdict(list)
    for read in window.reads:
        latencies[read.kind].append(read.latency)
    for write in window.writes:
        latencies[write.kind].append(write.wire)
    rows["client.decode_ms"] = _ms(median(window.decode))
    for kind in ("page", "sample", "position_of"):
        rows[f"client.{kind}_p50_ms"] = _ms(median(latencies[kind]))
    reads = [read.latency for read in window.reads]
    if reads:
        rows["client.read_p99_ms"] = _ms(percentile(reads, 99))
        rows["client.read_max_ms"] = _ms(max(reads))
        rows["client.read_tail_percentile"] = metrics.supported_tail(len(reads))
    rows["client.read_samples"] = len(reads)
    rows["client.write_samples"] = len(window.writes)
    rows["client.writer_late_ms"] = _ms(median(w.late for w in window.writes))

    # -- write stack ---------------------------------------------------- #
    if window.writes:
        per_write = request_rows(window.writes, {
            "app.ingest": "server.app.ingest_self_ms",
            "service.apply": "service.apply_self_ms",
            "wal.append": "storage.wal.append_ms",
            "os.fsync": "storage.wal.fsync_ms",
            "dynamic.publish": "core.dynamic.publish_ms",
        })
        if not window.reads:
            rows["server.http.self_ms"] = median(per_write["server.http.self_ms"])
            for name, row in (("app.call", "server.app.encode_ms"),
                              ("app.dispatch", "server.app.dispatch_ms")):
                rows[row] = _ms(median(
                    shares[w.rid][name] for w in window.writes if w.rid in calls
                ))
        http_self += per_write.pop("server.http.self_ms", [])
        for row, values in per_write.items():
            rows[row] = median(values)
        traced = [w for w in window.writes if w.rid in calls]
        ops = sum(w.ops for w in traced)

        def us_per_op(name: str) -> float:
            return sum(shares[w.rid][name] for w in traced) * 1e6 / ops if ops else 0.0

        rows["database.delta.parse_us_per_op"] = us_per_op("delta.parse")
        rows["database.apply_us_per_op"] = us_per_op("database.apply")
        rows["core.dynamic.absorb_us_per_op"] = us_per_op("dynamic.absorb")
        if traced:
            rows["storage.wal.fsyncs_per_batch"] = (
                sum(counts[w.rid]["os.fsync"] for w in traced) / len(traced)
            )
        if window.wal_bytes and ops:
            rows["storage.wal.bytes_per_fact"] = window.wal_bytes / ops
    if http_self:
        rows["server.http.nonneg_share"] = (
            sum(1 for value in http_self if value >= 0) / len(http_self)
        )

    # -- checkpoints, recovery, set-up ---------------------------------- #
    checkpoints = [s.duration for s in spans if s.name == "storage.checkpoint"]
    rows["storage.checkpoint.write_s"] = median(checkpoints)
    rows["storage.checkpoint.bytes"] = facts.get("checkpoint_bytes", 0)
    for recover in (s for s in spans if s.name == "storage.recover"):
        children = [s for s in spans if s.parent == recover.id]
        rows["storage.recover.load_s"] = sum(
            s.duration for s in children if s.name == "storage.load"
        )
        rows["storage.recover.replay_s"] = sum(
            s.duration for s in children if s.name == "service.apply"
        )
        rows["storage.recover.replayed_batches"] = recover.n
    rows["process.import_s"] = facts.get("import_s", 0.0)
    loads = [s for s in spans if s.name == "database.load"]
    if loads:
        rows["database.load_s"] = loads[0].duration
    builds = [
        s for s in spans
        if s.name == "core.build" and _top_level(s, by_id)
        and s.rid == facts.get("setup_rid", "")
    ]
    if builds:
        rows["core.build_s"] = sum(s.duration for s in builds)
        indexed = sum(s.n for s in builds)
        rows["core.build_us_per_fact"] = (
            rows["core.build_s"] * 1e6 / indexed if indexed else 0.0
        )

    # -- the trace itself ----------------------------------------------- #
    rows["trace.overhead_share"] = overhead_share
    rows["trace.nesting_violations"] = metrics.nesting_violations(spans)
    rows["trace.spans"] = len(spans)
    rows["trace.layer_sum_share"] = _layer_sum_share(
        workload, window, calls, shares
    )
    return rows


def _top_level(span: Span, by_id: Dict[int, Span]) -> bool:
    """Not nested inside another span of the same name."""
    parent = by_id.get(span.parent)
    return parent is None or parent.name != span.name


def _layer_sum_share(workload, window, calls, shares) -> float:
    """Σ (median self time of each layer) / median client latency, over
    the workload's primary request kind. 1.0 means the per-layer rows add
    up to what the client saw."""
    kind = {"durable_ingest": "single"}.get(workload, "page")
    records = [
        r for r in list(window.reads) + list(window.writes)
        if r.kind == kind and r.rid in calls
    ]
    if not records:
        return 1.0 if workload == "paper_renum" else 0.0
    wire = [getattr(r, "wire", r.latency) for r in records]
    layers: Dict[str, List[float]] = defaultdict(list)
    for record, seconds in zip(records, wire):
        layers["http"].append(seconds - calls[record.rid].duration)
        for name, value in shares[record.rid].items():
            layers[name].append(value)
    # A layer absent from some requests of the kind contributes 0 there.
    total = sum(
        median(values + [0.0] * (len(records) - len(values)))
        for values in layers.values()
    )
    return total / median(wire)
