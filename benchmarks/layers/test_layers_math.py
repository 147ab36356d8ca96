"""The benchmark's own arithmetic (no server, no ``repro``, < 2 s).

Collected by the tier-1 run (``pytest`` from the repository root): if the
percentile rule, the self-time subtraction, the open-loop clock or the
bound check were wrong, every number in the results table would be.
"""

from __future__ import annotations

import json
import pathlib
import re

import pytest

import attribution
import compare
import inputs
import metrics
import oracle
import tracing
from metrics import Metric, Span

ROOT = pathlib.Path(__file__).resolve().parent.parent.parent


# -- percentiles --------------------------------------------------------- #


def test_percentile_interpolates_between_ranks():
    values = [10.0, 20.0, 30.0, 40.0, 50.0]
    assert metrics.percentile(values, 0) == 10.0
    assert metrics.percentile(values, 50) == 30.0
    assert metrics.percentile(values, 100) == 50.0
    assert metrics.percentile(values, 90) == pytest.approx(46.0)
    assert metrics.percentile(list(reversed(values)), 25) == 20.0
    with pytest.raises(ValueError):
        metrics.percentile([], 50)


@pytest.mark.parametrize("samples, tail", [
    (5, 50.0), (19, 50.0), (20, 50.0), (40, 75.0), (100, 90.0), (199, 90.0),
    (200, 95.0), (999, 95.0), (1000, 99.0), (10_000, 99.9),
])
def test_highest_percentile_with_ten_samples_beyond_it(samples, tail):
    assert metrics.supported_tail(samples) == tail


# -- spans --------------------------------------------------------------- #


def _request_spans():
    # call [0, 10] ─ dispatch [1, 9] ─ sessions [2, 3], walk [4, 8] ─ flat [5, 7]
    return [
        Span(1, -1, "app.call", "r1", 0.0, 10.0),
        Span(2, 1, "app.dispatch", "r1", 1.0, 9.0),
        Span(3, 2, "sessions", "r1", 2.0, 3.0),
        Span(4, 2, "engine.walk", "r1", 4.0, 8.0),
        Span(5, 4, "flat_store.batch", "r1", 5.0, 7.0),
    ]


def test_self_time_is_duration_minus_direct_children():
    own = metrics.self_times(_request_spans())
    assert own == {1: 2.0, 2: 3.0, 3: 1.0, 4: 2.0, 5: 2.0}
    # Self times partition the root span: nothing counted twice or lost.
    assert sum(own.values()) == 10.0


def test_nesting_check_flags_a_child_outside_its_parent():
    spans = _request_spans()
    assert metrics.nesting_violations(spans) == 0
    spans.append(Span(6, 4, "shuffle.sample", "r1", 7.5, 8.5))
    assert metrics.nesting_violations(spans) == 1


def test_recorder_links_children_and_inherits_the_request_id():
    recorder = tracing.Recorder()
    root = recorder.enter("req-7")
    child = recorder.enter()
    recorder.exit(child, "inner", 3)
    recorder.exit(root, "outer")
    inner, outer = (Span(*span) for span in recorder.spans)
    assert (inner.name, inner.parent, inner.rid, inner.n) == ("inner", outer.id, "req-7", 3)
    assert (outer.parent, outer.rid) == (-1, "req-7")
    assert metrics.nesting_violations([inner, outer]) == 0


# -- open loop ---------------------------------------------------------- #


def test_open_loop_latency_runs_from_the_due_time():
    due = metrics.due_times(100.0, 0.5, 4)
    assert due == [100.0, 100.5, 101.0, 101.5]
    # A stalled first request delays the second: sent 0.3 s late, and the
    # wait is charged to it although the server took only 0.1 s.
    latency, late = metrics.open_loop_latency(due[1], sent=100.8, done=100.9)
    assert latency == pytest.approx(0.4)
    assert late == pytest.approx(0.3)
    # Sent early (never happens, the generator sleeps): lateness clamps at 0.
    assert metrics.open_loop_latency(10.0, 9.9, 10.2)[1] == 0.0


# -- comparing runs ------------------------------------------------------ #


LOWER = Metric("op_p95_ms", "ms", "lower", 0.10)
HIGHER = Metric("rows_per_s", "1/s", "higher", 0.10)


def test_spread_is_the_quartile_distance_over_the_median():
    values = [100, 101, 102, 103, 104, 105, 106, 107, 108, 150]
    assert metrics.spread(values) == pytest.approx(5.5 / 104.5, rel=1e-6)
    assert metrics.spread([100, 110]) == pytest.approx(10 / 105)
    assert metrics.spread([100]) == 0.0


def test_bound_check_respects_direction_and_spread():
    steady = [100.0, 101.0, 99.0]
    assert metrics.verdict(LOWER, steady, [105.0, 106.0, 104.0]) == "same"
    assert metrics.verdict(LOWER, steady, [120.0, 121.0, 119.0]) == "regressed"
    assert metrics.verdict(LOWER, steady, [80.0, 81.0, 79.0]) == "improved"
    assert metrics.verdict(HIGHER, steady, [80.0, 81.0, 79.0]) == "regressed"
    assert metrics.verdict(HIGHER, steady, [120.0, 121.0, 119.0]) == "improved"
    # Moved beyond the bound, but the runs disagree by more than the bound.
    assert metrics.verdict(LOWER, steady, [100.0, 120.0, 140.0]) == "unresolved"


def _results(p95, failed_share=0.0):
    return {"workloads": {
        workload: [
            {"end_to_end": {"setup_s": 1.0, "write_p95_ms": value,
                            "failed_share": failed_share if position == 0 else 0.0}}
            for position, value in enumerate(p95)
        ]
        for workload in metrics.WORKLOADS
    }}


def test_compare_reports_only_what_moved_and_fails_on_regression():
    base = _results([50.0, 50.5, 49.5])
    lines, regressed = compare.compare(base, _results([51.0, 52.0, 50.0]))
    assert not regressed
    assert all("moved beyond" in line for line in lines)
    lines, regressed = compare.compare(base, _results([60.0, 60.5, 59.5]))
    assert regressed
    moved = [line for line in lines if "write_p95_ms" in line]
    assert len(moved) == len(metrics.WORKLOADS)
    assert "regressed" in moved[0] and "1.200 x base 50" in moved[0]
    assert not any("setup_s" in line for line in lines)
    lines, regressed = compare.compare(base, _results([50.0, 65.0, 80.0]))
    assert not regressed and any("unresolved" in line for line in lines)
    # One failed operation in one repeat is a regression; the same on both
    # sides is not.
    lines, regressed = compare.compare(base, _results([50.0, 50.5, 49.5], 0.001))
    assert regressed and any("failed_share" in line for line in lines)
    assert not compare.compare(_results([50.0], 0.001), _results([50.0], 0.001))[1]


# -- the contract -------------------------------------------------------- #


def test_benchmark_json_is_what_the_tables_define():
    document = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert document == metrics.benchmark_json(document["run_seconds"])
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")
    names = [w["name"] for w in document["workloads"]]
    for row in document["end_to_end"] + document["per_layer"]:
        names.append(row["name"])
        assert unit.match(row["unit"]), row
        assert row["better"] in ("lower", "higher")
    assert all(name.match(n) for n in names) and len(set(names)) == len(names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in document["workloads"])
    bounds = {row["name"]: row["bound"] for row in document["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25
    assert 1 <= document["run_seconds"] <= 60


def test_end_to_end_names_the_closed_loop_side_and_omits_what_is_undefined():
    def window(reads, writes):
        observed = metrics.Window()
        observed.seconds, observed.attempted = 2.0, 10
        observed.reads = [metrics.Read("r", "page", 0.010, 50, 0)] * reads
        observed.writes = [metrics.Write("w", "swap", 0.030, 0.02, 100, 0.0)] * writes
        return observed

    facts = {"peak_rss_mb": 9.0}
    both = attribution.end_to_end(window(4, 2), 1.0, {**facts, "restart_s": 1.5})
    assert (both["rows_per_s"], both["op_p50_ms"]) == (100.0, pytest.approx(10.0))
    assert (both["write_facts_per_s"], both["write_p95_ms"]) == (100.0, pytest.approx(30.0))
    assert both["restart_s"] == 1.5 and "disk_bytes_per_fact" not in both
    writes = attribution.end_to_end(window(0, 2), 1.0, facts)
    assert (writes["rows_per_s"], writes["op_p50_ms"]) == (100.0, pytest.approx(30.0))
    assert "write_p50_ms" not in writes
    for record in (both, writes):
        assert {m.name for m in metrics.END_TO_END} <= set(record)
        assert set(record) <= {m.name for m in metrics.BOUNDED}


# -- the oracle ---------------------------------------------------------- #


def test_closed_form_counts_equal_a_naive_join():
    database = inputs.PathDatabase(7, inputs.Sizes(30, 6, 5, 4), union=True)
    relations = {name: rows for name, (_columns, rows) in database.tables.items()}
    head = ("a", "b", "c")
    first = oracle.naive_join(head, [("R", ("a", "b")), ("S", ("b", "c"))], relations)
    second = oracle.naive_join(head, [("R", ("a", "b")), ("T", ("b", "c"))], relations)
    assert len(first) == database.count(union=False) == 36 * 4
    assert len(first | second) == database.count(union=True) == 36 * 6
    checker = oracle.PathOracle(database)
    assert all(checker.is_answer(answer, True, 1) for answer in first | second)
    stale = (database.a0 + inputs.STRIDE, database.labels[0], database.c0)
    assert checker.is_answer(stale, True, 1) and not checker.is_answer(stale, True, 2)


def test_page_checks_catch_short_repeated_and_foreign_answers():
    database = inputs.PathDatabase(3, inputs.Sizes(10, 0, 5, 2), union=False)
    checker = oracle.PathOracle(database)
    answers = [[a, b, database.c0] for a, b in database.tables["R"][1]]
    page = {"count": 20, "answers": answers[:4]}
    assert checker.check_page(page, number=0, size=4, count=20, union=False) is None
    assert "expected 4" in checker.check_page(
        {"count": 20, "answers": answers[:3]}, 0, 4, 20, False
    )
    assert "repeated" in checker.check_page(
        {"count": 20, "answers": answers[:3] + answers[:1]}, 0, 4, 20, False
    )
    foreign = [[answers[0][0], answers[0][1], database.c0 + 99]]
    assert "not an answer" in checker.check_page(
        {"count": 20, "answers": foreign}, 0, 1, 20, False
    )
    # The last page is short by exactly what the count leaves.
    assert checker.check_page({"count": 20, "answers": answers[:2]}, 2, 9, 20, False) is None


def test_fingerprint_accepts_permutations_only():
    answers = [(1, "x"), (2, "y"), (3, "z")]
    assert oracle.Fingerprint(reversed(answers)) == oracle.Fingerprint(answers)
    assert oracle.Fingerprint(answers[:2] + answers[:1]) != oracle.Fingerprint(answers)
    assert oracle.Fingerprint(answers[:2]) != oracle.Fingerprint(answers)


def test_ingest_stream_is_effective_and_holds_its_live_set():
    database = inputs.PathDatabase(5, inputs.Sizes(10, 2, 5, 2), union=True)
    stream = inputs.IngestStream(database, 5, bulk=10, target=40)
    live, seen = set(), set()
    for _ in range(300):
        batch = stream.next_batch()
        for op, row in batch.ops:
            if op == "insert":
                assert row not in seen  # fresh: never a no-op
                seen.add(row)
                live.add(row)
            else:
                live.remove(row)  # present: never a no-op
        assert batch.live_after == len(live)
        assert len(batch.ops) in (1, 10)
    assert 30 <= len(live) <= 50
