"""Tests for the HTTP serving tier: sessions, staleness, ingest, recovery.

Everything in-process through the dependency-free
:class:`~repro.server.testing.TestClient`, except the restart test at the
bottom, which serves a recovered durable store over a real socket — the
``repro serve --storage`` acceptance path.
"""

import http.client
import json
import pathlib
import random

import pytest

from repro import Database, QueryService, Relation
from repro.cli import _build_serve_app, build_parser
from repro.server import create_app, query_id_of, start_background
from repro.server.testing import TestClient

CHAIN = "Q(a, b, c) :- R(a, b), S(b, c)"
UNION = "Q(a, b, c) :- R(a, b), S(b, c) ; Q(a, b, c) :- R(a, b), T(b, c)"


def fresh_db() -> Database:
    return Database([
        Relation("R", ("a", "b"), [(1, 10), (2, 20), (3, 30)]),
        Relation("S", ("b", "c"), [(10, 100), (10, 101), (20, 200), (30, 300)]),
        Relation("T", ("b", "c"), [(30, 301)]),
    ])


def client(**config) -> TestClient:
    return TestClient(create_app(fresh_db(), **config))


def jsonl(*ops) -> bytes:
    """``("insert", "R", (7, 10))``… → a JSONL ingest body."""
    return "".join(
        json.dumps({"op": op, "relation": rel, "row": list(row)}) + "\n"
        for op, rel, row in ops
    ).encode("utf-8")


def open_cursor(c: TestClient, query: str = CHAIN, **body) -> dict:
    response = c.post("/cursors", json={"query": query, **body})
    assert response.status == 201, response.text
    return response.json()


class FakeClock:
    def __init__(self, now: float = 1000.0):
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestIntrospection:
    def test_healthz_reports_version_and_durability(self):
        c = client()
        payload = c.get("/healthz").json()
        assert payload["status"] == "ok"
        assert payload["version"] == fresh_db().version
        assert payload["durable"] is False
        assert payload["last_durable_version"] is None
        assert payload["sessions"] == 0

    def test_stats_has_service_session_and_server_blocks(self):
        c = client()
        open_cursor(c)
        payload = c.get("/stats").json()
        assert payload["service"]["misses"] == 1
        assert payload["sessions"]["active"] == 1
        assert payload["sessions"]["opened"] == 1
        assert payload["server"]["requests"] >= 2
        # The service block is exactly the canonical ServiceStats dict.
        service = QueryService(fresh_db())
        assert set(payload["service"]) == set(service.stats().to_dict())

    def test_unknown_route_404_and_wrong_method_405(self):
        c = client()
        assert c.get("/nope").status == 404
        assert c.post("/healthz", json={}).status == 405
        assert c.get("/ingest").status == 405


class TestQueryRegistry:
    def test_register_is_idempotent_across_textual_variants(self):
        c = client()
        first = c.post("/queries", json={"query": CHAIN}).json()
        # Different head name and whitespace, same canonical structure →
        # same id (variable names are part of the structure).
        variant = "P( a,b , c ) :- R(a,b),   S(b, c)"
        second = c.post("/queries", json={"query": variant}).json()
        assert first["id"] == second["id"]
        assert first["kind"] == "cq"
        assert first["relations"] == ["R", "S"]
        assert first["tractable"] is True

    def test_union_registration_and_cursor_by_id(self):
        c = client()
        registered = c.post("/queries", json={"query": UNION}).json()
        assert registered["kind"] == "ucq"
        assert registered["relations"] == ["R", "S", "T"]
        opened = c.post("/cursors", json={"query_id": registered["id"]})
        assert opened.status == 201
        assert opened.json()["query_id"] == registered["id"]

    def test_bad_query_400_unknown_id_404(self):
        c = client()
        assert c.post("/queries", json={"query": "not datalog"}).status == 400
        assert c.post("/queries", json={}).status == 400
        assert c.post("/cursors", json={"query_id": "beef"}).status == 404

    def test_unservable_query_422(self):
        c = client()
        # Cyclic and not free-connex: resolvable, but not servable.
        triangle = "Q() :- R(x, y), S(y, z), T(z, x)"
        response = c.post("/cursors", json={"query": triangle})
        assert response.status == 422


class TestCursorReads:
    def test_count_page_batch_sample_position_agree(self):
        c = client()
        session = open_cursor(c)
        sid = session["cursor"]
        count = session["count"]
        assert count == 4
        assert c.get(f"/cursors/{sid}/count").json()["count"] == count
        paged = []
        number = 0
        while True:
            page = c.get(f"/cursors/{sid}/page?number={number}&size=2").json()
            assert page["version"] == session["version"]
            if not page["answers"]:
                break
            paged += page["answers"]
            number += 1
        assert len(paged) == count
        ranged = c.get(f"/cursors/{sid}/batch?start=0&stop={count}").json()
        assert ranged["answers"] == paged
        picked = c.get(f"/cursors/{sid}/batch?positions=2,0").json()
        assert picked["answers"] == [paged[2], paged[0]]
        sampled = c.get(f"/cursors/{sid}/sample?k=3&seed=7").json()
        assert len(sampled["answers"]) == 3
        for answer in sampled["answers"]:
            assert answer in paged
        for position, answer in enumerate(paged):
            located = c.get(
                f"/cursors/{sid}/position_of?answer={json.dumps(answer)}"
            ).json()
            assert located["position"] == position

    def test_read_validation_errors(self):
        c = client()
        sid = open_cursor(c)["cursor"]
        assert c.get(f"/cursors/{sid}/page?number=-1").status == 400
        assert c.get(f"/cursors/{sid}/page?size=zero").status == 400
        assert c.get(f"/cursors/{sid}/batch").status == 400
        assert c.get(f"/cursors/{sid}/batch?positions=1,99").status == 400
        assert c.get(f"/cursors/{sid}/sample").status == 400
        assert c.get(f"/cursors/{sid}/position_of?answer=notjson").status == 400

    @pytest.mark.parametrize("dynamic", [False, True], ids=["static", "dynamic"])
    @pytest.mark.parametrize("store", ["tuple", "flat"])
    @pytest.mark.parametrize(
        "answer", ['[[1],10,"x"]', '[{"a":1},10,"x"]'], ids=["list", "object"]
    )
    def test_position_of_non_scalar_element_is_400(self, store, dynamic, answer):
        c = client(store=store, dynamic=dynamic)
        sid = open_cursor(c)["cursor"]
        response = c.get(f"/cursors/{sid}/position_of?answer={answer}")
        assert response.status == 400, response.text
        # A scalar answer on the same cursor still resolves.
        located = c.get(f"/cursors/{sid}/position_of?answer=[1,10,100]")
        assert located.json()["position"] == 0

    @pytest.mark.parametrize("dynamic", [False, True], ids=["static", "dynamic"])
    def test_position_of_on_a_union_cursor_is_400(self, dynamic):
        """Regression: a union has no inverted access, and the endpoint
        answered 200 ``null`` — "not an answer" — for answers it serves."""
        c = client(dynamic=dynamic)
        sid = open_cursor(c, UNION)["cursor"]
        served = c.get(f"/cursors/{sid}/batch?positions=3").json()["answers"][0]
        response = c.get(f"/cursors/{sid}/position_of?answer={json.dumps(served)}")
        assert response.status == 400, response.text
        assert "union" in response.json()["error"]

    def test_close_then_410_unknown_410_404_distinction(self):
        c = client()
        sid = open_cursor(c)["cursor"]
        assert c.delete(f"/cursors/{sid}").json()["closed"] is True
        gone = c.get(f"/cursors/{sid}/count")
        assert gone.status == 410
        assert gone.json()["reason"] == "closed"
        assert c.delete(f"/cursors/{sid}").status == 410
        assert c.get("/cursors/never-existed/count").status == 404


def wide_db() -> Database:
    """64 chain answers, 80 union answers: past the flat kernel's
    ``VECTOR_MIN``, and a union whose members overlap."""
    return Database([
        Relation("R", ("a", "b"), [(a, a % 4) for a in range(16)]),
        Relation("S", ("b", "c"), [
            (b, f"s{b}-{i}") for b in range(4) for i in range(4)
        ]),
        Relation("T", ("b", "c"), [
            (b, f"s{b}-{i}") for b in range(4) for i in (3, 7)
        ]),
    ])


class TestAnswerBodies:
    """Page, batch and sample bodies are exactly ``json.dumps`` of the
    payload built from the pinned view's ``batch`` / ``sample_many``:
    answers as lists, then the endpoint's fields, then ``cursor``."""

    @pytest.mark.parametrize("store, dynamic, query", [
        ("flat", False, CHAIN),
        ("tuple", False, CHAIN),
        ("flat", True, CHAIN),
        ("tuple", True, CHAIN),
        ("flat", False, UNION),
        ("flat", True, UNION),
    ], ids=["static-flat", "static-tuple", "dynamic-flat", "dynamic-tuple",
            "mcucq-static", "mcucq-dynamic"])
    def test_bodies_equal_json_dumps_of_the_answers(self, store, dynamic, query):
        app = create_app(wide_db(), store=store, dynamic=dynamic)
        c = TestClient(app)
        sid = open_cursor(c, query)["cursor"]
        view = app.sessions.get(sid).cursor.pinned
        count, version = view.count, c.get("/healthz").json()["version"]
        assert count >= 64

        def body(answers, **fields):
            return json.dumps({
                "answers": [list(answer) for answer in answers], **fields,
                "cursor": sid,
            }).encode("utf-8")

        for number, size in ((0, 40), (1, 40), (0, count), (3, 7), (9, 40)):
            start = number * size
            expected = body(
                view.batch(range(min(start, count), min(start + size, count))),
                number=number, size=size, count=count, version=version,
            )
            got = c.get(f"/cursors/{sid}/page?number={number}&size={size}")
            assert got.body == expected
        for start, stop in ((0, count), (5, 50), (count - 3, count + 9)):
            expected = body(view.batch(range(start, min(stop, count))),
                            count=count, version=version)
            got = c.get(f"/cursors/{sid}/batch?start={start}&stop={stop}")
            assert got.body == expected
        wanted = [count - 1, 0, 7, 7] + list(range(3, count, 2))
        expected = body(view.batch(wanted), count=count, version=version)
        got = c.get(f"/cursors/{sid}/batch?positions="
                    + ",".join(map(str, wanted)))
        assert got.body == expected
        for k, seed in ((1, 3), (40, 5), (count, 7), (count + 50, 9)):
            expected = body(view.sample_many(k, random.Random(seed)),
                            k=k, version=version)
            got = c.get(f"/cursors/{sid}/sample?k={k}&seed={seed}")
            assert got.body == expected


class TestSessionLifecycle:
    def test_idle_ttl_expires_sessions(self):
        clock = FakeClock()
        c = TestClient(create_app(fresh_db(), session_ttl=60.0, clock=clock))
        sid = open_cursor(c)["cursor"]
        clock.advance(59)
        assert c.get(f"/cursors/{sid}/count").status == 200  # touch resets idle
        clock.advance(59)
        assert c.get(f"/cursors/{sid}/count").status == 200
        clock.advance(61)
        expired = c.get(f"/cursors/{sid}/count")
        assert expired.status == 410
        assert "TTL" in expired.json()["reason"]
        gauges = c.get("/stats").json()["sessions"]
        assert gauges["expired_ttl"] == 1 and gauges["active"] == 0

    def test_per_session_ttl_override(self):
        clock = FakeClock()
        c = TestClient(create_app(fresh_db(), session_ttl=60.0, clock=clock))
        durable_sid = open_cursor(c, ttl=1000)["cursor"]
        default_sid = open_cursor(c)["cursor"]
        clock.advance(120)
        assert c.get(f"/cursors/{default_sid}/count").status == 410
        assert c.get(f"/cursors/{durable_sid}/count").status == 200

    def test_lru_eviction_at_capacity(self):
        c = TestClient(create_app(fresh_db(), session_capacity=3))
        sids = [open_cursor(c)["cursor"] for _ in range(3)]
        # Touch the oldest so the middle one becomes LRU.
        assert c.get(f"/cursors/{sids[0]}/count").status == 200
        fourth = open_cursor(c)["cursor"]
        evicted = c.get(f"/cursors/{sids[1]}/count")
        assert evicted.status == 410
        assert "full" in evicted.json()["reason"]
        for live in (sids[0], sids[2], fourth):
            assert c.get(f"/cursors/{live}/count").status == 200
        gauges = c.get("/stats").json()["sessions"]
        assert gauges["evicted_lru"] == 1 and gauges["active"] == 3

    def test_open_cursor_validation(self):
        c = client()
        assert c.post("/cursors", json={"query": CHAIN,
                                        "on_stale": "explode"}).status == 400
        assert c.post("/cursors", json={"query": CHAIN, "ttl": -1}).status == 400
        assert c.post("/cursors", json={"query": CHAIN,
                                        "budget": "lots"}).status == 400


class TestReadBudget:
    def test_budget_exhaustion_is_429(self):
        c = TestClient(create_app(fresh_db(), read_budget=4))
        sid = open_cursor(c)["cursor"]
        assert c.get(f"/cursors/{sid}/page?number=0&size=4").status == 200
        rejected = c.get(f"/cursors/{sid}/page?number=1&size=4")
        assert rejected.status == 429
        assert rejected.json()["served"] == 4
        assert rejected.json()["budget"] == 4
        # Other sessions are unaffected; the gauge counts the rejection.
        assert c.get(f"/cursors/{open_cursor(c)['cursor']}/count").status == 200
        assert c.get("/stats").json()["sessions"]["budget_rejections"] == 1

    def test_spent_budget_rejects_before_the_engine_walk(self, monkeypatch):
        """Regression: a session past its budget used to compute the whole
        sample on every further request and only then answer 429."""
        app = create_app(fresh_db(), read_budget=4)
        c = TestClient(app)
        sid = open_cursor(c)["cursor"]
        assert c.get(f"/cursors/{sid}/sample?k=4&seed=1").status == 200
        view = app.sessions.get(sid).cursor.pinned
        walks = []
        for name in ("sample_many", "batch", "batch_json"):
            monkeypatch.setattr(
                type(view), name, lambda *args: walks.append(args) or []
            )
        assert c.get(f"/cursors/{sid}/sample?k=4&seed=1").status == 429
        assert walks == []

    def test_client_budget_clamped_to_server_default(self):
        c = TestClient(create_app(fresh_db(), read_budget=2))
        generous = open_cursor(c, budget=1_000_000)
        assert generous["budget"] == 2
        tight = open_cursor(c, budget=1)
        assert tight["budget"] == 1

    def test_count_charges_one(self):
        c = TestClient(create_app(fresh_db(), read_budget=2))
        sid = open_cursor(c)["cursor"]
        assert c.get(f"/cursors/{sid}/count").status == 200
        assert c.get(f"/cursors/{sid}/count").status == 200
        assert c.get(f"/cursors/{sid}/count").status == 429


class TestStaleness:
    def test_reresolve_session_follows_writes(self):
        c = client()
        base = c.get("/healthz").json()["version"]
        sid = open_cursor(c, on_stale="reresolve")["cursor"]
        assert c.get(f"/cursors/{sid}/count").json() == {
            "count": 4, "version": base, "cursor": sid,
        }
        assert c.post("/ingest", body=jsonl(("insert", "S", (20, 201)))).json()[
            "version"] == base + 1
        moved = c.get(f"/cursors/{sid}/count").json()
        assert moved == {"count": 5, "version": base + 1, "cursor": sid}

    def test_raise_session_409_then_refresh(self):
        c = client()
        base = c.get("/healthz").json()["version"]
        sid = open_cursor(c, on_stale="raise")["cursor"]
        c.post("/ingest", body=jsonl(("insert", "S", (20, 201))))
        stale = c.get(f"/cursors/{sid}/count")
        assert stale.status == 409
        payload = stale.json()
        assert payload["stale"] is True
        assert payload["bound_version"] == base
        assert payload["current_version"] == base + 1
        # Every read verb answers 409 while stale.
        assert c.get(f"/cursors/{sid}/page").status == 409
        assert c.get(f"/cursors/{sid}/sample?k=1").status == 409
        refreshed = c.post(f"/cursors/{sid}/refresh")
        assert refreshed.status == 200
        assert refreshed.json()["version"] == payload["current_version"]
        assert refreshed.json()["count"] == 5
        assert c.get(f"/cursors/{sid}/count").status == 200

    def test_raise_session_fresh_reads_untouched(self):
        c = client()
        sid = open_cursor(c, on_stale="raise")["cursor"]
        assert c.get(f"/cursors/{sid}/count").status == 200


class TestIngest:
    def test_batch_applies_once_with_relation_report(self):
        c = client()
        before = c.get("/healthz").json()["version"]
        response = c.post("/ingest", body=jsonl(
            ("insert", "R", (4, 10)),
            ("insert", "R", (1, 10)),     # no-op: already present
            ("delete", "S", (30, 300)),
            ("delete", "S", (30, 999)),   # no-op: absent
        ))
        assert response.status == 200
        payload = response.json()
        assert payload["ops"] == 4
        assert payload["inserted"] == 1
        assert payload["deleted"] == 1
        assert payload["noops"] == 2
        assert payload["version"] == before + 1  # one bump for the batch
        assert payload["durable"] is False
        assert payload["by_relation"]["R"] == {
            "inserted": 1, "deleted": 0, "noop_inserts": 1, "noop_deletes": 0,
        }

    def test_malformed_lines_are_line_numbered_400_nothing_applied(self):
        c = client()
        base = c.get("/healthz").json()["version"]
        cases = [
            (b'{"op": "insert", "relation": "R", "row": [1, 2]}\nnot json\n', 2),
            (b'{"op": "upsert", "relation": "R", "row": [1, 2]}\n', 1),
            (b'{"op": "insert", "relation": "R", "row": [1]}\n', 1),
            (b'{"op": "insert", "relation": "Nope", "row": [1, 2]}\n', 1),
            (b'{"op": "insert", "relation": "R"}\n', 1),
            (b'["not", "an", "object"]\n', 1),
            (b'\n\n{"op": "insert", "relation": "R", "row": [[1], 2]}\n', 3),
        ]
        for body, line in cases:
            response = c.post("/ingest", body=body)
            assert response.status == 400, body
            assert response.json()["line"] == line, body
        assert c.post("/ingest", body=b"").status == 400
        assert c.post("/ingest", body=b"\xff\xfe").status == 400
        # Validate-all-first: the valid first line of the failing batches
        # was never applied, and the version never moved.
        health = c.get("/healthz").json()
        assert health["version"] == base

    def test_blank_lines_ignored(self):
        c = client()
        body = b'\n{"op": "insert", "relation": "R", "row": [9, 10]}\n\n'
        assert c.post("/ingest", body=body).json()["ops"] == 1


class TestAppFactory:
    def test_create_app_rejects_conflicting_config(self):
        service = QueryService(fresh_db())
        with pytest.raises(ValueError):
            create_app(service, store="tuple")
        with pytest.raises(TypeError):
            create_app(42)
        with pytest.raises(ValueError):
            create_app("/nonexistent/store-dir")

    def test_create_app_rejects_promote_after_for_a_built_service(self):
        service = QueryService(fresh_db())
        with pytest.raises(ValueError, match="promote_after"):
            create_app(service, promote_after=5)

    def test_oversized_body_413(self):
        import repro.server.app as app_module
        c = client()
        original = app_module.MAX_BODY_BYTES
        app_module.MAX_BODY_BYTES = 64
        try:
            response = c.post("/ingest", body=b"x" * 65)
            assert response.status == 413
        finally:
            app_module.MAX_BODY_BYTES = original


class TestDurableServing:
    def seed_store(self, tmp_path) -> pathlib.Path:
        storage = tmp_path / "store"
        csvdir = tmp_path / "csv"
        csvdir.mkdir()
        db = fresh_db()
        service = QueryService(db, storage=storage)
        service.insert("S", (20, 201))  # WAL tail past the base checkpoint
        return storage

    def test_ingest_is_durable_and_healthz_reports_it(self, tmp_path):
        storage = self.seed_store(tmp_path)
        c = TestClient(create_app(str(storage)))
        health = c.get("/healthz").json()
        assert health["durable"] is True
        assert health["last_durable_version"] == health["version"]
        applied = c.post("/ingest", body=jsonl(("insert", "R", (5, 10)))).json()
        assert applied["durable"] is True
        # A second recovery sees the ingested batch: it was WAL-logged.
        reopened = TestClient(create_app(str(storage)))
        assert reopened.get("/healthz").json()["version"] == applied["version"]

    def test_admin_checkpoint(self, tmp_path):
        storage = self.seed_store(tmp_path)
        c = TestClient(create_app(str(storage)))
        open_cursor(c)  # warm an index so serve-state has an entry
        response = c.post("/admin/checkpoint")
        assert response.status == 200
        assert response.json()["version"] == c.get("/healthz").json()["version"]
        # Checkpointing an unbound service is a definite 409.
        assert client().post("/admin/checkpoint").status == 409

    def test_serve_cli_restart_over_real_socket(self, tmp_path):
        """The acceptance path: `repro serve --storage DIR` after a
        restart serves a first /cursors/{id}/count over HTTP."""
        storage = self.seed_store(tmp_path)
        args = build_parser().parse_args(
            ["serve", "--storage", str(storage)]
        )
        app = _build_serve_app(args)  # recovery path: no CSVs involved
        server, thread, port = start_background(app)
        try:
            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
            conn.request(
                "POST", "/cursors",
                body=json.dumps({"query": CHAIN}).encode(),
            )
            opened = json.loads(conn.getresponse().read())
            conn.request("GET", f"/cursors/{opened['cursor']}/count")
            counted = json.loads(conn.getresponse().read())
            assert counted["count"] == opened["count"] == 5
            conn.close()
        finally:
            server.shutdown()
            thread.join(timeout=10)

    def test_serve_cli_requires_some_source(self):
        args = build_parser().parse_args(["serve"])
        with pytest.raises(SystemExit):
            _build_serve_app(args)


def test_query_id_is_stable_and_structural():
    service = QueryService(fresh_db())
    a = query_id_of(service.resolve(CHAIN))
    b = query_id_of(service.resolve("P( a,b,c ) :- R(a, b), S(b, c)"))
    assert a == b
    assert len(a) == 16
    assert a != query_id_of(service.resolve(UNION))
