"""The fault matrix: every registered failpoint driven through failure,
asserting the recovery invariant each site promises.

The sites and their contracts:

==================  ====================================================
``wal.append``      a failed append leaves the log crash-consistent
                    (file truncated back to the pre-append offset; a
                    torn write is discarded on reopen)
``wal.fsync``       transient errors are retried within the budget;
                    ``ENOSPC`` fails fast into degraded read-only mode
``checkpoint.stage``    a failed staging write leaves the previous
                        checkpoint authoritative and no litter behind
``checkpoint.publish``  ditto for the final rename
``serve_blob.load``     an unreadable blob entry means "rebuild lazily",
                        never a failed recovery
``atomic.write``    the published file is the old one, untouched
``server.ingest``   an I/O failure inside the HTTP write path answers
                    503, and the server keeps serving
==================  ====================================================
"""

import errno
import os
import time

import pytest

from repro import Database, Relation, faults
from repro.server import create_app
from repro.server.sessions import RateLimitedError, TokenBucketLimiter
from repro.server.testing import TestClient
from repro.service.query_service import QueryService, ServiceDegradedError
from repro.storage import retry
from repro.storage.checkpoint import latest_checkpoint

Q = "Q(a, b) :- R(a, b)"


@pytest.fixture(autouse=True)
def _disarm_everything():
    """No fault leaks between tests, whatever a test did or raised."""
    faults.disarm_all()
    yield
    faults.disarm_all()


def make_service(tmp_path, **kwargs):
    db = Database([Relation("R", ("a", "b"), [(1, 10), (2, 20)])])
    return QueryService(db, storage=tmp_path / "store", **kwargs)


# ---------------------------------------------------------------------- #
# Framework                                                               #
# ---------------------------------------------------------------------- #


def test_registry_covers_every_instrumented_site():
    # Importing the durability stack registered its sites; the matrix
    # below must keep covering all of them.
    import repro.server.app  # noqa: F401 - registers server.ingest
    import repro.storage.serve_blob  # noqa: F401

    assert set(faults.known()) >= {
        "wal.append", "wal.fsync", "atomic.write",
        "checkpoint.stage", "checkpoint.publish",
        "serve_blob.load", "server.ingest",
    }


def test_disarmed_inject_is_a_noop():
    fired = faults.injected_total()
    faults.inject("wal.append")  # nothing armed: must not raise
    assert faults.injected_total() == fired


def test_arm_disarm_cycle_and_fire_counts():
    faults.arm("wal.append", "error(EIO)*2")
    fired_before = faults.stats()["wal.append"]["fired"]
    for _ in range(2):
        with pytest.raises(OSError):
            faults.inject("wal.append")
    faults.inject("wal.append")  # budget spent: proceeds
    assert faults.stats()["wal.append"]["fired"] == fired_before + 2
    assert faults.disarm("wal.append")
    assert not faults.disarm("wal.append")


def test_spec_grammar_parses_every_policy_kind():
    assert faults.parse_policy("error(ENOSPC)").describe() == "error(ENOSPC)always"
    assert faults.parse_policy("error(EIO)*3").describe() == "error(EIO)*3"
    assert faults.parse_policy("prob(0.25, ENOSPC)").describe() == (
        "prob(0.25, ENOSPC)"
    )
    assert faults.parse_policy("latency(0.01)").describe() == "latency(0.01)"
    assert faults.parse_policy("torn(0.25)*1").describe() == "torn(0.25)*1"
    for bad in ("nonsense", "error()", "error(NOTANERRNO)", "latency(1)*2"):
        with pytest.raises(ValueError):
            faults.parse_policy(bad)


def test_arm_from_env_grammar():
    armed = faults.arm_from_env(
        "wal.append=error(ENOSPC)*1; serve_blob.load=prob(0.5,EIO)"
    )
    assert armed == 2
    assert faults.stats()["wal.append"]["armed"] == "error(ENOSPC)*1"
    assert faults.stats()["serve_blob.load"]["armed"] == "prob(0.5, EIO)"
    with pytest.raises(ValueError):
        faults.arm_from_env("justaname")
    with pytest.raises(ValueError):
        faults.arm_from_env("wal.append=bogus(1)")


def test_failpoints_context_manager_disarms_on_error():
    with pytest.raises(RuntimeError):
        with faults.failpoints({"wal.append": "error(EIO)"}):
            assert faults.stats()["wal.append"]["armed"] is not None
            raise RuntimeError("boom")
    assert faults.stats()["wal.append"]["armed"] is None


# ---------------------------------------------------------------------- #
# Retry policy                                                            #
# ---------------------------------------------------------------------- #


def test_transient_classification():
    assert retry.is_transient(OSError(errno.EIO, "eio"))
    assert not retry.is_transient(OSError(errno.ENOSPC, "full"))
    assert not retry.is_transient(ValueError("not I/O"))


def test_call_with_retry_recovers_and_reports():
    calls, retries = [], []
    policy = retry.RetryPolicy(max_attempts=3, base_delay=0.0, max_delay=0.0)

    def flaky():
        calls.append(1)
        if len(calls) < 3:
            raise OSError(errno.EIO, "flaky")
        return "ok"

    result = retry.call_with_retry(
        flaky, policy, on_retry=lambda *a: retries.append(a), sleep=lambda s: None
    )
    assert result == "ok" and len(calls) == 3 and len(retries) == 2


def test_call_with_retry_fails_fast_on_enospc():
    calls = []

    def full():
        calls.append(1)
        raise OSError(errno.ENOSPC, "full")

    with pytest.raises(OSError) as exc_info:
        retry.call_with_retry(full, retry.DEFAULT_POLICY, sleep=lambda s: None)
    assert exc_info.value.errno == errno.ENOSPC
    assert len(calls) == 1  # not transient: no second attempt


# ---------------------------------------------------------------------- #
# WAL: retry, crash consistency, torn writes                              #
# ---------------------------------------------------------------------- #


def test_wal_append_transient_fault_is_retried(tmp_path):
    service = make_service(tmp_path)
    faults.arm("wal.fsync", "error(EIO)*1")
    assert service.insert("R", (3, 30))
    assert not service.degraded
    assert service.stats().wal_retries >= 1
    assert service.stats().faults_injected >= 1


@pytest.mark.parametrize("site", ["wal.append", "wal.fsync"])
def test_wal_failure_leaves_log_crash_consistent(tmp_path, site):
    service = make_service(tmp_path)
    service.insert("R", (3, 30))
    wal_path = service.storage.wal_path
    size_before = os.path.getsize(wal_path)
    version_before = service.database.version

    faults.arm(site, "error(ENOSPC)")  # not transient: no retry, fail fast
    with pytest.raises(ServiceDegradedError):
        service.insert("R", (4, 40))
    faults.disarm_all()

    # Crash consistency: the file was rolled back to the pre-append
    # offset and the in-memory database never observed the version bump.
    assert os.path.getsize(wal_path) == size_before
    assert service.database.version == version_before
    recovered = QueryService.recover(tmp_path / "store")
    assert recovered.database.version == version_before


def test_torn_write_is_discarded_on_reopen(tmp_path):
    service = make_service(tmp_path)
    service.insert("R", (3, 30))
    wal_path = service.storage.wal_path
    payload_before = wal_path.read_bytes()

    # No retry budget so the torn write is observable, not retried away.
    service.storage.wal.retry_policy = retry.NO_RETRY
    faults.arm("wal.append", "torn(0.5)")
    with pytest.raises(ServiceDegradedError):
        service.insert("R", (5, 50))
    faults.disarm_all()

    # The rollback truncated the torn tail; even if a crash had left it,
    # reopening discards a torn record rather than replaying garbage.
    assert wal_path.read_bytes() == payload_before
    recovered = QueryService.recover(tmp_path / "store")
    assert recovered.database.version == service.database.version
    assert recovered.cursor(Q).count == 3


def test_torn_write_within_retry_budget_succeeds(tmp_path):
    service = make_service(tmp_path)
    faults.arm("wal.append", "torn(0.9)*1")
    assert service.insert("R", (6, 60))  # rollback + one retry, clean append
    assert not service.degraded
    recovered = QueryService.recover(tmp_path / "store")
    assert recovered.database.version == service.database.version


# ---------------------------------------------------------------------- #
# Degraded read-only mode                                                 #
# ---------------------------------------------------------------------- #


def test_degraded_mode_sheds_writes_serves_reads_and_rearms(tmp_path):
    service = make_service(tmp_path, degraded_probe_interval=0.15)
    assert service.cursor(Q).count == 2

    faults.arm("wal.fsync", "error(ENOSPC)")
    with pytest.raises(ServiceDegradedError) as exc_info:
        service.insert("R", (3, 30))
    assert isinstance(exc_info.value.__cause__, OSError)
    assert service.degraded
    assert "ENOSPC" in service.degraded_reason

    # Shedding: a write inside the probe interval raises without even
    # touching the (still armed) failpoint.
    fired = faults.stats()["wal.fsync"]["fired"]
    with pytest.raises(ServiceDegradedError):
        service.insert("R", (4, 40))
    assert faults.stats()["wal.fsync"]["fired"] == fired

    # Reads answer wait-free throughout.
    assert service.cursor(Q).count == 2

    # Probe against a still-dead device: stays degraded.
    time.sleep(0.2)
    with pytest.raises(ServiceDegradedError):
        service.insert("R", (4, 40))
    assert faults.stats()["wal.fsync"]["fired"] == fired + 1

    # Device recovers: the next probe write re-arms the service.
    faults.disarm_all()
    time.sleep(0.2)
    assert service.insert("R", (5, 50))
    assert not service.degraded
    stats = service.stats()
    assert stats.degraded_entries == 1
    assert stats.degraded_seconds > 0


def test_degraded_stats_count_ongoing_period(tmp_path):
    service = make_service(tmp_path, degraded_probe_interval=60.0)
    faults.arm("wal.fsync", "error(ENOSPC)")
    with pytest.raises(ServiceDegradedError):
        service.insert("R", (3, 30))
    time.sleep(0.05)
    assert service.stats().degraded_seconds >= 0.05
    assert service.degraded_since_seconds >= 0.05


# ---------------------------------------------------------------------- #
# Checkpoints                                                             #
# ---------------------------------------------------------------------- #


@pytest.mark.parametrize("site", ["checkpoint.stage", "checkpoint.publish"])
def test_checkpoint_failure_keeps_previous_checkpoint(tmp_path, site):
    service = make_service(tmp_path)
    service.insert("R", (3, 30))
    service.checkpoint()
    before = latest_checkpoint(service.storage.directory)
    assert before is not None

    service.insert("R", (4, 40))
    faults.arm(site, "error(ENOSPC)")
    with pytest.raises(OSError):
        service.checkpoint()
    faults.disarm_all()

    # Previous checkpoint authoritative, no staging litter.
    after = latest_checkpoint(service.storage.directory)
    assert after is not None and after.version == before.version
    litter = [p for p in (service.storage.directory / "checkpoints").iterdir()
              if ".tmp" in p.name]
    assert litter == []
    # And the store still checkpoints fine afterwards.
    service.checkpoint()
    assert latest_checkpoint(service.storage.directory).version \
        == service.database.version


def test_checkpoint_transient_failure_is_retried(tmp_path):
    service = make_service(tmp_path)
    service.insert("R", (3, 30))
    faults.arm("checkpoint.stage", "error(EIO)*1")
    service.checkpoint()  # transient: absorbed by the retry loop
    assert service.storage.checkpoint_retries >= 1
    assert latest_checkpoint(service.storage.directory).version \
        == service.database.version


def test_blob_load_failure_degrades_to_lazy_rebuild(tmp_path):
    service = make_service(tmp_path, store="flat")
    assert service.cursor(Q).count == 2
    service.checkpoint()  # persists the flat entry as a serve blob

    faults.arm("serve_blob.load", "error(EIO)")
    recovered = QueryService.recover(tmp_path / "store", store="flat")
    faults.disarm_all()

    # Recovery itself must succeed; the unreadable entry just was not
    # seeded and rebuilds on first use.
    assert recovered.storage.last_report.serve_entries_seeded == 0
    assert recovered.cursor(Q).count == 2


# ---------------------------------------------------------------------- #
# Atomic CSV publication                                                  #
# ---------------------------------------------------------------------- #


def test_atomic_write_failure_leaves_original_intact(tmp_path):
    from repro.storage.atomic import write_relation_csv

    relation = Relation("R", ("a", "b"), [(1, 10)])
    path = write_relation_csv(tmp_path, relation)
    original = path.read_bytes()

    grown = Relation("R", ("a", "b"), [(1, 10), (2, 20)])
    faults.arm("atomic.write", "error(ENOSPC)")
    with pytest.raises(OSError):
        write_relation_csv(tmp_path, grown)
    faults.disarm_all()

    assert path.read_bytes() == original
    assert [p for p in tmp_path.iterdir() if p.suffix == ".tmp"] == []
    # And publication works again once the device does.
    write_relation_csv(tmp_path, grown)
    assert b"2,20" in path.read_bytes()


# ---------------------------------------------------------------------- #
# HTTP tier                                                               #
# ---------------------------------------------------------------------- #


def http_app(tmp_path, **kwargs):
    db = Database([Relation("R", ("a", "b"), [(1, 10), (2, 20)])])
    return create_app(db, storage=str(tmp_path / "store"), **kwargs)


def ingest_line(client, row, **kwargs):
    body = ('{"op": "insert", "relation": "R", "row": %s}' % row).encode()
    return client.post("/ingest", body=body, **kwargs)


def test_server_ingest_fault_answers_503(tmp_path):
    client = TestClient(http_app(tmp_path))
    faults.arm("server.ingest", "error(EIO)*1")
    response = ingest_line(client, "[3, 30]")
    assert response.status == 503
    # The failure was before validation/apply: nothing changed, and the
    # next ingest sails through.
    assert ingest_line(client, "[3, 30]").status == 200


def test_http_degraded_flow(tmp_path):
    app = http_app(tmp_path)
    app.service.degraded_probe_interval = 0.15
    client = TestClient(app)

    faults.arm("wal.fsync", "error(ENOSPC)")
    response = ingest_line(client, "[3, 30]")
    assert response.status == 503
    assert response.headers.get("retry-after") is not None
    assert response.json()["degraded"] is True

    health = client.get("/healthz").json()
    assert health["status"] == "degraded"
    assert "ENOSPC" in health["degraded_reason"]

    # Reads still answer while the write path is down.
    opened = client.post("/cursors", json={"query": Q})
    assert opened.status == 201 and opened.json()["count"] == 2

    faults.disarm_all()
    time.sleep(0.2)
    assert ingest_line(client, "[3, 30]").status == 200
    assert client.get("/healthz").json()["status"] == "ok"
    stats = client.get("/stats").json()
    assert stats["service"]["degraded_entries"] == 1
    assert stats["service"]["faults_injected"] >= 1


def test_token_bucket_limiter_unit():
    now = [0.0]
    limiter = TokenBucketLimiter(rate=2.0, burst=2, clock=lambda: now[0])
    limiter.admit("a")
    limiter.admit("a")
    with pytest.raises(RateLimitedError) as exc_info:
        limiter.admit("a")
    assert exc_info.value.retry_after == pytest.approx(0.5)
    limiter.admit("b")  # other clients unaffected
    now[0] = 0.5  # one token refilled
    limiter.admit("a")
    assert limiter.gauges()["rejections"] == 1


def test_token_bucket_table_is_lru_bounded():
    now = [0.0]
    limiter = TokenBucketLimiter(rate=1.0, burst=1, capacity=2,
                                 clock=lambda: now[0])
    limiter.admit("a")
    limiter.admit("b")
    limiter.admit("c")  # evicts a
    assert limiter.gauges()["clients"] == 2
    limiter.admit("a")  # back with a fresh bucket, not a stale empty one


def test_http_admission_control(tmp_path):
    app = http_app(tmp_path, client_rate=0.001, client_burst=2)
    client = TestClient(app)

    assert client.get("/healthz").status == 200  # exempt
    open_cursor = lambda cid: client.post(
        "/cursors", json={"query": Q}, headers={"X-Client-Id": cid}
    )
    assert open_cursor("alice").status == 201
    assert open_cursor("alice").status == 201
    limited = open_cursor("alice")
    assert limited.status == 429
    assert int(limited.headers["retry-after"]) >= 1
    assert open_cursor("bob").status == 201  # per-client, not global
    assert client.get("/healthz").status == 200  # still exempt
    assert client.get("/stats").json()["admission"]["rejections"] == 1


def test_admission_falls_back_to_peer_address(tmp_path):
    app = http_app(tmp_path, client_rate=0.001, client_burst=1)
    client = TestClient(app)
    assert client.post("/cursors", json={"query": Q}).status == 201
    # Same peer (the TestClient's fixed 127.0.0.1), no header: limited.
    assert client.post("/cursors", json={"query": Q}).status == 429


# ---------------------------------------------------------------------- #
# Graceful drain                                                          #
# ---------------------------------------------------------------------- #


def test_graceful_drain_finishes_inflight_requests(tmp_path):
    import json as jsonlib
    import threading
    import urllib.request
    from repro.server import start_background

    app = http_app(tmp_path)
    server, thread, port = start_background(app)
    try:
        faults.arm("server.ingest", "latency(0.4)")
        statuses = []

        def slow_ingest():
            request = urllib.request.Request(
                f"http://127.0.0.1:{port}/ingest",
                data=b'{"op": "insert", "relation": "R", "row": [7, 70]}',
                method="POST",
            )
            with urllib.request.urlopen(request) as response:
                statuses.append(
                    (response.status, jsonlib.loads(response.read())["version"])
                )

        worker = threading.Thread(target=slow_ingest)
        worker.start()
        deadline = time.monotonic() + 2.0
        while server.inflight == 0 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert server.inflight == 1
        assert server.shutdown_gracefully(timeout=5.0)
        worker.join(timeout=5.0)
        # The in-flight write finished, was acknowledged, and is durable.
        assert statuses and statuses[0][0] == 200
        assert app.service.database.version == statuses[0][1]
    finally:
        faults.disarm_all()
        server.shutdown()
        server.server_close()
        thread.join(timeout=5.0)


def test_drain_refuses_new_requests():
    from repro.server.http import ASGIServer

    server = ASGIServer.__new__(ASGIServer)
    server._inflight = 0
    server._draining = False
    import threading as _threading
    server._drain_cv = _threading.Condition()
    assert server.track_request()
    server.untrack_request()
    assert server.drain(timeout=0.1)
    assert not server.track_request()
