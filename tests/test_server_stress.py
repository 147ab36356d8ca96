"""Threaded stress: HTTP readers paging while JSONL ingest streams.

The generation-swap scheme of ``test_concurrency_stress``, over the wire:
every ingest batch replaces the *whole* current generation of ``R`` rows
with the next one (one ``Delta``, one version bump), so any answer page
that mixes generations — or whose reported ``version`` disagrees with the
generation its answers carry, under either ``on_stale`` policy — proves a
read that straddled a write.

Readers hammer one app through the thread-safe in-process
:class:`~repro.server.testing.TestClient` from many threads, exactly the
concurrency shape of the stdlib thread-per-connection bridge.
"""

import json
import sys
import threading
import time

from repro import Database, Relation
from repro.server import create_app
from repro.server.testing import TestClient

#: Generation ``g`` owns the key range [g*STRIDE, g*STRIDE + ROWS).
STRIDE = 10_000
ROWS = 120
GENERATIONS = 25
QUERY = "Q(a, b) :- R(a, b)"


def gen_rows(generation: int):
    return [(generation * STRIDE + i, i) for i in range(ROWS)]


def swap_body(old: int, new: int) -> bytes:
    ops = [
        {"op": "delete", "relation": "R", "row": list(row)}
        for row in gen_rows(old)
    ] + [
        {"op": "insert", "relation": "R", "row": list(row)}
        for row in gen_rows(new)
    ]
    return "".join(json.dumps(op) + "\n" for op in ops).encode("utf-8")


def generation_of(page_answers) -> set:
    return {a // STRIDE for a, _ in page_answers}


def test_http_readers_see_one_generation_per_page():
    switch = sys.getswitchinterval()
    sys.setswitchinterval(0.001)  # force frequent preemption
    try:
        _run_storm()
    finally:
        sys.setswitchinterval(switch)


def _run_storm():
    database = Database([Relation("R", ("a", "b"), gen_rows(0))])
    app = create_app(database, dynamic=True, session_ttl=None)
    client = TestClient(app)
    base_version = client.get("/healthz").json()["version"]

    # Each swap is one batch, one version bump: the generation wholly
    # visible at version v is exactly v - base_version. That determinism
    # is what lets readers check version <-> content with no side channel.
    stop = threading.Event()
    failures = []

    def writer():
        try:
            for generation in range(GENERATIONS):
                response = client.post(
                    "/ingest", body=swap_body(generation, generation + 1)
                )
                assert response.status == 200, response.text
                payload = response.json()
                assert payload["inserted"] == ROWS
                assert payload["deleted"] == ROWS
                assert payload["version"] == base_version + generation + 1
        except Exception as error:  # pragma: no cover - failure path
            failures.append(f"writer: {error!r}")
        finally:
            stop.set()

    def reader(on_stale: str):
        try:
            pages = 0
            session = client.post(
                "/cursors", json={"query": QUERY, "on_stale": on_stale}
            ).json()
            while not (stop.is_set() and pages > 0):
                sid = session["cursor"]
                response = client.get(
                    f"/cursors/{sid}/page?number={pages % 3}&size=40"
                )
                if response.status == 409:
                    # refresh itself may lose the race to yet another
                    # write (another 409) — just try again.
                    refreshed = client.post(f"/cursors/{sid}/refresh")
                    assert refreshed.status in (200, 409), refreshed.text
                    continue
                assert response.status == 200, response.text
                payload = response.json()
                generations = generation_of(payload["answers"])
                # The consistency contract: one pinned view per read.
                assert len(generations) == 1, (
                    f"page mixed generations {generations}"
                )
                # Version honesty, both policies: the reported version
                # is the one these answers were published for.
                expected = payload["version"] - base_version
                assert generations == {expected}, (
                    f"version {payload['version']} served generation "
                    f"{generations}, expected {{{expected}}}"
                )
                pages += 1
            assert pages > 0
        except Exception as error:  # pragma: no cover - failure path
            failures.append(f"reader({on_stale}): {error!r}")

    readers = [
        threading.Thread(target=reader, args=("raise",)),
        threading.Thread(target=reader, args=("raise",)),
        threading.Thread(target=reader, args=("reresolve",)),
        threading.Thread(target=reader, args=("reresolve",)),
    ]
    writer_thread = threading.Thread(target=writer)
    for thread in readers:
        thread.start()
    writer_thread.start()
    writer_thread.join(timeout=120)
    for thread in readers:
        thread.join(timeout=120)
    assert not failures, failures
    assert not writer_thread.is_alive()

    # The storm settled on the final generation, fully swapped.
    final = client.post("/cursors", json={"query": QUERY}).json()
    assert final["count"] == ROWS
    sid = final["cursor"]
    last_page = client.get(f"/cursors/{sid}/batch?start=0&stop={ROWS}").json()
    assert generation_of(last_page["answers"]) == {GENERATIONS}


def test_concurrent_ingests_report_the_version_their_batch_produced(tmp_path):
    """Two clients ingest at once; the app holds no lock of its own. Each
    response's ``"version"`` must be the version *that* batch produced —
    checked against the write-ahead log, which records every batch under
    the version it was published as."""
    batches = 40
    database = Database([Relation("W", ("client", "seq"), [])])
    app = create_app(database, storage=tmp_path)
    client = TestClient(app)
    acknowledged = {}  # the fact a batch inserted -> the version it reported
    failures = []
    apply = app.service.apply

    def preempted_after_apply(delta):
        # A handler descheduled between its apply and building its
        # response: the other client's batch lands in the gap.
        result = apply(delta)
        time.sleep(0.002)
        return result

    app.service.apply = preempted_after_apply

    def ingester(name: str):
        try:
            for seq in range(batches):
                op = {"op": "insert", "relation": "W", "row": [name, seq]}
                response = client.post(
                    "/ingest", body=(json.dumps(op) + "\n").encode("utf-8")
                )
                assert response.status == 200, response.text
                acknowledged[(name, seq)] = response.json()["version"]
        except Exception as error:  # pragma: no cover - failure path
            failures.append(f"ingester({name}): {error!r}")

    threads = [
        threading.Thread(target=ingester, args=(name,)) for name in ("a", "b")
    ]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(0.0001)  # force frequent preemption
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(switch)
    assert not failures, failures
    assert not any(thread.is_alive() for thread in threads)
    logged = {
        record.ops[0][2]: record.version
        for record in app.service.storage.wal.records()
    }
    assert len(logged) == 2 * batches
    assert acknowledged == logged
    assert client.get("/healthz").json()["version"] == max(logged.values())
    app.service.storage.wal.close()
