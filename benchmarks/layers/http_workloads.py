"""The three HTTP workloads: what is launched, what load is offered, and
how every response is checked.

Each workload is a small class with the same five steps — ``serve_flags``,
``ready`` (first oracle-correct count: the end of set-up), ``prepare``,
``window`` (the measured load, also run once unmeasured as warm-up) and
``after`` (stats, disk, crash leg) — so :mod:`run` can drive untraced and
traced runs through one code path.
The generator is one process with at most two threads and connections.
"""

from __future__ import annotations

import json
import os
import random
import threading
import time
import urllib.parse
from typing import Callable, Dict, List, Optional

import inputs
import metrics
from metrics import Read, Window, Write
from oracle import PathOracle
from sut import Client, Server, directory_bytes


class Deferred:
    """Read responses held until the window closes.

    Inside the window the generator only moves bytes; decoding and oracle
    checks run afterwards, so its own CPU work never sits between two timed
    requests or holds the GIL while the other client thread is being timed.
    """

    def __init__(self, window: Window):
        self.window = window
        self._held: List[tuple] = []

    def hold(self, kind, call, check: Callable[[dict], Optional[str]],
             answers: Callable[[dict], int] = lambda payload: len(payload["answers"])):
        _status, raw, latency, rid, _sent = call
        self._held.append((kind, rid, latency, raw, check, answers))

    def settle(self) -> Window:
        window = self.window
        for kind, rid, latency, raw, check, answers in self._held:
            started = time.perf_counter()
            payload = json.loads(raw)
            window.decode.append(time.perf_counter() - started)
            window.fail(check(payload))
            window.reads.append(Read(rid, kind, latency, answers(payload), len(raw)))
        return window


def _position_of(sid: str, answer) -> str:
    return f"/cursors/{sid}/position_of?answer=" + urllib.parse.quote(json.dumps(answer))


def _threads(targets: List[Callable[[], Window]]) -> Window:
    """Run one closure per generator thread; merge what they saw. Each
    closure stamps ``seconds`` when its loop ends (before it settles held
    responses); the window lasts until the last of them."""
    results: List[Optional[Window]] = [None] * len(targets)
    errors: List[BaseException] = []

    def runner(position: int) -> None:
        try:
            results[position] = targets[position]()
        except BaseException as error:  # re-raised on the caller's thread
            errors.append(error)

    workers = [
        threading.Thread(target=runner, args=(position,))
        for position in range(len(targets))
    ]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    if errors:
        raise errors[0]
    merged = Window()
    for result in results:
        merged.merge(result)
    return merged


class Workload:
    """State one launched server and its checks share."""

    name = ""
    union = False
    durable = False

    def __init__(self, seed: int, smoke: bool, workdir: str):
        self.seed = seed
        self.smoke = smoke
        self.workdir = workdir
        self.database = inputs.PathDatabase(
            seed, inputs.SIZES[self.name][1 if smoke else 0], self.union
        )
        self.oracle = PathOracle(self.database)
        self.csv = os.path.join(workdir, "csv")
        self.database.write_csv(self.csv)
        #: Every server this object launched, in order (``server`` = last).
        self.servers: List[Server] = []
        self.server: Optional[Server] = None
        self.storage: Optional[str] = None

    # -- launching ------------------------------------------------------ #

    def launch(self, traced: bool, storage: Optional[str] = None) -> Server:
        """Start a server (on fresh storage unless ``storage`` names one)."""
        tag = f"{len(self.servers) + 1}"
        args = [self.csv, *self.serve_flags()]
        if self.durable:
            self.storage = storage or os.path.join(self.workdir, f"store-{tag}")
            args += ["--storage", self.storage]
        self.server = Server(
            args,
            log_file=os.path.join(self.workdir, f"server-{tag}.log"),
            trace_file=(
                os.path.join(self.workdir, f"trace-{tag}.jsonl") if traced else None
            ),
        )
        self.servers.append(self.server)
        return self.server

    def open_cursor(self, client: Client, query: str, expected: int, **options) -> dict:
        status, session = client.json("POST", "/cursors", {"query": query, **options})
        if status != 201 or session.get("count") != expected:
            raise RuntimeError(
                f"{self.name}: cursor on {query!r} answered {status} {session}, "
                f"oracle count {expected}"
            )
        return session

    @property
    def wal(self) -> str:
        return os.path.join(self.storage, "wal.jsonl")

    def checkpoint_bytes(self) -> int:
        """Size of the newest checkpoint directory."""
        checkpoints = os.path.join(self.storage, "checkpoints")
        return directory_bytes(max(
            (entry.path for entry in os.scandir(checkpoints) if entry.is_dir()),
            key=os.path.getmtime,
        ))

    def disk_bytes(self) -> int:
        """Newest checkpoint directory plus the write-ahead log."""
        return self.checkpoint_bytes() + os.path.getsize(self.wal)

    # -- the five steps (overridden per workload) ----------------------- #

    def serve_flags(self) -> List[str]:
        raise NotImplementedError

    def ready(self) -> float:
        """Block until the first oracle-correct count; returns set-up seconds."""
        raise NotImplementedError

    def prepare(self) -> None:
        """What the measured server needs beyond set-up (more sessions,
        a filled live set); skipped for throw-away set-up repeats."""

    def window(self, seconds: float) -> Window:
        raise NotImplementedError

    def after(self, window: Window, traced: bool) -> Dict[str, float]:
        """Post-window facts: ``stats``, disk, restart."""
        status, stats = self.control.json("GET", "/stats")
        if status != 200:
            window.fail(f"/stats answered {status}")
            return {}
        service = stats["service"]
        looked_up = service["hits"] + service["misses"]
        return {
            "cache_hit_share": service["hits"] / looked_up if looked_up else 0.0,
            "locked_reads": service["locked_reads"],
        }


# ---------------------------------------------------------------------- #
# static_http                                                             #
# ---------------------------------------------------------------------- #


class StaticHttp(Workload):
    """2 closed-loop keep-alive clients on a static flat two-path CQ:
    70 % ``page`` (size 1,000, uniform over every page, so the working set
    exceeds any cache), 20 % seeded ``sample`` (k = 1,000), 10 %
    ``position_of`` of an answer the client was served before the window."""

    name = "static_http"
    clients = 2
    #: Pages fetched and decoded in ``prepare`` for ``position_of`` to ask about.
    known_pages = 8

    def serve_flags(self) -> List[str]:
        return ["--store", "flat"]

    def ready(self) -> float:
        self.count = self.database.count(union=False)
        self.size = 100 if self.smoke else 1000
        self.control = self.server.connect("control")
        session = self.open_cursor(self.control, inputs.TWO_PATH_QUERY, self.count)
        setup = time.perf_counter() - self.server.launched
        self.connections = [self.control]
        self.sessions = [session["cursor"]]
        self._round = 0
        return setup

    def prepare(self) -> None:
        for position in range(1, self.clients):
            client = self.server.connect(f"c{position}")
            self.connections.append(client)
            self.sessions.append(
                self.open_cursor(client, inputs.TWO_PATH_QUERY, self.count)["cursor"]
            )
        # The bijection asks where an answer served at a known position is:
        # those answers are fetched and decoded here, so that no decoding
        # happens inside the window.
        rng = random.Random(self.seed + 6)
        pages = -(-self.count // self.size)
        self.known = []  # (page number, its answers)
        for number in rng.sample(range(pages), min(self.known_pages, pages)):
            status, page = self.control.json(
                "GET", f"/cursors/{self.sessions[0]}/page?number={number}&size={self.size}"
            )
            if status != 200:
                raise RuntimeError(f"{self.name}: page {number} answered {status}")
            self.known.append((number, page["answers"]))
        # Inverted-access tables are built lazily by the first position_of:
        # pay that here, not inside the window.
        number, answers = self.known[0]
        status, found = self.control.json(
            "GET", _position_of(self.sessions[0], answers[0])
        )
        if status != 200 or found.get("position") != number * self.size:
            raise RuntimeError(f"{self.name}: position_of(known answer) gave {found}")

    def window(self, seconds: float) -> Window:
        self._round += 1
        started = time.perf_counter()
        return _threads([
            lambda position=position: self._client_loop(position, started, seconds)
            for position in range(self.clients)
        ])

    def _client_loop(self, position: int, started: float, seconds: float) -> Window:
        window = Window()
        held = Deferred(window)
        rng = random.Random(self.seed * 1000 + self._round * 10 + position)
        client, sid = self.connections[position], self.sessions[position]
        oracle, count, size = self.oracle, self.count, self.size
        pages = -(-count // size)
        deadline = started + seconds
        while time.perf_counter() < deadline:
            window.attempted += 1
            draw = rng.random()
            if draw < 0.7:
                number = rng.randrange(pages)
                call = client.call(
                    "GET", f"/cursors/{sid}/page?number={number}&size={size}"
                )
                if call[0] != 200:
                    window.fail(f"page answered {call[0]}")
                    continue
                held.hold("page", call, lambda payload, number=number: (
                    oracle.check_page(payload, number, size, count, False)
                ))
            elif draw < 0.9:
                call = client.call(
                    "GET",
                    f"/cursors/{sid}/sample?k={size}&seed={rng.randrange(1 << 30)}",
                )
                if call[0] != 200:
                    window.fail(f"sample answered {call[0]}")
                    continue
                held.hold("sample", call, lambda payload: (
                    oracle.check_answers(payload["answers"], min(size, count), False)
                ))
            else:
                # The bijection: an answer served at a known position
                # must be found at exactly that position.
                number, answers = self.known[rng.randrange(len(self.known))]
                offset = rng.randrange(len(answers))
                call = client.call("GET", _position_of(sid, answers[offset]))
                if call[0] != 200:
                    window.fail(f"position_of answered {call[0]}")
                    continue
                held.hold(
                    "position_of", call,
                    lambda payload, expected=number * size + offset: (
                        oracle.check_position(payload, expected)
                    ),
                    answers=lambda payload: 1,
                )
        window.seconds = time.perf_counter() - started
        return held.settle()


# ---------------------------------------------------------------------- #
# union_churn_http                                                        #
# ---------------------------------------------------------------------- #


class UnionChurnHttp(Workload):
    """1 closed-loop reader on a strict (``on_stale=raise``) session paging
    size 50 over a hot set of 100 pages of a dynamic tuple mc-UCQ, beside 1
    open-loop writer: one whole-generation slice swap due every 0.5 s,
    WAL-fsynced before it is acknowledged."""

    name = "union_churn_http"
    union = True
    durable = True
    period = 0.5

    def serve_flags(self) -> List[str]:
        return ["--dynamic", "--store", "tuple"]

    def ready(self) -> float:
        self.count = self.database.count(union=True)
        self.size = 20 if self.smoke else 50
        # The hot set: 100 pages drawn once from the whole enumeration. A
        # page of this union costs either ~0.6 ms or ~14 ms in the engine
        # (by which member serves it); about 37 % of all pages are of the
        # dear kind, which keeps p50 inside the cheap pages and p95 inside
        # the dear ones. The first 100 pages are half and half, and put the
        # median on the boundary.
        self.hot = random.Random(self.seed + 5).sample(
            range(self.count // self.size), 20 if self.smoke else 100
        )
        if self.smoke:
            self.period = 0.2
        self.control = self.server.connect("reader")
        session = self.open_cursor(
            self.control, inputs.UNION_QUERY, self.count, on_stale="raise"
        )
        setup = time.perf_counter() - self.server.launched
        self.sid = session["cursor"]
        #: The version that serves slice generation 1.
        self.base_version = session["version"]
        self.generation = 1
        self._round = 0
        return setup

    def prepare(self) -> None:
        self.writer = self.server.connect("writer")

    def window(self, seconds: float) -> Window:
        self._round += 1
        # The swaps this window will send, built before its clock starts
        # (each replaces the generation the one before it installed).
        bodies = [
            self.database.swap_body(self.generation + k, self.generation + k + 1)
            for k in range(int(seconds / self.period))
        ]
        started = time.perf_counter()
        return _threads([
            lambda: self._reader(started, seconds),
            lambda: self._writer(started, bodies),
        ])

    def _reader(self, started: float, seconds: float) -> Window:
        window = Window()
        held = Deferred(window)
        rng = random.Random(self.seed * 1000 + self._round)
        client, sid, size, count = self.control, self.sid, self.size, self.count
        deadline = started + seconds
        while time.perf_counter() < deadline:
            window.attempted += 1
            number = self.hot[rng.randrange(len(self.hot))]
            call = client.call(
                "GET", f"/cursors/{sid}/page?number={number}&size={size}"
            )
            if call[0] == 409:
                # The strict session fell behind a swap: acknowledge and
                # re-bind (the refresh may itself lose to the next swap).
                window.stale_409 += 1
                status, _ = client.json("POST", f"/cursors/{sid}/refresh")
                if status not in (200, 409):
                    window.fail(f"refresh answered {status}")
                continue
            if call[0] != 200:
                window.fail(f"page answered {call[0]}")
                continue
            held.hold("page", call, lambda payload, number=number: (
                self._check_page(window, payload, number)
            ))
        window.seconds = time.perf_counter() - started
        return held.settle()

    def _check_page(self, window: Window, payload: dict, number: int) -> Optional[str]:
        generation = payload["version"] - self.base_version + 1
        violation, touched = self.oracle.check_generation(payload, self.base_version)
        window.slice_pages += touched
        return violation or self.oracle.check_page(
            payload, number, self.size, self.count, True, generation
        )

    def _writer(self, started: float, bodies: List[bytes]) -> Window:
        window = Window()
        rows = self.database.sizes.slice_rows
        wal_size = os.path.getsize(self.wal)
        # First swap half a period in, so it never coincides with the start.
        due_at = metrics.due_times(started + self.period / 2, self.period, len(bodies))
        for due, body in zip(due_at, bodies):
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            window.attempted += 1
            status, raw, wire, rid, sent = self.writer.call("POST", "/ingest", body)
            if status != 200:
                window.fail(f"ingest answered {status}")
                continue
            self.generation += 1
            window.fail(self.oracle.check_ack(
                json.loads(raw), rows, rows,
                self.base_version + self.generation - 1,
            ))
            size = os.path.getsize(self.wal)
            window.wal_bytes += size - wal_size
            wal_size = size
            latency, late = metrics.open_loop_latency(due, sent, sent + wire)
            window.writes.append(Write(rid, "swap", latency, wire, 2 * rows, late))
        window.seconds = time.perf_counter() - started
        return window

    def after(self, window: Window, traced: bool) -> Dict[str, float]:
        facts = super().after(window, traced)
        if window.reads and not window.slice_pages:
            window.fail("no page touched the swapped slice: version check never engaged")
        facts["disk_bytes_per_fact"] = self.disk_bytes() / self.database.facts()
        return facts


# ---------------------------------------------------------------------- #
# durable_ingest                                                          #
# ---------------------------------------------------------------------- #


class DurableIngest(Workload):
    """1 closed-loop writer to ``POST /ingest`` on a dynamic flat CQ with
    fsync on: 70 % single-fact batches, 30 % 500-op batches; a second
    connection posts ``/admin/checkpoint`` every 10 s. Then the crash leg:
    ``SIGKILL`` mid-stream, relaunch on the same storage."""

    name = "durable_ingest"
    union = True  # same R/S/T schema; T is loaded but not queried
    durable = True

    def serve_flags(self) -> List[str]:
        return ["--dynamic", "--store", "flat"]

    def ready(self) -> float:
        self.bulk = 50 if self.smoke else 500
        self.control = self.server.connect("writer")
        session = self.open_cursor(
            self.control, inputs.TWO_PATH_QUERY, self.database.count(union=False)
        )
        setup = time.perf_counter() - self.server.launched
        self.version = session["version"]
        self.oracle.ingested.clear()
        self.live = 0
        self.last_batch: Optional[inputs.Batch] = None
        return setup

    def prepare(self) -> None:
        # The side query: a second cached entry every write must carry.
        self.open_cursor(
            self.control, inputs.SIDE_QUERY, len(self.database.tables["S"][1])
        )
        self.admin = self.server.connect("admin")
        self.target = (1 if self.smoke else 4) * self.bulk
        self.stream = inputs.IngestStream(
            self.database, self.seed, self.bulk, target=self.target
        )
        self.wal_size = os.path.getsize(self.wal)
        # Fill the live set before anything is timed, so |R| (and with it
        # the per-op cost) holds steady over the window.
        filling = Window()
        while self.live < self.target:
            if not self._send(filling) or filling.failures:
                raise RuntimeError(f"{self.name}: fill failed: {filling.failures[:1]}")

    def _send(self, window: Window) -> bool:
        """One batch, closed loop; ``False`` when the server is gone."""
        batch = self.stream.next_batch()
        window.attempted += 1
        status, raw, wire, rid, _ = self.control.call("POST", "/ingest", batch.body)
        if status == 0:
            return False
        if status != 200:
            window.fail(f"ingest answered {status}")
            return True
        self.version += 1
        window.fail(self.oracle.check_ack(
            json.loads(raw), batch.inserts, batch.deletes, self.version
        ))
        for op, row in batch.ops:
            (self.oracle.ingested.add if op == "insert" else self.oracle.ingested.discard)(row)
        self.live, self.last_batch = batch.live_after, batch
        size = os.path.getsize(self.wal)
        window.wal_bytes += max(0, size - self.wal_size)  # a checkpoint trims it
        self.wal_size = size
        window.writes.append(Write(
            rid, "single" if len(batch.ops) == 1 else "bulk", wire, wire,
            len(batch.ops), 0.0,
        ))
        return True

    def window(self, seconds: float) -> Window:
        started = time.perf_counter()

        def writer() -> Window:
            window = Window()
            while time.perf_counter() < started + seconds:
                if not self._send(window):
                    window.fail("server went away mid-window")
                    break
            window.seconds = time.perf_counter() - started
            return window

        def checkpointer() -> Window:
            window = Window()
            # One checkpoint per 10 s of window (at least one), evenly spaced.
            cycles = max(1, round(seconds / 10.0))
            period = seconds / cycles
            for due in metrics.due_times(started + period / 2, period, cycles):
                time.sleep(max(0.0, due - time.perf_counter()))
                window.attempted += 1
                status, _ = self.admin.json("POST", "/admin/checkpoint")
                if status != 200:
                    window.fail(f"checkpoint answered {status}")
            return window

        return _threads([writer, checkpointer])

    def expected_count(self) -> int:
        return self.database.count(union=False, extra_r_rows=self.live)

    def after(self, window: Window, traced: bool) -> Dict[str, float]:
        facts = super().after(window, traced)
        held = self.database.facts() + self.live
        facts["disk_bytes_per_fact"] = self.disk_bytes() / held
        facts["checkpoint_bytes"] = self.checkpoint_bytes()
        facts["restart_s"] = self._restart(window, traced)
        return facts

    def _restart(self, window: Window, traced: bool) -> float:
        """The crash leg. Untraced: ``SIGKILL`` while the stream is still
        flowing, drop whatever the WAL holds past the last acknowledged
        byte (a kill leaves the OS cache intact, so the test discards the
        unflushed tail itself), relaunch. Traced: a ``SIGTERM`` instead,
        so the first server's spans survive — recovery reads the same
        checkpoint + WAL either way."""
        if traced:
            self.server.stop()
        else:
            rng = random.Random(self.seed + 3)
            killer = threading.Timer(rng.uniform(0.15, 0.4), self.server.kill)
            killer.start()
            crashing = Window()
            while self._send(crashing):
                pass
            killer.join()
            window.attempted += crashing.attempted - 1  # the torn one was never acknowledged
            window.failures += crashing.failures
            with open(self.wal, "rb+") as handle:
                handle.truncate(self.wal_size)
        server = self.launch(traced, storage=self.storage)
        client = server.connect("restart")
        window.attempted += 1
        status, session = client.json("POST", "/cursors", {"query": inputs.TWO_PATH_QUERY})
        restart = time.perf_counter() - server.launched
        if status != 201 or (session.get("count"), session.get("version")) != (
            self.expected_count(), self.version
        ):
            window.fail(
                f"recovered (count, version) = "
                f"{(session.get('count'), session.get('version'))}, last "
                f"acknowledged {(self.expected_count(), self.version)}"
            )
            return restart
        # Every row of the last acknowledged batch (a seeded 25 of a bulk
        # batch: one position_of costs a full request) must be where the
        # acknowledgement said: present if inserted, absent if deleted.
        rng = random.Random(self.seed + 4)
        ops, most = self.last_batch.ops, 3 if self.smoke else 25
        for op, (a, b) in ops if len(ops) <= most else rng.sample(ops, most):
            window.attempted += 1
            status, payload = client.json(
                "GET", _position_of(session["cursor"], [a, b, self.database.c0])
            )
            found = status == 200 and payload.get("position") is not None
            if status != 200 or found != (op == "insert"):
                window.fail(
                    f"after restart, {op}ed row {(a, b)} "
                    f"{'found' if found else 'missing'} (status {status})"
                )
        return restart


WORKLOADS = {
    cls.name: cls for cls in (StaticHttp, UnionChurnHttp, DurableIngest)
}
