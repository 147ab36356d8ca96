"""Span recording around a fixed list of *public* ``repro`` callables.

The traced run must not change a line under ``src/``: :func:`install`
rebinds each name in :data:`TARGETS` with a wrapper that records one span
per call — name, start, end, parent span, request id — into an in-memory
list, written out once at exit (:meth:`Recorder.dump`). A layer's self
time is computed afterwards (:func:`metrics.self_times`).

The request id travels in the ``X-Request-Id`` header; the wrapper on
``ReproApp.__call__`` reads it and every span opened beneath it on that
thread inherits it. Only durations ever cross the process boundary — the
client never compares its clock with the server's.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from typing import Callable, List, Optional, Tuple

_clock = time.perf_counter


class Recorder:
    """An append-only span list with one open-span stack per thread."""

    def __init__(self):
        self.spans: List[tuple] = []
        self._local = threading.local()
        self._ids = itertools.count(1)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self, rid: Optional[str] = None) -> list:
        """Open a span; returns its frame ``[id, parent, rid, t0]``."""
        stack = self._stack()
        span_id = next(self._ids)
        if stack:
            parent = stack[-1]
            frame = [span_id, parent[0], rid if rid is not None else parent[2], 0.0]
        else:
            frame = [span_id, -1, rid or "", 0.0]
        stack.append(frame)
        frame[3] = _clock()
        return frame

    def exit(self, frame: list, name: str, n: int = 0) -> None:
        t1 = _clock()
        self._stack().pop()
        self.spans.append((frame[0], frame[1], name, frame[2], frame[3], t1, n))

    def dump(self, path: str, extra: Optional[dict] = None) -> None:
        """Write ``trace.jsonl``: one header line, then one span per line."""
        with open(path, "w") as handle:
            handle.write(json.dumps({"header": extra or {}}) + "\n")
            for span in list(self.spans):
                handle.write(json.dumps(span) + "\n")


def load(path: str):
    """``(header, [metrics.Span])`` from a dumped trace."""
    from metrics import Span

    with open(path) as handle:
        header = json.loads(handle.readline())["header"]
        spans = [Span(*json.loads(line)) for line in handle if line.strip()]
    return header, spans


# ---------------------------------------------------------------------- #
# Counts read off a call                                                  #
# ---------------------------------------------------------------------- #


def _len_of_result(args, kwargs, result) -> int:
    return len(result) if result is not None else 0


def _len_of_arg1(args, kwargs, result) -> int:
    try:
        return len(args[1])
    except (IndexError, TypeError):
        return 0


def _replayed_batches(args, kwargs, result) -> int:
    report = getattr(getattr(result, "storage", None), "last_report", None)
    return report.replayed_batches if report is not None else 0


def _database_size(args, kwargs, result) -> int:
    return result.size()


def _build_size(args, kwargs, result) -> int:
    # CQIndex(query, database, …) / MCUCQIndex(ucq, database, …)
    database = args[2] if len(args) > 2 else kwargs.get("database")
    return database.size() if database is not None else 0


#: (module, owner class or None, attribute, span name, count reader).
#: Every entry is a public name of its module or class.
TARGETS: Tuple[tuple, ...] = (
    # read stack
    ("repro.server.app", "ReproApp", "__call__", "app.call", None),
    ("repro.server.app", "ReproApp", "dispatch", "app.dispatch", None),
    ("repro.server.sessions", "SessionTable", "get", "sessions", None),
    ("repro.server.sessions", "SessionTable", "charge", "sessions", None),
    ("repro.service.query_service", "QueryService", "cursor", "service.resolve", None),
    ("repro.service.cursor", "Cursor", "pinned", "service.resolve", None),
    ("repro.service.cursor", "Cursor", "version", "service.resolve", None),
    ("repro.core.cq_index", "CQIndex", "batch", "engine.walk", _len_of_result),
    ("repro.core.cq_index", "CQIndex", "sample_many", "engine.walk", None),
    ("repro.core.cq_index", "CQIndex", "inverted_access", "engine.walk", None),
    ("repro.core.dynamic", "EngineServingMixin", "batch", "engine.walk", _len_of_result),
    ("repro.core.dynamic", "EngineServingMixin", "sample_many", "engine.walk", None),
    ("repro.core.dynamic", "EngineServingMixin", "inverted_access", "engine.walk", None),
    ("repro.core.union_access", "MCUCQIndex", "batch", "engine.walk", _len_of_result),
    ("repro.core.union_access", "MCUCQIndex", "sample_many", "engine.walk", None),
    ("repro.core.union_access", "UnionIndexSnapshot", "batch", "engine.walk", _len_of_result),
    ("repro.core.union_access", "UnionIndexSnapshot", "sample_many", "engine.walk", None),
    ("repro.core.flat_store", None, "flat_batch", "flat_store.batch", None),
    ("repro.core.shuffle", None, "sample_positions", "shuffle.sample", None),
    # write stack
    ("repro.server.app", "ReproApp", "handle_ingest", "app.ingest", None),
    ("repro.database.delta", None, "delta_from_jsonl", "delta.parse", _len_of_result),
    ("repro.service.query_service", "QueryService", "apply", "service.apply", _len_of_arg1),
    ("repro.database.database", "Database", "apply", "database.apply", None),
    ("repro.storage.wal", "WriteAheadLog", "append", "wal.append", None),
    ("os", None, "fsync", "os.fsync", None),
    ("repro.core.dynamic", "DynamicCQIndex", "insert", "dynamic.absorb", None),
    ("repro.core.dynamic", "DynamicCQIndex", "delete", "dynamic.absorb", None),
    ("repro.core.dynamic", "DynamicCQIndex", "apply_delta", "dynamic.absorb", None),
    ("repro.core.union_access", "MCUCQIndex", "insert", "dynamic.absorb", None),
    ("repro.core.union_access", "MCUCQIndex", "delete", "dynamic.absorb", None),
    ("repro.core.union_access", "MCUCQIndex", "apply_delta", "dynamic.absorb", None),
    ("repro.core.order_tree", "OrderedWeightTree", "snapshot", "dynamic.publish", None),
    ("repro.core.flat_store", "FlatOrderTree", "snapshot", "dynamic.publish", None),
    ("repro.service.query_service", "QueryService", "checkpoint", "storage.checkpoint", None),
    ("repro.service.query_service", "QueryService", "recover", "storage.recover", _replayed_batches),
    ("repro.storage.store", "DurableStore", "load_base", "storage.load", None),
    # set-up
    ("repro.cli", None, "load_csv_database", "database.load", _database_size),
    ("repro.tpch.dbgen", None, "generate", "database.load", _database_size),
    ("repro.core.cq_index", "CQIndex", "__init__", "core.build", _build_size),
    ("repro.core.dynamic", "DynamicCQIndex", "__init__", "core.build", _build_size),
    ("repro.core.union_access", "MCUCQIndex", "__init__", "core.build", _build_size),
)


def _request_id(scope) -> str:
    for name, value in scope.get("headers") or ():
        if name == b"x-request-id":
            return value.decode("latin-1")
    return ""


def _wrap(recorder: Recorder, original: Callable, name: str, count) -> Callable:
    if name == "app.call":
        # The ASGI entry point: a coroutine, and where the request id is read.
        @functools.wraps(original)
        async def traced_call(self, scope, receive, send):
            frame = recorder.enter(_request_id(scope))
            try:
                return await original(self, scope, receive, send)
            finally:
                recorder.exit(frame, name)

        return traced_call

    @functools.wraps(original)
    def traced(*args, **kwargs):
        frame = recorder.enter()
        n = 0
        try:
            result = original(*args, **kwargs)
            if count is not None:
                n = count(args, kwargs, result)
            return result
        finally:
            recorder.exit(frame, name, n)

    return traced


def _rebind_everywhere(original, replacement, attribute: str) -> None:
    """Module-level functions are imported by name into other modules
    (``from repro.core.shuffle import sample_positions``): rebind every
    loaded module that holds the original under that name."""
    for module in list(sys.modules.values()):
        if module is not None and getattr(module, attribute, None) is original:
            setattr(module, attribute, replacement)


def install(recorder: Recorder, skip: Tuple[str, ...] = ()) -> None:
    """Rebind every target (but attributes named in ``skip``) with its
    span-recording wrapper."""
    for module_name, owner_name, attribute, name, count in TARGETS:
        if attribute in skip:
            continue
        module = importlib.import_module(module_name)
        if owner_name is None:
            original = getattr(module, attribute)
            _rebind_everywhere(
                original, _wrap(recorder, original, name, count), attribute
            )
            continue
        owner = getattr(module, owner_name)
        raw = owner.__dict__[attribute]
        if isinstance(raw, property):
            wrapped = property(_wrap(recorder, raw.fget, name, count), doc=raw.__doc__)
        elif isinstance(raw, classmethod):
            wrapped = classmethod(_wrap(recorder, raw.__func__, name, count))
        else:
            wrapped = _wrap(recorder, raw, name, count)
        setattr(owner, attribute, wrapped)
