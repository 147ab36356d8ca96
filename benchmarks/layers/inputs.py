"""Seeded inputs: the relations each workload serves and the write streams.

The seed relabels values, shuffles file order and drives every request
sequence, but never changes a cardinality: run-to-run spread across seeds
must come from the system, not from a bigger or smaller database.
"""

from __future__ import annotations

import csv
import json
import os
import random
from collections import deque
from typing import Dict, List, NamedTuple, Tuple

#: Generation ``g`` of the swapped R slice owns ``a`` values in
#: ``[a0 + g·STRIDE, a0 + g·STRIDE + slice_rows)``; generation 0 is the
#: static bulk (the ``bench_http`` construction).
STRIDE = 1_000_000
#: First ``a`` offset of rows the ingest stream inserts.
INGEST_BASE = 50 * STRIDE

TWO_PATH_QUERY = "Q(a, b, c) :- R(a, b), S(b, c)"
UNION_QUERY = "Q(a, b, c) :- R(a, b), S(b, c) ; Q(a, b, c) :- R(a, b), T(b, c)"
SIDE_QUERY = "QS(b, c) :- S(b, c)"


class Sizes(NamedTuple):
    """Cardinalities of one generated database (``slice_rows`` and the T
    relation are 0/absent for the static two-path database)."""

    static_rows: int
    slice_rows: int
    keys: int
    partners: int


#: workload → (full sizes, smoke sizes).
SIZES = {
    # 100k + 2,000·50 = 200k facts, 100k·50 = 5M answers.
    "static_http": (Sizes(100_000, 0, 2_000, 50), Sizes(2_000, 0, 100, 10)),
    # bench_http's mc-UCQ: 4k + 2·500·100 = 104k facts, 4k·150 = 600k answers.
    "union_churn_http": (Sizes(3_400, 600, 500, 100), Sizes(500, 100, 60, 20)),
    "durable_ingest": (Sizes(3_400, 600, 500, 100), Sizes(500, 100, 60, 20)),
}


class PathDatabase:
    """One generated R/S(/T) database and the facts an oracle needs."""

    def __init__(self, seed: int, sizes: Sizes, union: bool):
        rng = random.Random(seed)
        self.sizes = sizes
        self.union = union
        self.a0 = rng.randrange(1, 1000) * 1000
        b0 = rng.randrange(1, 1000) * 10_000
        self.labels = list(range(b0, b0 + sizes.keys))
        rng.shuffle(self.labels)
        self.c0 = rng.randrange(1, 1000) * 100
        self._order = random.Random(seed + 1)
        #: relation → (columns, rows): the database as first served.
        self.tables: Dict[str, Tuple[Tuple[str, ...], list]] = {
            "R": (("a", "b"), self.r_rows()),
            "S": (("b", "c"), self.s_rows()),
        }
        if union:
            self.tables["T"] = (("b", "c"), self.t_rows())

    # -- rows ----------------------------------------------------------- #

    def generation_rows(self, generation: int, rows: int) -> List[Tuple[int, int]]:
        base = self.a0 + generation * STRIDE
        labels, keys = self.labels, self.sizes.keys
        return [(base + i, labels[i % keys]) for i in range(rows)]

    def generation_of(self, a: int) -> int:
        return (a - self.a0) // STRIDE

    def r_rows(self) -> List[Tuple[int, int]]:
        return self.generation_rows(0, self.sizes.static_rows) + (
            self.generation_rows(1, self.sizes.slice_rows)
        )

    def s_rows(self) -> List[Tuple[int, int]]:
        c0, partners = self.c0, self.sizes.partners
        return [(b, c0 + k) for b in self.labels for k in range(partners)]

    def t_rows(self) -> List[Tuple[int, int]]:
        """S shifted by half its partners: S ∩ T is half of each."""
        c0, partners = self.c0 + self.sizes.partners // 2, self.sizes.partners
        return [(b, c0 + k) for b in self.labels for k in range(partners)]

    def facts(self) -> int:
        return sum(len(rows) for _columns, rows in self.tables.values())

    def write_csv(self, directory: str) -> None:
        """One ``<relation>.csv`` per relation, rows in seeded file order."""
        os.makedirs(directory, exist_ok=True)
        for name, (columns, rows) in self.tables.items():
            rows = list(rows)
            self._order.shuffle(rows)
            with open(os.path.join(directory, f"{name}.csv"), "w", newline="") as handle:
                writer = csv.writer(handle)
                writer.writerow(columns)
                writer.writerows(rows)

    # -- closed-form counts -------------------------------------------- #

    def answers_per_r_row(self, union: bool) -> int:
        """Degree product of one R row: ``partners`` S matches, and for the
        union ``|S-matches| + |T-matches| − |shared|`` by inclusion–exclusion."""
        partners = self.sizes.partners
        return 2 * partners - partners // 2 if union else partners

    def count(self, union: bool, extra_r_rows: int = 0) -> int:
        rows = self.sizes.static_rows + self.sizes.slice_rows + extra_r_rows
        return rows * self.answers_per_r_row(union)

    # -- writes --------------------------------------------------------- #

    def swap_body(self, old: int, new: int) -> bytes:
        """The JSONL batch replacing slice generation ``old`` with ``new``."""
        rows = self.sizes.slice_rows
        return jsonl(
            [("delete", row) for row in self.generation_rows(old, rows)]
            + [("insert", row) for row in self.generation_rows(new, rows)]
        )


def jsonl(ops: List[Tuple[str, Tuple[int, int]]], relation: str = "R") -> bytes:
    return "".join(
        json.dumps({"op": op, "relation": relation, "row": list(row)}) + "\n"
        for op, row in ops
    ).encode("utf-8")


class Batch(NamedTuple):
    body: bytes
    ops: List[Tuple[str, Tuple[int, int]]]
    inserts: int
    deletes: int
    #: R rows the stream has added and not yet deleted, after this batch.
    live_after: int


class IngestStream:
    """The ``durable_ingest`` write stream: 70 % single-fact batches,
    30 % ``bulk``-op batches — exactly 7 and 3 of every 10, in seeded
    order, so two windows never differ in their mix — every op effective
    (fresh inserts, deletes of the oldest live inserted row), holding the
    live set near ``target`` so per-op cost does not drift over the window."""

    def __init__(self, database: PathDatabase, seed: int, bulk: int, target: int):
        self._database = database
        self._rng = random.Random(seed + 2)
        self._bulk = bulk
        self._target = target
        self._live: deque = deque()
        self._next = 0
        self._cycle: List[bool] = []  # is-bulk flags left in this ten

    def _fresh(self) -> Tuple[int, int]:
        database = self._database
        n = self._next
        self._next += 1
        row = (
            database.a0 + INGEST_BASE + n,
            database.labels[n % database.sizes.keys],
        )
        self._live.append(row)
        return row

    def next_batch(self) -> Batch:
        ops: List[Tuple[str, Tuple[int, int]]] = []
        if not self._cycle:
            self._cycle = [True] * 3 + [False] * 7
            self._rng.shuffle(self._cycle)
        if not self._cycle.pop():
            if len(self._live) > self._target:
                ops.append(("delete", self._live.popleft()))
            else:
                ops.append(("insert", self._fresh()))
        else:
            deletes = self._bulk // 2 if len(self._live) >= self._target else 0
            ops.extend(("delete", self._live.popleft()) for _ in range(deletes))
            ops.extend(("insert", self._fresh()) for _ in range(self._bulk - deletes))
        inserts = sum(1 for op, _row in ops if op == "insert")
        return Batch(jsonl(ops), ops, inserts, len(ops) - inserts, len(self._live))
