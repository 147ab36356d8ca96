"""The answer checker — nothing here imports ``repro``.

Counts come in closed form from the generator's parameters
(:meth:`inputs.PathDatabase.count`); every answer a response carries is
tested for membership against the generated relations; pages and samples
must have the right length and no repeats; ``position_of`` must invert
paging. Each check returns ``None`` or a one-line description of the
violation, and every violation counts in ``failed_share``.

The TPC-H queries of ``paper_renum`` have no closed form, so their oracle
is :func:`naive_join`: a plain nested hash join over the generated rows,
written against the query's atoms and sharing no code with the library.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from inputs import STRIDE, PathDatabase


class PathOracle:
    """Membership and shape checks for the R/S(/T) workloads."""

    def __init__(self, database: PathDatabase):
        self.database = database
        tables = database.tables
        sizes = database.sizes
        self._static = set(database.generation_rows(0, sizes.static_rows))
        self._s = set(tables["S"][1])
        self._t = set(tables["T"][1]) if "T" in tables else set()
        #: R rows the ingest stream currently holds (``durable_ingest``).
        self.ingested: Set[Tuple[int, int]] = set()

    # -- membership ---------------------------------------------------- #

    def _in_r(self, a: int, b: int, generation: Optional[int]) -> bool:
        """Is ``(a, b)`` in R when the slice is at ``generation``?"""
        if (a, b) in self._static or (a, b) in self.ingested:
            return True
        database = self.database
        if generation is None or database.generation_of(a) != generation:
            return False
        offset = a - database.a0 - generation * STRIDE
        return (
            0 <= offset < database.sizes.slice_rows
            and b == database.labels[offset % database.sizes.keys]
        )

    def is_answer(self, answer: Sequence, union: bool, generation: Optional[int]) -> bool:
        if len(answer) != 3:
            return False
        a, b, c = answer
        if not self._in_r(a, b, generation):
            return False
        return (b, c) in self._s or (union and (b, c) in self._t)

    # -- response shapes ------------------------------------------------ #

    def check_answers(
        self, answers: List[list], expected: int, union: bool,
        generation: Optional[int] = 1,
    ) -> Optional[str]:
        if len(answers) != expected:
            return f"expected {expected} answers, got {len(answers)}"
        distinct = {tuple(answer) for answer in answers}
        if len(distinct) != len(answers):
            return f"{len(answers) - len(distinct)} repeated answer(s)"
        for answer in distinct:
            if not self.is_answer(answer, union, generation):
                return f"{answer} is not an answer"
        return None

    def check_page(
        self, payload: dict, number: int, size: int, count: int, union: bool,
        generation: Optional[int] = 1,
    ) -> Optional[str]:
        if payload.get("count") != count:
            return f"page reports count {payload.get('count')}, oracle {count}"
        start = number * size
        expected = max(0, min(size, count - start))
        return self.check_answers(payload["answers"], expected, union, generation)

    def check_generation(self, payload: dict, base_version: int) -> Tuple[Optional[str], bool]:
        """``bench_http``'s consistency check: a page may carry answers of
        at most one slice generation, the one its ``version`` publishes.
        Returns ``(violation, touched the slice)``."""
        generation_of = self.database.generation_of
        seen = {generation_of(answer[0]) for answer in payload["answers"]} - {0}
        if not seen:
            return None, False
        expected = payload["version"] - base_version + 1
        if seen != {expected}:
            return (
                f"version {payload['version']} served slice generation(s) "
                f"{sorted(seen)}, expected {expected}"
            ), True
        return None, True

    @staticmethod
    def check_position(payload: dict, expected: int) -> Optional[str]:
        if payload.get("position") != expected:
            return f"position_of gave {payload.get('position')}, expected {expected}"
        return None

    @staticmethod
    def check_ack(payload: dict, inserts: int, deletes: int, version: int) -> Optional[str]:
        got = (payload.get("inserted"), payload.get("deleted"), payload.get("version"))
        if got != (inserts, deletes, version):
            return (
                f"ingest acknowledged (inserted, deleted, version) = {got}, "
                f"expected {(inserts, deletes, version)}"
            )
        return None


# ---------------------------------------------------------------------- #
# TPC-H                                                                   #
# ---------------------------------------------------------------------- #

Atom = Tuple[str, Tuple[str, ...]]  # (relation, variable per column)


def naive_join(
    head: Sequence[str], atoms: Sequence[Atom], relations: Dict[str, Iterable[tuple]]
) -> Set[tuple]:
    """``{head(μ) : μ satisfies every atom}`` by iterated hash join."""
    bindings: List[Dict[str, object]] = [{}]
    for relation, variables in atoms:
        rows = list(relations[relation])
        if not bindings:
            break
        bound = [v for v in dict.fromkeys(variables) if v in bindings[0]]
        index: Dict[tuple, List[Dict[str, object]]] = {}
        for row in rows:
            assignment: Dict[str, object] = {}
            consistent = True
            for variable, value in zip(variables, row):
                if assignment.setdefault(variable, value) != value:
                    consistent = False
                    break
            if consistent:
                key = tuple(assignment[v] for v in bound)
                index.setdefault(key, []).append(assignment)
        joined = []
        for binding in bindings:
            for assignment in index.get(tuple(binding[v] for v in bound), ()):
                joined.append({**binding, **assignment})
        bindings = joined
    return {tuple(binding[v] for v in head) for binding in bindings}


class Fingerprint:
    """An order-free digest of an answer stream: equal to the oracle set's
    digest when the stream is a permutation of that set, and — short of a
    hash collision — only then (same length, same sum and same sum of
    squares of per-answer hashes)."""

    MOD = (1 << 61) - 1

    def __init__(self, answers: Iterable[tuple] = ()):
        self.count = 0
        self.total = 0
        self.squares = 0
        self.add(answers)

    def add(self, answers: Iterable[tuple]) -> None:
        mod = self.MOD
        for answer in answers:
            h = hash(answer) % mod
            self.count += 1
            self.total = (self.total + h) % mod
            self.squares = (self.squares + h * h) % mod

    def __eq__(self, other) -> bool:
        return isinstance(other, Fingerprint) and (
            self.count, self.total, self.squares
        ) == (
            other.count, other.total, other.squares
        )

    def __repr__(self) -> str:
        return f"Fingerprint({self.count} answers)"
