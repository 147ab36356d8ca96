"""Timed enumeration runs.

Every experiment in Section 6 measures a *total enumeration time*: wall
clock from the start of preprocessing until ``k`` distinct answers have
been emitted, split into a preprocessing part and an enumeration part (the
paper stacks the two in its bar charts). The delay analyses additionally
record the time between consecutive emissions.

The harness deliberately mirrors the paper's accounting choices:

* relation loading is excluded ("We omit from all preprocessing times the
  portion devoted to reading the relations") — the database is built before
  the clock starts;
* for REnum(UCQ), building the inverted-access support (line 4 of
  Algorithm 4) counts as preprocessing, since the paper compiles it only
  when a UCQ enumeration needs it;
* Sample(·) preprocessing is the sampler's structure building; the
  without-replacement dedup set is part of enumeration.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.core.cq_index import CQIndex
from repro.core.permutation import RandomPermutationEnumerator
from repro.core.union_access import MCUCQIndex
from repro.core.union_enum import UnionRandomEnumerator
from repro.database.database import Database
from repro.query.cq import ConjunctiveQuery
from repro.query.ucq import UnionOfConjunctiveQueries
from repro.sampling.base import JoinSampler


@dataclass
class EnumerationRun:
    """The outcome of one timed enumeration task."""

    label: str
    preprocessing_seconds: float
    enumeration_seconds: float
    answers: int
    requested: int
    delays: Optional[List[float]] = None
    #: Algorithm-specific extras (rejections, draws, …).
    extra: dict = field(default_factory=dict)

    @property
    def total_seconds(self) -> float:
        return self.preprocessing_seconds + self.enumeration_seconds

    @property
    def completed(self) -> bool:
        return self.answers >= self.requested


def _drain(iterator, k: int, record_delays: bool) -> tuple:
    """Pull up to ``k`` answers, timing the enumeration (and each delay)."""
    delays: Optional[List[float]] = [] if record_delays else None
    emitted = 0
    started = time.perf_counter()
    last = started
    for __ in range(k):
        try:
            next(iterator)
        except StopIteration:
            break
        emitted += 1
        if record_delays:
            now = time.perf_counter()
            delays.append(now - last)
            last = now
    return time.perf_counter() - started, emitted, delays


def run_renum_cq(
    query: ConjunctiveQuery,
    database: Database,
    fraction: float = 1.0,
    rng: Optional[random.Random] = None,
    record_delays: bool = False,
) -> EnumerationRun:
    """REnum(CQ): build the index, then emit ``fraction`` of the answers in
    uniformly random order."""
    rng = rng if rng is not None else random.Random()
    started = time.perf_counter()
    index = CQIndex(query, database)
    preprocessing = time.perf_counter() - started
    k = max(1, int(index.count * fraction)) if index.count else 0
    enumerator = RandomPermutationEnumerator(index, rng=rng)
    enumeration, emitted, delays = _drain(enumerator, k, record_delays)
    return EnumerationRun(
        label=f"REnum(CQ) {query.name}",
        preprocessing_seconds=preprocessing,
        enumeration_seconds=enumeration,
        answers=emitted,
        requested=k,
        delays=delays,
    )


def run_sampler(
    query: ConjunctiveQuery,
    database: Database,
    sampler_factory: Callable[..., JoinSampler],
    fraction: float = 1.0,
    rng: Optional[random.Random] = None,
    record_delays: bool = False,
    max_draw_factor: Optional[float] = None,
    answer_count: Optional[int] = None,
) -> EnumerationRun:
    """Sample(·) with duplicate rejection: emit ``fraction`` distinct answers.

    ``max_draw_factor`` bounds the with-replacement draws at
    ``factor × |Q(D)|`` — the Figure 6 timeout discipline for Sample(EO).
    ``answer_count`` lets the caller pass ``|Q(D)|`` so that rejection
    samplers are not charged for counting (they cannot count on their own).
    """
    rng = rng if rng is not None else random.Random()
    started = time.perf_counter()
    sampler = sampler_factory(query, database, rng=rng)
    preprocessing = time.perf_counter() - started
    if answer_count is None:
        answer_count = getattr(sampler, "answer_count", None)
        if answer_count is None:
            raise ValueError("answer_count is required for samplers that cannot count")
    k = max(1, int(answer_count * fraction)) if answer_count else 0
    # The budget counts *attempts* (including within-sampler rejections), so
    # heavy rejecters like RS and EO are halted even mid-sample.
    max_attempts = None if max_draw_factor is None else int(max_draw_factor * answer_count)

    seen = set()
    duplicates = 0
    delays: Optional[List[float]] = [] if record_delays else None
    emitted = 0
    enum_started = time.perf_counter()
    last = enum_started
    while emitted < k:
        if max_attempts is not None and sampler.statistics.attempts >= max_attempts:
            break
        answer = sampler.sample_attempt()
        if answer is None:
            continue
        if answer in seen:
            duplicates += 1
            continue
        seen.add(answer)
        emitted += 1
        if record_delays:
            now = time.perf_counter()
            delays.append(now - last)
            last = now
    enumeration = time.perf_counter() - enum_started
    label = sampler_factory.__name__.replace("Sampler", "")
    return EnumerationRun(
        label=f"Sample({label}) {query.name}",
        preprocessing_seconds=preprocessing,
        enumeration_seconds=enumeration,
        answers=emitted,
        requested=k,
        delays=delays,
        extra={"draws": sampler.statistics.attempts, "duplicates": duplicates},
    )


def run_union_renum(
    ucq: UnionOfConjunctiveQueries,
    database: Database,
    fraction: float = 1.0,
    rng: Optional[random.Random] = None,
    record_delays: bool = False,
    decile_snapshots: bool = False,
) -> EnumerationRun:
    """REnum(UCQ) — Algorithm 5 over per-member CQ indexes.

    Preprocessing covers the member indexes *and* their inverted-access
    support (needed by Test/Delete). With ``decile_snapshots`` the run
    records cumulative answer/rejection time after each decile — the
    Figure 5 measurement.
    """
    rng = rng if rng is not None else random.Random()
    started = time.perf_counter()
    indexes = [CQIndex(q, database) for q in ucq.queries]
    for index in indexes:
        index.ensure_inverted_support()
    enumerator = UnionRandomEnumerator.for_indexes(indexes, rng=rng)
    preprocessing = time.perf_counter() - started

    total = len({t for ix in indexes for t in ix})  # ground truth for k only
    k = max(1, int(total * fraction)) if total else 0

    snapshots: List[dict] = []
    delays: Optional[List[float]] = [] if record_delays else None
    emitted = 0
    enum_started = time.perf_counter()
    last = enum_started
    next_snapshot = max(1, k // 10)
    while emitted < k:
        try:
            next(enumerator)
        except StopIteration:
            break
        emitted += 1
        if record_delays:
            now = time.perf_counter()
            delays.append(now - last)
            last = now
        if decile_snapshots and (emitted % next_snapshot == 0 or emitted == k):
            snapshots.append(
                {
                    "emitted": emitted,
                    "answer_seconds": enumerator.answer_seconds,
                    "rejection_seconds": enumerator.rejection_seconds,
                    "rejections": enumerator.rejections,
                }
            )
    enumeration = time.perf_counter() - enum_started
    return EnumerationRun(
        label=f"REnum(UCQ) {ucq.name}",
        preprocessing_seconds=preprocessing,
        enumeration_seconds=enumeration,
        answers=emitted,
        requested=k,
        delays=delays,
        extra={
            "rejections": enumerator.rejections,
            "iterations": enumerator.iterations,
            "answer_seconds": enumerator.answer_seconds,
            "rejection_seconds": enumerator.rejection_seconds,
            "snapshots": snapshots,
        },
    )


def run_mcucq(
    ucq: UnionOfConjunctiveQueries,
    database: Database,
    fraction: float = 1.0,
    rng: Optional[random.Random] = None,
    record_delays: bool = False,
) -> EnumerationRun:
    """REnum(mcUCQ) — Fisher–Yates over Theorem 5.5's union random access,
    one ``access`` per answer like :func:`run_renum_cq`, so the two time
    the same per-answer delay."""
    rng = rng if rng is not None else random.Random()
    started = time.perf_counter()
    index = MCUCQIndex(ucq, database)
    # The 2^m family needs inverted support.
    for member in index.member_indexes:
        member.ensure_inverted_support()
    for t_index in index.intersection_indexes.values():
        t_index.ensure_inverted_support()
    preprocessing = time.perf_counter() - started
    k = max(1, int(index.count * fraction)) if index.count else 0
    enumerator = RandomPermutationEnumerator(index, rng=rng)
    enumeration, emitted, delays = _drain(enumerator, k, record_delays)
    return EnumerationRun(
        label=f"REnum(mcUCQ) {ucq.name}",
        preprocessing_seconds=preprocessing,
        enumeration_seconds=enumeration,
        answers=emitted,
        requested=k,
        delays=delays,
    )


def run_cumulative_renum_cq(
    ucq: UnionOfConjunctiveQueries,
    database: Database,
    fraction: float = 1.0,
    rng: Optional[random.Random] = None,
) -> EnumerationRun:
    """The paper's overhead baseline: run REnum(CQ) on each member CQ
    independently and add up the times.

    As the paper stresses, this is *not* a UCQ enumeration (it emits
    duplicates and is not a uniform permutation of the union); it only
    quantifies what the union machinery costs on top of its parts.
    """
    rng = rng if rng is not None else random.Random()
    preprocessing = 0.0
    enumeration = 0.0
    answers = 0
    requested = 0
    for query in ucq.queries:
        run = run_renum_cq(query, database, fraction=fraction, rng=rng)
        preprocessing += run.preprocessing_seconds
        enumeration += run.enumeration_seconds
        answers += run.answers
        requested += run.requested
    return EnumerationRun(
        label=f"cumulative REnum(CQ) {ucq.name}",
        preprocessing_seconds=preprocessing,
        enumeration_seconds=enumeration,
        answers=answers,
        requested=requested,
    )
