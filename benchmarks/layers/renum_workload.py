"""``paper_renum``: the paper's own experiment, in process.

TPC-H (``repro.tpch``) at a small scale factor on the default tuple store,
no server and no storage. One *round* enumerates, completely and in
uniformly random order,

* the six paper CQs through ``QueryService.cursor(q).random_order(rng)``,
* the three paper UCQs through the service's ``MCUCQIndex``,
* the same three UCQs through ``UnionRandomEnumerator`` (Algorithm 5),

timing every chunk of 1,000 answers (each enumeration is cut into equal
chunks of about that size and a chunk's time is scaled to exactly 1,000).
The load is count-based: rounds are always whole, and a window is as many
rounds as fit (at least one), so the mix of queries behind every number is
the same on every run.

Every enumeration is represented by its fastest round. The work is pure
CPU in one thread, so a round can only be slower than the code allows,
never faster, and on a shared host it often is (10-30 % for a second or
so): the lowest percentile over rounds is the one the host moves least.
``rows_per_s`` is the answers of one round over the sum of the twelve
fastest times.

The twelve enumerations differ 20-fold in delay per answer, so a
percentile over all chunks sits on the boundary between two queries and
jumps when one chunk more or less falls on either side. The latency of
this workload is therefore taken over the twelve enumerations, each
represented by the median chunk of its fastest round: ``op_p50_ms`` is the
typical query's delay per 1,000 answers, ``op_p95_ms`` that of the slowest.

The data is the same for every seed (the generator's default seed): at this
scale a different draw of supplier nations changes the UCQ answer counts
several-fold. ``--seed`` drives the random orders.

The oracle is built *after* peak RSS is read, from the generated rows
alone (:func:`oracle.naive_join`): each enumeration must be a permutation
of the naive answer set.
"""

from __future__ import annotations

import gc
import itertools
import random
import resource
import time
from typing import Dict, List, Tuple

from metrics import Read, Window, median
from oracle import Fingerprint, naive_join

#: Answers per timed chunk; latencies are scaled to exactly this many.
CHUNK = 1000

#: name → (source relation, predicate): the UCQ selections, restated here
#: so the oracle does not take the library's word for them.
SELECTIONS = {
    "nation_us": ("nation", lambda row: row[1] == "UNITED STATES"),
    "nation_uk": ("nation", lambda row: row[1] == "UNITED KINGDOM"),
    "nation_key0": ("nation", lambda row: row[0] == 0),
    "part_even": ("part", lambda row: row[0] % 2 == 0),
    "supplier_even": ("supplier", lambda row: row[0] % 2 == 0),
}


def _atoms(query) -> List[Tuple[str, Tuple[str, ...]]]:
    return [
        (atom.relation, tuple(term.name for term in atom.terms))
        for atom in query.body
    ]


class PaperRenum:
    name = "paper_renum"

    def __init__(self, seed: int, smoke: bool, workdir: str):
        self.seed = seed
        self.scale_factor = 0.0003 if smoke else 0.004
        self.facts = 0
        self.import_s = 0.0

    # -- set-up ---------------------------------------------------------- #

    def setup(self) -> float:
        """Generate, derive, build every index; seconds to the last count."""
        started = time.perf_counter()
        import repro  # noqa: F401 - first import is part of the first set-up
        from repro import tpch
        from repro.service.query_service import QueryService

        if not self.import_s:
            self.import_s = time.perf_counter() - started
        database = tpch.attach_derived_relations(tpch.generate(
            tpch.TPCHConfig(scale_factor=self.scale_factor)
        ))
        service = QueryService(database)
        self.cqs = {name: make() for name, make in tpch.CQ_QUERIES.items()}
        self.ucqs = {name: make() for name, make in tpch.UCQ_QUERIES.items()}
        self.counts: Dict[Tuple[str, str], int] = {}
        for name, query in self.cqs.items():
            self.counts["cq", name] = service.cursor(query).count
        for name, ucq in self.ucqs.items():
            self.counts["mcucq", name] = service.cursor(ucq).count
            for member in ucq.queries:
                # Algorithm 5 needs Test/Delete: inverted support up front.
                service.index(member).ensure_inverted_support()
        setup = time.perf_counter() - started
        self.database, self.service = database, service
        self.facts = database.size()
        return setup

    # -- the measured rounds --------------------------------------------- #

    def _streams(self, round_number: int):
        """``(kind, name, answers, iterator, enumerator-or-None)`` per
        enumeration of one round."""
        from repro.core.union_enum import UnionRandomEnumerator

        service = self.service
        seeds = itertools.count(self.seed * 100_000 + round_number * 100)
        for name, query in self.cqs.items():
            rng = random.Random(next(seeds))
            yield ("cq", name, self.counts["cq", name],
                   service.cursor(query).random_order(rng), None)
        for name, ucq in self.ucqs.items():
            rng = random.Random(next(seeds))
            yield ("mcucq", name, self.counts["mcucq", name],
                   service.cursor(ucq).random_order(rng), None)
        for name, ucq in self.ucqs.items():
            rng = random.Random(next(seeds))
            enumerator = UnionRandomEnumerator.for_indexes(
                [service.index(member) for member in ucq.queries], rng=rng
            )
            yield "union_enum", name, self.counts["mcucq", name], enumerator, enumerator

    def window(self, seconds: float) -> Window:
        window = Window()
        self.prints: Dict[Tuple[str, str], Fingerprint] = {}
        self.iterations = self.accepted = 0
        # enumeration → (seconds, chunk reads) of its fastest round so far
        fastest: Dict[str, Tuple[float, List[Read]]] = {}
        started = time.perf_counter()
        rounds = 0
        while rounds == 0 or time.perf_counter() - started < seconds:
            rounds += 1
            for kind, name, answers, stream, enumerator in self._streams(rounds):
                digest = Fingerprint()
                reads: List[Read] = []
                chunks = max(1, round(answers / CHUNK))
                for position in range(chunks):
                    # Equal chunks; the last also drains any answer the
                    # set-up count did not promise.
                    size = (
                        None if position == chunks - 1
                        else answers * (position + 1) // chunks - answers * position // chunks
                    )
                    window.attempted += 1
                    began = time.perf_counter()
                    chunk = list(itertools.islice(stream, size))
                    latency = time.perf_counter() - began
                    if not chunk:
                        window.fail(f"{kind} {name}: enumeration ended early")
                        break
                    reads.append(Read(
                        f"{kind}:{name}", kind, latency * CHUNK / len(chunk),
                        len(chunk), 0,
                    ))
                    digest.add(chunk)
                took = sum(read.latency * read.answers / CHUNK for read in reads)
                if took < fastest.get(f"{kind}:{name}", (float("inf"),))[0]:
                    fastest[f"{kind}:{name}"] = took, reads
                # Later rounds must agree with the first; the oracle then
                # only has to vouch for one digest per enumeration.
                if self.prints.setdefault((kind, name), digest) != digest:
                    window.fail(f"{kind} {name}: round {rounds} enumerated a different set")
                if enumerator is not None:
                    self.iterations += enumerator.iterations
                    self.accepted += enumerator.iterations - enumerator.rejections
        window.seconds = time.perf_counter() - started
        window.reads = [read for _took, reads in fastest.values() for read in reads]
        window.read_samples = [
            median(read.latency for read in reads) for _took, reads in fastest.values()
        ]
        window.read_rate = (
            sum(read.answers for read in window.reads)
            / sum(took for took, _reads in fastest.values())
        )
        return window

    # -- after ----------------------------------------------------------- #

    def after(self, window: Window, traced: bool) -> Dict[str, float]:
        stats = self.service.stats()
        looked_up = stats.hits + stats.misses
        facts = {
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "cache_hit_share": stats.hits / looked_up if looked_up else 0.0,
            "locked_reads": stats.locked_reads,
            "accept_share": self.accepted / self.iterations if self.iterations else 0.0,
        }
        self._check(window)
        return facts

    def _check(self, window: Window) -> None:
        """Every enumeration against the naive join of the generated rows."""
        relations = {
            relation.name: relation.rows for relation in self.database
            if relation.name not in SELECTIONS
        }
        for name, (source, keep) in SELECTIONS.items():
            relations[name] = [row for row in relations[source] if keep(row)]
        expected: Dict[Tuple[str, str], set] = {}
        for name, query in self.cqs.items():
            head = [variable.name for variable in query.head]
            expected["cq", name] = naive_join(head, _atoms(query), relations)
        for name, ucq in self.ucqs.items():
            head = [variable.name for variable in ucq.head]
            union = set()
            for member in ucq.queries:
                union |= naive_join(head, _atoms(member), relations)
            expected["mcucq", name] = expected["union_enum", name] = union
        for key, answers in expected.items():
            window.attempted += 1
            kind, name = key
            if kind != "union_enum" and self.counts[key] != len(answers):
                window.fail(
                    f"{kind} {name}: set-up counted {self.counts[key]}, "
                    f"oracle {len(answers)}"
                )
            if self.prints.get(key) != Fingerprint(answers):
                window.fail(
                    f"{kind} {name}: enumerated {self.prints.get(key)}, not a "
                    f"permutation of the oracle's {len(answers)} answers"
                )

    def teardown(self) -> None:
        """Drop one set-up's structures before the next is timed."""
        self.database = self.service = None
        gc.collect()
