"""Shape-regression tests: the paper's qualitative findings, asserted on
counting statistics rather than wall-clock (so they are robust in CI).

Each test pins one of the paper's findings (timed end to end by the
``paper_renum`` workload, see benchmarks/layers/README.md) to a mechanism
the code must exhibit — if a refactor breaks the *reason* a figure looks
the way it does, these fail even when absolute timings drift.
"""

import math
import random

import pytest

from repro import CQIndex, MCUCQIndex, UnionRandomEnumerator
from repro.core import permutation
from repro.database.joins import evaluate_cq
from repro.sampling import ExactWeightSampler, WithoutReplacementSampler
from repro.tpch.queries import CQ_QUERIES, UCQ_QUERIES


class TestFigure1Mechanism:
    """Sample(EW)'s blow-up at large k is the coupon collector: reaching
    k of n distinct answers costs ≈ n·(H_n − H_{n−k}) draws, while
    REnum(CQ) performs exactly k accesses."""

    def test_ew_draw_counts_follow_coupon_collector(self, tiny_tpch):
        query = CQ_QUERIES["Q0"]()
        n = CQIndex(query, tiny_tpch).count
        sampler = ExactWeightSampler(query, tiny_tpch, rng=random.Random(0))
        stream = WithoutReplacementSampler(sampler)
        k = int(n * 0.9)
        for __ in range(k):
            next(stream)
        expected = n * (_harmonic(n) - _harmonic(n - k))
        assert 0.8 * expected <= stream.draws <= 1.25 * expected

    def test_renum_never_draws_more_than_k(self, tiny_tpch):
        query = CQ_QUERIES["Q0"]()
        index = CQIndex(query, tiny_tpch)
        k = int(index.count * 0.9)
        emitted = 0
        for __ in index.random_order(random.Random(0)):
            emitted += 1
            if emitted == k:
                break
        assert emitted == k  # one access per answer; no rejections exist

    def test_ew_duplicates_grow_superlinearly(self, tiny_tpch):
        """Draws per decile must increase toward the end of the collection."""
        query = CQ_QUERIES["Q0"]()
        n = CQIndex(query, tiny_tpch).count
        sampler = ExactWeightSampler(query, tiny_tpch, rng=random.Random(1))
        stream = WithoutReplacementSampler(sampler)
        decile = n // 10
        draws_at = []
        for __ in range(decile * 9):
            next(stream)
            if stream.emitted() % decile == 0:
                draws_at.append(stream.draws)
        per_decile = [b - a for a, b in zip(draws_at, draws_at[1:])]
        assert per_decile[-1] > 2 * per_decile[0]


class TestTheorem37BlockedWork:
    """REnum in blocks (``random_order``) resolves each shuffle position
    once and runs at most one block ahead of the answers handed out —
    the delay trade, counted in resolved positions rather than timed."""

    @pytest.mark.parametrize("cap", [16, permutation.BLOCK_CAP])
    @pytest.mark.parametrize("make", [
        lambda db: CQIndex(CQ_QUERIES["Q3"](), db),
        lambda db: MCUCQIndex(UCQ_QUERIES["QA_or_QE"](), db),
    ], ids=["cq", "mcucq"])
    def test_positions_resolved_per_answer(self, tiny_tpch, make, cap, monkeypatch):
        monkeypatch.setattr(permutation, "BLOCK_CAP", cap)
        index = make(tiny_tpch)
        n = index.count
        assert n > 4 * 16
        blocks = []
        batch = index.batch
        monkeypatch.setattr(
            index, "batch", lambda positions: blocks.append(len(positions)) or batch(positions)
        )
        stream = index.random_order(random.Random(0))
        next(stream)
        assert sum(blocks) == 1
        for k in range(2, n + 1):
            next(stream)
            assert sum(blocks) <= min(2 * k + 1, k + cap)
        assert next(stream, None) is None
        assert sum(blocks) == n
        assert len(blocks) <= math.ceil(math.log2(cap)) + math.ceil(n / cap) + 1


class TestFigure4Mechanism:
    """REnum(UCQ)'s overhead over the member enumerations scales with the
    intersection: disjoint unions never reject; heavy overlap rejects up
    to once per shared answer."""

    def test_rejections_ordered_by_intersection_size(self, tiny_tpch):
        rates = {}
        for name, make in UCQ_QUERIES.items():
            ucq = make()
            enum = UnionRandomEnumerator.for_indexes(
                [CQIndex(q, tiny_tpch) for q in ucq.queries], rng=random.Random(3)
            )
            emitted = sum(1 for __ in enum)
            rates[name] = enum.rejections / max(1, emitted)
        assert rates["QA_or_QE"] == 0.0  # disjoint union
        # The 3-way Q2 union has by far the largest pairwise intersections.
        assert rates["QN2_or_QP2_or_QS2"] > rates["QS7_or_QC7"]
        assert rates["QN2_or_QP2_or_QS2"] > 0.05

    def test_rejections_bounded_by_shared_answers(self, tiny_tpch):
        ucq = UCQ_QUERIES["QN2_or_QP2_or_QS2"]()
        members = [evaluate_cq(q, tiny_tpch) for q in ucq.queries]
        union_size = len(set().union(*members))
        shared = sum(len(m) for m in members) - union_size
        enum = UnionRandomEnumerator.for_indexes(
            [CQIndex(q, tiny_tpch) for q in ucq.queries], rng=random.Random(4)
        )
        emitted = sum(1 for __ in enum)
        assert emitted == union_size
        assert enum.rejections <= shared  # each shared answer rejects ≤ once


class TestFigure5Mechanism:
    def test_rejections_concentrate_early(self, tiny_tpch):
        """Shared answers are likelier to be drawn early (double weight)
        and are deleted from non-owners on first rejection, so the second
        half of a run must see at most as many rejections as the first."""
        ucq = UCQ_QUERIES["QN2_or_QP2_or_QS2"]()
        halves = [0, 0]
        for seed in range(5):  # average out run-to-run noise
            enum = UnionRandomEnumerator.for_indexes(
                [CQIndex(q, tiny_tpch) for q in ucq.queries],
                rng=random.Random(seed),
            )
            total = sum(1 for __ in enum)
            enum2 = UnionRandomEnumerator.for_indexes(
                [CQIndex(q, tiny_tpch) for q in ucq.queries],
                rng=random.Random(seed),
            )
            emitted = 0
            previous = 0
            for __ in enum2:
                emitted += 1
                if emitted == total // 2:
                    previous = enum2.rejections
            halves[0] += previous
            halves[1] += enum2.rejections - previous
        assert halves[0] >= halves[1]


class TestRSMechanism:
    def test_acceptance_rate_is_answer_over_product(self, tiny_tpch):
        from repro.sampling import NaiveRejectionSampler

        query = CQ_QUERIES["Q0"]()
        truth = CQIndex(query, tiny_tpch).count
        sampler = NaiveRejectionSampler(query, tiny_tpch, rng=random.Random(5))
        product = 1
        for node in sampler.reduced.all_nodes():
            product *= max(1, len(node.relation))
        theoretical = truth / product
        for __ in range(20000):
            sampler.sample_attempt()
        measured = sampler.statistics.acceptance_rate
        assert measured == pytest.approx(theoretical, rel=0.5)


def _harmonic(n: int) -> float:
    if n <= 0:
        return 0.0
    return math.log(n) + 0.5772156649 + 1 / (2 * n)


class _CountingBucket:
    """A bucket proxy that tallies the engine's primitive calls; every
    other attribute (``total``, ``unit_leaf``, ``rows`` …) passes through."""

    COUNTED = ("locate_run", "rank_start", "rank_before")

    def __init__(self, bucket, tally):
        self._bucket = bucket
        self._tally = tally

    def __getattr__(self, name):
        value = getattr(self._bucket, name)
        if name in self.COUNTED:
            self._tally[name] += 1
        return value


class TestTheorem55Mechanism:
    """The ``log²`` of Theorem 5.5 is ``Largest``'s binary search over
    each ``T_{ℓ,I}`` — O(log|T|) accesses into ``T``. With compatibility
    by construction the rank is one descent of ``T``: per access, at most
    one ``rank_before`` per node of the shape and per ``T``, no
    ``locate_run`` on any ``T`` at all, whatever ``|T|`` is."""

    @staticmethod
    def _three_way(n):
        from repro import Database, MCUCQIndex, Relation, parse_ucq

        third = n // 3
        db = Database([
            Relation(f"R{i + 1}", ("a", "b"),
                     [(a, a % 2) for a in range(i * third, i * third + n)])
            for i in range(3)
        ] + [Relation("S", ("b", "c"), [(0, "p"), (1, "q"), (1, "r")])])
        ucq = parse_ucq(" ; ".join(
            f"Q(a, b, c) :- R{i + 1}(a, b), S(b, c)" for i in range(3)
        ))
        return MCUCQIndex(ucq, db)

    @staticmethod
    def _instrument(index):
        """Wrap every bucket of every intersection index; returns the
        per-``T`` tallies and the number of nodes of the shared shape."""
        tallies = {}
        for key, subset in index.intersection_indexes.items():
            tally = tallies[key] = dict.fromkeys(_CountingBucket.COUNTED, 0)
            nodes = [n for root in subset._forest.roots for n in root.all_nodes()]
            for node in nodes:
                node.buckets = {
                    k: _CountingBucket(bucket, tally)
                    for k, bucket in node.buckets.items()
                }
        return tallies, len(nodes)

    def _worst_access(self, n):
        """``(smallest |T|, max rank_before calls one access makes on one T)``
        over every position of the union, asserting the rest on the way."""
        index = self._three_way(n)
        expected = list(index)  # Algorithm 6, before any wrapping
        tallies, nodes = self._instrument(index)
        worst = 0
        for position, answer in enumerate(expected):
            for tally in tallies.values():
                tally.update(dict.fromkeys(tally, 0))
            assert index.access(position) == answer
            for tally in tallies.values():
                assert tally["locate_run"] == 0 and tally["rank_start"] == 0
                assert tally["rank_before"] <= nodes
                worst = max(worst, tally["rank_before"])
        assert worst > 0  # some position did land in a later member
        return min(t.count for t in index.intersection_indexes.values()), worst

    def test_rank_costs_one_descent_per_intersection_at_any_size(self):
        small_t, small_calls = self._worst_access(30)
        large_t, large_calls = self._worst_access(300)
        assert large_t >= 8 * small_t > 0
        assert large_calls == small_calls  # a binary search would add log₂ 8


def _slab_depth(tree, slot=None) -> int:
    """Height of a :class:`~repro.core.flat_store.FlatOrderTree`."""
    slot = tree.root if slot is None else slot
    if slot < 0:
        return 0
    return 1 + max(_slab_depth(tree, int(tree.left[slot])),
                   _slab_depth(tree, int(tree.right[slot])))


class TestTheorem43UpdateMechanism:
    """Under updates, a row's weight is the product of its child bucket
    totals, so one fact re-weights every parent row keyed into the
    bucket it changes. On the ``durable_ingest`` shape (a 2-path rooted
    at S, one S bucket) those rows form one run of the S treap. The
    batch copies each changed row's frozen spine once and re-sums the
    union of their root paths once: node visits grow with the rows plus
    the depth, not with rows × depth."""

    def test_single_fact_absorb_copies_each_spine_once(self, monkeypatch):
        from repro import Database, DynamicCQIndex, Relation, parse_cq
        from repro.core.flat_store import FlatOrderTree

        keys, partners = 100, 50
        db = Database([
            Relation("R", ("a", "b"), [(a, a % keys) for a in range(1_000)]),
            Relation("S", ("b", "c"),
                     [(b, 1_000 + k) for b in range(keys) for k in range(partners)]),
        ])
        index = DynamicCQIndex(parse_cq("Q(a, b, c) :- R(a, b), S(b, c)"),
                               db, store="flat")
        (root,) = index._live_roots
        assert root.columns == ("b", "c") and list(root.buckets) == [()]
        s_bucket = root.buckets[()]
        r_bucket = root.children[0].buckets[(7,)]
        depth = _slab_depth(s_bucket.tree) + _slab_depth(r_bucket.tree)
        before = dict(s_bucket.freeze().iter_rows())

        tally = {"_own_child": 0, "_clone": 0}
        for name in tally:
            original = getattr(FlatOrderTree, name)

            def counted(self, *args, _name=name, _original=original):
                tally[_name] += 1
                return _original(self, *args)

            monkeypatch.setattr(FlatOrderTree, name, counted)
        index.insert("R", (5_000, 7))

        after = dict(s_bucket.freeze().iter_rows())
        reweighted = sum(1 for row, w in after.items() if before[row] != w)
        assert reweighted == partners
        assert index.count == (1_000 + 1) * partners
        for name, calls in tally.items():
            assert calls <= reweighted + 2 * depth, (name, calls, depth)


class TestTheorem43BuildMechanism:
    """Theorem 4.3's preprocessing is linear up to the sort. The flat
    build sorts in numpy on dense per-column ranks, so python keys no
    row (``row_sort_key`` is never called), keys each distinct value of
    a non-int column once (``value_sort_key``), and interns in python
    only the non-int columns (``_ColumnInterner.id_of``) — at every
    size, the same counts per distinct value and per non-int cell."""

    @pytest.mark.parametrize("facts", [1_000, 2_000, 4_000, 8_000])
    def test_flat_build_keys_no_row_in_python(self, monkeypatch, facts):
        from repro import Database, Relation, parse_cq
        from repro.core import flat_store, index

        keys, labels = facts // 20, 30
        db = Database([
            Relation("R", ("a", "b"), [(a, a % keys) for a in range(facts // 2)]),
            # c is a string column: the one column interned in python.
            Relation("S", ("b", "c"), [
                (b, f"c{(b + k) % labels}")
                for b in range(keys) for k in range(10)
            ]),
        ])
        tally = {"row_sort_key": 0, "value_sort_key": 0, "id_of": 0}

        def counted(name, original):
            def wrapper(*args):
                tally[name] += 1
                return original(*args)
            return wrapper

        for module in (flat_store, index):
            monkeypatch.setattr(module, "row_sort_key",
                                counted("row_sort_key", module.row_sort_key))
        monkeypatch.setattr(flat_store, "value_sort_key",
                            counted("value_sort_key", flat_store.value_sort_key))
        monkeypatch.setattr(flat_store._ColumnInterner, "id_of",
                            counted("id_of", flat_store._ColumnInterner.id_of))

        built = CQIndex(parse_cq("Q(a, b, c) :- R(a, b), S(b, c)"), db,
                        store="flat")
        assert built.store == "flat"
        assert built.count == facts // 2 * 10
        assert tally["row_sort_key"] == 0
        assert 0 < tally["value_sort_key"] <= labels
        assert tally["id_of"] == len(db.relation("S"))
