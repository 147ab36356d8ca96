"""Tests for the downstream applications (online aggregation, pagination)."""

import random

import pytest

from repro import CQIndex, Database, MCUCQIndex, Relation, parse_cq, parse_ucq
from repro.apps import OnlineAggregator, Paginator, estimate_mean


@pytest.fixture()
def numeric_index():
    db = Database([
        Relation("R", ("a", "b"), [(i, i % 5) for i in range(50)]),
        Relation("S", ("b", "c"), [(i, 10 * i) for i in range(5)]),
    ])
    return CQIndex(parse_cq("Q(a, b, c) :- R(a, b), S(b, c)"), db)


class TestOnlineAggregator:
    def test_mean_over_full_stream_is_exact(self, numeric_index):
        aggregator = OnlineAggregator(value_of=lambda t: t[0],
                                      population=numeric_index.count)
        for answer in numeric_index:
            aggregator.observe(answer)
        estimate = aggregator.estimate()
        truth = sum(t[0] for t in numeric_index) / numeric_index.count
        assert estimate.mean == pytest.approx(truth)
        # Finite-population correction: exhausted sample → zero width.
        assert estimate.half_width == pytest.approx(0.0, abs=1e-12)

    def test_empty_and_single_estimates(self):
        aggregator = OnlineAggregator(value_of=lambda t: t[0])
        assert aggregator.estimate().half_width == float("inf")
        aggregator.observe((5.0,))
        estimate = aggregator.estimate()
        assert estimate.mean == 5.0
        assert estimate.half_width == float("inf")

    def test_interval_shrinks_with_sample_size(self, numeric_index):
        aggregator = OnlineAggregator(value_of=lambda t: t[0],
                                      population=numeric_index.count)
        stream = numeric_index.random_order(random.Random(3))
        widths = []
        for count, answer in enumerate(stream, start=1):
            aggregator.observe(answer)
            if count in (5, 20, 45):
                widths.append(aggregator.estimate().half_width)
        assert widths[0] > widths[1] > widths[2]

    def test_random_order_estimate_covers_truth(self, numeric_index):
        truth = sum(t[0] for t in numeric_index) / numeric_index.count
        stream = numeric_index.random_order(random.Random(11))
        estimates = list(estimate_mean(stream, lambda t: t[0],
                                       population=numeric_index.count,
                                       report_every=10))
        # 95% intervals: essentially all checkpoints should cover the truth.
        covering = sum(1 for e in estimates if e.contains(truth))
        assert covering >= len(estimates) - 1

    def test_estimated_sum(self, numeric_index):
        aggregator = OnlineAggregator(value_of=lambda t: t[2],
                                      population=numeric_index.count)
        for answer in numeric_index:
            aggregator.observe(answer)
        assert aggregator.estimated_sum() == pytest.approx(
            sum(t[2] for t in numeric_index)
        )

    def test_sum_requires_population(self):
        aggregator = OnlineAggregator(value_of=lambda t: t[0])
        aggregator.observe((1.0,))
        with pytest.raises(ValueError):
            aggregator.estimated_sum()


class TestPaginator:
    def test_pages_partition_the_result(self, numeric_index):
        pages = Paginator(numeric_index, page_size=7)
        collected = []
        for number in range(pages.total_pages):
            page = pages.page(number)
            assert 1 <= len(page) <= 7
            collected.extend(page)
        assert collected == list(numeric_index)

    def test_last_page_may_be_short(self, numeric_index):
        pages = Paginator(numeric_index, page_size=7)
        expected_last = numeric_index.count - 7 * (pages.total_pages - 1)
        assert len(pages.page(pages.total_pages - 1)) == expected_last

    def test_out_of_range(self, numeric_index):
        pages = Paginator(numeric_index, page_size=7)
        with pytest.raises(IndexError):
            pages.page(pages.total_pages)
        with pytest.raises(IndexError):
            pages.page(-1)

    def test_empty_result(self):
        db = Database([
            Relation("R", ("a", "b"), []),
            Relation("S", ("b", "c"), []),
        ])
        index = CQIndex(parse_cq("Q(a, b, c) :- R(a, b), S(b, c)"), db)
        pages = Paginator(index)
        assert pages.total_pages == 0
        assert pages.page(0) == []

    def test_page_of_answer(self, numeric_index):
        pages = Paginator(numeric_index, page_size=9)
        answer = numeric_index.access(31)
        assert pages.page_of_answer(answer) == 31 // 9
        assert answer in pages.page(31 // 9)
        assert pages.page_of_answer(("no", "such", "row")) is None

    def test_page_of_answer_on_a_union_raises_instead_of_none(self):
        # A union index serves answers but has no inverted access: a None
        # page would read as "not an answer".
        db = Database([
            Relation("R", ("a", "b"), [(1, 10), (2, 20)]),
            Relation("T", ("a", "b"), [(2, 20), (3, 30)]),
            Relation("S", ("b", "c"), [(10, "x"), (20, "y"), (30, "z")]),
        ])
        ucq = parse_ucq(
            "Q(a, b, c) :- R(a, b), S(b, c) ; Q(a, b, c) :- T(a, b), S(b, c)"
        )
        for index in (MCUCQIndex(ucq, db), MCUCQIndex(ucq, db, dynamic=True)):
            answer = index.access(0)
            assert answer in index
            with pytest.raises(ValueError):
                Paginator(index, page_size=2).page_of_answer(answer)

    def test_invalid_page_size(self, numeric_index):
        with pytest.raises(ValueError):
            Paginator(numeric_index, page_size=0)
