"""Tests for the experiment harness, statistics, and report rendering."""

import random

import pytest

from repro.experiments.harness import (
    run_cumulative_renum_cq,
    run_mcucq,
    run_renum_cq,
    run_sampler,
    run_union_renum,
)
from repro.experiments.report import format_seconds, render_bar_chart, render_table
from repro.experiments.stats import box_stats, delay_summary
from repro.sampling import ExactWeightSampler, NaiveRejectionSampler
from repro.tpch.queries import make_q0, make_qa_qe


class TestStats:
    def test_box_stats_simple(self):
        stats = box_stats([1.0, 2.0, 3.0, 4.0, 5.0])
        assert stats.median == 3.0
        assert stats.q1 == 2.0 and stats.q3 == 4.0
        assert stats.outliers == 0
        assert stats.whisker_low == 1.0 and stats.whisker_high == 5.0

    def test_box_stats_outliers(self):
        values = [1.0] * 20 + [100.0]
        stats = box_stats(values)
        assert stats.outliers == 1
        assert stats.whisker_high == 1.0
        assert 0 < stats.outlier_percent < 5

    def test_box_stats_single_value(self):
        stats = box_stats([2.5])
        assert stats.median == stats.q1 == stats.q3 == 2.5

    def test_box_stats_empty_rejected(self):
        with pytest.raises(ValueError):
            box_stats([])

    def test_delay_summary(self):
        summary = delay_summary([1.0, 1.0, 1.0, 1.0])
        assert summary.mean == 1.0
        assert summary.std == 0.0
        assert summary.outlier_percent == 0.0


class TestReport:
    def test_format_seconds(self):
        assert format_seconds(2.0) == "2.00s"
        assert format_seconds(0.002) == "2.00ms"
        assert format_seconds(2e-6) == "2µs"

    def test_render_table_alignment(self):
        text = render_table(["col", "value"], [["a", 1], ["bbbb", 22]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("col")
        assert set(lines[1]) <= {"-", " "}

    def test_render_bar_chart(self):
        text = render_bar_chart(["g1"], [[1.0], [0.5]], ["fast", "slow"])
        assert "g1" in text and "fast" in text and "█" in text


class TestHarness:
    def test_run_renum_cq(self, tiny_tpch):
        run = run_renum_cq(make_q0(), tiny_tpch, fraction=0.5, rng=random.Random(0),
                           record_delays=True)
        assert run.completed
        assert run.answers == run.requested
        assert len(run.delays) == run.answers
        assert run.preprocessing_seconds > 0
        assert run.total_seconds >= run.enumeration_seconds

    def test_run_sampler_completes(self, tiny_tpch):
        run = run_sampler(make_q0(), tiny_tpch, ExactWeightSampler, fraction=0.3,
                          rng=random.Random(0))
        assert run.completed
        assert run.extra["draws"] >= run.answers

    def test_run_sampler_budget_halts(self, tiny_tpch):
        run = run_sampler(
            make_q0(), tiny_tpch, NaiveRejectionSampler, fraction=0.9,
            rng=random.Random(0), max_draw_factor=0.1,
            answer_count=len(tiny_tpch.relation("partsupp")),
        )
        assert not run.completed

    def test_run_union_renum_with_snapshots(self, tiny_tpch):
        run = run_union_renum(
            make_qa_qe(), tiny_tpch, rng=random.Random(0), decile_snapshots=True
        )
        assert run.completed
        snapshots = run.extra["snapshots"]
        assert snapshots
        assert snapshots[-1]["emitted"] == run.answers
        emitted = [s["emitted"] for s in snapshots]
        assert emitted == sorted(emitted)

    def test_run_mcucq(self, tiny_tpch):
        run = run_mcucq(make_qa_qe(), tiny_tpch, fraction=0.2, rng=random.Random(0))
        assert run.completed

    def test_run_mcucq_times_one_access_per_answer(self, tiny_tpch, monkeypatch):
        """Like REnum(CQ), REnum(mcUCQ) is timed one union access per
        answer, so Figure 4 compares per-answer delays."""
        from repro import MCUCQIndex

        accesses = []
        access = MCUCQIndex.access
        monkeypatch.setattr(
            MCUCQIndex, "access",
            lambda index, position: accesses.append(position) or access(index, position),
        )
        run = run_mcucq(make_qa_qe(), tiny_tpch, fraction=0.2, rng=random.Random(0),
                        record_delays=True)
        assert run.completed and run.answers > 1
        assert len(run.delays) == run.answers == len(accesses)

    def test_run_cumulative(self, tiny_tpch):
        run = run_cumulative_renum_cq(make_qa_qe(), tiny_tpch, rng=random.Random(0))
        assert run.answers == run.requested


class TestFigureDrivers:
    """Smoke tests at minuscule scale: drivers render non-empty reports."""

    @pytest.fixture()
    def config(self):
        from repro.experiments.figures import ExperimentConfig

        return ExperimentConfig(scale_factor=0.0005, percentages=(10, 50), seed=1,
                                cq_names=("Q0",))

    def test_figure1(self, config):
        from repro.experiments.figures import figure1

        text = figure1(config).render()
        assert "Q0" in text and "REnum pre" in text

    def test_figure2(self, config):
        from repro.experiments.figures import figure2_3

        text = figure2_3(1.0, config).render()
        assert "median" in text

    def test_figure4a(self, config):
        from repro.experiments.figures import figure4a

        text = figure4a(config).render()
        assert "REnum(mcUCQ)" in text

    def test_figure4b(self, config):
        from repro.experiments.figures import figure4b

        text = figure4b(config).render()
        assert "REnum(mcUCQ)" in text and "100%" in text

    def test_figure5(self, config):
        from repro.experiments.figures import figure5

        text = figure5(config).render()
        assert "rejection time" in text

    def test_figure6(self, config):
        from repro.experiments.figures import figure6

        text = figure6(config).render()
        assert "EO pre" in text

    def test_figure7_tables(self, config):
        from repro.experiments.figures import figure7_tables

        text = figure7_tables(config).render()
        assert "mean (µ)" in text and "full enumeration" in text

    def test_figure8(self, config):
        from repro.experiments.figures import figure8

        text = figure8(config).render()
        assert "OE pre" in text and "Q3" in text

    def test_rs_note(self, config):
        from repro.experiments.figures import rs_note

        text = rs_note(config).render()
        assert "Q3" in text
