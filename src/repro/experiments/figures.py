"""One driver per paper figure / table.

Every driver takes an :class:`ExperimentConfig` (scale factor, seed,
requested percentages) and returns a :class:`FigureResult` whose
``render()`` produces the plain-text counterpart of the paper's plot.
``benchmarks/bench_figures.py`` calls these drivers, writes the rendered
text under ``results/``, and lets pytest-benchmark time the interesting
phase.

The scale factor defaults to the ``REPRO_BENCH_SF`` environment variable
(falling back to 0.002 ≈ 12k lineitems): pure-Python enumeration is a few
orders of magnitude slower per answer than the paper's compiled C++, so the
default keeps a full suite within minutes while preserving every
qualitative shape. Raise it (e.g. ``REPRO_BENCH_SF=0.02``) for smoother
curves.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.database.database import Database
from repro.sampling.exact_weight import ExactWeightSampler
from repro.sampling.naive import NaiveRejectionSampler
from repro.sampling.olken import OlkenSampler, OlkenThenExactSampler
from repro.tpch.dbgen import TPCHConfig, generate
from repro.tpch.queries import CQ_QUERIES, UCQ_QUERIES, attach_derived_relations

from repro.experiments.harness import (
    run_cumulative_renum_cq,
    run_mcucq,
    run_renum_cq,
    run_sampler,
    run_union_renum,
)
from repro.experiments.report import format_seconds, render_table
from repro.experiments.stats import box_stats, delay_summary


@dataclass
class ExperimentConfig:
    """Shared experiment parameters."""

    scale_factor: float = float(os.environ.get("REPRO_BENCH_SF", "0.002"))
    seed: int = 7
    percentages: Tuple[int, ...] = (1, 5, 10, 30, 50, 70, 90)
    cq_names: Tuple[str, ...] = ("Q0", "Q2", "Q3", "Q7", "Q9", "Q10")

    def rng(self) -> random.Random:
        return random.Random(self.seed)


_DATABASE_CACHE: Dict[float, Database] = {}


def benchmark_database(config: ExperimentConfig) -> Database:
    """The (cached) TPC-H database for a configuration's scale factor."""
    db = _DATABASE_CACHE.get(config.scale_factor)
    if db is None:
        db = generate(TPCHConfig(scale_factor=config.scale_factor))
        attach_derived_relations(db)
        _DATABASE_CACHE[config.scale_factor] = db
    return db


@dataclass
class FigureResult:
    """A rendered experiment: a title plus named text sections."""

    figure: str
    title: str
    sections: List[Tuple[str, str]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def add(self, name: str, text: str) -> None:
        self.sections.append((name, text))

    def note(self, text: str) -> None:
        self.notes.append(text)

    def render(self) -> str:
        parts = [f"=== {self.figure}: {self.title} ==="]
        for name, text in self.sections:
            parts.append(f"\n--- {name} ---\n{text}")
        if self.notes:
            parts.append("\nNotes:")
            parts.extend(f"  * {n}" for n in self.notes)
        return "\n".join(parts) + "\n"


# --------------------------------------------------------------------- #
# Figure 1 — REnum(CQ) vs Sample(EW) total time at varying k%            #
# --------------------------------------------------------------------- #


def figure1(
    config: ExperimentConfig = None,
    extra_samplers: Sequence[Tuple[str, Callable, Optional[float]]] = (),
    queries: Sequence[str] = None,
    figure_name: str = "Figure 1",
) -> FigureResult:
    """Total enumeration time (preprocessing + enumeration) per k%.

    ``extra_samplers`` adds baselines beyond Sample(EW) — Figure 6 passes
    Sample(EO) with a draw budget, Figure 8 passes Sample(OE).
    """
    config = config or ExperimentConfig()
    database = benchmark_database(config)
    result = FigureResult(
        figure=figure_name,
        title="Total enumeration time of CQs when requesting k% of the answers "
        f"(TPC-H sf={config.scale_factor})",
    )
    for name in queries or config.cq_names:
        query = CQ_QUERIES[name]()
        total = ExactWeightSampler(query, database, rng=config.rng()).answer_count
        headers = ["k%", "REnum pre", "REnum enum", "EW pre", "EW enum"]
        for label, __, ___ in extra_samplers:
            headers += [f"{label} pre", f"{label} enum"]
        rows = []
        for percent in config.percentages:
            fraction = percent / 100.0
            renum = run_renum_cq(query, database, fraction, rng=config.rng())
            sample = run_sampler(
                query, database, ExactWeightSampler, fraction, rng=config.rng()
            )
            row = [
                f"{percent}%",
                format_seconds(renum.preprocessing_seconds),
                format_seconds(renum.enumeration_seconds),
                format_seconds(sample.preprocessing_seconds),
                format_seconds(sample.enumeration_seconds),
            ]
            for __, factory, draw_factor in extra_samplers:
                extra = run_sampler(
                    query,
                    database,
                    factory,
                    fraction,
                    rng=config.rng(),
                    max_draw_factor=draw_factor,
                    answer_count=total,
                )
                if extra.completed:
                    row += [
                        format_seconds(extra.preprocessing_seconds),
                        format_seconds(extra.enumeration_seconds),
                    ]
                else:
                    row += ["(timeout)", f"({extra.answers}/{extra.requested})"]
            rows.append(row)
        result.add(f"{name} (|Q(D)| = {total})", render_table(headers, rows))
    result.note(
        "Paper shape: Sample(EW) wins or ties at small k, then grows super-linearly "
        "(duplicate rejection) and is consistently beaten by REnum(CQ) at large k."
    )
    return result


# --------------------------------------------------------------------- #
# Figures 2 & 3 — delay box plots (full / 50% enumeration)               #
# --------------------------------------------------------------------- #


def figure2_3(
    fraction: float,
    config: ExperimentConfig = None,
    figure_name: str = "Figure 2",
) -> FigureResult:
    """Per-answer delay distributions for REnum(CQ) vs Sample(EW)."""
    config = config or ExperimentConfig()
    database = benchmark_database(config)
    result = FigureResult(
        figure=figure_name,
        title=f"Delay box plots when enumerating {int(fraction * 100)}% of answers "
        f"(TPC-H sf={config.scale_factor}); times in microseconds",
    )
    headers = ["algorithm", "median", "q1", "q3", "IQR", "whisk-", "whisk+", "outl%"]
    for name in config.cq_names:
        query = CQ_QUERIES[name]()
        rows = []
        for label, run in (
            (
                "REnum(CQ)",
                run_renum_cq(query, database, fraction, rng=config.rng(), record_delays=True),
            ),
            (
                "Sample(EW)",
                run_sampler(
                    query,
                    database,
                    ExactWeightSampler,
                    fraction,
                    rng=config.rng(),
                    record_delays=True,
                ),
            ),
        ):
            stats = box_stats(run.delays)
            rows.append(
                [
                    label,
                    f"{stats.median * 1e6:.1f}",
                    f"{stats.q1 * 1e6:.1f}",
                    f"{stats.q3 * 1e6:.1f}",
                    f"{stats.iqr * 1e6:.1f}",
                    f"{stats.whisker_low * 1e6:.1f}",
                    f"{stats.whisker_high * 1e6:.1f}",
                    f"{stats.outlier_percent:.2f}",
                ]
            )
        result.add(name, render_table(headers, rows))
    result.note(
        "Paper shape: REnum(CQ) shows smaller median, IQR and whisker range on a "
        "full enumeration; at 50% Sample(EW) can have a smaller median on the "
        "smallest query (Q0) but keeps larger variation."
    )
    return result


# --------------------------------------------------------------------- #
# Figure 4(a) — UCQ total time; 4(b) — QS7 ∪ QC7 at varying k%           #
# --------------------------------------------------------------------- #


def figure4a(config: ExperimentConfig = None) -> FigureResult:
    """Full-enumeration totals: cumulative REnum(CQ) vs REnum(UCQ) vs
    REnum(mcUCQ) on the three benchmark UCQs."""
    config = config or ExperimentConfig()
    database = benchmark_database(config)
    result = FigureResult(
        figure="Figure 4(a)",
        title=f"Total time of UCQ algorithms, full enumeration (TPC-H sf={config.scale_factor})",
    )
    headers = ["algorithm", "preprocessing", "enumeration", "total", "answers"]
    for name, make in UCQ_QUERIES.items():
        ucq = make()
        rows = []
        for run in (
            run_cumulative_renum_cq(ucq, database, rng=config.rng()),
            run_union_renum(ucq, database, rng=config.rng()),
            run_mcucq(ucq, database, rng=config.rng()),
        ):
            rows.append(
                [
                    run.label.rsplit(" ", 1)[0],
                    format_seconds(run.preprocessing_seconds),
                    format_seconds(run.enumeration_seconds),
                    format_seconds(run.total_seconds),
                    run.answers,
                ]
            )
        result.add(name, render_table(headers, rows))
    result.note(
        "Paper shape: REnum(mcUCQ) has the largest preprocessing (it also indexes "
        "the intersections); slowdown of REnum(UCQ) over cumulative REnum(CQ) grows "
        "with intersection size; on the 3-way union REnum(mcUCQ)'s 2^m factor hurts."
    )
    return result


def figure4b(config: ExperimentConfig = None) -> FigureResult:
    """QS7 ∪ QC7 total time at varying percentage of answers produced."""
    config = config or ExperimentConfig()
    database = benchmark_database(config)
    ucq = UCQ_QUERIES["QS7_or_QC7"]()
    result = FigureResult(
        figure="Figure 4(b)",
        title=f"QS7 ∪ QC7 total time at varying k% (TPC-H sf={config.scale_factor})",
    )
    headers = ["k%", "cumulative REnum(CQ)", "REnum(UCQ)", "REnum(mcUCQ)"]
    rows = []
    for percent in tuple(config.percentages) + (100,):
        fraction = percent / 100.0
        cumulative = run_cumulative_renum_cq(ucq, database, fraction, rng=config.rng())
        union = run_union_renum(ucq, database, fraction, rng=config.rng())
        mcucq = run_mcucq(ucq, database, fraction, rng=config.rng())
        rows.append(
            [
                f"{percent}%",
                format_seconds(cumulative.total_seconds),
                format_seconds(union.total_seconds),
                format_seconds(mcucq.total_seconds),
            ]
        )
    result.add("QS7 ∪ QC7", render_table(headers, rows))
    result.note(
        "Paper shape: both UCQ algorithms grow steadily; REnum(mcUCQ) becomes "
        "preferable around 60% of the answers."
    )
    return result


# --------------------------------------------------------------------- #
# Figure 5 — time on answers vs rejections per decile                    #
# --------------------------------------------------------------------- #


def figure5(config: ExperimentConfig = None) -> FigureResult:
    """REnum(UCQ) on QS7 ∪ QC7: where does rejection time go over a run?"""
    config = config or ExperimentConfig()
    database = benchmark_database(config)
    ucq = UCQ_QUERIES["QS7_or_QC7"]()
    run = run_union_renum(ucq, database, rng=config.rng(), decile_snapshots=True)
    result = FigureResult(
        figure="Figure 5",
        title="Time on emitted answers vs rejections per decile of a full "
        f"REnum(UCQ) run on QS7 ∪ QC7 (TPC-H sf={config.scale_factor})",
    )
    headers = ["decile", "answer time", "rejection time", "rejections so far"]
    rows = []
    previous_answer = previous_rejection = 0.0
    for snapshot in run.extra["snapshots"]:
        decile = round(100 * snapshot["emitted"] / max(1, run.answers))
        rows.append(
            [
                f"{decile}%",
                format_seconds(snapshot["answer_seconds"] - previous_answer),
                format_seconds(snapshot["rejection_seconds"] - previous_rejection),
                snapshot["rejections"],
            ]
        )
        previous_answer = snapshot["answer_seconds"]
        previous_rejection = snapshot["rejection_seconds"]
    result.add("QS7 ∪ QC7", render_table(headers, rows))
    result.note(
        "Paper shape: rejection time decays over the course of the enumeration — "
        "shared answers are both likelier to be selected early and deleted from "
        "non-owners on first rejection."
    )
    return result


# --------------------------------------------------------------------- #
# Appendix figures                                                       #
# --------------------------------------------------------------------- #


def figure6(config: ExperimentConfig = None) -> FigureResult:
    """Figure 1 plus Sample(EO) with a draw-budget timeout (App. B.2.1)."""
    config = config or ExperimentConfig(percentages=(1, 5, 10, 30))
    return figure1(
        config,
        extra_samplers=(("EO", OlkenSampler, 50.0),),
        figure_name="Figure 6",
    )


def figure7_tables(config: ExperimentConfig = None) -> FigureResult:
    """Mean / SD / outlier% of the delay at 50% and 100% (App. B.3)."""
    config = config or ExperimentConfig()
    database = benchmark_database(config)
    result = FigureResult(
        figure="Figure 7",
        title=f"Delay mean/SD/outlier%, microseconds (TPC-H sf={config.scale_factor})",
    )
    for fraction, label in ((0.5, "50% of the answers"), (1.0, "full enumeration")):
        headers = ["algorithm", "query", "mean (µ)", "SD (σ)", "outliers [%]"]
        rows = []
        for name in config.cq_names:
            query = CQ_QUERIES[name]()
            for alg_label, run in (
                (
                    "REnum(CQ)",
                    run_renum_cq(query, database, fraction, rng=config.rng(), record_delays=True),
                ),
                (
                    "Sample(EW)",
                    run_sampler(
                        query,
                        database,
                        ExactWeightSampler,
                        fraction,
                        rng=config.rng(),
                        record_delays=True,
                    ),
                ),
            ):
                summary = delay_summary(run.delays)
                rows.append(
                    [
                        alg_label,
                        name,
                        f"{summary.mean * 1e6:.2f}",
                        f"{summary.std * 1e6:.2f}",
                        f"{summary.outlier_percent:.3f}",
                    ]
                )
        result.add(label, render_table(headers, rows))
    result.note(
        "Paper shape: REnum(CQ) has a smaller mean (up to an order of magnitude on "
        "a full enumeration), far smaller SD, and consistently fewer outliers."
    )
    return result


def figure8(config: ExperimentConfig = None) -> FigureResult:
    """Q3 with Sample(OE) added (App. B.2.2)."""
    config = config or ExperimentConfig()
    return figure1(
        config,
        extra_samplers=(("OE", OlkenThenExactSampler, 50.0),),
        queries=("Q3",),
        figure_name="Figure 8",
    )


def rs_note(config: ExperimentConfig = None) -> FigureResult:
    """Appendix B.2.3: Sample(RS) cannot reach 1% of Q3 in sane time."""
    config = config or ExperimentConfig()
    database = benchmark_database(config)
    query = CQ_QUERIES["Q3"]()
    total = ExactWeightSampler(query, database, rng=config.rng()).answer_count
    run = run_sampler(
        query,
        database,
        NaiveRejectionSampler,
        fraction=0.01,
        rng=config.rng(),
        max_draw_factor=5.0,
        answer_count=total,
    )
    result = FigureResult(
        figure="B.2.3",
        title="Sample(RS) on Q3: rejection sampling from the cross product",
    )
    headers = ["requested (1%)", "emitted", "draws", "enum time", "status"]
    result.add(
        "Q3",
        render_table(
            headers,
            [
                [
                    run.requested,
                    run.answers,
                    run.extra["draws"],
                    format_seconds(run.enumeration_seconds),
                    "completed" if run.completed else "halted (draw budget)",
                ]
            ],
        ),
    )
    result.note(
        "Paper shape: RS's acceptance rate is |Q(D)| / ∏|R|, so it fails to reach "
        "even 1% within any reasonable budget."
    )
    return result
