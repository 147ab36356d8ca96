"""The paper's figures and tables, one parametrized driver run each.

* ``figure1`` — total enumeration time of REnum(CQ) vs Sample(EW) on Q0,
  Q2, Q3, Q7, Q9 and Q10, preprocessing and enumeration reported apart;
* ``figure2`` / ``figure3`` — delay box plots over a full enumeration and
  over 50 % of the answers;
* ``figure4a`` / ``figure4b`` — UCQ enumeration: full-run totals on the
  three UCQs, then QS7 ∪ QC7 at a varying percentage of answers;
* ``figure5`` — time on answers vs rejections across a full REnum(UCQ)
  run on QS7 ∪ QC7;
* ``figure6`` (App. B.2.1) — Figure 1 plus Sample(EO) under its draw
  budget, at k ≤ 30 % as in the paper, reporting a timeout past it;
* ``figure7_tables`` (App. B.3) — delay mean/SD/outlier% at 50 % and 100 %;
* ``figure8`` (App. B.2.2) — Q3 with Sample(OE) added;
* ``rs_note`` (App. B.2.3) — Sample(RS) cannot produce 1 % of Q3's answers.

Each run writes its rendered text to ``results/<name>.txt``.
"""

import pytest

from repro.experiments.figures import (
    ExperimentConfig,
    figure1,
    figure2_3,
    figure4a,
    figure4b,
    figure5,
    figure6,
    figure7_tables,
    figure8,
    rs_note,
)


def _figure6(config):
    return figure6(ExperimentConfig(
        scale_factor=config.scale_factor, seed=config.seed,
        percentages=(1, 5, 10, 30),
    ))


FIGURES = {
    "figure1": figure1,
    "figure2": lambda config: figure2_3(1.0, config, figure_name="Figure 2"),
    "figure3": lambda config: figure2_3(0.5, config, figure_name="Figure 3"),
    "figure4a": figure4a,
    "figure4b": figure4b,
    "figure5": figure5,
    "figure6": _figure6,
    "figure7_tables": figure7_tables,
    "figure8": figure8,
    "rs_note": rs_note,
}


@pytest.mark.parametrize("name", list(FIGURES))
def test_figure(benchmark, config, results_dir, name):
    result = benchmark.pedantic(FIGURES[name], args=(config,), rounds=1, iterations=1)
    text = result.render()
    (results_dir / f"{name}.txt").write_text(text)
    print(text)
