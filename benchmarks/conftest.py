"""Shared fixtures for the benchmark suite.

Each ``bench_figures.py`` case regenerates one paper figure/table: the
driver in :mod:`repro.experiments.figures` computes the data,
pytest-benchmark times the run, and the rendered text is written under
``results/``. The gated end-to-end numbers for the same enumerations come
from the ``paper_renum`` workload (benchmarks/layers/README.md).

Scale is controlled by ``REPRO_BENCH_SF`` (default 0.002). The paper ran at
TPC-H sf=5 in C++; the qualitative shapes are scale-invariant, the
wall-clock is not.
"""

from __future__ import annotations

import json
import os
import pathlib
import platform

import pytest

from repro.experiments.figures import ExperimentConfig


def emit_bench(name, measured, required, json_path, params=None, smoke=False):
    """Write one acceptance-gate artifact in the shared ``BENCH_*.json``
    schema.

    Every gate script emits through this helper so the artifacts stay
    machine-comparable across PRs: the gate's single headline ratio
    (``measured_speedup`` vs. ``required_speedup``), its workload
    parameters and per-arm timings under ``params``, and a host
    fingerprint so numbers from different machines are never naively
    compared. Returns the path written.
    """
    payload = {
        "benchmark": name,
        "measured_speedup": round(float(measured), 2),
        "required_speedup": required,
        "params": params or {},
        "host": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "cpu_count": os.cpu_count(),
        },
        "smoke": bool(smoke),
    }
    path = pathlib.Path(json_path)
    path.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {path}")
    return path


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    path = pathlib.Path(__file__).resolve().parent.parent / "results"
    path.mkdir(exist_ok=True)
    return path


@pytest.fixture(scope="session")
def config() -> ExperimentConfig:
    return ExperimentConfig()
