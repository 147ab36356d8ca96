"""Compare two result files of ``run.py --out``.

``python benchmarks/layers/compare.py A.json B.json`` prints one row per
workload, and under it only the end-to-end metrics whose median moved
beyond their bound — each as a ratio with its base. A metric whose
run-to-run spread (over the ``--repeat`` runs of either side) is wider
than its bound is ``unresolved``, not unchanged. Exits 1 when B regressed;
``failed_share`` has bound 0, so any failure B has and A had not is one.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Dict, List, Tuple

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import metrics  # noqa: E402


def _values(records: List[dict], name: str) -> List[float]:
    return [
        record["end_to_end"][name] for record in records
        if name in record["end_to_end"]
    ]


def compare(base: dict, new: dict) -> Tuple[List[str], bool]:
    """``(report lines, regressed)`` for two loaded result files."""
    lines: List[str] = []
    regressed = False
    for workload in metrics.WORKLOADS:
        before = base["workloads"].get(workload) or []
        after = new["workloads"].get(workload) or []
        if not before or not after:
            lines.append(f"{workload}: missing from one side")
            continue
        moved: List[str] = []
        for metric in metrics.BOUNDED:
            a, b = _values(before, metric.name), _values(after, metric.name)
            if not a or not b:
                continue
            if metric.name == "failed_share":
                # A failure in any repeat counts, not only in the median one.
                a, b = [max(a)], [max(b)]
            verdict = metrics.verdict(metric, a, b)
            if verdict == "same":
                continue
            old, now = metrics.median(a), metrics.median(b)
            ratio = f"{now / old:.3f} x" if old else "against"
            moved.append(
                f"  {metric.name:<22}{verdict:<11}"
                f"{now:.4g} {metric.unit} = {ratio} base {old:.4g} {metric.unit}"
                f"  (bound {metric.bound:.0%}, spread base {metrics.spread(a):.1%}"
                f" / new {metrics.spread(b):.1%}, {len(a)}+{len(b)} runs)"
            )
            regressed |= verdict == "regressed"
        lines.append(
            f"{workload}: " + ("no end-to-end metric moved beyond its bound"
                               if not moved else f"{len(moved)} moved")
        )
        lines += moved
    return lines, regressed


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__)
        return 2
    loaded: Dict[str, dict] = {}
    for path in argv:
        with open(path) as handle:
            loaded[path] = json.load(handle)
    lines, regressed = compare(loaded[argv[0]], loaded[argv[1]])
    print(f"base {argv[0]}  vs  new {argv[1]}")
    print("\n".join(lines))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
