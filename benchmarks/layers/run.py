"""The layered benchmark's one command.

Driver form (what ``BENCHMARK.json`` registers) — one workload, one run::

    python3 benchmarks/layers/run.py --workload static_http --seed 1 \\
        --seconds 15 --trace 0

measures end to end (``--trace 0``: three set-ups, then a ``--seconds``
window on the unmodified system) or layer by layer (``--trace 1``: an
untraced window of half the seconds, then a traced one of the other half
through ``traced_serve.py``), checks every response against the oracle, and prints
one JSON object as its last line.

Full form — every workload, both runs, one table::

    PYTHONPATH=src python benchmarks/layers/run.py --seed 1 [--smoke] \\
        [--repeat 3] --out results.json

runs the driver form twice per workload, each in a subprocess (so one
workload's memory and rebinding never leak into the next) — ``--trace 0``
over 30 s, ``--trace 1`` over 10 s — and writes every metric of every
repeat to ``--out`` for ``compare.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import subprocess
import sys
import time
from typing import Dict, List

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path.insert(0, str(HERE))
sys.path.insert(1, str(ROOT / "src"))

import attribution  # noqa: E402
import metrics  # noqa: E402

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3
#: Share of a traced run's ``--seconds`` spent on its untraced baseline.
#: Equal halves: what does not scale with a window (its one checkpoint, the
#: swap period) then weighs the same on both sides of the overhead ratio.
BASELINE_SHARE = 0.5
#: ``--seconds`` of the full form's two runs per workload (the issue's
#: 30 s + 10 s), and of both under ``--smoke``.
FULL_SECONDS, FULL_TRACE_SECONDS = 30.0, 10.0
SMOKE_SECONDS = 0.8


def _warm_seconds(seconds: float) -> float:
    return min(1.0, 0.1 * seconds)


# ---------------------------------------------------------------------- #
# One measurement                                                         #
# ---------------------------------------------------------------------- #


class Http:
    """Drive one HTTP workload through launch → ready → warm → window."""

    def __init__(self, name: str, seed: int, smoke: bool, workdir: str):
        import http_workloads

        self.workload = http_workloads.WORKLOADS[name](seed, smoke, workdir)

    def setup(self, traced: bool) -> float:
        self.workload.launch(traced)
        return self.workload.ready()

    def discard(self) -> None:
        """Throw a finished set-up away (the repeats before the last)."""
        self.workload.server.kill()

    def measure(self, seconds: float, traced: bool):
        workload = self.workload
        workload.prepare()
        workload.window(_warm_seconds(seconds))
        window = workload.window(seconds)
        served_by = workload.server
        facts = workload.after(window, traced)
        self.stop()
        facts["peak_rss_mb"] = served_by.peak_rss_mb
        facts["setup_rid"] = workload.control.name + "-1"
        return window, facts

    def stop(self) -> None:
        for server in self.workload.servers:
            server.stop()

    def spans(self):
        import tracing

        spans, offset, header = [], 0, {}
        for server in self.workload.servers:
            if server.trace_file is None:
                continue
            head, loaded = tracing.load(server.trace_file)
            header = header or head
            spans += [
                span._replace(
                    id=span.id + offset,
                    parent=span.parent + offset if span.parent >= 0 else -1,
                )
                for span in loaded
            ]
            offset += len(loaded) + 1
        return header, spans


class InProcess:
    """``paper_renum``: the same steps with no process boundary."""

    def __init__(self, name: str, seed: int, smoke: bool, workdir: str):
        import renum_workload

        self.workload = renum_workload.PaperRenum(seed, smoke, workdir)
        self.recorder = None

    def setup(self, traced: bool) -> float:
        if traced and self.recorder is None:
            import tracing

            self.recorder = tracing.Recorder()
            # Algorithm 5 calls inverted_access per candidate answer: a span
            # each would measure the recorder, not the engine.
            tracing.install(self.recorder, skip=("inverted_access",))
        return self.workload.setup()

    def discard(self) -> None:
        self.workload.teardown()

    def measure(self, seconds: float, traced: bool):
        window = self.workload.window(seconds)
        facts = self.workload.after(window, traced)
        facts["import_s"] = self.workload.import_s
        return window, facts

    def stop(self) -> None:
        pass

    def spans(self):
        from metrics import Span

        return {}, [Span(*span) for span in self.recorder.spans]


def measure(name: str, seed: int, seconds: float, traced: bool, smoke: bool) -> dict:
    """One run of one workload: the detail record both forms build on."""
    workdir = ROOT / ".bench_layers" / f"{name}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    driver = (InProcess if name == "paper_renum" else Http)(
        name, seed, smoke, str(workdir)
    )
    try:
        if not traced:
            setups = []
            for repeat in range(1 if smoke else SETUPS):
                if repeat:
                    driver.discard()
                setups.append(driver.setup(traced=False))
            window, facts = driver.measure(seconds, traced=False)
            return {
                "workload": name, "seed": seed, "traced": False,
                "metrics": attribution.end_to_end(
                    window, metrics.median(setups), facts
                ),
                "samples": {"reads": len(window.reads), "writes": len(window.writes)},
                "attempted": window.attempted,
                "failed": len(window.failures),
                "failures": window.failures[:5],
            }
        setup = driver.setup(traced=False)
        baseline, facts = driver.measure(BASELINE_SHARE * seconds, traced=False)
        untraced = attribution.end_to_end(baseline, setup, facts)
        driver.discard()
        driver.setup(traced=True)
        window, facts = driver.measure((1 - BASELINE_SHARE) * seconds, traced=True)
        header, spans = driver.spans()
        facts.setdefault("import_s", header.get("process.import_s", 0.0))
        attempted = baseline.attempted + window.attempted
        failures = baseline.failures + window.failures
        untraced["failed_share"] = len(failures) / attempted
        base_rate = attribution.throughput(baseline)
        return {
            "workload": name, "seed": seed, "traced": True,
            "metrics": attribution.per_layer(
                name, window, spans, facts, untraced,
                overhead_share=(
                    1 - attribution.throughput(window) / base_rate if base_rate else 0.0
                ),
            ),
            "attempted": attempted,
            "failed": len(failures),
            "failures": failures[:5],
        }
    finally:
        driver.stop()
        shutil.rmtree(workdir, ignore_errors=True)


def result_line(detail: dict) -> dict:
    """The contract's last line of standard output."""
    table = metrics.PER_LAYER if detail["traced"] else metrics.END_TO_END
    return {
        "correct": detail["failed"] == 0,
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": {
            m.name: {"value": detail["metrics"][m.name], "unit": m.unit}
            for m in table
        },
    }


# ---------------------------------------------------------------------- #
# The full form                                                           #
# ---------------------------------------------------------------------- #


def _subprocess_measure(name, seed, seconds, traced, smoke, detail_file) -> dict:
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", name,
        "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(int(traced)), "--detail", detail_file,
    ] + (["--smoke"] if smoke else [])
    completed = subprocess.run(command, cwd=str(ROOT), capture_output=True, text=True)
    if completed.returncode != 0:
        raise RuntimeError(
            f"{name} (trace {int(traced)}) exited {completed.returncode}:\n"
            f"{completed.stderr[-2000:]}"
        )
    with open(detail_file) as handle:
        return json.load(handle)


def _format(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def print_table(title: str, names: List[str], units: Dict[str, str], columns: Dict[str, dict]) -> None:
    workloads = list(columns)
    width = max(len(name) for name in names) + 2
    print(f"\n{title}")
    print(f"{'metric':<{width}}{'unit':<7}" + "".join(f"{w:>18}" for w in workloads))
    for name in names:
        cells = "".join(f"{_format(columns[w].get(name)):>18}" for w in workloads)
        print(f"{name:<{width}}{units[name]:<7}{cells}")


def full(args) -> int:
    started = time.perf_counter()
    seconds = SMOKE_SECONDS if args.smoke else FULL_SECONDS
    trace_seconds = SMOKE_SECONDS if args.smoke else FULL_TRACE_SECONDS
    scratch = ROOT / ".bench_layers" / f"full-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    runs: Dict[str, List[dict]] = {name: [] for name in metrics.WORKLOADS}
    failed = 0
    try:
        for repeat in range(args.repeat):
            for name in metrics.WORKLOADS:
                record = {"attempted": 0, "failed": 0, "failures": []}
                for traced in (False, True):
                    detail = _subprocess_measure(
                        name, args.seed + 1000 * repeat,
                        trace_seconds if traced else seconds, traced, args.smoke,
                        str(scratch / "detail.json"),
                    )
                    record["per_layer" if traced else "end_to_end"] = detail["metrics"]
                    record["attempted"] += detail["attempted"]
                    record["failed"] += detail["failed"]
                    record["failures"] += detail["failures"]
                    if not traced:
                        record["samples"] = detail["samples"]
                record["end_to_end"]["failed_share"] = (
                    record["failed"] / record["attempted"]
                )
                failed += record["failed"]
                runs[name].append(record)
                print(f"[{time.perf_counter() - started:6.1f}s] {name} "
                      f"repeat {repeat + 1}/{args.repeat}: "
                      f"{record['attempted']} operations, {record['failed']} failed",
                      flush=True)
                for failure in record["failures"]:
                    print(f"    FAILED: {failure}")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    def medians(key: str, table) -> Dict[str, dict]:
        return {
            name: {
                m.name: metrics.median(r[key][m.name] for r in records)
                for m in table if m.name in records[0][key]
            }
            for name, records in runs.items()
        }

    for title, key, table in (
        (f"End to end (untraced, {seconds:g} s windows", "end_to_end", metrics.BOUNDED),
        (f"Per layer (traced, {trace_seconds:g} s", "per_layer", metrics.LAYERS),
    ):
        print_table(
            f"{title}, median of {args.repeat})", [m.name for m in table],
            {m.name: m.unit for m in table}, medians(key, table),
        )
    payload = {
        "seed": args.seed, "smoke": args.smoke, "repeat": args.repeat,
        "seconds": seconds, "trace_seconds": trace_seconds,
        "host": {"cpus": os.cpu_count(), "python": sys.version.split()[0]},
        "workloads": runs,
    }
    pathlib.Path(args.out).write_text(json.dumps(payload, indent=1) + "\n")
    print(f"\nwrote {args.out} in {time.perf_counter() - started:.1f} s; "
          f"{failed} failed operation(s)")
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes and windows; the whole table in ~20 s")
    one = parser.add_argument_group("driver form: one workload, one run")
    one.add_argument("--workload", choices=list(metrics.WORKLOADS))
    one.add_argument("--seconds", type=float, help="seconds this run measures")
    one.add_argument("--trace", type=int, choices=(0, 1), default=0,
                     help="0 end to end (default), 1 per layer")
    one.add_argument("--detail", help="also write the run's detail record here")
    everything = parser.add_argument_group("full form: every workload, both runs")
    everything.add_argument("--out", help="where to write every metric")
    everything.add_argument("--repeat", type=int, default=1,
                            help="runs per workload, on seeds seed, seed+1000, …")
    args = parser.parse_args(argv)

    if (args.workload is None) == (args.out is None):
        parser.error("give --workload and --seconds (one run) or --out (the full table)")
    if (args.workload is None) != (args.seconds is None):
        parser.error("--seconds goes with --workload, and only with it")
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"no system to measure: {ROOT / 'src' / 'repro'} is missing")
    if args.workload is None:
        return full(args)
    detail = measure(
        args.workload, args.seed, args.seconds, bool(args.trace), args.smoke
    )
    if args.detail:
        pathlib.Path(args.detail).write_text(json.dumps(detail) + "\n")
    for failure in detail["failures"]:
        print(f"FAILED: {failure}", file=sys.stderr)
    line = result_line(detail)
    for name, cell in line["metrics"].items():
        print(f"{name:<36}{cell['value']!r:>24} {cell['unit']}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
