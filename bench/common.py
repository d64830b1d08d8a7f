"""The one harness of the scripts in bench/: the --src/--out/--note
arguments, the timing snippet every MEASURE body runs under, the runner
that pairs the sources' processes, the summary of their times, the
machine header and the write-out.

Each script compares one or more pgzone source trees, named on the
command line as --src NAME=PATH, and writes one JSON document. A script
gives `compare` its MEASURE body; the body times its calls with
`median_us` (or `timed_us`) and ends with `report`, all from TIMING.

A shared machine's speed drifts by up to 1.7x for seconds at a time
(perfbench/WORKLOADS.md, "Noise on a shared machine"), more than most
differences these scripts measure. Two things keep that out of the
numbers. TIMING scales each time to the reference speed, by a fixed
arithmetic loop run around every batch of calls. And `compare` runs the
sources' processes of one repeat back to back, so that `paired` can
report each source's per-repeat ratio to the first.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Callable, Iterable

TIMING = """
import json, time

REFERENCE_NS = 700_000  # speed_ns() of an Intel Xeon at its fast level
BATCH = 25

def speed_ns():
    best = 1 << 62
    for _ in range(3):
        start = time.perf_counter_ns()
        s = 0
        for i in range(10_000):
            s += i * i % 7
        best = min(best, time.perf_counter_ns() - start)
    return best

def scaled_us(batch_ns, before_ns, after_ns):
    scale = 2 * REFERENCE_NS / (before_ns + after_ns)
    return [ns * scale / 1000 for ns in batch_ns]

def timed_us(calls):
    # Each call's microseconds at the reference speed. The calls run in
    # batches of BATCH, each timed between two speed loops; one call is
    # a batch of its own. `calls` may be a generator: what it does
    # between two calls is not timed.
    took, batch, before = [], [], speed_ns()
    for call in calls:
        start = time.perf_counter_ns()
        call()
        batch.append(time.perf_counter_ns() - start)
        if len(batch) == BATCH:
            after = speed_ns()
            took += scaled_us(batch, before, after)
            batch, before = [], after
    if batch:
        took += scaled_us(batch, before, speed_ns())
    return took

def median(values):
    return sorted(values)[len(values) // 2]

def median_us(calls):
    return median(timed_us(calls))

def report(us, check=None):
    # us: row -> microseconds. check: what every process of this cell
    # must print alike, whatever its source.
    print(json.dumps({"us": us, "check": check}))
"""


def arg_parser(doc: str) -> argparse.ArgumentParser:
    """A parser with --src, --out and --note; a script adds its own."""
    ap = argparse.ArgumentParser(description=doc.split("\n")[0])
    ap.add_argument("--src", action="append", required=True,
                    help="NAME=PATH of a pgzone source tree; repeatable")
    ap.add_argument("--out", type=Path)
    ap.add_argument("--note", default="", help="what each NAME is")
    return ap


def sources(args: argparse.Namespace) -> dict[str, str]:
    """The --src arguments as NAME -> PATH, in the order given."""
    return dict(s.split("=", 1) for s in args.src)


def run(src: str, code: str, *args: str) -> str:
    """The stdout of `python -c code args...` with src on its path."""
    env = dict(os.environ, PYTHONPATH=str(Path(src).resolve()))
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          check=True, capture_output=True, text=True).stdout


def rotated(items: list, rep: int) -> list:
    """items with a different one first on each repeat, so that the
    machine's drift in speed hits every source alike."""
    k = rep % len(items)
    return items[k:] + items[:k]


def compare(srcs: dict[str, str], measure: str, repeats: int,
            cells: Iterable[str] = ("",),
            argv: Callable[[str, str], list[str]] = lambda cell, proc: [],
            ) -> tuple[dict, dict]:
    """Run TIMING + measure in one fresh process per source, cell and
    repeat. In each repeat, cell by cell, the sources' processes run back
    to back, in an order rotated from repeat to repeat. argv(cell, proc)
    gives a process its arguments; proc names that process alone.

    A process's rows are named row.cell (row alone for the cell "").
    Every process of a cell must report the same check, or this refuses
    with SystemExit. Returns the summary of the times and, for each cell,
    its check."""
    cells = list(cells)
    runs: dict[str, dict[str, list[float]]] = {name: {} for name in srcs}
    checks: dict[str, object] = {}
    for rep in range(repeats):
        for cell in rotated(cells, rep):
            for name, src in rotated(list(srcs.items()), rep):
                got = json.loads(run(src, TIMING + measure,
                                     *argv(cell, f"{name}-{rep}")))
                check = checks.setdefault(cell, got["check"])
                if got["check"] != check:
                    raise SystemExit(
                        f"{name} disagrees with the processes before it"
                        f"{' on ' + cell if cell else ''}: "
                        f"{got['check']} against {check}")
                for row, us in got["us"].items():
                    key = f"{row}.{cell}" if cell else row
                    runs[name].setdefault(key, []).append(us)
    return summary(runs), checks


def summary(runs: dict[str, dict[str, list[float]]]) -> dict:
    """Each source's median and runs of each row, in microseconds at the
    reference speed, and with two or more sources the paired ratios."""
    result = {
        "us_median": {name: {row: round(statistics.median(v), 2)
                             for row, v in per.items()}
                      for name, per in runs.items()},
        "us_runs": {name: {row: [round(x, 2) for x in v]
                           for row, v in per.items()}
                    for name, per in runs.items()},
    }
    if len(runs) > 1:
        result["ratio_to_first"] = paired(runs)
    return result


def paired(runs: dict[str, dict[str, list[float]]]) -> dict:
    """For each source after the first, each row's ratio to the first
    source in every repeat, the median of those ratios, and in how many
    repeats the source was lower. The processes of one repeat run back to
    back, so a ratio leaves out which speed level the machine was at."""
    first, *rest = runs
    result: dict[str, dict] = {}
    for name in rest:
        result[name] = {}
        for key, values in runs[name].items():
            ratios = [x / base for x, base in zip(values, runs[first][key])]
            result[name][key] = {
                "ratios": [round(r, 3) for r in ratios],
                "median": round(statistics.median(ratios), 3),
                "won": sum(r < 1 for r in ratios),
            }
    return result


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def machine(srcs: dict[str, str], note: str) -> dict:
    """The header every result carries: where it ran and what it compares."""
    return {
        "machine": platform.machine(),
        "cpu": cpu_model(),
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "sources": list(srcs),
        "note": note,
    }


def write(result: dict, out: Path | None) -> None:
    """Print the result as JSON, and write it to out when given."""
    text = json.dumps(result, indent=2) + "\n"
    if out:
        out.write_text(text)
    print(text, end="")
