"""What the scripts in bench/ share: the --src/--out/--note arguments,
running a snippet in a fresh process over one source tree, the order of
sources on each repeat, the paired ratios of the sources' repeats, the
machine header and the write-out.

Each script compares one or more pgzone source trees, named on the
command line as --src NAME=PATH, and writes one JSON document.
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
