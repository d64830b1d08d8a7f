"""pgzone benchmark: one command runs a workload from a seed, checks every
output against the benchmark's own model, and prints the metrics.

  python3 perfbench/run.py --workload ingest --seed 1 --seconds 15 --trace 0

Workloads (see perfbench/WORKLOADS.md): ingest and serve. A run is
rounds of a fixed, seeded operation list on a freshly built zone, until
the operations of all rounds took --seconds (ingest: at the reference
speed; at least MIN_ROUNDS, at most MAX_ROUNDS); timings are taken over
the fastest replays of each operation. With --trace 0 the last line of
stdout is a JSON object with the end-to-end metrics; with --trace 1
rounds alternate untraced and traced and the metrics are the per-layer
ones, with the tracing overhead. The line before it stamps the run with
the machine, Python version, commit and calibration time. Exits
non-zero, printing no result, when the checkout holds no pgzone sources
or a round cannot run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

import workloads
from model import OP_KINDS
from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench_tmp"
OUT = ROOT / ".perfbench_out"

MIN_ROUNDS, MAX_ROUNDS = 4, 12
TIME_LIMIT_S = 100   # start no new round after this long
# Latency samples kept per run, so that at least ten lie beyond the p99.
MIN_SAMPLES = 1000

def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def commit() -> str:
    """The checked-out commit, read from .git when there is one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_rounds(args, tmp_root: Path) -> list:
    users = workloads.SERVE_USERS if args.workload == "serve" else ("alice",)
    plans = [workloads.plan(args.workload, args.seed, args.size, u)
             for u in users]
    tiny = args.size == "tiny"
    min_rounds = (2 if args.trace else 1) if tiny else \
        MIN_ROUNDS + (1 if args.trace else 0)
    rounds, measured, start = [], 0.0, time.monotonic()
    while len(rounds) < min_rounds or (
            measured < args.seconds and len(rounds) < MAX_ROUNDS
            and time.monotonic() - start < TIME_LIMIT_S):
        i = len(rounds)
        tracer = Tracer() if args.trace and i % 2 == 1 else None
        tmp = tmp_root / f"round-{i}"
        tmp.mkdir(parents=True)
        if args.workload == "ingest":
            rnd = workloads.ingest_round(plans[0], tmp, tracer)
        else:
            rnd = workloads.serve_round(plans, args.seed, args.size, tmp,
                                        tracer, SRC)
        rounds.append(rnd)
        measured += rnd.busy_s()
    return rounds


def _ms(ns_values: list[int]) -> float:
    return statistics.median(ns_values) / 1e6


def fastest_replays(rounds: list) -> list[list[tuple[str, int]]]:
    """Per caller, the k fastest replays of each of its operations, with
    k the fewest that keep MIN_SAMPLES samples in all (ingest: 1 of 6000
    operations; serve: 3 of 340). Every round replays the same
    operations, so this compares like with like; on a machine whose
    speed switches between levels every few seconds, it measures each
    operation at the faster level."""
    ops = sum(len(t) for t in rounds[0].timings)
    k = min(len(rounds), -(-MIN_SAMPLES // ops))
    kept = []
    for c, first in enumerate(rounds[0].timings):
        seq = []
        for i, (kind, _) in enumerate(first):
            replays = sorted(r.timings[c][i][1] for r in rounds)
            seq += [(kind, ns) for ns in replays[:k]]
        kept.append(seq)
    return kept


def end_to_end(rounds: list) -> dict[str, float]:
    kept = fastest_replays(rounds)
    lat = [ns for seq in kept for _, ns in seq]
    m = {
        "setup_s": statistics.median(r.setup_s for r in rounds),
        "ops_per_s": sum(len(seq) * 1e9 / sum(ns for _, ns in seq)
                         for seq in kept),
        "lat_p50_ms": _ms(lat),
        "lat_p99_ms": percentile(lat, 99) / 1e6,
    }
    for kind in OP_KINDS:
        m[f"{kind}_p50_ms"] = _ms([ns for seq in kept for k, ns in seq
                                   if k == kind])
    m["recover_s"] = statistics.median(v for r in rounds for v in r.recover_s)
    m["disk_bytes_per_user_byte"] = statistics.median(
        r.disk_ratio for r in rounds if r.disk_ratio)
    # ingest: the peak only grows within the process, so this is the
    # first round's; serve: the smallest of the server processes' peaks.
    m["peak_rss_mib"] = min(r.rss_mib for r in rounds)
    return m


def per_layer(rounds: list) -> dict[str, float]:
    traced = [r for r in rounds if r.traced]
    plain = [r for r in rounds if not r.traced]
    m = {name: statistics.median(r.layers[name] for r in traced)
         for name in traced[0].layers}
    m["journal.bytes_per_user_byte"] = statistics.median(
        r.journal_ratio for r in rounds if r.journal_ratio)

    def p50(group):
        return _ms([ns for r in group for t in r.timings for _, ns in t])

    def rate(group):
        return statistics.median(r.ops_per_s() for r in group)

    m["trace.overhead.lat_p50_ms"] = p50(traced) - p50(plain)
    m["trace.overhead.ops_per_s"] = rate(traced) - rate(plain)
    return m


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("ingest", "serve"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: a few operations, for the self-test")
    args = ap.parse_args()

    if not (SRC / "pgzone" / "zone.py").is_file():
        print(f"error: no pgzone sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # Run the clean-up below on SIGTERM as well.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    tmp_root = SCRATCH / f"{args.workload}-{os.getpid()}"
    try:
        rounds = run_rounds(args, tmp_root)
    finally:
        shutil.rmtree(tmp_root, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass  # another run is using it

    # Units come from BENCHMARK.json, which names every metric printed.
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.trace:
        metrics = per_layer(rounds)
        OUT.mkdir(exist_ok=True)
        spans = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        spans.write_text(json.dumps([r.spans for r in rounds if r.traced]))
    else:
        metrics = end_to_end(rounds)
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    print(json.dumps({"run": {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "trace": args.trace, "rounds": len(rounds),
        "ops_per_round": rounds[0].ops,
        "nproc": os.cpu_count(), "cpu": cpu_model(),
        "python": platform.python_version(), "commit": commit(),
        "calibration_ms": workloads.calibration_ns() / 1e6,
        "reference_ms": workloads.REFERENCE_NS / 1e6,
    }}))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
