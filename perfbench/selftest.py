"""Self-test of the benchmark harness at tiny size (about a minute).

For every workload in BENCHMARK.json, runs run.py with --size tiny, once
untraced and once traced, and checks that the last line is the result
object, that every output was correct, and that every metric named in
BENCHMARK.json is printed with its unit (and, untraced, is not 0). Then
checks that run.py fails without printing a result in a directory that
holds only BENCHMARK.json and perfbench/.

  python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ["perfbench/run.py", "--seed", "7", "--seconds", "1", "--size", "tiny"]


def result_of(stdout: str) -> dict:
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else {}


def check_run(workload: str, trace: int, spec: dict) -> list[str]:
    proc = subprocess.run(
        [sys.executable, *RUN, "--workload", workload, "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr[-800:]}"]
    res = result_of(proc.stdout)
    errors = []
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        return [f"{where}: result keys {sorted(res)}"]
    if res["correct"] is not True or res["failed"] != 0 \
            or res["attempted"] < 1:
        errors.append(f"{where}: correct={res['correct']} "
                      f"failed={res['failed']} attempted={res['attempted']}")
    want = {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}
    got = res["metrics"]
    if set(got) != set(want):
        errors.append(f"{where}: missing {sorted(set(want) - set(got))}, "
                      f"unexpected {sorted(set(got) - set(want))}")
    for name, unit in want.items():
        entry = got.get(name)
        if entry is None:
            continue
        if entry.get("unit") != unit:
            errors.append(f"{where}: {name} unit {entry.get('unit')!r}, "
                          f"BENCHMARK.json says {unit!r}")
        value = entry.get("value")
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            errors.append(f"{where}: {name} value {value!r}")
        elif not trace and value == 0:
            errors.append(f"{where}: {name} is 0")
    return errors


def check_bare(spec: dict) -> list[str]:
    """run.py must refuse to run where there are no pgzone sources."""
    bare = ROOT / ".perfbench_tmp" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [*spec["command"], "--workload", spec["workloads"][0]["name"],
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bare.parent.rmdir()
        except OSError:
            pass  # a benchmark run is using it
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"bare directory: exit {proc.returncode}, "
                f"stdout {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = []
    for name in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            errors += check_run(name, trace, spec)
    errors += check_bare(spec)
    for e in errors:
        print("FAIL", e)
    print("selftest:", "ok" if not errors else f"{len(errors)} failures")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
