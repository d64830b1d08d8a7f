"""Time of one catalog commit, with the journal in memory and in a file.

  python3 bench/commit.py --src change=src --src parent=../old/src \
      --calls 5000 --out BENCH_commit.json

Times two commits in a fresh process, REPEATS times for each --src:
`Catalog.audit_append` of the record a get's enforcement point writes,
and `Catalog.put_object`, the `object.put` commit of a new 100-byte
object. Each is timed per call over --calls calls, on a catalog whose
journal is off (in memory) and on one whose journal is flushed (a file
with one unbuffered write per record, no fsync). The journal has no
fsync mode, so "fsynced" is not measured. A process reports the median
per call, which leaves out the calls that also write a snapshot; the
result is the median over processes. Every process of a mode must
journal the same records, time stamps and the salted secret aside. Writes the medians, and
each run, as JSON.
"""

from __future__ import annotations

import json
import statistics
import tempfile
from pathlib import Path

from common import arg_parser, machine, rotated, run, sources, write

REPEATS = 5
MODES = ("off", "flushed")

MEASURE = """
import hashlib, json, sys, time
from pgzone.catalog import Catalog
from pgzone.common import SYSTEM

journal_dir, calls = sys.argv[1] or None, int(sys.argv[2])
catalog = Catalog(journal_dir)
catalog.create_user(SYSTEM, "admin", "admin", "pw")
catalog.make_collection(SYSTEM, "/", owner="admin")
catalog.make_collection("admin", "/home")
catalog.register_resource("admin", "main", "mem", "/blobs/main", "cache")
checksum = hashlib.sha256(b"x" * 100).hexdigest()

def audit_append(i):
    catalog.audit_append("admin", "pep.allow",
                         f"pep.data.get.pre rule=- /home/o{i}")

def object_put(i):
    catalog.put_object(f"/home/o{i}", "admin", "main", f"/blobs/main/{i}",
                       checksum, 100)

result = {}
for name, commit in (("audit_append", audit_append),
                     ("object_put", object_put)):
    took = []
    for i in range(calls):
        start = time.perf_counter_ns()
        commit(i)
        took.append(time.perf_counter_ns() - start)
    result[name] = sorted(took)[len(took) // 2] / 1000
records = [[r["seq"], r["op"], {k: v for k, v in r["args"].items()
                                 if k != "when"}]
           for r in catalog.records() if r["op"] != "user.create"]
result["records"] = len(records)
result["digest"] = hashlib.sha256(
    json.dumps(records, sort_keys=True).encode()).hexdigest()
catalog.close()
print(json.dumps(result))
"""


def main() -> None:
    ap = arg_parser(__doc__)
    ap.add_argument("--calls", type=int, default=5000)
    args = ap.parse_args()
    srcs = sources(args)
    runs: dict[str, dict[str, dict[str, list[float]]]] = {
        name: {c: {m: [] for m in MODES}
               for c in ("audit_append", "object_put")} for name in srcs}
    digests: dict[str, set[tuple[int, str]]] = {m: set() for m in MODES}
    with tempfile.TemporaryDirectory(prefix="pgzone-commit-") as tmp:
        for rep in range(REPEATS):  # interleaved, each source first in turn
            for name, src in rotated(list(srcs.items()), rep):
                for mode in MODES:
                    journal_dir = ""
                    if mode == "flushed":
                        journal_dir = str(Path(tmp) / f"{name}-{rep}")
                    got = json.loads(
                        run(src, MEASURE, journal_dir, str(args.calls)))
                    digests[mode].add((got["records"], got["digest"]))
                    for commit, per in runs[name].items():
                        per[mode].append(got[commit])
    if any(len(d) != 1 for d in digests.values()):
        raise SystemExit(f"the sources journal different records: {digests}")
    result = {
        "what": "microseconds per catalog commit, median per call in a "
                f"fresh process, then the median of {REPEATS} processes; "
                f"{args.calls} calls of each commit: audit_append of a "
                "get's pep.allow record, then put_object of a new "
                "100-byte object; journal off (in memory) and flushed "
                "(a file, one unbuffered write per record, no fsync)",
        "fsynced": "not measured: the journal has no fsync mode",
        **machine(srcs, args.note),
        "calls": args.calls,
        "records": {m: next(iter(d))[0] for m, d in digests.items()},
        "commit_us_median": {
            name: {c: {m: round(statistics.median(s), 2)
                       for m, s in per.items()}
                   for c, per in commits.items()}
            for name, commits in runs.items()},
        "commit_us_runs": {
            name: {c: {m: [round(x, 2) for x in s] for m, s in per.items()}
                   for c, per in commits.items()}
            for name, commits in runs.items()},
    }
    write(result, args.out)


if __name__ == "__main__":
    main()
