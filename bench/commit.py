"""Time of one catalog commit, with the journal in memory and in a file.

  python3 bench/commit.py --src change=src --src parent=../old/src \
      --calls 5000 --out BENCH_commit.json

Times two commits in a fresh process, REPEATS times for each --src and
journal mode: `Catalog.audit_append` of the record a get's enforcement
point writes, and `Catalog.put_object`, the `object.put` commit of a new
100-byte object. Each is timed per call over --calls calls, on a catalog
whose journal is off (in memory) and on one whose journal is flushed (a
file with one unbuffered write per record, no fsync; a fresh directory
for each process). The journal has no fsync mode, so "fsynced" is not
measured. A process reports the median per call, scaled to the
reference speed (bench/common.py), which leaves out the calls that also
write a snapshot. Every process of a mode must journal the same state
records and audit entries, in whichever file each source keeps them,
seqs, time stamps and the salted secret aside. Rows are named
audit_append.MODE and object_put.MODE; the sources' processes of a
repeat run back to back, and the result holds each row's median and
runs, and its ratios paired by repeat.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from common import arg_parser, compare, machine, sources, write

REPEATS = 10
MODES = ("off", "flushed")

MEASURE = """
import hashlib, json, sys
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

us = {name: median_us([lambda i=i: commit(i) for i in range(calls)])
      for name, commit in (("audit_append", audit_append),
                           ("object_put", object_put))}
records = [[r["op"], r["args"]] for r in catalog.records()
           if r["op"] not in ("user.create", "audit.append")]
records += [[e.actor, e.event, e.detail]
            for e in catalog.audit_query("admin")]
catalog.close()
report(us, {"records": len(records),
            "digest": hashlib.sha256(json.dumps(
                records, sort_keys=True).encode()).hexdigest()})
"""


def main() -> None:
    ap = arg_parser(__doc__)
    ap.add_argument("--calls", type=int, default=5000)
    args = ap.parse_args()
    srcs = sources(args)
    with tempfile.TemporaryDirectory(prefix="pgzone-commit-") as tmp:
        times, checks = compare(
            srcs, MEASURE, REPEATS, MODES,
            lambda mode, proc: [str(Path(tmp) / proc) if mode == "flushed"
                                else "", str(args.calls)])
    write({
        "what": "microseconds per catalog commit at the reference speed, "
                "median per call in a fresh process, over "
                f"{REPEATS} paired repeats; {args.calls} calls of each "
                "commit: audit_append of a get's pep.allow record, then "
                "put_object of a new 100-byte object; journal off (in "
                "memory) and flushed (a file, one unbuffered write per "
                "record, no fsync)",
        "fsynced": "not measured: the journal has no fsync mode",
        **machine(srcs, args.note),
        "calls": args.calls,
        "records": {mode: c["records"] for mode, c in checks.items()},
        **times,
    }, args.out)


if __name__ == "__main__":
    main()
