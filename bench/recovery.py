"""Reopen time of a journaled zone, with and without its snapshot files.

  python3 bench/recovery.py --src change=src --src parent=../old/src \
      --objects 25000 50000 --out BENCH_recovery.json

For each size, builds a zone of that many 100-byte objects in the `mem`
driver with the first --src, then times the reopen (`Zone(journal_dir)`)
in a fresh process, REPEATS times for each --src and each variant: as
built, and with the snapshot files deleted. The on-disk format must be
the same for every --src. Every reopen must give the same
data_state_digest(). Writes the medians, and each run, as JSON.
"""

from __future__ import annotations

import json
import shutil
import statistics
import tempfile
from pathlib import Path

from common import arg_parser, machine, rotated, run, sources, write

REPEATS = 3

BUILD = """
import sys
from pgzone.common import SYSTEM
from pgzone.zone import Zone
zone = Zone(sys.argv[1], admin_secret="pw", default_resource="main")
zone.ensure_resource(SYSTEM, "main", "mem", "/blobs/main", "cache")
for i in range(int(sys.argv[2])):
    zone.engine.put("admin", f"/home/o{i}", b"x" * 100)
zone.close()
"""

REOPEN = """
import json, sys, time
from pgzone.zone import Zone
start = time.perf_counter()
zone = Zone(sys.argv[1])
elapsed = time.perf_counter() - start
print(json.dumps({"s": elapsed, "digest": zone.catalog.data_state_digest(),
                  "seq": len(zone.catalog.records())}))
zone.close()
"""


def measure(srcs: dict[str, str], n: int, work: Path) -> dict:
    built = work / f"zone-{n}"
    run(next(iter(srcs.values())), BUILD, str(built), str(n))
    bare = work / f"zone-{n}-no-snapshots"
    shutil.copytree(built, bare,
                    ignore=shutil.ignore_patterns("snapshot-*"))
    variants = {"with_snapshots": built, "without_snapshots": bare}
    samples: dict[str, dict[str, list[float]]] = {
        name: {v: [] for v in variants} for name in srcs}
    digests, seqs = set(), set()
    for rep in range(REPEATS):  # interleaved, each source first in turn
        for name, src in rotated(list(srcs.items()), rep):
            for variant, path in variants.items():
                got = json.loads(run(src, REOPEN, str(path)))
                samples[name][variant].append(got["s"])
                digests.add(got["digest"])
                seqs.add(got["seq"])
    if len(digests) != 1 or len(seqs) != 1:
        raise SystemExit(f"reopens of {n} objects disagree: {digests}")
    return {
        "objects": n,
        "records": seqs.pop(),
        "journal_bytes": (built / "journal.log").stat().st_size,
        "snapshots": sorted(p.name for p in built.glob("snapshot-*")),
        "digest": digests.pop(),
        "reopen_s_median": {
            name: {v: round(statistics.median(s), 4)
                   for v, s in per.items()}
            for name, per in samples.items()},
        "reopen_s_runs": {
            name: {v: [round(x, 4) for x in s] for v, s in per.items()}
            for name, per in samples.items()},
    }


def main() -> None:
    ap = arg_parser(__doc__)
    ap.add_argument("--objects", type=int, nargs="+", default=[25000, 50000])
    args = ap.parse_args()
    srcs = sources(args)
    with tempfile.TemporaryDirectory(prefix="pgzone-recovery-") as tmp:
        sizes = [measure(srcs, n, Path(tmp)) for n in args.objects]
    result = {
        "what": "seconds to reopen a journaled zone (Zone(journal_dir)), "
                f"median of {REPEATS} fresh processes; mem driver, "
                "100-byte blobs, one put per object",
        **machine(srcs, args.note),
        "sizes": sizes,
    }
    write(result, args.out)


if __name__ == "__main__":
    main()
