"""Reopen time of a journaled zone: as built, without its snapshot
files, and with the longest tail a reopen replays.

  python3 bench/recovery.py --src change=src --src parent=../old/src \
      --objects 25000 50000 --out BENCH_recovery.json

For each size N, builds with the first --src a zone of N 100-byte
objects in the `mem` driver, and two copies of it: one without its
snapshot files, and one (worst_tail) with single-record commits of new
objects added until its journal holds SNAPSHOT_EVERY - 1 records past
its newest snapshot. Then times the reopen (`Zone(journal_dir)`) in a
fresh process, REPEATS times for each --src and each variant, scaled
to the reference speed by a speed loop before and after it
(bench/common.py). The on-disk format must be the same for every --src.
Every reopen of a variant must give the same data_state_digest() and
record count, and the with_snapshots and without_snapshots reopens the
same as each other. Rows are named reopen.VARIANT.N, in microseconds;
the sources' processes of a repeat run back to back, and the result
holds each row's median and runs, and its ratios paired by repeat.
"""

from __future__ import annotations

import shutil
import tempfile
from pathlib import Path

from common import arg_parser, compare, machine, run, sources, write

REPEATS = 5
VARIANTS = ("with_snapshots", "without_snapshots", "worst_tail")

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

TAIL = """
import hashlib, sys
from pgzone.journal import SNAPSHOT_EVERY
from pgzone.zone import Zone
zone = Zone(sys.argv[1])
checksum = hashlib.sha256(b"x" * 100).hexdigest()
past = len(zone.catalog.records()) % SNAPSHOT_EVERY
for i in range(SNAPSHOT_EVERY - 1 - past):
    zone.catalog.put_object(f"/home/t{i}", "admin", "main",
                            f"/blobs/main/t{i}", checksum, 100)
zone.close()
"""

MEASURE = """
import sys
from pgzone.zone import Zone
zones = []
us = median_us([lambda: zones.append(Zone(sys.argv[1]))])
report({"reopen": us}, {"digest": zones[0].catalog.data_state_digest(),
                        "records": len(zones[0].catalog.records())})
zones[0].close()
"""


def build(src: str, n: int, work: Path) -> dict[str, Path]:
    """The three zones of n objects, by variant."""
    built = work / f"zone-{n}"
    run(src, BUILD, str(built), str(n))
    bare = work / f"zone-{n}-no-snapshots"
    shutil.copytree(built, bare,
                    ignore=shutil.ignore_patterns("snapshot-*"))
    tail = work / f"zone-{n}-worst-tail"
    shutil.copytree(built, tail)
    run(src, TAIL, str(tail))
    return dict(zip(VARIANTS, (built, bare, tail)))


def main() -> None:
    ap = arg_parser(__doc__)
    ap.add_argument("--objects", type=int, nargs="+", default=[25000, 50000])
    args = ap.parse_args()
    srcs = sources(args)
    with tempfile.TemporaryDirectory(prefix="pgzone-recovery-") as tmp:
        zones = {f"{variant}.{n}": path for n in args.objects
                 for variant, path in build(next(iter(srcs.values())), n,
                                            Path(tmp)).items()}
        times, checks = compare(srcs, MEASURE, REPEATS, zones,
                                lambda cell, _: [str(zones[cell])])
        for n in args.objects:
            pair = [checks[f"{v}.{n}"] for v in VARIANTS[:2]]
            if pair[0] != pair[1]:
                raise SystemExit(f"reopens of {n} objects disagree with "
                                 f"and without snapshots: {pair}")
        built = {cell: {**checks[cell],
                        "journal_bytes": (path / "journal.log").stat().st_size,
                        "snapshots": sorted(p.name for p in
                                            path.glob("snapshot-*"))}
                 for cell, path in zones.items()}
    write({
        "what": "microseconds to reopen a journaled zone "
                "(Zone(journal_dir)) at the reference speed, one reopen "
                f"per fresh process, over {REPEATS} paired repeats; mem "
                "driver, 100-byte blobs, one put per object; worst_tail "
                "adds single-record commits up to one record before the "
                "next snapshot",
        **machine(srcs, args.note),
        "objects": args.objects,
        "zones": built,
        **times,
    }, args.out)


if __name__ == "__main__":
    main()
