"""Time of one stream ingest and one stream read, as the stream grows.

  python3 bench/streams.py --src change=src --src parent=../old/src \
      --segments 100 1000 --out BENCH_streams.json

For each --segments size N and each --src, REPEATS fresh processes
each build a zone with an in-memory journal and the `mem` driver, and
ingest N segments of RECORDS records into one stream collection, as
perfbench's model lays them out: timestamps rise inside a segment and
from one segment to the next. One read then builds the stream index.
The process times --reads reads, each of an interval about three
segments wide at a seeded random start, then N // 10 (at least 20) more
ingests, and reports the median per call of each, scaled to the
reference speed (bench/common.py). Every process of a size must read
the same records. Rows are named read_us.N and ingest_us.N; the result
holds each row's median and runs, and its ratios paired by repeat.
"""

from __future__ import annotations

from common import arg_parser, compare, machine, sources, write

REPEATS = 10
RECORDS = 100

MEASURE = """
import hashlib, random, sys
from pgzone.common import SYSTEM
from pgzone.streams import pack_records
from pgzone.zone import Zone

segments, reads, records = (int(a) for a in sys.argv[1:4])
rng = random.Random(segments)
zone = Zone(None, admin_secret="pw", default_resource="main")
zone.ensure_resource(SYSTEM, "main", "mem", "/blobs/main", "cache")
coll = zone.catalog.make_collection("admin", "/home/s", kind="stream")
clock = 1_000_000

def segment():
    global clock
    t = clock + rng.randint(1, 500)
    out = []
    for _ in range(records):
        t += rng.randint(0, 50)
        out.append((t, rng.randbytes(rng.randint(8, 32))))
    clock = t
    return pack_records(out)

for _ in range(segments):
    zone.streams.ingest("admin", coll, segment())
first, last = 1_000_000, clock
width = (last - first) // segments + 1
zone.streams.read("admin", coll, 0, 1)
got = []
calls = []
for _ in range(reads):
    lo = rng.randint(first, max(first, last - 3 * width))
    calls.append(lambda lo=lo: got.append(
        zone.streams.read("admin", coll, lo, lo + 3 * width)))
us = {"read_us": median_us(calls)}
digest = hashlib.sha256()
for hits in got:
    for t, payload in hits:
        digest.update(b"%d:" % t + payload)
calls = [lambda data=segment(): zone.streams.ingest("admin", coll, data)
         for _ in range(max(20, segments // 10))]
us["ingest_us"] = median_us(calls)
zone.close()
report(us, {"records_per_read": sum(map(len, got)) / len(got),
            "digest": digest.hexdigest()})
"""


def main() -> None:
    ap = arg_parser(__doc__)
    ap.add_argument("--segments", type=int, nargs="+", default=[100, 1000])
    ap.add_argument("--reads", type=int, default=500)
    args = ap.parse_args()
    srcs = sources(args)
    times, checks = compare(
        srcs, MEASURE, REPEATS, [str(n) for n in args.segments],
        lambda n, _: [n, str(args.reads), str(RECORDS)])
    write({
        "what": "microseconds per stream operation at the reference speed, "
                f"median per call in a fresh process, over {REPEATS} "
                f"paired repeats; segments of {RECORDS} records, journal "
                f"in memory, mem driver; {args.reads} reads of an interval "
                "about 3 segments wide at each size, then size // 10 (at "
                "least 20) ingests",
        **machine(srcs, args.note),
        "segments": args.segments,
        "records_per_read": {n: c["records_per_read"]
                             for n, c in checks.items()},
        **times,
    }, args.out)


if __name__ == "__main__":
    main()
