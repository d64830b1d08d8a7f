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
ingests, and reports the median per call of each. The result is the
median over processes. Every process of a size must read the same
records. Writes the medians, and each run, as JSON.

The speed of a shared machine drifts by up to 1.7x for seconds at a
time (perfbench/WORKLOADS.md, "Noise on a shared machine"), more than
the differences this measures. So each batch of BATCH calls is timed
between two runs of a fixed arithmetic loop, and its times are scaled
by REFERENCE_NS over their mean: microseconds at the reference speed.
"""

from __future__ import annotations

import json
import statistics

from common import arg_parser, machine, rotated, run, sources, write

REPEATS = 8
RECORDS = 100

MEASURE = """
import hashlib, json, random, sys, time
from pgzone.common import SYSTEM
from pgzone.streams import pack_records
from pgzone.zone import Zone

segments, reads, records = (int(a) for a in sys.argv[1:4])
REFERENCE_NS = 700_000  # speed_ns() of an Intel Xeon at its fast level
BATCH = 25
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

def speed_ns():
    best = 1 << 62
    for _ in range(3):
        start = time.perf_counter_ns()
        s = 0
        for i in range(10_000):
            s += i * i % 7
        best = min(best, time.perf_counter_ns() - start)
    return best

def median_us(calls):
    took = []
    for i in range(0, len(calls), BATCH):
        before, batch = speed_ns(), []
        for call in calls[i:i + BATCH]:
            start = time.perf_counter_ns()
            call()
            batch.append(time.perf_counter_ns() - start)
        scale = 2 * REFERENCE_NS / (before + speed_ns())
        took += [ns * scale for ns in batch]
    return sorted(took)[len(took) // 2] / 1000

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
result = {"read_us": median_us(calls)}
digest = hashlib.sha256()
for hits in got:
    for t, payload in hits:
        digest.update(b"%d:" % t + payload)
result["records_per_read"] = sum(map(len, got)) / len(got)
result["digest"] = digest.hexdigest()
calls = [lambda data=segment(): zone.streams.ingest("admin", coll, data)
         for _ in range(max(20, segments // 10))]
result["ingest_us"] = median_us(calls)
zone.close()
print(json.dumps(result))
"""


def main() -> None:
    ap = arg_parser(__doc__)
    ap.add_argument("--segments", type=int, nargs="+", default=[100, 1000])
    ap.add_argument("--reads", type=int, default=500)
    args = ap.parse_args()
    srcs = sources(args)
    kinds = ("ingest_us", "read_us")
    runs = {name: {k: {n: [] for n in args.segments} for k in kinds}
            for name in srcs}
    reads: dict[int, set[tuple[float, str]]] = {
        n: set() for n in args.segments}
    for rep in range(REPEATS):
        # Interleaved, each source and each size first in turn: the
        # machine's drift in speed hits every cell alike.
        for n in rotated(args.segments, rep):
            for name, src in rotated(list(srcs.items()), rep):
                got = json.loads(run(src, MEASURE, str(n), str(args.reads),
                                     str(RECORDS)))
                reads[n].add((got["records_per_read"], got["digest"]))
                for kind in kinds:
                    runs[name][kind][n].append(got[kind])
    if any(len(r) != 1 for r in reads.values()):
        raise SystemExit(f"the sources read different records: {reads}")
    result = {
        "what": "microseconds per stream operation at the reference speed, "
                "median per call in a "
                f"fresh process, then the median of {REPEATS} processes; "
                f"segments of {RECORDS} records, journal in memory, mem "
                f"driver; {args.reads} reads of an interval about 3 "
                "segments wide at each size, then size // 10 (at least "
                "20) ingests",
        **machine(srcs, args.note),
        "segments": args.segments,
        "records_per_read": {n: next(iter(r))[0] for n, r in reads.items()},
        "us_median": {
            name: {k: {n: round(statistics.median(s), 2)
                       for n, s in per.items()}
                   for k, per in kinds_.items()}
            for name, kinds_ in runs.items()},
        "us_runs": {
            name: {k: {n: [round(x, 2) for x in s] for n, s in per.items()}
                   for k, per in kinds_.items()}
            for name, kinds_ in runs.items()},
    }
    write(result, args.out)


if __name__ == "__main__":
    main()
