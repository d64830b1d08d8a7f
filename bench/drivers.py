"""Time of one driver store and one driver read_all, for each built-in
driver and blob size.

  python3 bench/drivers.py --src change=src --src parent=../old/src \
      --sizes 100 4096 --out BENCH_drivers.json

For each --src, REPEATS fresh processes each take the `mem`, `archive`
and `localfs` drivers in turn (`localfs` in a new temporary directory),
and for each --sizes size store --calls blobs of that size at fresh
refs, then read each back with read_all and check its bytes. Each call
is timed on its own; a process reports the median per call of each
(driver, operation, size). The result is the median over processes,
with the sources run in a different order on each repeat.
"""

from __future__ import annotations

import json
import statistics

from common import arg_parser, machine, rotated, run, sources, write

REPEATS = 8
DRIVERS = ("mem", "archive", "localfs")
OPS = ("store", "read_all")

MEASURE = """
import json, sys, tempfile, time
from pgzone.drivers import ArchiveDriver, LocalFsDriver, MemDriver

calls, sizes = int(sys.argv[1]), [int(a) for a in sys.argv[2:]]
clock = time.perf_counter_ns

def median_us(took):
    return sorted(took)[len(took) // 2] / 1000

result = {}
with tempfile.TemporaryDirectory() as tmp:
    for name, driver, root in (("mem", MemDriver(), "/blobs"),
                               ("archive", ArchiveDriver(), "/blobs"),
                               ("localfs", LocalFsDriver(), tmp)):
        for size in sizes:
            data = bytes(range(256)) * (size // 256) + bytes(size % 256)
            refs = [driver.new_ref(root) for _ in range(calls)]
            stores, reads = [], []
            for ref in refs:
                start = clock()
                driver.store(ref, data)
                stores.append(clock() - start)
            for ref in refs:
                start = clock()
                got = driver.read_all(ref)
                reads.append(clock() - start)
                if got != data:
                    sys.exit(f"{name} read back other bytes at {ref}")
            result.setdefault(f"{name}.store", {})[size] = median_us(stores)
            result.setdefault(f"{name}.read_all", {})[size] = \
                median_us(reads)
print(json.dumps(result))
"""


def main() -> None:
    ap = arg_parser(__doc__)
    ap.add_argument("--sizes", type=int, nargs="+", default=[100, 4096])
    ap.add_argument("--calls", type=int, default=2000)
    args = ap.parse_args()
    srcs = sources(args)
    keys = [f"{d}.{op}" for d in DRIVERS for op in OPS]
    runs = {name: {k: {n: [] for n in args.sizes} for k in keys}
            for name in srcs}
    for rep in range(REPEATS):
        for name, src in rotated(list(srcs.items()), rep):
            got = json.loads(run(src, MEASURE, str(args.calls),
                                 *map(str, args.sizes)))
            for k in keys:
                for n in args.sizes:
                    runs[name][k][n].append(got[k][str(n)])
    result = {
        "what": "microseconds per driver call, median per call in a fresh "
                f"process, then the median of {REPEATS} processes; "
                f"{args.calls} stores of one blob size at fresh refs, then "
                "a read_all of each; localfs in a temporary directory",
        **machine(srcs, args.note),
        "sizes": args.sizes,
        "us_median": {
            name: {k: {n: round(statistics.median(s), 2)
                       for n, s in per.items()}
                   for k, per in keys_.items()}
            for name, keys_ in runs.items()},
        "us_runs": {
            name: {k: {n: [round(x, 2) for x in s] for n, s in per.items()}
                   for k, per in keys_.items()}
            for name, keys_ in runs.items()},
    }
    write(result, args.out)


if __name__ == "__main__":
    main()
