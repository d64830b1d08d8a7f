"""Time of one driver store and one driver read_all, for each built-in
driver and blob size.

  python3 bench/drivers.py --src change=src --src parent=../old/src \
      --sizes 100 4096 --out BENCH_drivers.json

For each --sizes size and each --src, REPEATS fresh processes each take
the `mem`, `archive` and `localfs` drivers in turn (`localfs` in a new
temporary directory), store --calls blobs of that size at fresh refs,
then read each back with read_all and check its bytes. Each call is
timed on its own; a process reports the median per call of each driver
and operation, scaled to the reference speed (bench/common.py). Rows
are named DRIVER.OP.SIZE; the sources' processes of a repeat run back
to back, and the result holds each row's median and runs, and its
ratios paired by repeat.
"""

from __future__ import annotations

from common import arg_parser, compare, machine, sources, write

REPEATS = 10

MEASURE = """
import sys, tempfile
from pgzone.drivers import ArchiveDriver, LocalFsDriver, MemDriver

calls, size = int(sys.argv[1]), int(sys.argv[2])
data = bytes(range(256)) * (size // 256) + bytes(size % 256)
us = {}
with tempfile.TemporaryDirectory() as tmp:
    for name, driver, root in (("mem", MemDriver(), "/blobs"),
                               ("archive", ArchiveDriver(), "/blobs"),
                               ("localfs", LocalFsDriver(), tmp)):
        refs = [driver.new_ref(root) for _ in range(calls)]
        us[f"{name}.store"] = median_us(
            [lambda ref=ref: driver.store(ref, data) for ref in refs])
        got = []
        us[f"{name}.read_all"] = median_us(
            [lambda ref=ref: got.append(driver.read_all(ref))
             for ref in refs])
        if got != [data] * calls:
            sys.exit(f"{name} read back other bytes")
report(us)
"""


def main() -> None:
    ap = arg_parser(__doc__)
    ap.add_argument("--sizes", type=int, nargs="+", default=[100, 4096])
    ap.add_argument("--calls", type=int, default=2000)
    args = ap.parse_args()
    srcs = sources(args)
    times, _ = compare(srcs, MEASURE, REPEATS, map(str, args.sizes),
                       lambda size, _: [str(args.calls), size])
    write({
        "what": "microseconds per driver call at the reference speed, "
                "median per call in a fresh process, over "
                f"{REPEATS} paired repeats; {args.calls} stores of one "
                "blob size at fresh refs, then a read_all of each; "
                "localfs in a temporary directory",
        **machine(srcs, args.note),
        "sizes": args.sizes,
        **times,
    }, args.out)


if __name__ == "__main__":
    main()
