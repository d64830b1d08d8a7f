"""Puts and gets as a journaled zone grows, and the reopen of a zone
after many gets.

  python3 bench/growth.py --src parent=../old/src --src change=src \
      --objects 5000 25000 50000 --out BENCH_growth.json

Each process below runs in a fresh interpreter, REPEATS times for each
--src and cell, the sources' processes of a repeat back to back
(bench/common.py), and times its calls at the reference speed:

  N          for each --objects size N: build a journaled zone of N
             100-byte objects in the `mem` driver through engine.put,
             then time --puts puts of new objects (row `put`, the mean
             per put) and --gets gets of objects drawn at random (row
             `get`, the mean per get, and `get_p999`, the 99.9th
             percentile of a get), one call per timing
  after_G    with each --src, a zone of --reopen-objects objects is
             built once and copied as it stands (after_0), and then
             gets --reopen-gets gets (after_G); each process times one
             reopen of one of its source's two, Zone(journal_dir) (row
             `reopen`)

A get is two enforcement firings, each with its audit entry, and no
state record. Where audit entries count toward the snapshot trigger,
a whole-zone snapshot follows about every 500 gets; and where they lie
in journal.log, a reopen reads them. Every process of a cell must see
the same object count and the same number of audit entries, and every
get must return its object's bytes. Rows are named ROW.CELL in
microseconds; the result holds each row's median and runs, its ratios
paired by repeat, put/s and get/s (10^6 over the mean), and these
gates, checked on each source's medians:

  - get/s at the largest N is within 15% of get/s at the smallest N;
  - get p99.9 at the largest N is under 2 ms;
  - the reopen after --reopen-gets gets takes at most 1.2x the reopen
    after none.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from common import arg_parser, compare, machine, run, sources, write

REPEATS = 5

# Objects /home/o0 .. /home/o{N-1}, each holding its number in 100 bytes.
ZONE = """
import random, sys
from pgzone.common import SYSTEM
from pgzone.zone import Zone

def blob(i):
    return b"%-100d" % i

def build(journal_dir, n):
    zone = Zone(journal_dir, admin_secret="pw", default_resource="main")
    zone.ensure_resource(SYSTEM, "main", "mem", "/blobs/main", "cache")
    for i in range(n):
        zone.engine.put("admin", f"/home/o{i}", blob(i))
    return zone

def gets(zone, n, count):
    rng = random.Random(n)
    for i in (rng.randrange(n) for _ in range(count)):
        yield lambda i=i: zone.engine.get("admin", f"/home/o{i}") == blob(i)
"""

# The zone as built is copied before the gets: the `mem` driver's bytes
# last only as long as the process.
BUILD = ZONE + """
import shutil
built, read, n, count = sys.argv[1], sys.argv[2], *map(int, sys.argv[3:])
zone = build(read, n)
shutil.copytree(read, built)
bad = sum(not get() for get in gets(zone, n, count))
zone.close()
assert not bad, f"{bad} gets returned other bytes"
"""

MEASURE = ZONE + """
import tempfile

def counts(zone):
    return {"objects": len(zone.catalog.state_dict()["objects"]),
            "audit": len(zone.catalog.audit_query("admin"))}

if sys.argv[1] == "ops":
    n, puts, count = map(int, sys.argv[2:5])
    with tempfile.TemporaryDirectory(prefix="pgzone-growth-") as tmp:
        zone = build(tmp, n)
        put = timed_us(lambda k=k: zone.engine.put(
            "admin", f"/home/n{k}", blob(k)) for k in range(puts))
        ok = []
        get = timed_us(lambda g=g: ok.append(g())
                       for g in gets(zone, n, count))
        got = sorted(get)
        check = {**counts(zone), "bad_gets": ok.count(False)}
        zone.close()
    report({"put": sum(put) / len(put), "get": sum(get) / len(get),
            "get_p999": got[min(len(got) - 1, int(len(got) * 0.999))]},
           check)
else:
    zones = []
    us = median_us([lambda: zones.append(Zone(sys.argv[2]))])
    report({"reopen": us}, counts(zones[0]))
    zones[0].close()
"""


def build_reopen_zones(srcs: dict[str, str], n: int, gets: int,
                       work: Path) -> dict[str, dict[str, Path]]:
    """For each source, its zone of n objects as built (after_0), and the
    same zone after `gets` gets (after_GETS)."""
    zones = {}
    for name, src in srcs.items():
        built = work / f"{name}-after-0"
        read = work / f"{name}-after-{gets}"
        run(src, BUILD, str(built), str(read), str(n), str(gets))
        zones[name] = {"after_0": built, f"after_{gets}": read}
    return zones


def per_second(times: dict, sizes: list[int]) -> dict:
    """put/s and get/s of each source and size, from its mean in us."""
    return {name: {f"{row}_per_s.{n}": round(1e6 / medians[f"{row}.{n}"])
                   for row in ("put", "get") for n in sizes}
            for name, medians in times["us_median"].items()}


def gates(times: dict, rates: dict, sizes: list[int], gets: int) -> dict:
    """The gates of the module docstring, for each source."""
    small, large = min(sizes), max(sizes)
    result: dict[str, dict] = {}
    for name, medians in times["us_median"].items():
        kept = rates[name][f"get_per_s.{large}"] / \
            rates[name][f"get_per_s.{small}"]
        p999_ms = medians[f"get_p999.{large}"] / 1000
        reopen = medians[f"reopen.after_{gets}"] / medians["reopen.after_0"]
        result[name] = {
            "get_per_s.kept": {"value": round(kept, 3), "bound": 0.85,
                               "met": kept >= 0.85},
            "get_p999.ms": {"value": round(p999_ms, 3), "bound": 2.0,
                            "met": p999_ms < 2.0},
            "reopen.growth": {"value": round(reopen, 3), "bound": 1.2,
                              "met": reopen <= 1.2},
        }
    return result


def main() -> None:
    ap = arg_parser(__doc__)
    ap.add_argument("--objects", type=int, nargs="+",
                    default=[5000, 25000, 50000])
    ap.add_argument("--puts", type=int, default=2000)
    ap.add_argument("--gets", type=int, default=5000)
    ap.add_argument("--reopen-objects", type=int, default=10000)
    ap.add_argument("--reopen-gets", type=int, default=100000)
    ap.add_argument("--repeats", type=int, default=REPEATS)
    args = ap.parse_args()
    srcs = sources(args)
    gets = args.reopen_gets
    with tempfile.TemporaryDirectory(prefix="pgzone-growth-") as tmp:
        zones = build_reopen_zones(srcs, args.reopen_objects, gets,
                                   Path(tmp))

        def argv(cell: str, proc: str) -> list[str]:
            if cell.startswith("after_"):
                return ["reopen", str(zones[proc.rsplit("-", 1)[0]][cell])]
            return ["ops", cell, str(args.puts), str(args.gets)]

        cells = [str(n) for n in args.objects] + ["after_0", f"after_{gets}"]
        times, checks = compare(srcs, MEASURE, args.repeats, cells, argv)
    rates = per_second(times, args.objects)
    write({
        "what": "microseconds per put and per get of a journaled zone of "
                "N objects (mem driver, 100-byte blobs), one call per "
                "timing at the reference speed: the mean and, for gets, "
                "the 99.9th percentile; and microseconds to reopen a "
                f"zone of {args.reopen_objects} objects after 0 and after "
                f"{gets} gets; {args.repeats} fresh processes per source "
                "and cell, paired by repeat",
        **machine(srcs, args.note),
        "objects": args.objects,
        "puts": args.puts,
        "gets": args.gets,
        "reopen_objects": args.reopen_objects,
        "reopen_gets": gets,
        "checks": checks,
        "per_second": rates,
        "gates": gates(times, rates, args.objects, gets),
        **times,
    }, args.out)


if __name__ == "__main__":
    main()
