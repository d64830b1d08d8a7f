"""Time of a metadata query and of a collection listing, as the zone
grows.

  python3 bench/query.py --src parent=../old/src --src change=src \
      --objects 1000 10000 50000 --out BENCH_query.json

For each --objects size N and each --src, REPEATS fresh processes each
build an in-memory catalog with N objects in one collection /d, each
with two triples: `site` (one of 50 values) and `id` (one value per
object, "v0" up to "vN-1"). Each process then times CALLS calls of each
row and reports its median, scaled to the reference speed
(bench/common.py):

  site_eq     name = "site" and value = "s7"
  id_like     name = "id" and value like "v12*"
  id_one      name = "id" and value like "v0*"   (one path at every N)
  value_like  value like "v12*"
  name_like   name like "si*" and value like "s7*"   (the names are
              scanned; only the values under them have a range)
  lead_star   value like "*12"   (no prefix: a scan of every pair)
  ls          list_collection("/d")
  ls_page     the first 100 children of /d; a source whose
              list_collection takes no limit lists them all and cuts
              the first 100 from the merged listing
  put         put_object of a new object /d/oK, K from N up, which
              files it among the N children of /d; run last, after
              which /d holds N + CALLS objects

Every process of a size must return the same results. Rows are named
ROW.N in microseconds; the result holds each row's median and runs, its
ratios paired by repeat, each row's result count, and the gates below,
checked on each source's medians:

  - at the largest N, each `like "v12*"` row costs at most 2x the
    smallest N's row per returned path;
  - at the largest N, id_one costs at most 2x the smallest N's id_one:
    its result stays one path as the zone grows, so this gate, unlike
    the one above, fails on a scan of every value under the name;
  - the first page of 100 costs under 1 ms at the largest N;
  - with two or more sources, the unpaged listing at the largest N is at
    least 10x faster than the first source's, in the median of the
    paired ratios.
"""

from __future__ import annotations

from common import arg_parser, compare, machine, sources, write

REPEATS = 5
CALLS = 15
PAGE = 100

QUERIES = {
    "site_eq": 'name = "site" and value = "s7"',
    "id_like": 'name = "id" and value like "v12*"',
    "id_one": 'name = "id" and value like "v0*"',
    "value_like": 'value like "v12*"',
    "name_like": 'name like "si*" and value like "s7*"',
    "lead_star": 'value like "*12"',
}

MEASURE = f"PAGE = {PAGE}\nCALLS = {CALLS}\n" + """
import inspect, sys
from pgzone.catalog import Catalog
from pgzone.common import SYSTEM, sha256_hex

n = int(sys.argv[1])
queries = dict(arg.split("=", 1) for arg in sys.argv[2:])
checksum = sha256_hex(b"x")
c = Catalog()
c.create_user(SYSTEM, "admin", "admin", "pw")
c.make_collection(SYSTEM, "/", owner="admin")
c.make_collection("admin", "/d")
for i in range(n):
    path = f"/d/o{i}"
    c.put_object(path, "admin", "main", f"ref{i}", checksum, 1)
    c.add_avu("admin", path, "site", f"s{i % 50}")
    c.add_avu("admin", path, "id", f"v{i}")

if "limit" in inspect.signature(c.list_collection).parameters:
    def page():
        return c.list_collection("/d", limit=PAGE)
else:
    def page():
        subcolls, objects = c.list_collection("/d")
        first = set(sorted(subcolls + objects)[:PAGE])
        return ([p for p in subcolls if p in first],
                [p for p in objects if p in first])

us, counts = {}, {}
for row, text in queries.items():
    got = c.query_avu(text)
    counts[row] = len(got)
    us[row] = median_us([lambda: c.query_avu(text)] * CALLS)
calls = {"ls": lambda: c.list_collection("/d"), "ls_page": page}
for row, call in calls.items():
    got = call()
    counts[row] = len(got[0]) + len(got[1])
    us[row] = median_us([call] * CALLS)
us["put"] = median_us(
    lambda k=k: c.put_object(f"/d/o{k}", "admin", "main", f"ref{k}",
                             checksum, 1)
    for k in range(n, n + CALLS))
counts["put"] = len(c.list_collection("/d")[1])
report(us, counts)
"""


def gates(times: dict, counts: dict, sizes: list[int]) -> dict:
    """The gates of the module docstring, for each source."""
    small, large = min(sizes), max(sizes)
    result: dict[str, dict] = {}
    for name, medians in times["us_median"].items():
        mine = {}
        for row in ("id_like", "value_like"):
            per_path = [medians[f"{row}.{n}"] / max(counts[str(n)][row], 1)
                        for n in (small, large)]
            growth = per_path[1] / per_path[0]
            mine[f"{row}.per_path_growth"] = {
                "value": round(growth, 3), "bound": 2.0,
                "met": growth <= 2.0}
        growth = medians[f"id_one.{large}"] / medians[f"id_one.{small}"]
        mine["id_one.growth"] = {"value": round(growth, 3), "bound": 2.0,
                                 "met": growth <= 2.0}
        page_ms = medians[f"ls_page.{large}"] / 1000
        mine["ls_page.ms"] = {"value": round(page_ms, 4), "bound": 1.0,
                              "met": page_ms < 1.0}
        paired = times.get("ratio_to_first", {}).get(name)
        if paired:
            ratio = paired[f"ls.{large}"]["median"]
            mine["ls.ratio_to_first"] = {"value": ratio, "bound": 0.1,
                                         "met": ratio <= 0.1}
        result[name] = mine
    return result


def main() -> None:
    ap = arg_parser(__doc__)
    ap.add_argument("--objects", type=int, nargs="+",
                    default=[1000, 10000, 50000])
    ap.add_argument("--repeats", type=int, default=REPEATS)
    args = ap.parse_args()
    srcs = sources(args)
    cells = [str(n) for n in args.objects]
    argv = [f"{row}={text}" for row, text in QUERIES.items()]
    times, counts = compare(srcs, MEASURE, args.repeats, cells,
                            lambda cell, _: [cell, *argv])
    write({
        "what": "microseconds per metadata query and per listing of an "
                "in-memory catalog at the reference speed, the median of "
                f"{CALLS} calls in each of {args.repeats} fresh processes "
                "per source and size, paired by repeat; N objects in one "
                "collection, each with a `site` triple of 50 values and "
                "an `id` triple of its own; `put` files one more object "
                "among them",
        **machine(srcs, args.note),
        "objects": args.objects,
        "queries": QUERIES,
        "results": counts,
        "gates": gates(times, counts, args.objects),
        **times,
    }, args.out)


if __name__ == "__main__":
    main()
