"""Time of one ZoneClient call against an in-process gateway.

  python3 bench/client.py --src change=src --src parent=../old/src \
      --calls 1000 --out BENCH_client.json

For each --src, REPEATS fresh processes each build an in-memory zone
(journal off, `mem` driver), serve it with a GatewayServer on a loopback
port in the same process, log one ZoneClient in as admin and time, call
by call over its one keep-alive connection:
  ping       GET /ping, --calls times;
  put_4k     a 4 KiB put to a fresh path, --calls times;
  get_4k     a get of each of those objects;
  get_1m     a get of one 1 MiB object, --calls // 10 times (at least 5).
Every get checks the bytes it got back. A process reports the median
per call of each; the result is the median over processes, with the
sources run in a different order on each repeat.
"""

from __future__ import annotations

import json
import statistics

from common import arg_parser, machine, rotated, run, sources, write

REPEATS = 5
CALLS = ("ping", "put_4k", "get_4k", "get_1m")

MEASURE = """
import json, sys, time
from pgzone.common import SYSTEM
from pgzone.gateway.client import ZoneClient
from pgzone.gateway.server import GatewayServer
from pgzone.zone import Zone

calls = int(sys.argv[1])
zone = Zone(journal_dir=None, admin_user="admin", admin_secret="pw",
            default_resource="main")
zone.ensure_resource(SYSTEM, "main", "mem", "/blobs/main", "cache")
server = GatewayServer(zone, host="127.0.0.1", port=0).start()
client = ZoneClient(server.url)
client.login("admin", "pw")
clock = time.perf_counter_ns
small = bytes(range(256)) * 16
large = bytes(range(256)) * 4096

def median_us(call, n):
    took = []
    for i in range(n):
        start = clock()
        call(i)
        took.append(clock() - start)
    return sorted(took)[len(took) // 2] / 1000

def get(path, data):
    if client.get(path) != data:
        sys.exit(f"get {path} read back other bytes")

result = {
    "ping": median_us(lambda i: client.ping(), calls),
    "put_4k": median_us(lambda i: client.put(f"/home/p{i}", small), calls),
    "get_4k": median_us(lambda i: get(f"/home/p{i}", small), calls),
}
client.put("/home/large", large)
result["get_1m"] = median_us(lambda i: get("/home/large", large),
                             max(5, calls // 10))
server.shutdown()
zone.close()
print(json.dumps(result))
"""


def main() -> None:
    ap = arg_parser(__doc__)
    ap.add_argument("--calls", type=int, default=1000)
    args = ap.parse_args()
    srcs = sources(args)
    runs = {name: {c: [] for c in CALLS} for name in srcs}
    for rep in range(REPEATS):
        for name, src in rotated(list(srcs.items()), rep):
            got = json.loads(run(src, MEASURE, str(args.calls)))
            for c in CALLS:
                runs[name][c].append(got[c])
    result = {
        "what": "microseconds per ZoneClient call over one keep-alive "
                "connection to a gateway in the same process (in-memory "
                "zone, mem driver); median per call in a fresh process, "
                f"then the median of {REPEATS} processes; {args.calls} "
                "pings, puts of 4 KiB and gets of 4 KiB, and "
                f"{max(5, args.calls // 10)} gets of one 1 MiB object",
        **machine(srcs, args.note),
        "calls": args.calls,
        "us_median": {name: {c: round(statistics.median(s), 1)
                             for c, s in per.items()}
                      for name, per in runs.items()},
        "us_runs": {name: {c: [round(x, 1) for x in s]
                           for c, s in per.items()}
                    for name, per in runs.items()},
    }
    write(result, args.out)


if __name__ == "__main__":
    main()
