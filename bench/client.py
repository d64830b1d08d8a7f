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
per call of each, scaled to the reference speed (bench/common.py). The
sources' processes of a repeat run back to back; the result holds each
row's median and runs, and its ratios paired by repeat.
"""

from __future__ import annotations

from common import arg_parser, compare, machine, sources, write

REPEATS = 10

MEASURE = """
import sys
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
small = bytes(range(256)) * 16
large = bytes(range(256)) * 4096

def get(path, data):
    if client.get(path) != data:
        sys.exit(f"get {path} read back other bytes")

us = {
    "ping": median_us([client.ping] * calls),
    "put_4k": median_us([lambda i=i: client.put(f"/home/p{i}", small)
                         for i in range(calls)]),
    "get_4k": median_us([lambda i=i: get(f"/home/p{i}", small)
                         for i in range(calls)]),
}
client.put("/home/large", large)
us["get_1m"] = median_us([lambda: get("/home/large", large)]
                         * max(5, calls // 10))
server.shutdown()
zone.close()
report(us)
"""


def main() -> None:
    ap = arg_parser(__doc__)
    ap.add_argument("--calls", type=int, default=1000)
    args = ap.parse_args()
    srcs = sources(args)
    times, _ = compare(srcs, MEASURE, REPEATS,
                       argv=lambda *_: [str(args.calls)])
    write({
        "what": "microseconds per ZoneClient call over one keep-alive "
                "connection to a gateway in the same process (in-memory "
                "zone, mem driver), at the reference speed; median per "
                f"call in a fresh process, over {REPEATS} paired repeats; "
                f"{args.calls} pings, puts of 4 KiB and gets of 4 KiB, and "
                f"{max(5, args.calls // 10)} gets of one 1 MiB object",
        **machine(srcs, args.note),
        "calls": args.calls,
        **times,
    }, args.out)


if __name__ == "__main__":
    main()
