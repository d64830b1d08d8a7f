"""Throughput of one gateway as concurrent clients are added.

  python3 bench/concurrency.py --src parent=../old/src --src change=src \
      --clients 1,2,8,2+fetch,2+nap --seconds 5 --out BENCH_concurrency.json

For each --src, number of clients and repeat, a fresh process starts a
gateway server in a process of its own (an in-memory zone, journal off,
`mem` driver, preloaded with COLLS collections of PER_COLL 4 KiB objects
with one triple each) and that many client processes. Each client logs
in on one keep-alive ZoneClient and runs a closed loop for --seconds
over a read-mostly mix (MIX): a get of a preloaded object, a listing of
a preloaded collection, a metadata query, and a 4 KiB put to a fresh
path. Every answer is checked. A cell N+fetch or N+nap adds one more
client, the waiter, whose route waits WAIT_S: in a closed loop it runs
a workflow that calls http_fetch of a slow HTTP server on a thread of
the measuring process (+fetch; a fresh URL each run, so that no fetch
is cached), or a micro-service that sleeps, as uploaded code may
(+nap). What that costs the N clients is what the cell shows. A
process reports, at the reference speed (bench/common.py):
  op_us             wall microseconds per operation, all clients but
                    the waiter together (1e6 / ops per second);
  server_cpu_us     the server process's CPU time per operation;
  <kind>_p50, _p99, _p999
                    each kind's latency percentiles, all clients (the
                    waiter's kind is "wait"). A client waits on one
                    request at a time, so a stall of the whole server
                    delays few requests, by much: it shows in p99.9 and
                    in ops per second more than in p99.
The result adds, from the medians, ops per second and the server's CPU
time over wall time for each number of clients.
"""

from __future__ import annotations

from common import arg_parser, compare, machine, sources, write

REPEATS = 5
WAIT_S = 0.1

PRELOAD = """
COLLS, PER_COLL, VALUES = 4, 50, 10
BLOB = bytes(range(256)) * 16
"""

SERVER = PRELOAD + """
import sys, time
WAIT_S = float(sys.argv[1])
from pgzone.common import SYSTEM
from pgzone.gateway.server import GatewayServer
from pgzone.zone import Zone

zone = Zone(journal_dir=None, admin_user="admin", admin_secret="pw",
            default_resource="main")
zone.ensure_resource(SYSTEM, "main", "mem", "/blobs/main", "cache")
for c in range(COLLS):
    zone.engine.make_collection("admin", f"/home/c{c}")
    for i in range(PER_COLL):
        zone.engine.put("admin", f"/home/c{c}/o{i}", BLOB)
        zone.engine.add_avu("admin", f"/home/c{c}/o{i}", "tag",
                            f"v{i % VALUES}")
zone.engine.register_microservice("admin", "nap",
                                  lambda ctx: time.sleep(WAIT_S) or "", 0, 0)
server = GatewayServer(zone, host="127.0.0.1", port=0).start()
print("READY", server.url, flush=True)
for line in sys.stdin:  # "cpu" asks for the CPU time so far; else stop
    if line.strip() != "cpu":
        break
    print(time.process_time(), flush=True)
server.shutdown()
zone.close()
"""

CLIENT = PRELOAD + """
import json, random, sys, time
from pgzone.gateway.client import ZoneClient

url, k, seconds = sys.argv[1], int(sys.argv[2]), float(sys.argv[3])
waits = sys.argv[4] if len(sys.argv) > 4 else None  # the waiter's
MIX = ["get"] * 12 + ["ls"] * 3 + ["query"] * 3 + ["put"] * 2
rng = random.Random(k)
client = ZoneClient(url)
client.login("admin", "pw")
client.make_collection(f"/home/w{k}")
puts = 0

def check(ok, what):
    if not ok:
        sys.exit(f"client {k}: {what} read back other data")

def get():
    path = f"/home/c{rng.randrange(COLLS)}/o{rng.randrange(PER_COLL)}"
    check(client.get(path) == BLOB, path)

def ls():
    listing = client.list_collection(f"/home/c{rng.randrange(COLLS)}")
    check(len(listing["objects"]) == PER_COLL, "ls")

def query():
    q = f'name = "tag" and value = "v{rng.randrange(VALUES)}"'
    check(len(client.meta_query(q)) == COLLS * PER_COLL // VALUES, q)

def put():
    global puts
    puts += 1
    check(client.put(f"/home/w{k}/p{puts}", BLOB)["size"] == len(BLOB), "put")

def wait():
    global puts
    puts += 1
    run = client.run(workflow, {"url": f"{waits}?run={puts}"})
    check(run["status"] == "ok", "wait")

calls = {"get": get, "ls": ls, "query": query, "put": put}
if waits:  # the URL of the slow server, or "nap"
    client.make_collection(f"/home/w{k}/wf", kind="workflow")
    workflow = client.attach_workflow(f"/home/w{k}/wf", (
        "procedure pull($url) { nap() }" if waits == "nap" else
        'procedure pull($url) { http_fetch($url, "got") }'))["id"]
    MIX, calls = ["wait"], {"wait": wait}
lat = {kind: [] for kind in calls}
print("ready", flush=True)
sys.stdin.readline()  # go
end = time.perf_counter() + seconds
while (start := time.perf_counter()) < end:
    kind = rng.choice(MIX)
    calls[kind]()
    lat[kind].append(time.perf_counter() - start)
print(json.dumps(lat), flush=True)
"""

MEASURE = f"""
import http.server, os, subprocess, sys, threading
SERVER, CLIENT, WAIT_S = {SERVER!r}, {CLIENT!r}, {WAIT_S!r}
cell, seconds = sys.argv[1], sys.argv[2]
clients, _, waiter = cell.partition("+")
clients = int(clients)

class Slow(http.server.BaseHTTPRequestHandler):
    def do_GET(self):
        time.sleep(WAIT_S)
        self.send_response(200)
        self.send_header("Content-Length", "4")
        self.end_headers()
        self.wfile.write(b"slow")

    def log_message(self, fmt, *args):
        pass

def child(code, *args):
    return subprocess.Popen([sys.executable, "-c", code, *args], text=True,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE)

def ask(proc, line=None):
    if line is not None:
        proc.stdin.write(line + "\\n")
        proc.stdin.flush()
    answer = proc.stdout.readline()
    if not answer:
        sys.exit(f"a child ended early: {{proc.args[3:]}}")
    return answer

server = child(SERVER, str(WAIT_S))
url = ask(server).split()[1]
procs = [child(CLIENT, url, str(k), seconds) for k in range(clients)]
if waiter == "fetch":
    slow = http.server.ThreadingHTTPServer(("127.0.0.1", 0), Slow)
    threading.Thread(target=slow.serve_forever, daemon=True).start()
    waiter = f"http://127.0.0.1:{{slow.server_port}}/f"
if waiter:
    procs.append(child(CLIENT, url, str(clients), seconds, waiter))
for proc in procs:
    ask(proc)  # ready
before = speed_ns()
cpu = float(ask(server, "cpu"))
for proc in procs:
    proc.stdin.write("go\\n")
    proc.stdin.flush()
lat = {{}}
for proc in procs:
    for kind, took in json.loads(ask(proc)).items():
        lat.setdefault(kind, []).extend(took)
cpu = float(ask(server, "cpu")) - cpu
scale = 2 * REFERENCE_NS / (before + speed_ns())
server.stdin.write("stop\\n")
server.stdin.flush()
for proc in [server, *procs]:
    if proc.wait() != 0:
        sys.exit(f"a child failed: {{proc.args[3:]}}")
ops = sum(len(took) for kind, took in lat.items() if kind != "wait")
us = {{"op_us": float(seconds) * 1e6 / ops * scale,
      "server_cpu_us": cpu * 1e6 / ops * scale}}
for kind, took in sorted(lat.items()):
    took.sort()
    us[kind + "_p50"] = took[len(took) // 2] * 1e6 * scale
    us[kind + "_p99"] = took[len(took) * 99 // 100] * 1e6 * scale
    us[kind + "_p999"] = took[len(took) * 999 // 1000] * 1e6 * scale
report(us, check={{"clients": cell, "kinds": sorted(lat)}})
"""


def main() -> None:
    ap = arg_parser(__doc__)
    ap.add_argument("--clients", default="1,2,8,2+fetch,2+nap",
                    help="numbers of client processes, comma-separated; "
                         "N+fetch and N+nap add a client whose route waits")
    ap.add_argument("--seconds", type=float, default=5.0,
                    help="length of each closed loop")
    ap.add_argument("--repeats", type=int, default=REPEATS)
    args = ap.parse_args()
    srcs = sources(args)
    cells = args.clients.split(",")
    times, _ = compare(srcs, MEASURE, args.repeats, cells=cells,
                       argv=lambda cell, _: [cell, str(args.seconds)])
    medians = times["us_median"]
    write({
        "what": "one gateway server process (in-memory zone, mem driver) "
                "and N client processes, each a closed loop on one "
                "keep-alive ZoneClient over gets, listings, metadata "
                "queries and puts of 4 KiB; N+fetch and N+nap add a client "
                "whose workflow runs each wait on an http_fetch or a "
                f"micro-service that sleeps for {WAIT_S} s; microseconds "
                f"at the reference speed, median over {args.repeats} paired "
                f"repeats of {args.seconds} s: op_us.N is wall time per "
                "operation (all clients but that one), server_cpu_us.N the "
                "server's CPU time per operation, <kind>_p50/_p99/_p999.N "
                "latencies",
        **machine(srcs, args.note),
        "seconds": args.seconds,
        "ops_per_s": {name: {n: round(1e6 / us[f"op_us.{n}"])
                             for n in cells}
                      for name, us in medians.items()},
        "server_cpu_over_wall": {
            name: {n: round(us[f"server_cpu_us.{n}"] / us[f"op_us.{n}"], 2)
                   for n in cells}
            for name, us in medians.items()},
        **times,
    }, args.out)


if __name__ == "__main__":
    main()
