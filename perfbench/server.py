"""Gateway server process of the `serve` workload.

Builds the serve zone in-process from the seed (journaled, localfs
blobs, the 3-rule base), starts a GatewayServer on a free loopback port
and prints `READY <url>`. On "stop" (or end of input) on stdin it stops
serving and writes its peak memory, the zone's state digest and, with
--trace, its spans to the --result file.

Run by run.py with the repository's src directory on PYTHONPATH:
  python3 perfbench/server.py --seed 1 --size full --dir DIR --result FILE
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path

from model import BASE_RULES
from tracing import Tracer
from workloads import SERVE_USERS, build_zone, plan


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", default="full")
    ap.add_argument("--dir", type=Path, required=True)
    ap.add_argument("--result", type=Path, required=True)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()

    from pgzone.gateway.server import GatewayServer

    plans = [plan("serve", args.seed, args.size, u, ops=False)
             for u in SERVE_USERS]
    zone, _wf_ids = build_zone(args.dir / "journal", "localfs",
                               str(args.dir / "blobs"), plans, BASE_RULES)
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install_zone()
        tracer.install_gc()
        tracer.install_gateway_server()
    server = GatewayServer(zone, host="127.0.0.1", port=0).start()
    print(f"READY {server.url}", flush=True)
    try:
        for line in sys.stdin:
            if line.strip() == "stop":
                break
    finally:
        server.shutdown()
    if tracer is not None:
        tracer.uninstall()
    result = {
        "rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "digest": zone.catalog.data_state_digest(),
    }
    zone.close()
    if tracer is not None:
        result["trace"] = {"gc_ns": tracer.gc_ns, "spans": tracer.spans}
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
