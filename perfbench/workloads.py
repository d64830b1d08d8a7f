"""The workloads: how each builds its starting zone, drives it, and
what one round of it measures.

A round is set-up, a fixed list of operations issued in a closed loop
(each caller waits for its reply before it sends the next), the check of
every output against the model, and a final recovery check. Every round
of a run replays the same seeded operations on a freshly built zone, so
every round does the same work and ends at the same zone size.
"""

from __future__ import annotations

import functools
import gc
import json
import os
import random
import resource
import select
import shutil
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from model import (BASE_RULES, Generator, Layout, Mix, Model, apply_preload,
                   check, stamp_procedure, unpack)
from tracing import Tracer, layer_metrics

ADMIN, ADMIN_SECRET = "admin", "admin-secret"
HERE = Path(__file__).resolve().parent
RECOVERIES = 3      # timed reopens per round
CHURN_EVERY = 500   # a rule add/remove pair every this many ops
# Timings of work done in the benchmark's own thread are scaled to the
# reference speed: multiplied by REFERENCE_NS over calibration_ns() taken
# around the work (see WORKLOADS.md, "Noise on a shared machine").
REFERENCE_NS = 2_000_000   # calibration_ns() on the reference machine
CALIBRATE_EVERY = 500      # ingest operations between calibrations

# Sizes per workload; "tiny" is for the harness self-test only.
SIZES = {
    "full": {
        "ingest": {"ops": 6000, "per_coll": 0, "locked": 20, "segments": 2},
        "serve": {"ops": 170, "per_coll": 200, "locked": 0, "segments": 10},
    },
    "tiny": {
        "ingest": {"ops": 60, "per_coll": 0, "locked": 2, "segments": 2},
        "serve": {"ops": 20, "per_coll": 5, "locked": 0, "segments": 2},
    },
}

MIXES = {
    "ingest": Mix(shares={"put": 55, "meta_add": 25, "stream_ingest": 8,
                          "wf_run": 3, "get": 3, "ls": 2, "query": 2,
                          "stream_read": 2}, denied_share=0.05),
    "serve": Mix(shares={"get": 60, "put": 13, "ls": 8, "query": 8,
                         "stream_read": 5, "meta_add": 2,
                         "stream_ingest": 2, "wf_run": 2},
                 big_share=0.05),
}


def layout_for(workload: str, user: str) -> Layout:
    home = f"/home/{user}"
    return Layout(user, [f"{home}/d{i:02d}" for i in range(5)],
                  [f"{home}/s0"], f"{home}/wf", raw_coll=f"{home}/raw",
                  locked_coll=f"{home}/locked" if workload == "ingest"
                  else None)


@dataclass
class UserPlan:
    """One user's seeded zone contents and operations."""
    layout: Layout
    wf_input: bytes
    preload: list[tuple]
    ops: list[tuple]


def plan(workload: str, seed: int, size: str, user: str,
         ops: bool = True) -> UserPlan:
    """All inputs of one user, from the seed alone."""
    sizes = SIZES[size][workload]
    rng = random.Random(f"pgzone-bench/{workload}/{seed}/{user}")
    layout = layout_for(workload, user)
    gen = Generator(rng, layout, MIXES[workload])
    wf_input = rng.randbytes(256)
    preload = gen.preload(sizes["per_coll"], sizes["locked"],
                          sizes["segments"])
    if workload == "ingest":
        # A fresh zone: one seed object per data collection to read.
        preload = [gen.preload_put(c) for c in layout.data_colls] + preload
    return UserPlan(layout, wf_input, preload,
                    gen.ops(sizes["ops"]) if ops else [])


def locked_rule(layout: Layout) -> str:
    return (f'rule locked on pep.data.get.pre when $obj.path matches '
            f'"{layout.locked_coll}/*" do deny("collection is locked")')


def churner(zone):
    """A rule add/remove pair, so the next firing recompiles the rules."""
    def churn(i: int) -> None:
        name = f"churn_{i:06d}"
        zone.engine.add_rules(ADMIN, f'rule {name} on pep.data.get.pre '
                              f'when $obj.path matches "/churn/*" '
                              f'do deny("churn")')
        zone.engine.remove_rule(ADMIN, name)
    return churn


# ---------------------------------------------------------------------------
# Driving a zone: in-process or through the gateway client
# ---------------------------------------------------------------------------

def _bindings(n: int) -> dict:
    return {"src": "in.dat", "dst": f"out-{n:06d}.txt", "n": n}


class InProcess:
    """Issues operations through the public in-process API."""

    def __init__(self, zone, user: str, wf_id: str | None = None):
        self.zone, self.user, self.wf_id = zone, user, wf_id

    def call(self, op: tuple):
        z, u, kind = self.zone, self.user, op[0]
        if kind == "put":
            return z.engine.put(u, op[1], op[2]).checksum
        if kind == "get":
            return z.engine.get(u, op[1])
        if kind == "meta_add":
            return z.engine.add_avu(u, op[1], op[2], op[3])
        if kind == "ls":
            return z.catalog.list_collection(op[1])
        if kind == "query":
            return z.catalog.query_avu(op[1])
        if kind == "stream_ingest":
            e = z.streams.ingest(u, op[1], op[2])
            return (e.segment_id, e.path, e.t_min, e.t_max, e.count)
        if kind == "stream_read":
            return z.streams.read(u, op[1], op[2], op[3])
        if kind == "wf_run":
            return z.provenance.run(u, self.wf_id, _bindings(op[2]))
        raise ValueError(kind)


class Remote:
    """Issues operations through one keep-alive ZoneClient connection."""

    def __init__(self, client, wf_id: str):
        self.client, self.wf_id = client, wf_id

    def call(self, op: tuple):
        c, kind = self.client, op[0]
        if kind == "put":
            return c.put(op[1], op[2])["checksum"]
        if kind == "get":
            return c.get(op[1])
        if kind == "meta_add":
            return c.meta_add(op[1], op[2], op[3])
        if kind == "ls":
            r = c.list_collection(op[1])
            return (r["collections"], r["objects"])
        if kind == "query":
            return c.meta_query(op[1])
        if kind == "stream_ingest":
            e = c.stream_ingest(op[1], op[2])
            return (e["segment_id"], e["path"], e["t_min"], e["t_max"],
                    e["count"])
        if kind == "stream_read":
            return unpack(c.stream_read(op[1], op[2], op[3]))
        if kind == "wf_run":
            return c.run(self.wf_id, _bindings(op[2]))
        raise ValueError(kind)


def build_zone(journal_dir, driver: str, blob_root: str,
               plans: list[UserPlan], rules: str):
    """A zone holding each user's preload, with the rule base installed
    last. Returns the zone and each user's workflow id."""
    from pgzone.common import SYSTEM
    from pgzone.zone import Zone

    zone = Zone(journal_dir, admin_user=ADMIN, admin_secret=ADMIN_SECRET,
                default_resource="main")
    zone.ensure_resource(SYSTEM, "main", driver, blob_root, "cache")
    wf_ids = []
    for p in plans:
        user = p.layout.user
        zone.catalog.create_user(ADMIN, user, "user", f"{user}-secret")
        zone.catalog.make_collection(ADMIN, f"/home/{user}", owner=user)
        for coll, kind in p.layout.all_colls():
            zone.catalog.make_collection(ADMIN, coll, owner=user, kind=kind)
        zone.engine.put(user, p.layout.wf_input, p.wf_input)
        wf_ids.append(zone.provenance.attach(
            user, p.layout.wf_coll, stamp_procedure(user))["id"])
        target = InProcess(zone, user)
        for op in p.preload:
            if op[0] == "meta_add":
                # Bulk tagging goes straight to the catalog, as an import
                # would; the timed meta_add operations fire the PEPs.
                zone.catalog.add_avu(user, op[1], op[2], op[3])
            else:
                target.call(op)
    zone.engine.add_rules(ADMIN, rules)
    # Finish lazy set-up a long-running zone has already done: compile
    # the rule base and build each stream index.
    for p in plans:
        zone.engine.get(p.layout.user, p.layout.wf_input)
        for coll in p.layout.stream_colls:
            zone.streams.read(p.layout.user, coll, 0, 1)
    return zone, wf_ids


def model_of(p: UserPlan) -> Model:
    model = Model()
    apply_preload(model, p.layout, p.preload, p.wf_input)
    return model


# ---------------------------------------------------------------------------
# One round
# ---------------------------------------------------------------------------

@functools.cache
def _calibration_inputs() -> tuple[dict, list, str]:
    """A path table of 60k entries (about 8 MiB, larger than the
    processor's caches, like a zone), 2k of its paths in seeded random
    order, and the JSON text of 1k entries."""
    table = {f"/home/u/d{i % 5:02d}/o{i:06d}": i for i in range(60_000)}
    paths = random.Random(0).sample(list(table), 2_000)
    text = json.dumps([{"path": k, "size": table[k], "replicas": ["main"]}
                       for k in paths[:1_000]])
    return table, paths, text


def calibration_ns() -> int:
    """The machine's current speed: the fastest of three runs of fixed
    work of the kinds a zone does, an arithmetic loop, lookups scattered
    over a large table and a JSON parse. The collector is held off, so
    that it neither runs here nor is counted as the zone's."""
    table, paths, text = _calibration_inputs()
    best, collecting = 1 << 62, gc.isenabled()
    gc.disable()
    for _ in range(3):
        t0 = time.perf_counter_ns()
        s = 0
        for i in range(10_000):
            s += i * i % 7
        for path in paths:
            s += table[path] + (path.rsplit("/", 1)[0] == "/home/u/d01")
        json.loads(text)
        best = min(best, time.perf_counter_ns() - t0)
    if collecting:
        gc.enable()
    return best


def at_reference(elapsed: float, before: int, after: int) -> float:
    """`elapsed` scaled by the calibrations taken before and after it."""
    return elapsed * 2 * REFERENCE_NS / (before + after)


@dataclass
class Round:
    setup_s: float = 0.0
    ops: int = 0
    # Per caller, (kind, nanoseconds) of each operation in issue order.
    timings: list[list[tuple[str, int]]] = field(
        default_factory=lambda: [[]])
    attempted: int = 0
    failed: int = 0
    recover_s: list[float] = field(default_factory=list)
    disk_ratio: float = 0.0
    journal_ratio: float = 0.0
    rss_mib: float = 0.0
    traced: bool = False
    layers: dict | None = None
    spans: list | None = None

    def busy_s(self) -> float:
        """Time the callers spent inside operations (ingest: at the
        reference speed); they run at once."""
        return max(sum(ns for _, ns in t) for t in self.timings) / 1e9

    def ops_per_s(self) -> float:
        return sum(len(t) * 1e9 / sum(ns for _, ns in t)
                   for t in self.timings)


def _dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def _blob_bytes(zone) -> int:
    return sum(r["size"] for o in zone.catalog.state_dict()["objects"].values()
               for r in o["replicas"])


def _own_objects_frozen(p: UserPlan) -> Model:
    """Build the round's model, then move every object the benchmark
    holds out of the collector's sight, so garbage collection during the
    round costs what it would in a process holding only the zone."""
    gc.collect()
    model = model_of(p)
    gc.freeze()
    return model


def _rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _report(op: tuple, error) -> None:
    print(f"failed: {op[0]} {op[1]!r}: {error!r}", file=sys.stderr)
    if error is not None and not isinstance(error, AssertionError):
        traceback.print_exception(error, file=sys.stderr)


def drive(target, model: Model, layout: Layout, ops: list[tuple],
          rnd: Round, lock: threading.Lock, caller: int = 0,
          on_churn=None, calibrate: bool = False) -> None:
    """Issue ops in a closed loop; check each output outside its timed
    interval. With `calibrate`, scale each CALIBRATE_EVERY operations'
    timings to the reference speed."""
    timings = rnd.timings[caller]
    failed = 0
    block, before = 0, calibration_ns() if calibrate else 0
    for i, op in enumerate(ops):
        if on_churn is not None and i and i % CHURN_EVERY == 0:
            on_churn(i)
        error = result = None
        t0 = time.perf_counter_ns()
        try:
            result = target.call(op)
        except Exception as e:  # counted, reported, and the loop goes on
            error = e
        timings.append((op[0], time.perf_counter_ns() - t0))
        if not check(model, layout, op, result, error):
            failed += 1
            if failed <= 3:
                _report(op, error)
        if calibrate and ((i + 1) % CALIBRATE_EVERY == 0
                          or i + 1 == len(ops)):
            after = calibration_ns()
            timings[block:] = [(kind, at_reference(ns, before, after))
                               for kind, ns in timings[block:]]
            block, before = len(timings), after
    with lock:
        rnd.attempted += len(ops)
        rnd.ops += len(ops)
        rnd.failed += failed


def _recover(journal_dir: Path, digest: str, rnd: Round,
             tracer: Tracer | None) -> None:
    """Time RECOVERIES reopens from the journal; check the first one's
    state digest. A tracer is installed around the reopens only, so the
    benchmark's own digest check is not traced."""
    from pgzone.zone import Zone

    for i in range(RECOVERIES):
        gc.collect()
        if tracer is not None:
            tracer.install_zone()
        before = calibration_ns()
        t0 = time.perf_counter()
        zone = Zone(journal_dir, admin_user=ADMIN, default_resource="main")
        elapsed = time.perf_counter() - t0
        rnd.recover_s.append(at_reference(elapsed, before, calibration_ns()))
        if tracer is not None:
            tracer.uninstall()
        if i == 0:
            rnd.attempted += 1
            if zone.catalog.data_state_digest() != digest:
                rnd.failed += 1
                print("failed: state digest differs after reopen",
                      file=sys.stderr)
        zone.close()


def _finish_layers(tracer: Tracer | None, rnd: Round, spans_extra=(),
                   gc_ns: int | None = None) -> None:
    if tracer is None:
        return
    rnd.traced = True
    rnd.spans = tracer.spans + list(spans_extra)
    rnd.layers = layer_metrics(rnd.spans,
                               tracer.gc_ns if gc_ns is None else gc_ns,
                               rnd.ops)


def ingest_round(p: UserPlan, tmp: Path, tracer: Tracer | None) -> Round:
    """Fresh journaled zone; blobs go to the mem driver (see WORKLOADS.md
    for why not localfs)."""
    rnd = Round()
    jdir = tmp / "journal"
    model = _own_objects_frozen(p)
    before = calibration_ns()
    t0 = time.perf_counter()
    zone, (wf_id,) = build_zone(jdir, "mem", "/blobs/main", [p],
                                BASE_RULES + locked_rule(p.layout))
    rnd.setup_s = at_reference(time.perf_counter() - t0, before,
                               calibration_ns())
    if tracer is not None:
        tracer.install_zone()
        tracer.install_gc()
    drive(InProcess(zone, "alice", wf_id), model, p.layout, p.ops, rnd,
          threading.Lock(), on_churn=churner(zone), calibrate=True)
    if tracer is not None:
        tracer.uninstall()
    # The zone is at its largest now; recovery below opens more zones.
    rnd.rss_mib = _rss_mib()
    digest = zone.catalog.data_state_digest()
    blobs = _blob_bytes(zone)
    zone.close()
    del zone
    rnd.journal_ratio = _dir_bytes(jdir) / model.user_bytes
    rnd.disk_ratio = (_dir_bytes(jdir) + blobs) / model.user_bytes
    _recover(jdir, digest, rnd, tracer)
    _finish_layers(tracer, rnd)
    gc.unfreeze()
    return rnd


SERVE_USERS = ("alice", "bob")


def serve_round(plans: list[UserPlan], seed: int, size: str, tmp: Path,
                tracer: Tracer | None, src: Path) -> Round:
    """A gateway server in its own process, which builds the zone from
    the same seed; two keep-alive connections, one per user, each a
    closed loop on its own thread."""
    from pgzone.gateway.client import ZoneClient

    rnd = Round()
    result_file = tmp / "server-result.json"
    cmd = [sys.executable, str(HERE / "server.py"), "--seed", str(seed),
           "--size", size, "--dir", str(tmp), "--result", str(result_file)]
    if tracer is not None:
        cmd.append("--trace")
    env = dict(os.environ, PYTHONPATH=str(src))
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, env=env)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], 120)
        line = proc.stdout.readline().decode() if ready else ""
        if not line.startswith("READY "):
            raise RuntimeError(f"server did not start: {line!r}")
        url = line.split()[1]
        targets = []
        for p in plans:
            client = ZoneClient(url)
            client.login(p.layout.user, f"{p.layout.user}-secret")
            wf_id = client.attach_workflow(
                p.layout.wf_coll, stamp_procedure(p.layout.user))["id"]
            targets.append(Remote(client, wf_id))
        rnd.setup_s = time.perf_counter() - t0
        if tracer is not None:
            tracer.install_client()
        lock = threading.Lock()
        models = [model_of(p) for p in plans]
        rnd.timings = [[] for _ in plans]

        def caller(i: int) -> None:
            drive(targets[i], models[i], plans[i].layout, plans[i].ops,
                  rnd, lock, caller=i)

        threads = [threading.Thread(target=caller, args=(i,), daemon=True)
                   for i in range(len(plans))]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        if tracer is not None:
            tracer.uninstall()
        proc.stdin.write(b"stop\n")
        proc.stdin.flush()
        proc.wait(timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"server exited with {proc.returncode}")
        server = json.loads(result_file.read_text())
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdin.close()
        proc.stdout.close()
    rnd.rss_mib = server["rss_kib"] / 1024
    user_bytes = sum(m.user_bytes for m in models)
    jdir, blobs = tmp / "journal", tmp / "blobs"
    rnd.journal_ratio = _dir_bytes(jdir) / user_bytes
    rnd.disk_ratio = (_dir_bytes(jdir) + _dir_bytes(blobs)) / user_bytes
    _recover(jdir, server["digest"], rnd, tracer)
    if tracer is not None:
        # Server span ids restart at 1; move them out of the way.
        offset = 1 << 40
        spans = server["trace"]["spans"]
        for s in spans:
            s["id"] += offset
            if s["parent"] is not None:
                s["parent"] += offset
        _finish_layers(tracer, rnd, spans, gc_ns=server["trace"]["gc_ns"])
    shutil.rmtree(tmp)
    return rnd
