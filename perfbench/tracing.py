"""Benchmark-side tracing: spans and counters from wrappers installed
around public functions of pgzone, from outside the package.

A span records name, start, end, parent span and, where the wrapped call
carries one, a request id. Spans stay in memory until the run ends. A
counter wrapper records no span; it adds to the innermost open span, so
ratios such as "entries examined per child listed" are measured where
the work happens.

`layer_metrics` turns the spans of a round into the per-layer metrics
named in BENCHMARK.json.
"""

from __future__ import annotations

import gc
import statistics
import threading
import time

_ns = time.perf_counter_ns


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._local = threading.local()
        self._next_id = 0
        self._id_lock = threading.Lock()
        self._undo: list[tuple[object, str, object]] = []
        self.gc_ns = 0
        self._gc_start = 0

    # -- wrappers -----------------------------------------------------------

    def _stack(self) -> list[dict]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _patch(self, owner, attr: str, replacement) -> None:
        # Remember whether owner had its own attribute, so uninstall
        # restores inheritance instead of pinning the base-class method.
        own = owner.__dict__.get(attr) if isinstance(owner, type) \
            else vars(owner).get(attr)
        self._undo.append((owner, attr, own))
        setattr(owner, attr, replacement)

    def span(self, owner, attr: str, name: str, request_id=None,
             results=None) -> None:
        """Wrap owner.attr so each call records a span named `name`;
        request_id(args, kwargs) and results(return value) add fields."""
        fn = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            with tracer._id_lock:
                tracer._next_id += 1
                span_id = tracer._next_id
            rec = {"id": span_id, "name": name,
                   "parent": stack[-1]["id"] if stack else None,
                   "child_ns": 0, "counts": {}}
            if request_id is not None:
                rec["rid"] = request_id(args, kwargs)
            stack.append(rec)
            rec["start"] = _ns()
            try:
                result = fn(*args, **kwargs)
                if results is not None:
                    rec["results"] = results(result)
                return result
            finally:
                rec["end"] = _ns()
                stack.pop()
                if stack:
                    stack[-1]["child_ns"] += rec["end"] - rec["start"]
                tracer.spans.append(rec)

        self._patch(owner, attr, wrapper)

    def count(self, owner, attr: str, name: str, amount=None) -> None:
        """Wrap owner.attr so each call adds to a counter of the innermost
        open span: 1 per call, or amount(result)."""
        fn = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            stack = tracer._stack()
            if stack:
                counts = stack[-1]["counts"]
                counts[name] = counts.get(name, 0) + \
                    (1 if amount is None else amount(result))
            return result

        self._patch(owner, attr, wrapper)

    def _on_gc(self, phase: str, _info: dict) -> None:
        if phase == "start":
            self._gc_start = _ns()
        elif self._gc_start:
            self.gc_ns += _ns() - self._gc_start
            self._gc_start = 0

    def install_zone(self) -> None:
        """Wrap the public functions of every in-process layer."""
        import pgzone.catalog as catalog_mod
        import pgzone.engine as engine_mod
        import pgzone.streams as streams_mod
        from pgzone.catalog import AvuPredicate, Catalog
        from pgzone.drivers import LocalFsDriver, MemDriver
        from pgzone.engine import Engine
        from pgzone.journal import Journal
        from pgzone.provenance import Provenance
        from pgzone.streams import Streams

        for cls, attrs, layer in (
                (Engine, ("put", "get", "add_avu", "fire_pep",
                          "read_object"), "engine"),
                (Catalog, ("audit_append", "state_dict"), "catalog"),
                (Journal, ("append", "write_snapshot", "read_records",
                           "latest_snapshot"), "journal"),
                (Streams, ("ingest",), "streams"),
                (Provenance, ("run",), "provenance")):
            for attr in attrs:
                self.span(cls, attr, f"{layer}.{attr}")
        self.span(Catalog, "list_collection", "catalog.list_collection",
                  results=lambda r: len(r[0]) + len(r[1]))
        self.span(Catalog, "query_avu", "catalog.query_avu", results=len)
        self.span(Streams, "read", "streams.read", results=len)
        for cls, driver in ((LocalFsDriver, "localfs"), (MemDriver, "mem")):
            for attr in ("store", "read_all"):
                self.span(cls, attr, f"drivers.{driver}.{attr}")
        # The engine calls these through its own module's names.
        self.span(engine_mod, "eval_expr", "ruledsl.eval_expr")
        self.span(engine_mod, "parse_rules", "ruledsl.parse_rules")
        # Counters of work examined per result.
        self.count(catalog_mod, "parent_path", "examined")
        self.count(AvuPredicate, "matches_triple", "examined")
        self.count(streams_mod, "parse_segment", "segments")
        self.count(streams_mod, "parse_segment", "records", amount=len)

    def install_gc(self) -> None:
        """Time garbage collection in the process that hosts the zone."""
        gc.callbacks.append(self._on_gc)

    def install_gateway_server(self) -> None:
        from pgzone.gateway.server import GatewayServer
        from pgzone.gateway.sessions import SessionStore

        self.span(GatewayServer, "route", "gateway.route",
                  request_id=lambda a, kw: a[5].get("X-Request-Id"))
        self.span(SessionStore, "authenticate", "gateway.authenticate")

    def install_client(self) -> None:
        import requests

        self.span(requests.Session, "request", "client.request",
                  request_id=lambda a, kw: kw["headers"]["X-Request-Id"])

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, own = self._undo.pop()
            if own is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    # -- aggregation -------------------------------------------------------


LAYERS = ("gateway", "engine", "ruledsl", "catalog", "journal", "drivers",
          "streams", "provenance")


def _dur(span: dict) -> int:
    return span["end"] - span["start"]


def _median(values, scale: float) -> float:
    return statistics.median(values) / scale if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[dict], gc_ns: int, ops: int) -> dict[str, float]:
    """Per-layer metrics from the spans of one or more traced rounds."""
    by_name: dict[str, list[dict]] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)

    def durs(name: str) -> list[int]:
        return [_dur(s) for s in by_name.get(name, ())]

    def total(name: str, key: str) -> int:
        return sum(s["counts"].get(key, 0) for s in by_name.get(name, ()))

    def n(name: str) -> int:
        return len(by_name.get(name, ()))

    m: dict[str, float] = {}
    # Gateway: wire time is the client's view of a request minus the time
    # the server spent routing it, matched by X-Request-Id.
    route = {s["rid"]: _dur(s) for s in by_name.get("gateway.route", ())}
    wire = [_dur(s) - route[s["rid"]]
            for s in by_name.get("client.request", ()) if s["rid"] in route]
    m["gateway.wire_ms"] = _median(wire, 1e6)
    m["gateway.route_ms"] = _median(durs("gateway.route"), 1e6)
    m["gateway.authenticate_us"] = _median(durs("gateway.authenticate"), 1e3)

    fire = by_name.get("engine.fire_pep", ())
    ids = {s["id"] for s in fire}
    conditions = sum(1 for s in by_name.get("ruledsl.eval_expr", ())
                     if s["parent"] in ids)
    m["engine.fire_pep_us"] = _median(durs("engine.fire_pep"), 1e3)
    m["engine.firings_per_op"] = _ratio(len(fire), ops)
    m["engine.conditions_per_firing"] = _ratio(conditions, len(fire))
    m["engine.read_object_us"] = _median(durs("engine.read_object"), 1e3)
    m["ruledsl.eval_expr_us"] = _median(durs("ruledsl.eval_expr"), 1e3)
    # A recompile is a firing whose rule cache was stale, so it parsed
    # the stored rule texts again.
    recompile_ns: dict[int, int] = {}
    for s in by_name.get("ruledsl.parse_rules", ()):
        if s["parent"] in ids:
            recompile_ns[s["parent"]] = recompile_ns.get(s["parent"], 0) \
                + _dur(s)
    m["engine.rule_recompiles"] = float(len(recompile_ns))
    m["ruledsl.parse_rules_ms"] = _median(list(recompile_ns.values()), 1e6)

    for op, name in (("ls", "catalog.list_collection"),
                     ("query", "catalog.query_avu")):
        short = name.split(".", 1)[1]
        m[f"catalog.{short}_ms"] = _median(durs(name), 1e6)
        results = sum(s.get("results", 0) for s in by_name.get(name, ()))
        m[f"catalog.scanned_per_result.{op}"] = _ratio(
            total(name, "examined"), results)
    m["catalog.audit_appends_per_op"] = _ratio(n("catalog.audit_append"), ops)
    m["catalog.state_dict_ms"] = _median(durs("catalog.state_dict"), 1e6)

    m["journal.append_us"] = _median(durs("journal.append"), 1e3)
    m["journal.records_per_op"] = _ratio(n("journal.append"), ops)
    snaps = by_name.get("journal.write_snapshot", ())
    m["journal.snapshot_ms"] = _median([_dur(s) - s["child_ns"]
                                        for s in snaps], 1e6)
    m["journal.snapshots"] = float(len(snaps))
    m["journal.read_records_s"] = _median(durs("journal.read_records"), 1e9)
    m["journal.latest_snapshot_s"] = _median(
        durs("journal.latest_snapshot"), 1e9)

    for driver in ("localfs", "mem"):
        for attr in ("store", "read_all"):
            m[f"drivers.{driver}.{attr}_us"] = _median(
                durs(f"drivers.{driver}.{attr}"), 1e3)
    # Driver reads made by the object reads of engine.get calls.
    gets = by_name.get("engine.get", ())
    get_ids = {s["id"] for s in gets}
    read_ids = {s["id"] for s in by_name.get("engine.read_object", ())
                if s["parent"] in get_ids}
    driver_reads = sum(
        1 for d in ("localfs", "mem")
        for s in by_name.get(f"drivers.{d}.read_all", ())
        if s["parent"] in read_ids)
    m["drivers.reads_per_get"] = _ratio(driver_reads, len(gets))

    m["streams.read_ms"] = _median(durs("streams.read"), 1e6)
    m["streams.segments_parsed_per_read"] = _ratio(
        total("streams.read", "segments"), n("streams.read"))
    returned = sum(s.get("results", 0)
                   for s in by_name.get("streams.read", ()))
    m["streams.records_scanned_per_returned"] = _ratio(
        total("streams.read", "records"), returned)
    m["streams.ingest_ms"] = _median(durs("streams.ingest"), 1e6)

    runs = by_name.get("provenance.run", ())
    m["provenance.run_ms"] = _median([_dur(s) for s in runs], 1e6)
    m["provenance.run_self_ms"] = _median(
        [_dur(s) - s["child_ns"] for s in runs], 1e6)
    m["process.gc_ms_per_op"] = _ratio(gc_ns / 1e6, ops)

    self_ns = dict.fromkeys(LAYERS, 0)
    calls = dict.fromkeys(LAYERS, 0)
    for s in spans:
        layer = s["name"].split(".", 1)[0]
        if layer in self_ns:
            self_ns[layer] += _dur(s) - s["child_ns"]
            calls[layer] += 1
    for layer in LAYERS:
        m[f"self_ms_per_op.{layer}"] = _ratio(self_ns[layer] / 1e6, ops)
        m[f"calls_per_op.{layer}"] = _ratio(calls[layer], ops)
    return m
