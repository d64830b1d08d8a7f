"""JSON-over-HTTP gateway.

One ThreadingHTTPServer per zone. Request handling is one flat router:
the URL names the thing, the verb names the action, the body carries
either JSON or raw bytes (data objects and stream segments). Every
response carries X-Request-Id (echoed from the request when present)
and JSON errors carry {"error": <exception name>, "detail": <text>}.

Authentication is a Bearer token from POST /login; only /login and
/ping are open. Uploading executable extensions (micro-services and
drivers) additionally requires the allow_dynamic_code switch, because
that code runs inside the server process.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import threading
import uuid
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, unquote, urlsplit

from ..drivers import Driver
from ..errors import BadCredentials, Denied, NoSuchPath, ZoneError
from ..zone import Zone
from .config import GatewayConfig
from .sessions import SessionStore

log = logging.getLogger("pgzone.gateway")

MAX_BODY = 256 * 1024 * 1024

def _as_dict(value):
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return dataclasses.asdict(value)
    if isinstance(value, (list, tuple)):
        return [_as_dict(v) for v in value]
    return value


class _JsonBytes(bytes):
    """Marker so the router can return raw bodies alongside JSON ones."""


class GatewayServer:
    def __init__(self, zone: Zone, config: GatewayConfig | None = None,
                 host: str | None = None, port: int | None = None):
        self.zone = zone
        self.config = config or GatewayConfig()
        self.sessions = SessionStore(zone.catalog)
        host = host if host is not None else self.config.bind_host
        port = port if port is not None else self.config.bind_port
        handler = _make_handler(self)
        self.httpd = ThreadingHTTPServer((host, port), handler)
        self.httpd.daemon_threads = True
        self._thread: threading.Thread | None = None

    @property
    def address(self) -> tuple[str, int]:
        return self.httpd.server_address[:2]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> "GatewayServer":
        self._thread = threading.Thread(target=self.httpd.serve_forever,
                                        name="pgzone-gateway", daemon=True)
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        self.httpd.serve_forever()

    def shutdown(self) -> None:
        self.httpd.shutdown()
        self.httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)

    # ------------------------------------------------------------------
    # Routing; every handler returns (status, payload) where payload is a
    # JSON-able object, or (status, _JsonBytes raw, content_type).
    # ------------------------------------------------------------------

    def route(self, method: str, raw_path: str, query: dict, body: bytes,
              headers) -> tuple:
        path = unquote(raw_path)
        if method == "POST" and path == "/login":
            data = _json_body(body)
            session = self.sessions.login(_need(data, "user"),
                                          _need(data, "secret"))
            return 200, {"token": session.token,
                         "user": session.user,
                         "expires_at": session.expires_at}
        if method == "GET" and path == "/ping":
            from .. import __version__
            return 200, {"zone": self.config.zone_name,
                         "version": __version__}

        user = self._authenticate(headers)
        engine = self.zone.engine
        catalog = self.zone.catalog

        if path.startswith("/data/") or path == "/data":
            logical, verb = _split_verb(path[len("/data"):])
            if method == "PUT" and verb is None:
                view = engine.put(user, logical, body,
                                  _one(query, "resource"))
                return 200, _object_payload(view)
            if method == "GET" and verb is None:
                data = engine.get(user, logical)
                checksum = catalog.get_object(logical).checksum
                return 200, _JsonBytes(data), "application/octet-stream", \
                    {"X-Checksum": f"sha256:{checksum}"}
            if method == "DELETE" and verb is None:
                engine.remove(user, logical)
                return 200, {"removed": logical}
            if method == "POST" and verb == "replicate":
                data = _json_body(body)
                view = engine.replicate(user, logical,
                                        _need(data, "resource"))
                return 200, _object_payload(view)
            if method == "POST" and verb == "stage":
                data = _json_body(body)
                view = engine.stage(user, logical, _need(data, "resource"))
                return 200, _object_payload(view)
            if method == "POST" and verb == "archive":
                data = _json_body(body)
                view = engine.archive(user, logical, _need(data, "resource"))
                return 200, _object_payload(view)
            if method == "POST" and verb == "verify":
                result = engine.verify_object(user, logical)
                return 200, {"replicas": [
                    {"resource": r, "status": s} for r, s in result]}
            if method == "GET" and verb == "stat":
                view = catalog.get_object(logical)
                return 200, _object_payload(view)

        if path == "/collections" and method == "POST":
            data = _json_body(body)
            coll = engine.make_collection(user, _need(data, "path"),
                                          kind=data.get("kind", "plain"))
            return 200, _as_dict(catalog.get_collection(coll))
        if path.startswith("/collections/") and method == "GET":
            logical = path[len("/collections"):]
            subcolls, objects = catalog.list_collection(logical)
            view = catalog.get_collection(logical)
            return 200, {"path": logical, "kind": view.kind,
                         "owner": view.owner,
                         "collections": subcolls, "objects": objects}

        if path == "/meta" and method == "POST":
            data = _json_body(body)
            engine.add_avu(user, _need(data, "path"), _need(data, "name"),
                           _need(data, "value"), data.get("comment", ""))
            return 200, {}
        if path == "/meta" and method == "GET":
            target = _one(query, "path")
            if target is None:
                raise ValueError("missing query parameter: path")
            catalog.require_access(target, user, "read")
            return 200, {"path": target,
                         "triples": _as_dict(catalog.avus(target))}
        if path == "/meta/query" and method == "GET":
            q = _one(query, "q")
            if q is None:
                raise ValueError("missing query parameter: q")
            return 200, {"paths": catalog.query_avu(q)}

        if path == "/rules" and method == "POST":
            data = _json_body(body)
            names = engine.add_rules(user, _need(data, "text"))
            return 200, {"added": names,
                         "rule_version": catalog.rule_version}
        if path == "/rules" and method == "GET":
            return 200, {"rules": _as_dict(engine.list_rules()),
                         "rule_version": catalog.rule_version}
        if path.startswith("/rules/") and method == "DELETE":
            engine.remove_rule(user, path[len("/rules/"):])
            return 200, {"rule_version": catalog.rule_version}

        if path == "/users" and method == "POST":
            data = _json_body(body)
            catalog.create_user(user, _need(data, "name"),
                                _need(data, "role"), _need(data, "secret"))
            return 200, {}
        if path == "/groups" and method == "POST":
            data = _json_body(body)
            catalog.add_user_to_group(user, _need(data, "user"),
                                      _need(data, "group"))
            return 200, {}
        if path == "/acl" and method == "POST":
            data = _json_body(body)
            catalog.set_acl(user, _need(data, "path"),
                            _need(data, "principal"), _need(data, "perm"))
            return 200, {}

        if path == "/resources" and method == "POST":
            data = _json_body(body)
            catalog.register_resource(
                user, _need(data, "name"), _need(data, "driver"),
                _need(data, "root"), _need(data, "kind"))
            return 200, {}
        if path == "/resources" and method == "GET":
            return 200, {"resources": _as_dict(catalog.resources())}

        if path == "/workflows" and method == "POST":
            data = _json_body(body)
            record = self.zone.provenance.attach(
                user, _need(data, "coll"), _need(data, "source"))
            return 200, record
        if path.startswith("/workflows/") and method == "GET":
            return 200, self.zone.provenance.workflow(
                path[len("/workflows/"):])

        if path == "/runs" and method == "POST":
            data = _json_body(body)
            record = self.zone.provenance.run(
                user, _need(data, "workflow_id"),
                data.get("bindings", {}))
            return 200, record
        if path == "/runs/diff" and method == "GET":
            a, b = _one(query, "a"), _one(query, "b")
            if a is None or b is None:
                raise ValueError("missing query parameters: a, b")
            return 200, self.zone.provenance.diff_runs(a, b)
        if path.startswith("/runs/") and method == "POST" \
                and path.endswith(":rerun"):
            run_id = path[len("/runs/"):-len(":rerun")]
            data = _json_body(body) if body else {}
            record = self.zone.provenance.rerun(
                user, run_id, data.get("overrides"))
            return 200, record
        if path.startswith("/runs/") and method == "GET":
            return 200, self.zone.provenance.run_record(path[len("/runs/"):])

        if path.startswith("/streams/"):
            coll, verb = _split_verb(path[len("/streams"):])
            if method == "POST" and verb in (None, "ingest"):
                entry = self.zone.streams.ingest(user, coll, body,
                                                 _one(query, "resource"))
                return 200, _as_dict(entry)
            if method == "GET" and verb is None:
                t_lo = _int_param(query, "from")
                t_hi = _int_param(query, "to")
                data = self.zone.streams.read_framed(user, coll, t_lo, t_hi)
                return 200, _JsonBytes(data), "application/octet-stream", {}
            if method == "GET" and verb == "stat":
                return 200, self.zone.streams.stat(user, coll)

        if path == "/audit" and method == "GET":
            entries = catalog.audit_query(
                user,
                t_lo=_int_param(query, "from", required=False),
                t_hi=_int_param(query, "to", required=False),
                event=_one(query, "event"),
                actor=_one(query, "actor"))
            return 200, {"entries": _as_dict(entries)}

        if path == "/orphans" and method == "GET":
            catalog.require_admin(user)
            return 200, {"orphans": catalog.orphans()}

        if path == "/microservices" and method == "POST":
            return 200, self._register_microservice(user, _json_body(body))
        if path == "/drivers" and method == "POST":
            return 200, self._register_driver(user, _json_body(body))

        raise NoSuchPath(f"no route for {method} {path}")

    # -- dynamic code upload -----------------------------------------------

    def _check_dynamic(self, user: str) -> None:
        self.zone.catalog.require_admin(user)
        if not self.zone.allow_dynamic_code:
            raise Denied("dynamic code upload is disabled on this gateway")

    def _register_microservice(self, user: str, data: dict) -> dict:
        self._check_dynamic(user)
        name = _need(data, "name")
        namespace: dict = {}
        exec(compile(_need(data, "code"), f"<microservice {name}>", "exec"),
             namespace)
        fn = namespace.get("ms")
        if not callable(fn):
            raise ValueError("code must define a function named 'ms'")
        self.zone.engine.register_microservice(
            user, name, fn, int(data.get("min_args", 0)),
            int(data["max_args"]) if "max_args" in data else
            int(data.get("min_args", 0)))
        return {"registered": name}

    def _register_driver(self, user: str, data: dict) -> dict:
        self._check_dynamic(user)
        name = _need(data, "name")
        namespace: dict = {}
        exec(compile(_need(data, "code"), f"<driver {name}>", "exec"),
             namespace)
        factory = namespace.get("make_driver")
        if not callable(factory):
            raise ValueError("code must define a function named "
                             "'make_driver'")
        driver = factory()
        if not isinstance(driver, Driver):
            raise ValueError("make_driver() must return a Driver")
        self.zone.register_driver(user, name, driver)
        return {"registered": name}

    # -- auth ---------------------------------------------------------------

    def _authenticate(self, headers) -> str:
        header = headers.get("Authorization", "")
        if not header.startswith("Bearer "):
            raise BadCredentials("missing bearer token")
        return self.sessions.authenticate(header[len("Bearer "):].strip())


def _split_verb(raw: str) -> tuple[str, str | None]:
    """'/x/y:verify' -> ('/x/y', 'verify') for the known verb suffixes."""
    for verb in ("replicate", "verify", "stat", "stage", "archive"):
        suffix = ":" + verb
        if raw.endswith(suffix):
            return raw[:-len(suffix)], verb
    return raw, None


def _json_body(body: bytes) -> dict:
    if not body:
        return {}
    try:
        data = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise ValueError(f"request body is not valid JSON: {e}") from e
    if not isinstance(data, dict):
        raise ValueError("request body must be a JSON object")
    return data


def _need(data: dict, key: str):
    if key not in data:
        raise ValueError(f"missing field: {key}")
    return data[key]


def _one(query: dict, key: str) -> str | None:
    values = query.get(key)
    return values[0] if values else None


def _int_param(query: dict, key: str, required: bool = True) -> int | None:
    raw = _one(query, key)
    if raw is None:
        if required:
            raise ValueError(f"missing query parameter: {key}")
        return None
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"query parameter {key} must be an integer") \
            from None


def _object_payload(view) -> dict:
    payload = dataclasses.asdict(view)
    payload["checksum"] = view.checksum
    payload["size"] = view.replicas[0].size
    return payload


def _make_handler(gateway: GatewayServer):
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        server_version = "pgzone-gateway"
        # TCP_NODELAY: headers and body go out in separate sends, and on
        # a keep-alive socket Nagle's algorithm would hold the body back
        # until the client's delayed ACK (~40 ms) arrives.
        disable_nagle_algorithm = True

        def log_message(self, fmt, *args):
            log.debug("%s " + fmt, self.address_string(), *args)

        def _read_body(self) -> bytes:
            text = self.headers.get("Content-Length") or "0"
            length = int(text) if text.isascii() and text.isdigit() else -1
            if not 0 <= length <= MAX_BODY:
                # The body stays unread, so the connection cannot carry
                # another request.
                self.close_connection = True
                raise ValueError(
                    f"Content-Length must be 0..{MAX_BODY}, got {text!r}")
            return self.rfile.read(length) if length else b""

        def _respond(self, status: int, data: bytes, content_type: str,
                     extra: dict | None = None) -> None:
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(data)))
            self.send_header("X-Request-Id", self._request_id)
            for key, value in (extra or {}).items():
                self.send_header(key, value)
            self.end_headers()
            self.wfile.write(data)

        def _handle(self, method: str) -> None:
            self._request_id = self.headers.get("X-Request-Id") \
                or uuid.uuid4().hex
            try:
                parts = urlsplit(self.path)
                body = self._read_body()
                result = gateway.route(method, parts.path,
                                       parse_qs(parts.query), body,
                                       self.headers)
                status, payload = result[0], result[1]
                if isinstance(payload, _JsonBytes):
                    content_type = result[2]
                    extra = result[3] if len(result) > 3 else {}
                    self._respond(status, bytes(payload), content_type,
                                  extra)
                else:
                    data = json.dumps(payload).encode("utf-8")
                    self._respond(status, data, "application/json")
            except Exception as e:  # every failure maps to a JSON error
                if isinstance(e, ZoneError):
                    status = e.http_status
                else:
                    status = 400 if isinstance(e, ValueError) else 500
                if status >= 500:
                    log.exception("request failed: %s %s", method, self.path)
                detail = json.dumps({
                    "error": type(e).__name__, "detail": str(e),
                }).encode("utf-8")
                try:
                    self._respond(status, detail, "application/json")
                except (BrokenPipeError, ConnectionResetError):
                    pass

        def do_GET(self):
            self._handle("GET")

        def do_PUT(self):
            self._handle("PUT")

        def do_POST(self):
            self._handle("POST")

        def do_DELETE(self):
            self._handle("DELETE")

    return Handler
