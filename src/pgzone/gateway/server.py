"""JSON-over-HTTP gateway.

One ThreadingHTTPServer per zone. Every request is one lookup in the
route table ROUTES, keyed by (method, path pattern, verb): the URL names
the thing, a ':verb' suffix of the raw path names the action (a ':' in
a logical name is sent as '%3A'), and the body carries either JSON or
raw bytes (data objects and stream segments). Every response carries
X-Request-Id (echoed from the request when present) and JSON errors
carry {"error": <exception name>, "detail": <text>}.

A connection has a thread of its own, up to MAX_CONNECTIONS (one more is
answered 503 and closed), and is closed once it waits IDLE_TIMEOUT for a
request's next bytes. Its headers are read by wire.read_head, which
refuses the framings pgzone does not speak, and each answer goes out in
one write of status line, headers and body.

Authentication is a Bearer token from POST /login; only /login and
/ping are open. Uploading executable extensions (micro-services and
drivers) additionally requires the allow_dynamic_code switch, because
that code runs inside the server process.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import logging
import socket
import threading
import time
import uuid
from email.utils import formatdate
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, unquote, urlsplit

from ..drivers import Driver
from ..errors import BadCredentials, Denied, NoSuchPath, ZoneError
from ..zone import Zone
from .config import GatewayConfig
from .sessions import SessionStore
from .wire import FramingError, Headers, read_head

log = logging.getLogger("pgzone.gateway")

MAX_BODY = 256 * 1024 * 1024
# Connections served at once, one thread each; the next is answered 503
# and closed.
MAX_CONNECTIONS = 256
# Seconds a connection may wait, between requests or inside a request's
# head, for its next bytes before it is closed and frees its slot.
IDLE_TIMEOUT = 60.0

def _as_dict(value):
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return dataclasses.asdict(value)
    if isinstance(value, (list, tuple)):
        return [_as_dict(v) for v in value]
    return value


# The route table: (method, path pattern, verb, handler). A pattern
# ending in "/*" matches every path below it, and the handler gets the
# rest of the path from its "/" on; an exact pattern wins over "/*". The
# verb follows the raw path's first ':'. docs/api.md lists these routes.
ROUTES = (
    ("POST", "/login", None, "_login"),
    ("GET", "/ping", None, "_ping"),
    ("PUT", "/data/*", None, "_put"),
    ("GET", "/data/*", None, "_get"),
    ("DELETE", "/data/*", None, "_remove"),
    ("POST", "/data/*", "replicate", "_replicate"),
    ("POST", "/data/*", "stage", "_stage"),
    ("POST", "/data/*", "archive", "_archive"),
    ("POST", "/data/*", "verify", "_verify"),
    ("GET", "/data/*", "stat", "_stat"),
    ("POST", "/collections", None, "_make_collection"),
    ("GET", "/collections/*", None, "_list_collection"),
    ("POST", "/meta", None, "_add_avu"),
    ("GET", "/meta", None, "_avus"),
    ("GET", "/meta/query", None, "_query_avu"),
    ("POST", "/rules", None, "_add_rules"),
    ("GET", "/rules", None, "_list_rules"),
    ("DELETE", "/rules/*", None, "_remove_rule"),
    ("POST", "/users", None, "_create_user"),
    ("POST", "/groups", None, "_add_to_group"),
    ("POST", "/acl", None, "_set_acl"),
    ("POST", "/resources", None, "_register_resource"),
    ("GET", "/resources", None, "_resources"),
    ("POST", "/workflows", None, "_attach_workflow"),
    ("GET", "/workflows/*", None, "_workflow"),
    ("POST", "/runs", None, "_run"),
    ("GET", "/runs/diff", None, "_diff_runs"),
    ("POST", "/runs/*", "rerun", "_rerun"),
    ("GET", "/runs/*", None, "_run_record"),
    ("POST", "/streams/*", None, "_stream_ingest"),
    ("GET", "/streams/*", None, "_stream_read"),
    ("GET", "/streams/*", "stat", "_stream_stat"),
    ("GET", "/audit", None, "_audit"),
    ("GET", "/orphans", None, "_orphans"),
    ("POST", "/microservices", None, "_register_microservice"),
    ("POST", "/drivers", None, "_register_driver"),
)

# The only routes answered without a bearer token.
OPEN_ROUTES = {("POST", "/login"), ("GET", "/ping")}


class GatewayServer:
    def __init__(self, zone: Zone, config: GatewayConfig | None = None,
                 host: str | None = None, port: int | None = None):
        self.zone = zone
        self.config = config or GatewayConfig()
        self.sessions = SessionStore(zone.catalog)
        self.engine = zone.engine
        self.catalog = zone.catalog
        self._routes = {(method, pattern, verb): getattr(self, name)
                        for method, pattern, verb, name in ROUTES}
        host = host if host is not None else self.config.bind_host
        port = port if port is not None else self.config.bind_port
        handler = type("Handler", (Handler,), {"gateway": self})
        self.httpd = ThreadingHTTPServer((host, port), handler)
        self.httpd.daemon_threads = True
        self._thread: threading.Thread | None = None
        # Each open connection and the thread that serves it; once
        # _closing is set, a handler takes no further request.
        self._handlers: dict[socket.socket, threading.Thread] = {}
        self._handlers_guard = threading.Lock()
        self._closing = False

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
        """Stop accepting, then end every open connection: a request in
        flight still gets its answer, and an idle one reads end of input
        at once. Waits up to 5 s for their handlers, so that no request
        reaches the zone after this returns."""
        self.httpd.shutdown()
        self.httpd.server_close()
        with self._handlers_guard:
            self._closing = True
            handlers = dict(self._handlers)
        for conn in handlers:
            try:
                conn.shutdown(socket.SHUT_RD)
            except OSError:  # the peer has already gone
                pass
        deadline = time.monotonic() + 5
        for thread in handlers.values():
            thread.join(max(0.0, deadline - time.monotonic()))
        if self._thread is not None:
            self._thread.join(timeout=5)

    # -- routing: one lookup in ROUTES -------------------------------------

    def route(self, method: str, raw_path: str, query: dict, body: bytes,
              headers):
        """Answer one request with its 200 payload: a JSON-able value, or
        (bytes, extra headers) for a raw body. Failures are exceptions.
        Each handler takes (user, tail, query, body)."""
        head, colon, verb = raw_path.partition(":")
        path, verb = unquote(head), (verb if colon else None)
        user = None if (method, path) in OPEN_ROUTES \
            else self._authenticate(headers)
        first, slash, rest = path[1:].partition("/")
        pattern = f"/{first}/*" if slash else path
        handler = self._routes.get((method, path, verb)) or \
            self._routes.get((method, pattern, verb))
        if handler is None:
            raise NoSuchPath(f"no route for {method} {raw_path}")
        return handler(user, slash + rest, query, body)

    def _login(self, user, tail, query, body):
        session = self.sessions.login(*_fields(body, "user", "secret"))
        return {"token": session.token, "user": session.user,
                "expires_at": session.expires_at}

    def _ping(self, user, tail, query, body):
        from .. import __version__
        return {"zone": self.config.zone_name, "version": __version__}

    def _put(self, user, tail, query, body):
        return _object_payload(self.engine.put(user, tail, body,
                                               _one(query, "resource")))

    def _get(self, user, tail, query, body):
        # The path lock is re-entrant: holding it across the get and the
        # checksum lookup keeps a put from landing between the two.
        with self.engine._path_lock(tail):
            data = self.engine.get(user, tail)
            checksum = self.catalog.get_object(tail).checksum
        return data, {"X-Checksum": f"sha256:{checksum}"}

    def _remove(self, user, tail, query, body):
        self.engine.remove(user, tail)
        return {"removed": tail}

    def _replicate(self, user, tail, query, body):
        return _object_payload(self.engine.replicate(
            user, tail, *_fields(body, "resource")))

    def _stage(self, user, tail, query, body):
        return _object_payload(self.engine.stage(
            user, tail, *_fields(body, "resource")))

    def _archive(self, user, tail, query, body):
        return _object_payload(self.engine.archive(
            user, tail, *_fields(body, "resource")))

    def _verify(self, user, tail, query, body):
        return {"replicas": [{"resource": r, "status": s} for r, s in
                             self.engine.verify_object(user, tail)]}

    def _stat(self, user, tail, query, body):
        return _object_payload(self.catalog.get_object(tail))

    def _make_collection(self, user, tail, query, body):
        path, kind = _fields(body, "path", kind="plain")
        coll = self.engine.make_collection(user, path, kind=kind)
        return _as_dict(self.catalog.get_collection(coll))

    def _list_collection(self, user, tail, query, body):
        subcolls, objects = self.catalog.list_collection(tail)
        view = self.catalog.get_collection(tail)
        return {"path": tail, "kind": view.kind, "owner": view.owner,
                "collections": subcolls, "objects": objects}

    def _add_avu(self, user, tail, query, body):
        self.engine.add_avu(user, *_fields(body, "path", "name", "value",
                                           comment=""))
        return {}

    def _avus(self, user, tail, query, body):
        target = _one(query, "path", required=True)
        self.catalog.require_access(target, user, "read")
        return {"path": target,
                "triples": _as_dict(self.catalog.avus(target))}

    def _query_avu(self, user, tail, query, body):
        q = _one(query, "q", required=True)
        return {"paths": self.catalog.query_avu(q)}

    def _add_rules(self, user, tail, query, body):
        names = self.engine.add_rules(user, *_fields(body, "text"))
        return {"added": names, "rule_version": self.catalog.rule_version}

    def _list_rules(self, user, tail, query, body):
        return {"rules": _as_dict(self.engine.list_rules()),
                "rule_version": self.catalog.rule_version}

    def _remove_rule(self, user, tail, query, body):
        self.engine.remove_rule(user, tail[1:])
        return {"rule_version": self.catalog.rule_version}

    def _create_user(self, user, tail, query, body):
        self.catalog.create_user(
            user, *_fields(body, "name", "role", "secret"))
        return {}

    def _add_to_group(self, user, tail, query, body):
        self.catalog.add_user_to_group(user, *_fields(body, "user", "group"))
        return {}

    def _set_acl(self, user, tail, query, body):
        self.catalog.set_acl(
            user, *_fields(body, "path", "principal", "perm"))
        return {}

    def _register_resource(self, user, tail, query, body):
        self.catalog.register_resource(
            user, *_fields(body, "name", "driver", "root", "kind"))
        return {}

    def _resources(self, user, tail, query, body):
        return {"resources": _as_dict(self.catalog.resources())}

    def _attach_workflow(self, user, tail, query, body):
        return self.zone.provenance.attach(
            user, *_fields(body, "coll", "source"))

    def _workflow(self, user, tail, query, body):
        return self.zone.provenance.workflow(tail[1:])

    def _run(self, user, tail, query, body):
        data = _json_body(body)
        return self.zone.provenance.run(user, _string(data, "workflow_id"),
                                        data.get("bindings", {}))

    def _diff_runs(self, user, tail, query, body):
        return self.zone.provenance.diff_runs(
            _one(query, "a", required=True), _one(query, "b", required=True))

    def _rerun(self, user, tail, query, body):
        overrides = _json_body(body).get("overrides", {})
        if not isinstance(overrides, dict):
            raise ValueError("field overrides must be an object")
        return self.zone.provenance.rerun(user, tail[1:], overrides)

    def _run_record(self, user, tail, query, body):
        return self.zone.provenance.run_record(tail[1:])

    def _stream_ingest(self, user, tail, query, body):
        return _as_dict(self.zone.streams.ingest(user, tail, body,
                                                 _one(query, "resource")))

    def _stream_read(self, user, tail, query, body):
        data = self.zone.streams.read_framed(
            user, tail, _int_param(query, "from"), _int_param(query, "to"))
        return data, {}

    def _stream_stat(self, user, tail, query, body):
        return self.zone.streams.stat(user, tail)

    def _audit(self, user, tail, query, body):
        return {"entries": _as_dict(self.catalog.audit_query(
            user,
            t_lo=_int_param(query, "from", required=False),
            t_hi=_int_param(query, "to", required=False),
            event=_one(query, "event"), actor=_one(query, "actor")))}

    def _orphans(self, user, tail, query, body):
        self.catalog.require_admin(user)
        return {"orphans": self.catalog.orphans()}

    # -- dynamic code upload -----------------------------------------------

    def _load_upload(self, user: str, body: bytes, kind: str, entry: str):
        """Run uploaded code, admin only and only if the zone allows it;
        returns (JSON body, name, the function the code names `entry`)."""
        self.catalog.require_admin(user)
        if not self.zone.allow_dynamic_code:
            raise Denied("dynamic code upload is disabled on this gateway")
        data = _json_body(body)
        name = _string(data, "name")
        namespace: dict = {}
        exec(compile(_string(data, "code"), f"<{kind} {name}>", "exec"),
             namespace)
        fn = namespace.get(entry)
        if not callable(fn):
            raise ValueError(f"code must define a function named {entry!r}")
        return data, name, fn

    def _register_microservice(self, user, tail, query, body):
        data, name, fn = self._load_upload(user, body, "microservice", "ms")
        min_args = _count(data, "min_args", 0)
        max_args = _count(data, "max_args", min_args)
        if max_args < min_args:
            raise ValueError("field max_args must not be below min_args")
        self.engine.register_microservice(user, name, fn, min_args, max_args)
        return {"registered": name}

    def _register_driver(self, user, tail, query, body):
        _, name, factory = self._load_upload(user, body, "driver",
                                             "make_driver")
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


def _string(data: dict, key: str, default: str | None = None) -> str:
    """Field `key` of a JSON object, which must be a string. A missing
    field is `default`, or a 400 when there is none."""
    if key not in data:
        if default is None:
            raise ValueError(f"missing field: {key}")
        return default
    value = data[key]
    if not isinstance(value, str):
        raise ValueError(f"field {key} must be a string, "
                         f"not {type(value).__name__}")
    return value


def _count(data: dict, key: str, default: int) -> int:
    """Field `key` of a JSON object, which must be an integer of 0 or
    more and not a boolean. A missing field is `default`."""
    value = data.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise ValueError(f"field {key} must be an integer of 0 or more, "
                         f"not {json.dumps(value)}")
    return value


def _fields(body: bytes, *keys: str, **optional: str) -> list:
    """The named string fields of a JSON object body, then the optional
    ones, each `optional[key]` when missing. A missing required field,
    or any field that is not a string, is a 400."""
    data = _json_body(body)
    return [_string(data, key) for key in keys] + \
        [_string(data, key, default) for key, default in optional.items()]


def _one(query: dict, key: str, required: bool = False) -> str | None:
    values = query.get(key)
    if not values and required:
        raise ValueError(f"missing query parameter: {key}")
    return values[0] if values else None


def _int_param(query: dict, key: str, required: bool = True) -> int | None:
    raw = _one(query, key, required)
    if raw is None:
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


@functools.lru_cache(maxsize=1)
def _http_date(second: int) -> str:
    return formatdate(second, usegmt=True)


class Handler(BaseHTTPRequestHandler):
    """Serves one connection for `gateway`, set on a subclass per server:
    reads each request (parse_request, _read_body), hands it to
    gateway.route (_handle) and writes the answer (_respond)."""

    gateway: GatewayServer
    protocol_version = "HTTP/1.1"
    server_version = "pgzone-gateway"
    # TCP_NODELAY: a large answer leaves in many segments, and on a
    # keep-alive socket Nagle's algorithm could hold its short last one
    # back until the client's delayed ACK (~40 ms) arrives.
    disable_nagle_algorithm = True

    def log_message(self, fmt, *args):
        log.debug("%s " + fmt, self.address_string(), *args)

    def setup(self):
        super().setup()
        with self.gateway._handlers_guard:
            handlers = self.gateway._handlers
            self._refused = len(handlers) >= MAX_CONNECTIONS
            if not self._refused:
                handlers[self.connection] = threading.current_thread()

    def finish(self):
        with self.gateway._handlers_guard:
            self.gateway._handlers.pop(self.connection, None)
        super().finish()

    def handle(self):
        self.headers = Headers()  # until a request's own are read
        if self._refused:
            self.requestline, self.close_connection = "", True
            self._error(503, "TooManyConnections", "the gateway serves at "
                        f"most {MAX_CONNECTIONS} connections at once")
            self._linger()
            return
        # BaseHTTPRequestHandler.handle, which stops at shutdown too. Its
        # TimeoutError ends the connection; parse_request lifts the
        # timeout once a request's head is read.
        self.close_connection = False
        while not (self.close_connection or self.gateway._closing):
            self.connection.settimeout(IDLE_TIMEOUT)
            self.handle_one_request()
            self.headers = Headers()

    def _linger(self) -> None:
        """Read what the client sends until it closes, for about a second:
        a socket closed with a request unread is reset, and the reset can
        drop the answer before the client reads it."""
        deadline = time.monotonic() + 1
        try:
            self.connection.shutdown(socket.SHUT_WR)
            self.connection.settimeout(1)
            while self.connection.recv(65536) and \
                    time.monotonic() < deadline:
                pass
        except OSError:  # reset or timed out: nothing more to wait for
            pass

    def parse_request(self) -> bool:
        """Parse the request line handle_one_request read, then read the
        headers; False once a refusal has been sent."""
        self.command, self.close_connection = None, True
        self.requestline = str(self.raw_requestline, "latin-1").rstrip("\r\n")
        words = self.requestline.split()
        if len(words) != 3 or words[2] not in ("HTTP/1.0", "HTTP/1.1"):
            self.send_error(400, f"bad request line {self.requestline!r}")
            return False
        self.command, self.path, self.request_version = words
        try:
            self.headers, self._length = read_head(self.rfile)
        except FramingError as e:
            self.send_error(e.status, str(e))
            return False
        self.connection.settimeout(None)
        connection = self.headers.get("Connection", "").lower()
        self.close_connection = connection == "close" or (
            self.request_version == "HTTP/1.0" and connection != "keep-alive")
        if self.request_version == "HTTP/1.1" and \
                self.headers.get("Expect", "").lower() == "100-continue":
            return self.handle_expect_100()
        return True

    def _read_body(self) -> bytes:
        length = self._length or 0
        if length > MAX_BODY:
            # The body stays unread, so the connection cannot carry
            # another request.
            self.close_connection = True
            raise ValueError(f"Content-Length must be 0..{MAX_BODY}, "
                             f"got {length}")
        body = self.rfile.read(length) if length else b""
        if len(body) != length:  # the peer or a shutdown ended it
            self.close_connection = True
            raise ValueError(f"body ended after {len(body)} of {length} bytes")
        return body

    def _handle(self) -> None:
        try:
            parts = urlsplit(self.path)
            body = self._read_body()
            payload = self.gateway.route(self.command, parts.path,
                                         parse_qs(parts.query), body,
                                         self.headers)
            if isinstance(payload, tuple):
                data, extra = payload
                self._respond(200, data, "application/octet-stream", extra)
            else:
                self._respond(200, json.dumps(payload).encode("utf-8"),
                              "application/json")
        except Exception as e:  # every failure maps to a JSON error
            if isinstance(e, ZoneError):
                status = e.http_status
            else:
                status = 400 if isinstance(e, ValueError) else 500
            if status >= 500:
                log.exception("request failed: %s %s", self.command,
                              self.path)
            self._error(status, type(e).__name__, str(e))

    do_GET = do_PUT = do_POST = do_DELETE = _handle

    def send_error(self, code, message=None, explain=None):
        """Refuse a request that cannot be read, and close: http.server's
        own refusals (414, 501 for a method) and the reader's."""
        self.close_connection = True
        self._error(code, "FramingError", message or self.responses[code][0])
        self._linger()

    def _error(self, status: int, name: str, detail: str) -> None:
        data = json.dumps({"error": name, "detail": detail}).encode("utf-8")
        try:
            self._respond(status, data, "application/json")
        except (BrokenPipeError, ConnectionResetError):
            pass

    def _respond(self, status: int, data: bytes, content_type: str,
                 extra: dict | None = None) -> None:
        self.log_request(status, len(data))
        lines = [f"HTTP/1.1 {status} {self.responses[status][0]}",
                 f"Server: {self.version_string()}",
                 f"Date: {_http_date(int(time.time()))}",
                 f"Content-Type: {content_type}",
                 f"Content-Length: {len(data)}",
                 "X-Request-Id: " + (self.headers.get("X-Request-Id")
                                     or uuid.uuid4().hex)]
        lines += [f"{key}: {value}" for key, value in (extra or {}).items()]
        if self.close_connection:
            lines.append("Connection: close")
        self.wfile.write(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
                         + data)
