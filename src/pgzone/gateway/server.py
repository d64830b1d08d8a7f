"""JSON-over-HTTP gateway.

One GatewayServer per zone. Every request is one lookup in the route
table ROUTES, keyed by (method, path pattern, verb): the URL names the
thing, a ':verb' suffix of the raw path names the action (a ':' in a
logical name is sent as '%3A'), and the body carries either JSON or raw
bytes (data objects and stream segments). Every response carries
X-Request-Id (echoed from the request when present) and JSON errors
carry {"error": <exception name>, "detail": <text>}.

One thread serves every connection: a selector loop (serve_forever)
that accepts connections, reads each socket into a buffer of its own
without blocking (a body into one that grows with what arrives), calls
route once a request's head and whole body are in, and writes each
answer without blocking, as one vectored write of its head and body.
It takes at most one request per connection per pass, so a client
that pipelines cannot starve the others. Routes run on the loop's
thread, one at a time, except that a route still running after
HANDOFF seconds (uploaded code that waits, a long query) keeps that
thread: the loop moves on to a new one, and the route's answer is sent
once it ends. A route that the code knows will wait (an http_fetch, a
login's key derivation) leaves the loop's thread as the wait starts.

Up to MAX_CONNECTIONS connections are served at once (one more is
answered 503 and closed). A request's head must arrive within
IDLE_TIMEOUT of its first byte, and a connection that waits that long
for its next request, or goes that long without progress while it
sends a body or reads an answer, is closed. Heads are read a line at a
time by wire.Head, which refuses the framings pgzone does not speak.

Authentication is a Bearer token from POST /login; only /login and
/ping are open. Uploading executable extensions (micro-services and
drivers) additionally requires the allow_dynamic_code switch, because
that code runs inside the server process.
"""

from __future__ import annotations

import collections
import dataclasses
import functools
import io
import json
import logging
import math
import selectors
import socket
import threading
import time
import uuid
from email.utils import formatdate
from http import HTTPStatus
from urllib.parse import parse_qs, unquote, urlsplit

from ..drivers import Driver
from ..errors import BadCredentials, Denied, NoSuchPath, ZoneError
from ..zone import Zone
from .config import GatewayConfig
from .sessions import SessionStore
from .wire import MAX_LINE, FramingError, Head

log = logging.getLogger("pgzone.gateway")

MAX_BODY = 256 * 1024 * 1024
# Connections served at once; the next is answered 503 and closed.
MAX_CONNECTIONS = 256
# Seconds a connection may wait for its next request, take over a
# request's head from its first byte, or go without progress while it
# sends a body or reads an answer, before it is closed and frees its slot.
IDLE_TIMEOUT = 60.0
# Seconds a refused connection is still read from before it is closed,
# and seconds shutdown() goes on sending the answers already made.
LINGER = 1.0
DRAIN = 5.0
# Bytes read from a socket at a time, and the least a body buffer holds.
RECV_SIZE = 64 * 1024
# Seconds a route may hold the loop's thread before the loop moves on to
# a new thread; a route that waits delays the others by up to twice that
# (an http_fetch not at all: the loop moves on as it starts).
HANDOFF = 0.01
METHODS = ("GET", "PUT", "POST", "DELETE")
_CONTINUE = b"HTTP/1.1 100 Continue\r\n\r\n"
_PHRASES = {status.value: status.phrase for status in HTTPStatus}

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


class _Connection:
    """One client socket: the bytes it sent that no request has taken
    yet, the request being read from them, and the answer still to go."""

    __slots__ = ("sock", "slot", "inbox", "scan", "request", "head",
                 "length", "body", "view", "got", "outcome", "outbox",
                 "close_after", "linger", "events", "deadline")

    def __init__(self, sock: socket.socket, slot: bool):
        self.sock = sock
        self.slot = slot  # whether it holds one of the MAX_CONNECTIONS
        self.inbox = bytearray()
        self.outbox: list = []  # what is left to send of the answer
        self.close_after = False  # close once the outbox is sent,
        self.linger = False  # after reading what the client still sends
        self.events = selectors.EVENT_READ
        self.deadline = math.inf
        self.next_request()

    def next_request(self) -> None:
        """Forget the request read last; the inbox keeps what follows it."""
        self.scan = 0  # where the head's next line starts in the inbox
        self.request = None  # (method, target, version) once it is read,
        self.head: Head | None = None  # the header lines after it,
        self.length: int | None = None  # and the body length after them
        # The body is received into a buffer of its own, which grows
        # with what arrives and whose bytes the route gets without a
        # copy; `got` are in.
        self.body: io.BytesIO | None = None
        self.view: memoryview | None = None
        self.got = 0
        self.outcome = None  # what route returned or raised

    def whole(self) -> bool:
        """Whether the request's head and whole body are in."""
        return self.got == self.length


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
        # A fetch waits on the network: the loop moves on without the
        # thread that makes it as it starts, not HANDOFF later.
        opener = zone.engine.url_opener

        def url_opener(*args, **kwargs):
            self._before_wait()
            return opener(*args, **kwargs)
        zone.engine.url_opener = url_opener
        host = host if host is not None else self.config.bind_host
        port = port if port is not None else self.config.bind_port
        self._listener = socket.create_server((host, port))
        self._address = self._listener.getsockname()[:2]
        # shutdown() writes a byte to _wake_w to wake the loop at once.
        self._wake_r, self._wake_w = socket.socketpair()
        self._selector = selectors.DefaultSelector()
        for sock in (self._listener, self._wake_r, self._wake_w):
            sock.setblocking(False)
        for sock in (self._listener, self._wake_r):
            self._selector.register(sock, selectors.EVENT_READ)
        self._recv = memoryview(bytearray(RECV_SIZE))  # the loop's, alone
        self._ready: collections.deque[_Connection] = collections.deque()
        self._served = 0  # connections that hold a slot
        self._next_deadline = math.inf  # no connection's is earlier
        # The threads started here: start()'s, the watcher, and the ones
        # the loop moved to.
        self._threads: list[threading.Thread] = []
        # The thread that runs the loop, and the claim of the route it
        # runs: [conn] until the route ends or the loop moves on without
        # it, whichever pops conn first (_serve, _leave_route).
        self._leader: int | None = None
        self._routing: list[_Connection] = []
        # Under _guard: the routes that ran past HANDOFF on a thread the
        # loop has left (_away), and those of them that have ended.
        self._away = 0
        self._posted: list[_Connection] = []
        # _closing ends the loop; _done is clear while the loop runs.
        self._closing = False
        self._done = threading.Event()
        self._done.set()
        self._guard = threading.Lock()

    @property
    def address(self) -> tuple[str, int]:
        return self._address

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> "GatewayServer":
        """Serve on a thread of its own."""
        with self._guard:
            self._spawn(self.serve_forever, "pgzone-gateway")
        return self

    def _spawn(self, target, name: str, *args) -> None:
        """Start a thread that shutdown() joins. The caller holds _guard."""
        thread = threading.Thread(target=target, name=name, args=args,
                                  daemon=True)
        self._threads = [t for t in self._threads if t.is_alive()]
        self._threads.append(thread)
        thread.start()

    def serve_forever(self) -> None:
        """Serve on the calling thread until shutdown(). The loop leaves
        this thread to a route that runs past HANDOFF, and goes on on a
        new one; this call returns once the loop has ended."""
        with self._guard:
            if self._closing:
                return
            self._done.clear()
            self._spawn(self._watch_routes, "pgzone-gateway-watch")
        self._lead()
        self._done.wait()

    def shutdown(self) -> None:
        """Stop accepting, then end every open connection: a request in
        flight is still answered, an answer already made still goes out
        (for up to DRAIN seconds), and an idle connection reads end of
        input at once. Returns once the loop has ended, so that no
        request reaches the zone after it."""
        with self._guard:
            self._closing = True
        self._wake()
        self._done.wait()
        for thread in self._threads:
            thread.join()
        for sock in (self._listener, self._wake_r, self._wake_w):
            sock.close()
        self._selector.close()

    def _wake(self) -> None:
        """Make the loop's wait end at once."""
        try:
            self._wake_w.send(b"\0")
        except OSError:  # woken already, or shut down before
            pass

    # -- the loop: every connection on one thread ---------------------------

    def _lead(self) -> None:
        """Run the loop on this thread until shutdown(), or until a
        route on it runs past HANDOFF and the loop moves on without it."""
        self._leader = threading.get_ident()
        left = False
        try:
            while not self._closing and not left:
                left = self._pass()
            if not left:
                self._drain()
        finally:
            if not left:
                for conn in self._connections():
                    self._close(conn)
                self._done.set()

    def _watch_routes(self) -> None:
        """Every HANDOFF seconds while the loop runs, look at the route
        its thread runs; if it is the one seen at the last look, leave
        that thread to it and go on with the loop on a new thread."""
        seen = None
        while not self._done.wait(HANDOFF):
            claim = self._routing
            if claim is seen:
                self._leave_route(claim)
            seen = claim

    def _before_wait(self) -> None:
        """Called before a route waits: if it runs on the loop's thread,
        the loop moves on without it."""
        if threading.get_ident() == self._leader:
            self._leave_route(self._routing)

    def _leave_route(self, claim: list) -> None:
        """Leave the loop's thread to the route that holds claim, unless
        it has ended, and go on with the loop on a new thread."""
        try:
            conn = claim.pop()
        except IndexError:  # the route has ended
            return
        with self._guard:
            self._away += 1
            self._spawn(self._take_over, "pgzone-gateway", conn)

    def _take_over(self, conn: _Connection) -> None:
        """Lead the loop in place of the thread left to conn's route.
        conn is not read from or written to until that route has ended
        (_take_posted)."""
        self._selector.unregister(conn.sock)
        self._lead()

    def _pass(self) -> bool:
        """Close the connections past their deadline, wait until a socket
        is ready or the next deadline, serve each ready socket once, then
        answer one request on each connection that holds a whole one.
        True if the loop has left this thread to a route."""
        now = time.monotonic()
        if now >= self._next_deadline:
            self._expire(now)
        if self._ready:
            timeout = 0.0
        elif self._next_deadline == math.inf:
            timeout = None
        else:
            timeout = self._next_deadline - now
        for key, mask in self._selector.select(timeout):
            conn = key.data
            if conn is None:
                if key.fileobj is self._listener:
                    self._accept()
                else:
                    self._wake_r.recv(64)
                    self._take_posted()
            else:
                self._guarded(self._send if mask & selectors.EVENT_WRITE
                              else self._receive, conn)
        if self._closing:
            return False
        for _ in range(len(self._ready)):
            conn = self._ready.popleft()
            # (a connection closed since it was queued is skipped)
            if conn.sock.fileno() >= 0 and self._guarded(self._serve, conn):
                return True
        return False

    def _guarded(self, step, conn: _Connection):
        """Take one step on conn and return what it returns; a fault in
        it closes conn alone, and the loop serves on."""
        try:
            return step(conn)
        except Exception:
            log.exception("connection failed")
            if conn.sock.fileno() >= 0:
                self._close(conn)

    def _connections(self) -> list[_Connection]:
        return [key.data for key in self._selector.get_map().values()
                if key.data is not None]

    def _deadline(self, conn: _Connection, at: float) -> None:
        conn.deadline = at
        self._next_deadline = min(self._next_deadline, at)

    def _expire(self, now: float) -> None:
        self._next_deadline = math.inf
        for conn in self._connections():
            if conn.deadline <= now:
                self._close(conn)
            else:
                self._next_deadline = min(self._next_deadline, conn.deadline)

    def _accept(self) -> None:
        try:
            sock, _ = self._listener.accept()
        except OSError:  # gone before it was accepted, or out of files
            return
        sock.setblocking(False)
        # TCP_NODELAY: a large answer leaves in many segments, and on a
        # keep-alive socket Nagle's algorithm could hold its short last
        # one back until the client's delayed ACK (~40 ms) arrives.
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        conn = _Connection(sock, self._served < MAX_CONNECTIONS)
        self._selector.register(sock, selectors.EVENT_READ, conn)
        self._deadline(conn, time.monotonic() + IDLE_TIMEOUT)
        if conn.slot:
            self._served += 1
        else:
            self._refuse(conn, 503, "TooManyConnections", "the gateway "
                         f"serves at most {MAX_CONNECTIONS} connections "
                         "at once")

    def _close(self, conn: _Connection) -> None:
        self._selector.unregister(conn.sock)
        conn.sock.close()
        if conn.slot:
            self._served -= 1

    def _watch(self, conn: _Connection, events: int) -> None:
        if conn.events != events:
            self._selector.modify(conn.sock, events, conn)
            conn.events = events

    def _receive(self, conn: _Connection) -> None:
        if conn.whole():  # read on once it is answered
            return
        if conn.view is None:
            into = self._recv
        else:
            if conn.got == len(conn.view):
                self._grow(conn)
            into = conn.view[conn.got:]
        try:
            n = conn.sock.recv_into(into)
        except BlockingIOError:
            return
        except OSError:  # reset by the client
            self._close(conn)
            return
        if conn.linger:  # refused: what it sends is dropped
            if not n:
                self._close(conn)
        elif not n and not conn.inbox and conn.request is None:
            self._close(conn)  # closed between two requests
        elif not n:  # the client ended its sending half inside a request
            self._refuse(conn, 400, "FramingError", "request head cut off"
                         if conn.length is None else
                         f"body ended after {conn.got} of {conn.length} "
                         "bytes")
        elif conn.view is not None:  # a body's progress
            self._deadline(conn, time.monotonic() + IDLE_TIMEOUT)
            conn.got += n
            if conn.whole():
                self._ready.append(conn)
        else:
            if not conn.inbox:  # the first byte of a request
                self._deadline(conn, time.monotonic() + IDLE_TIMEOUT)
            conn.inbox += self._recv[:n]
            self._advance(conn)

    def _advance(self, conn: _Connection) -> None:
        """Read as much of conn's request as its inbox holds: queue the
        request once it is whole, refuse it if it cannot be read."""
        try:
            if not self._read_head(conn):
                return
        except FramingError as e:
            self._refuse(conn, e.status, "FramingError", str(e))
            return
        if conn.length:
            self._open_body(conn)
        if conn.whole():
            self._ready.append(conn)
        elif conn.request[2] == "HTTP/1.1" and \
                conn.head.headers.get("Expect", "").lower() == "100-continue":
            conn.outbox.append(_CONTINUE)
            self._send(conn)

    def _open_body(self, conn: _Connection) -> None:
        """Give conn's body its buffer, and move into it what the inbox
        holds of the body."""
        end = min(conn.scan + conn.length, len(conn.inbox))
        conn.body = io.BytesIO()
        conn.got = end - conn.scan
        self._grow(conn)
        with memoryview(conn.inbox) as inbox:
            conn.view[:conn.got] = inbox[conn.scan:end]
        del conn.inbox[:end]
        conn.scan = 0

    def _grow(self, conn: _Connection) -> None:
        """Size conn's body buffer to twice the bytes in it, at least
        RECV_SIZE and at most the body's length: its memory follows the
        bytes that arrive, not the length the head declares."""
        if conn.view is not None:
            conn.view.release()
        # Writing past the end zero-fills the gap, so only what is
        # grown here is touched.
        conn.body.seek(min(conn.length, max(2 * conn.got, RECV_SIZE)) - 1)
        conn.body.write(b"\0")
        conn.view = conn.body.getbuffer()

    def _read_head(self, conn: _Connection) -> bool:
        """Take the lines of conn's head that have arrived; True once the
        blank line that ends it has."""
        inbox = conn.inbox
        while True:
            end = inbox.find(b"\n", conn.scan)
            # No line, whole or still arriving, may pass MAX_LINE bytes.
            if (len(inbox) if end < 0 else end + 1) - conn.scan > MAX_LINE:
                raise FramingError("request line too long", 414) \
                    if conn.request is None else \
                    FramingError("header line too long", 431)
            if end < 0:
                return False
            line = inbox[conn.scan:end + 1]
            conn.scan = end + 1
            if conn.request is None:
                conn.request, conn.head = _request_line(line), Head()
            elif conn.head.take(line):
                break
        method = conn.request[0]
        if method not in METHODS:
            raise FramingError(f"Unsupported method ({method!r})", 501)
        length = conn.head.length() or 0
        if length > MAX_BODY:
            raise FramingError(f"Content-Length must be 0..{MAX_BODY}, "
                               f"got {length}")
        conn.length = length
        return True

    def _serve(self, conn: _Connection) -> bool:
        """Run the route of the whole request at the front of conn's
        inbox, and answer it. True if the loop left this thread to the
        route meanwhile; then the loop's thread answers it."""
        method, target, version = conn.request
        headers = conn.head.headers
        del conn.inbox[:conn.scan]
        body = b""
        if conn.body is not None:
            conn.view.release()  # so that getvalue() makes no copy
            body = conn.body.getvalue()
        connection = headers.get("Connection", "").lower()
        conn.close_after = connection == "close" or (
            version == "HTTP/1.0" and connection != "keep-alive")
        self._routing = claim = [conn]
        try:
            parts = urlsplit(target)
            conn.outcome = (True, self.route(
                method, parts.path, parse_qs(parts.query), body, headers))
        except Exception as e:  # every failure maps to a JSON error
            conn.outcome = (False, e)
        finally:
            # A route that ends this thread is not answered (outcome None).
            try:
                claim.pop()
                left = False
            except IndexError:  # the loop has moved on without it
                left = True
                with self._guard:
                    self._posted.append(conn)
                self._wake()
        if not left:
            self._reply(conn)
        return left

    def _take_posted(self) -> None:
        """Answer the routes that ran past HANDOFF and have ended."""
        with self._guard:
            posted, self._posted = self._posted, []
            self._away -= len(posted)
        for conn in posted:
            self._selector.register(conn.sock, selectors.EVENT_READ, conn)
            conn.events = selectors.EVENT_READ
            if self._closing:
                conn.close_after = True
            self._guarded(self._reply, conn)

    def _reply(self, conn: _Connection) -> None:
        """Queue the answer to conn's routed request and send it."""
        method, target, _ = conn.request
        if conn.outcome is None:
            self._close(conn)
            return
        ok, payload = conn.outcome
        if ok:
            if isinstance(payload, tuple):
                data, extra = payload
                self._answer(conn, 200, data, "application/octet-stream",
                             extra)
            else:
                self._answer(conn, 200, json.dumps(payload).encode("utf-8"),
                             "application/json")
        else:
            e = payload
            if isinstance(e, ZoneError):
                status = e.http_status
            else:
                status = 400 if isinstance(e, ValueError) else 500
            if status >= 500:
                log.error("request failed: %s %s", method, target,
                          exc_info=e)
            self._error(conn, status, type(e).__name__, str(e))
        conn.next_request()
        self._send(conn)

    def _refuse(self, conn: _Connection, status: int, name: str,
                detail: str) -> None:
        """Answer a request that cannot be served and close conn after
        reading what its client sends for up to LINGER seconds more: a
        socket closed with a request unread is reset, and the reset can
        drop the answer before the client reads it."""
        conn.inbox.clear()
        conn.close_after = conn.linger = True
        self._error(conn, status, name, detail)
        conn.next_request()
        self._send(conn)

    def _error(self, conn: _Connection, status: int, name: str,
               detail: str) -> None:
        data = json.dumps({"error": name, "detail": detail}).encode("utf-8")
        self._answer(conn, status, data, "application/json")

    def _answer(self, conn: _Connection, status: int, data: bytes,
                content_type: str, extra: dict | None = None) -> None:
        """Queue an answer on conn: its head, then data as it is."""
        headers = conn.head.headers if conn.head else {}
        lines = [f"HTTP/1.1 {status} {_PHRASES[status]}",
                 "Server: pgzone-gateway",
                 f"Date: {_http_date(int(time.time()))}",
                 f"Content-Type: {content_type}",
                 f"Content-Length: {len(data)}",
                 "X-Request-Id: " + (headers.get("X-Request-Id")
                                     or uuid.uuid4().hex)]
        lines += [f"{key}: {value}" for key, value in (extra or {}).items()]
        if conn.close_after:
            lines.append("Connection: close")
        log.debug("%s %s", status, conn.request and conn.request[1])
        conn.outbox += [("\r\n".join(lines) + "\r\n\r\n").encode("latin-1"),
                        data]

    def _send(self, conn: _Connection) -> None:
        """Send as much of conn's outbox as its socket takes now, in one
        vectored write; once it is all sent, go on with the connection."""
        outbox = conn.outbox
        try:
            sent = conn.sock.sendmsg(outbox)
        except BlockingIOError:
            sent = 0
        except OSError:  # the client has gone
            self._close(conn)
            return
        while outbox and sent >= len(outbox[0]):
            sent -= len(outbox.pop(0))
        if sent:
            outbox[0] = memoryview(outbox[0])[sent:]
        if outbox:
            if sent:
                self._deadline(conn, time.monotonic() + IDLE_TIMEOUT)
            self._watch(conn, selectors.EVENT_WRITE)
            return
        self._watch(conn, selectors.EVENT_READ)
        if conn.close_after and not conn.linger:
            self._close(conn)
        elif conn.close_after:
            try:
                conn.sock.shutdown(socket.SHUT_WR)
            except OSError:
                self._close(conn)
                return
            self._deadline(conn, time.monotonic() + LINGER)
        else:  # wait for the body or the next request
            self._deadline(conn, time.monotonic() + IDLE_TIMEOUT)
            if conn.request is None and conn.inbox:  # sent before the answer
                self._advance(conn)

    def _drain(self) -> None:
        """Stop accepting and reading; answer the routes still running on
        threads the loop has left once they end, then send the answers
        made for up to DRAIN seconds, and close."""
        self._selector.unregister(self._listener)
        for conn in self._connections():
            if conn.outbox and not conn.linger:
                conn.close_after = True
            else:
                self._close(conn)
        while self._away:
            for key, _ in self._selector.select():
                if key.data is None:
                    self._wake_r.recv(64)
                    self._take_posted()
                else:
                    self._send(key.data)
        self._selector.unregister(self._wake_r)
        end = time.monotonic() + DRAIN
        while self._selector.get_map() and time.monotonic() < end:
            for key, _ in self._selector.select(end - time.monotonic()):
                self._send(key.data)

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
        fields = _fields(body, "user", "secret")
        self._before_wait()  # the key derivation takes tens of ms of CPU
        session = self.sessions.login(*fields)
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
        limit = _int_param(query, "limit", required=False)
        subcolls, objects = self.catalog.list_collection(
            tail, _one(query, "marker"), limit)
        view = self.catalog.get_collection(tail)
        answer = {"path": tail, "kind": view.kind, "owner": view.owner,
                  "collections": subcolls, "objects": objects}
        if limit is not None:
            # A full page may not be the last: the next starts after it.
            full = len(subcolls) + len(objects) == limit
            answer["next"] = max(subcolls[-1:] + objects[-1:]) if full \
                else None
        return answer

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


def _request_line(line: bytes) -> tuple[str, str, str]:
    """The method, target and version of a request line with its CRLF."""
    if not line.endswith(b"\r\n"):
        raise FramingError("request line not ended by CRLF")
    text = line[:-2].decode("latin-1")
    words = text.split()
    if len(words) != 3 or words[2] not in ("HTTP/1.0", "HTTP/1.1"):
        raise FramingError(f"bad request line {text!r}")
    return words[0], words[1], words[2]
