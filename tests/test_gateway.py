import argparse
import base64
import contextlib
import hashlib
import http.client
import http.server
import json
import os
import select
import shlex
import shutil
import socket
import ssl
import subprocess
import sys
import threading
import time
import urllib.request
from pathlib import Path

import pytest

from pgzone import errors
from pgzone.common import now_us
from pgzone.gateway import server as server_module
from pgzone.gateway import sessions
from pgzone.gateway.cli import build_parser, main
from pgzone.gateway.client import (ClientError, TransportError, ZoneClient,
                                   _read_response)
from pgzone.gateway.config import GatewayConfig
from pgzone.gateway.server import MAX_BODY, GatewayServer
from pgzone.gateway.sessions import TOKEN_TTL_US, SessionStore
from pgzone.zone import Zone

from conftest import ADMIN, ADMIN_SECRET, DRIVER_CODE, add_user, make_zone


@pytest.fixture
def gw():
    zone = make_zone()
    server = GatewayServer(zone, host="127.0.0.1", port=0).start()
    yield server
    server.shutdown()
    zone.close()


@pytest.fixture
def admin_client(gw):
    c = ZoneClient(gw.url)
    c.login(ADMIN, ADMIN_SECRET)
    return c


def user_client(gw, name="u", secret="pw"):
    add_user(gw.zone, name, secret=secret)
    c = ZoneClient(gw.url)
    c.login(name, secret)
    return c


# ---------------------------------------------------------------------------
# Sessions and transport basics
# ---------------------------------------------------------------------------

def test_ping_needs_no_token(gw):
    assert ZoneClient(gw.url).ping()["zone"]


def test_login_rejects_bad_secret(gw):
    with pytest.raises(ClientError) as exc:
        ZoneClient(gw.url).login(ADMIN, "not it")
    assert exc.value.status == 401


def test_failed_login_leaves_a_malformed_name_out_of_the_journal(tmp_path):
    zone = make_zone(journal_dir=tmp_path / "j")
    server = GatewayServer(zone, host="127.0.0.1", port=0).start()
    log = tmp_path / "j" / "journal.log"
    try:
        before = log.stat().st_size
        for user in ("x" * (4 << 20), "nobody"):
            with pytest.raises(ClientError) as exc:
                ZoneClient(server.url).login(user, "pw")
            assert (exc.value.status, exc.value.error) == (
                401, "BadCredentials")
            if user != "nobody":
                assert log.stat().st_size - before < 1024
        failed = [(e.actor, e.detail)
                  for e in zone.catalog.audit_query(ADMIN, event="login")]
        assert failed == [("-", "failed: malformed user name"),
                          ("nobody", "failed")]
    finally:
        server.shutdown()
        zone.close()


def test_requests_without_token_are_rejected(gw):
    with pytest.raises(ClientError) as exc:
        ZoneClient(gw.url).get("/home")
    assert exc.value.status == 401


def test_expired_token_is_rejected(gw, admin_client, monkeypatch):
    later = now_us() + TOKEN_TTL_US  # the login's token expires then
    monkeypatch.setattr(sessions, "now_us", lambda: later)
    with pytest.raises(ClientError) as exc:
        admin_client.stat("/")
    assert exc.value.status == 401


def test_request_id_echoed(gw, admin_client):
    req = urllib.request.Request(gw.url + "/ping",
                                 headers={"X-Request-Id": "trace-me-42"})
    with urllib.request.urlopen(req) as resp:
        assert resp.headers["X-Request-Id"] == "trace-me-42"


def test_request_id_generated_when_absent(gw):
    with urllib.request.urlopen(gw.url + "/ping") as resp:
        assert len(resp.headers["X-Request-Id"]) == 32


@pytest.mark.parametrize("length", [b"-1", b"abc", b"%d" % (MAX_BODY + 1)])
def test_bad_content_length_is_400_and_closes(gw, length):
    # The request after the bad one must not be read from the unread body.
    with socket.create_connection(gw.address, timeout=3) as sock:
        sock.sendall(b"POST /login HTTP/1.1\r\nHost: x\r\nContent-Length: "
                     + length + b"\r\n\r\nGET /ping HTTP/1.1\r\n\r\n")
        reply = b""
        while chunk := sock.recv(4096):  # socket.timeout fails the test
            reply += chunk
    assert reply.startswith(b"HTTP/1.1 400 ")
    assert reply.count(b"HTTP/1.1 ") == 1
    assert ZoneClient(gw.url).ping()["zone"]


def test_body_cut_short_is_400_and_never_stored(gw, admin_client):
    # The client stops sending 3 bytes into a 10-byte body.
    with socket.create_connection(gw.address, timeout=3) as sock:
        sock.sendall(b"PUT /data/home/short HTTP/1.1\r\nHost: x\r\n"
                     b"Authorization: Bearer " + admin_client.token.encode()
                     + b"\r\nContent-Length: 10\r\n\r\nabc")
        sock.shutdown(socket.SHUT_WR)
        reply = b""
        while chunk := sock.recv(4096):  # socket.timeout fails the test
            reply += chunk
    assert reply.startswith(b"HTTP/1.1 400 ")
    assert not gw.zone.catalog.path_exists("/home/short")


def test_keepalive_requests_do_not_stall(gw):
    # Without TCP_NODELAY each reply's body waits for the client's
    # delayed ACK, about 40 ms: 50 requests would take 2 s or more.
    client = ZoneClient(gw.url)
    client.ping()
    start = time.perf_counter()
    for _ in range(50):
        client.ping()
    assert time.perf_counter() - start < 1.0


def read_answer(sock) -> tuple[int, bytes]:
    """Read one final answer on sock whole, skipping a 100 Continue; its
    status and body."""
    answer = http.client.HTTPResponse(sock)
    try:
        answer.begin()
        return answer.status, answer.read()
    finally:
        answer.close()


def exchange(address, raw: bytes, end: bool = False) -> tuple[int, bool]:
    """Send raw bytes on a fresh socket, and end its sending half when
    `end`; the status of the answer, and whether a ping sent next on the
    same socket is answered 200."""
    with socket.create_connection(address, timeout=3) as sock:
        sock.sendall(raw)
        if end:
            sock.shutdown(socket.SHUT_WR)
        status, _ = read_answer(sock)
        try:
            sock.sendall(PING + b"\r\n")
            still_open = read_answer(sock)[0] == 200
        except (ConnectionError, http.client.HTTPException):
            still_open = False
    return status, still_open


PING = b"GET /ping HTTP/1.1\r\nHost: x\r\n"
LOGIN = json.dumps({"user": ADMIN, "secret": ADMIN_SECRET}).encode()


@pytest.mark.parametrize("raw, end, status, stays_open", [
    pytest.param(PING + b"\r\n", False, 200, True, id="plain"),
    pytest.param(PING + b"Content-Length: 0\r\nContent-Length: 0\r\n\r\n",
                 False, 400, False, id="duplicate-content-length"),
    pytest.param(PING + b"Transfer-Encoding: chunked\r\n\r\n0\r\n\r\n",
                 False, 501, False, id="chunked"),
    pytest.param(PING + b"X-Long: " + b"a" * (65 << 10) + b"\r\n\r\n",
                 False, 431, False, id="65k-header-line"),
    # Ten values of 64 KiB, nearly all blanks: read in linear time they
    # are answered well within exchange's 3 s timeout; a pattern that
    # backtracks over the blanks took ~10 s a line.
    pytest.param(PING + b"".join(b"X-%d: a%sb\r\n" % (i, b" " * 65000)
                                 for i in range(10)) + b"\r\n",
                 False, 200, True, id="64k-blank-values"),
    pytest.param(PING + b"".join(b"X-%d: 1\r\n" % i for i in range(99))
                 + b"\r\n", False, 200, True, id="100-headers"),
    pytest.param(PING + b"".join(b"X-%d: 1\r\n" % i for i in range(100))
                 + b"\r\n", False, 431, False, id="101-headers"),
    pytest.param(b"GET /ping HTTP/1.1\nHost: x\n\n", False, 400, False,
                 id="bare-lf"),
    pytest.param(PING + b"X-No-Colon\r\n\r\n", False, 400, False,
                 id="no-colon"),
    pytest.param(PING + b"X-A: 1\r\n folded\r\n\r\n", False, 400, False,
                 id="folded-line"),
    pytest.param(b"POST /login HTTP/1.1\r\nHost: x\r\nContent-Length: 10"
                 b"\r\n\r\nabc", True, 400, False, id="body-cut-short"),
    pytest.param(b"POST /login HTTP/1.1\r\nHost: x\r\nExpect: 100-continue"
                 b"\r\nContent-Length: %d\r\n\r\n%s" % (len(LOGIN), LOGIN),
                 False, 200, True, id="expect-100-continue"),
    pytest.param(PING + b"Connection: close\r\n\r\n", False, 200, False,
                 id="connection-close"),
    pytest.param(b"GET /ping HTTP/1.0\r\n\r\n", False, 200, False,
                 id="http-1.0"),
    pytest.param(b"GET /ping HTTP/1.1\nHost: x\r\n\r\n", False, 400, False,
                 id="bare-lf-request-line"),
    # Refused while it still sends 16 MiB of the body: the client reads
    # the 400 rather than a reset.
    pytest.param(b"PUT /data/home/f HTTP/1.1\r\nHost: x\r\nContent-Length: "
                 b"%d\r\n\r\n%s" % (MAX_BODY + 1, b"x" * (16 << 20)),
                 False, 400, False, id="body-over-max"),
])
def test_hostile_request_table(gw, raw, end, status, stays_open):
    assert exchange(gw.address, raw, end) == (status, stays_open)
    assert ZoneClient(gw.url).ping()["zone"]  # the gateway still serves


def test_pipelined_requests_are_answered_once_each_in_order(gw):
    """Requests sent back to back on one socket, among them a body split
    across two sends, get one answer each, in the order sent."""
    token = gw.sessions.login(ADMIN, ADMIN_SECRET).token
    put = b"PUT /data/home/p HTTP/1.1\r\nAuthorization: Bearer %s\r\n" \
        b"Content-Length: 6\r\n\r\n" % token.encode()
    with socket.create_connection(gw.address, timeout=3) as sock, \
            sock.makefile("rb") as rfile:
        sock.sendall(PING + b"\r\n" + put + b"abc")
        time.sleep(0.1)
        sock.sendall(b"def" + PING + b"X-Request-Id: last\r\n\r\n")
        answers = [_read_response(rfile)[0] for _ in range(3)]
    assert [a.status for a in answers] == [200, 200, 200]
    assert answers[1].json()["size"] == 6
    assert answers[2].headers["X-Request-Id"] == "last"
    assert gw.zone.engine.get(ADMIN, "/home/p") == b"abcdef"


def test_expect_100_continue_is_answered_before_the_body(gw):
    with socket.create_connection(gw.address, timeout=3) as sock:
        sock.sendall(b"POST /login HTTP/1.1\r\nExpect: 100-continue\r\n"
                     b"Content-Length: %d\r\n\r\n" % len(LOGIN))
        assert sock.recv(64) == b"HTTP/1.1 100 Continue\r\n\r\n"
        sock.sendall(LOGIN)
        assert read_answer(sock)[0] == 200


def test_route_finds_headers_in_any_case(gw):
    seen = []
    route = gw.route

    def record(method, path, query, body, headers):
        seen.append((headers.get("X-Request-Id"), headers.get("HOST")))
        return route(method, path, query, body, headers)

    gw.route = record
    assert exchange(gw.address, b"GET /ping HTTP/1.1\r\nhost: h\r\n"
                    b"x-request-id: abc\r\n\r\n") == (200, True)
    assert seen[0] == ("abc", "h")


def test_connections_past_the_cap_are_refused(gw, monkeypatch):
    monkeypatch.setattr(server_module, "MAX_CONNECTIONS", 2)
    with contextlib.ExitStack() as stack:
        socks = [stack.enter_context(
            socket.create_connection(gw.address, timeout=3))
            for _ in range(2)]
        for sock in socks:  # each answered, so each is counted
            sock.sendall(PING + b"\r\n")
            assert read_answer(sock)[0] == 200
        # The third is refused while it still sends a 4 MiB body, and
        # reads the 503 rather than a reset.
        client = ZoneClient(gw.url)
        with pytest.raises(ClientError) as refused:
            client.put("/home/f", b"x" * (4 << 20))
        assert (refused.value.status, refused.value.error) == (
            503, "TooManyConnections")
        assert client._conn.sock is None  # and closed
        assert gw._served == 2  # the refused one held no slot
        for sock in socks:
            sock.sendall(PING + b"\r\n")
            assert read_answer(sock)[0] == 200


def test_idle_connections_are_closed_and_free_their_slot(gw, monkeypatch):
    monkeypatch.setattr(server_module, "MAX_CONNECTIONS", 1)
    monkeypatch.setattr(server_module, "IDLE_TIMEOUT", 0.5)
    with socket.create_connection(gw.address, timeout=3) as sock:
        for _ in range(8):  # busy for 0.8 s, never idle for 0.5 s
            time.sleep(0.1)
            sock.sendall(PING + b"\r\n")
            assert read_answer(sock)[0] == 200
        sock.sendall(b"GET /ping HTTP/1.1\r\n")  # a head cut off
        assert sock.recv(1) == b""  # closed 0.5 s on, unanswered
    with socket.create_connection(gw.address, timeout=3) as sock:
        sock.sendall(PING + b"\r\n")  # the slot is free again
        assert read_answer(sock)[0] == 200


def short_deadlines(monkeypatch) -> None:
    monkeypatch.setattr(server_module, "MAX_CONNECTIONS", 1)
    monkeypatch.setattr(server_module, "IDLE_TIMEOUT", 0.5)


def trickle(sock, data: bytes) -> float:
    """Send data a byte every 0.1 s until it is all sent or the server
    closes sock; the seconds that took."""
    start = time.monotonic()
    for byte in data:
        if select.select([sock], [], [], 0.1)[0]:
            break
        sock.send(bytes([byte]))
    return time.monotonic() - start


def closed_by_server(sock) -> bool:
    """Whether sock reads end of input (or a reset) within its timeout,
    and nothing else."""
    try:
        return sock.recv(1) == b""
    except ConnectionResetError:
        return True


def slot_frees_after(gw) -> float:
    """Seconds until a ping on a new connection is answered 200 rather
    than refused 503."""
    start = time.monotonic()
    while time.monotonic() - start < 5:
        with socket.create_connection(gw.address, timeout=3) as sock:
            sock.sendall(PING + b"Connection: close\r\n\r\n")
            if read_answer(sock)[0] == 200:
                return time.monotonic() - start
        time.sleep(0.05)
    pytest.fail("the slot was never freed")


BIG = b"x" * (4 << 20)


def get_big(gw) -> bytes:
    """A GET of /home/big, which holds BIG, with an admin token."""
    gw.zone.engine.put(ADMIN, "/home/big", BIG)
    token = gw.sessions.login(ADMIN, ADMIN_SECRET).token
    return b"GET /data/home/big HTTP/1.1\r\nHost: x\r\n" \
        b"Authorization: Bearer %s\r\n\r\n" % token.encode()


def test_a_trickled_head_loses_its_slot(gw, monkeypatch):
    """A head must arrive within IDLE_TIMEOUT of its first byte, however
    steadily its bytes come."""
    short_deadlines(monkeypatch)
    with socket.create_connection(gw.address, timeout=3) as sock:
        took = trickle(sock, PING + b"X-Slow: " + b"a" * 50)
        assert closed_by_server(sock)
    assert 0.4 < took < 1.5
    assert slot_frees_after(gw) < 0.5


def test_a_body_upload_that_stalls_loses_its_slot(gw, monkeypatch):
    """A body keeps its connection while it makes progress, for longer
    than IDLE_TIMEOUT, and loses it once it stalls for that long."""
    short_deadlines(monkeypatch)
    token = gw.sessions.login(ADMIN, ADMIN_SECRET).token
    with socket.create_connection(gw.address, timeout=3) as sock:
        sock.sendall(b"PUT /data/home/slow HTTP/1.1\r\nHost: x\r\n"
                     b"Authorization: Bearer %s\r\nContent-Length: 100"
                     b"\r\n\r\n" % token.encode())
        assert trickle(sock, b"y" * 10) > 0.9  # all sent, still open
        start = time.monotonic()
        assert closed_by_server(sock)
        stalled = time.monotonic() - start
    assert 0.4 < stalled < 1.5
    assert slot_frees_after(gw) < 0.5
    assert not gw.zone.catalog.path_exists("/home/slow")


def test_an_answer_left_unread_loses_its_slot(gw, monkeypatch):
    request = get_big(gw)
    short_deadlines(monkeypatch)
    with socket.socket() as sock:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        sock.connect(gw.address)
        sock.sendall(request)  # and never reads the answer
        assert 0.4 < slot_frees_after(gw) < 1.5


# A head that declares the largest body and sends none of it.
MAX_BODY_HEAD = b"PUT /data/home/f HTTP/1.1\r\nHost: x\r\n" \
    b"Content-Length: %d\r\n\r\n" % MAX_BODY


@pytest.mark.parametrize("stall", ["mid-head", "mid-body", "unread-answer",
                                   "max-body-declared"])
def test_a_stalled_client_does_not_delay_a_ping(gw, stall):
    request = {
        "mid-head": PING + b"X-Cut-Off: ",
        "mid-body": b"POST /login HTTP/1.1\r\nContent-Length: 100\r\n\r\n{",
        "unread-answer": get_big(gw),
        "max-body-declared": MAX_BODY_HEAD,
    }[stall]
    with socket.socket() as stalled, ZoneClient(gw.url) as client:
        stalled.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        stalled.connect(gw.address)
        stalled.sendall(request)
        time.sleep(0.2)  # the server has taken what it can
        start = time.monotonic()
        assert client.ping()["zone"]
        assert time.monotonic() - start < 0.5


def resident_bytes() -> int:
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


@pytest.mark.skipif(not os.path.exists("/proc/self/statm"),
                    reason="reads the resident size from /proc")
def test_a_declared_body_takes_memory_as_it_arrives(gw):
    """The body buffer grows with the bytes that arrive: a head that
    declares MAX_BODY (256 MiB) before any authentication, and sends
    nothing more, costs the server far less than that."""
    before = resident_bytes()
    with socket.create_connection(gw.address, timeout=3) as sock:
        sock.sendall(MAX_BODY_HEAD + b"x" * 1000)
        time.sleep(0.2)  # the server has taken what arrived
        assert resident_bytes() - before < 8 << 20
        assert ZoneClient(gw.url).ping()["zone"]


def slow_http_server(seconds: float, payload: bytes):
    """An HTTP server on a thread of its own that answers every GET with
    payload after `seconds`."""
    class Slow(http.server.BaseHTTPRequestHandler):
        def do_GET(self):
            time.sleep(seconds)
            self.send_response(200)
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            self.wfile.write(payload)

        def log_message(self, fmt, *args):
            pass

    httpd = http.server.ThreadingHTTPServer(("127.0.0.1", 0), Slow)
    threading.Thread(target=httpd.serve_forever, daemon=True).start()
    return httpd


def test_a_route_that_waits_does_not_delay_a_ping(gw, admin_client):
    """A workflow run waits a second on an http_fetch: other connections
    are served meanwhile, and the run is answered once its fetch ends."""
    httpd = slow_http_server(1.0, b"slow bytes")
    try:
        admin_client.make_collection("/home/w", kind="workflow")
        wf = admin_client.attach_workflow("/home/w", f'''
            procedure pull() {{
                http_fetch("http://127.0.0.1:{httpd.server_port}/f", "got")
            }}''')
        runs = []
        run = threading.Thread(
            target=lambda: runs.append(admin_client.run(wf["id"], {})))
        start = time.monotonic()
        run.start()
        time.sleep(0.2)  # the run is in its fetch
        with ZoneClient(gw.url) as other:
            assert other.ping()["zone"]
            assert time.monotonic() - start < 0.5
        run.join(10)
        assert time.monotonic() - start > 1.0
        assert runs and runs[0]["status"] == "ok"
        assert admin_client.get("/home/w/got") == b"slow bytes"
    finally:
        httpd.shutdown()
        httpd.server_close()


def serve_once(answer: bytes):
    """A raw-socket server for one connection: it reads a request head,
    writes `answer` and ends its sending half, then keeps what arrives
    until the client closes. Returns its listener and a thread whose
    `received` attribute holds every byte the client sent."""
    listener = socket.create_server(("127.0.0.1", 0))

    def serve():
        conn, _ = listener.accept()
        with conn:
            conn.settimeout(5)
            data = b""
            while b"\r\n\r\n" not in data:
                data += conn.recv(4096)
            conn.sendall(answer)
            conn.shutdown(socket.SHUT_WR)
            while chunk := conn.recv(4096):
                data += chunk
        thread.received = data

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    return listener, thread


@pytest.mark.parametrize("answer", [
    pytest.param(b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
                 b"2\r\n{}\r\n0\r\n\r\n", id="chunked"),
    pytest.param(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n"
                 b"Content-Length: 2\r\n\r\n{}", id="two-content-lengths"),
    pytest.param(b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
                 b"\r\n{}", id="keep-alive-without-length"),
    pytest.param(b"HTTP/1.1 20", id="status-line-cut"),
])
def test_client_refuses_a_malformed_answer_once(answer):
    listener, thread = serve_once(answer)
    with listener:
        client = ZoneClient("http://127.0.0.1:%d" % listener.getsockname()[1])
        with pytest.raises(TransportError):
            client.put("/home/f", b"once")
        thread.join(5)
        assert not thread.is_alive()  # the client closed its socket
        assert thread.received.count(b"PUT /data/home/f ") == 1
        listener.setblocking(False)
        with pytest.raises(BlockingIOError):  # and opened no other
            listener.accept()


def test_client_reads_headers_in_any_case_and_a_body_to_close():
    listener, thread = serve_once(b"HTTP/1.1 200 OK\r\nx-checksum: abc\r\n"
                                  b"connection: close\r\n\r\n{\"a\": 1}")
    with listener:
        client = ZoneClient("http://127.0.0.1:%d" % listener.getsockname()[1])
        response = client._request("GET", "/ping")
        assert response.json() == {"a": 1}
        assert response.headers["X-Checksum"] == "abc"
        assert response.headers.get("X-CHECKSUM") == "abc"
        thread.join(5)
        assert not thread.is_alive()  # a closing answer closes the socket


def test_client_sends_no_request_it_cannot_frame():
    listener = socket.create_server(("127.0.0.1", 0))
    with listener:
        client = ZoneClient("http://127.0.0.1:%d" % listener.getsockname()[1])
        with pytest.raises(ValueError):
            client._request("GET", "/runs/x\r\nX: y")
        client.token = "t\r\nX-Injected: 1"
        with pytest.raises(ValueError):
            client.ping()
        listener.setblocking(False)
        with pytest.raises(BlockingIOError):  # not even a connection
            listener.accept()


def test_client_sends_an_id_as_one_path_segment(gw):
    seen = []
    route = gw.route

    def record(method, path, query, body, headers):
        seen.append((path, headers.get("X")))
        return route(method, path, query, body, headers)

    gw.route = record
    client = ZoneClient(gw.url)
    client.login(ADMIN, ADMIN_SECRET)
    with pytest.raises(ClientError) as missing:
        client.run_record("x\r\nX: y")
    assert (missing.value.status, missing.value.error) == (404, "NoSuchRun")
    assert missing.value.detail == "x\r\nX: y"  # the id, whole
    assert seen[-1] == ("/runs/x%0D%0AX%3A%20y", None)


@pytest.fixture
def no_proxy_env(monkeypatch):
    for name in ("HTTP_PROXY", "HTTPS_PROXY", "ALL_PROXY", "NO_PROXY"):
        monkeypatch.delenv(name, raising=False)
        monkeypatch.delenv(name.lower(), raising=False)
    return monkeypatch


def test_netrc_entry_does_not_replace_bearer_token(gw, no_proxy_env,
                                                    tmp_path):
    netrc = tmp_path / ".netrc"
    netrc.write_text("machine 127.0.0.1 login bob password x\n")
    netrc.chmod(0o600)
    no_proxy_env.setenv("HOME", str(tmp_path))
    no_proxy_env.setenv("NETRC", str(netrc))
    client = ZoneClient(gw.url)
    client.login(ADMIN, ADMIN_SECRET)
    assert client.list_collection("/home")["path"] == "/home"


def test_proxies_resolved_once_at_construction(gw, no_proxy_env,
                                               dead_url):
    # zone.invalid never resolves: the ping arrives only through the
    # proxy, here the live gateway, which answers an absolute URL.
    no_proxy_env.setenv("HTTP_PROXY", gw.url)
    client = ZoneClient("http://zone.invalid:1")
    # The environment is not read again per request: were it, this ping
    # would go to the dead proxy.
    no_proxy_env.setenv("HTTP_PROXY", dead_url)
    assert client.ping()["zone"]
    no_proxy_env.delenv("HTTP_PROXY")
    assert client.ping()["zone"]


def test_no_proxy_bypasses_a_dead_proxy(gw, no_proxy_env, dead_url):
    no_proxy_env.setenv("HTTP_PROXY", dead_url)
    no_proxy_env.setenv("NO_PROXY", "127.0.0.1")
    client = ZoneClient(gw.url)
    assert client.ping()["zone"]
    no_proxy_env.delenv("NO_PROXY")  # too late to send it to the proxy
    assert client.ping()["zone"]
    with pytest.raises(TransportError):
        ZoneClient(gw.url).ping()


def test_proxy_credentials_go_to_the_proxy(gw, no_proxy_env):
    seen = []
    route = gw.route

    def record(method, path, query, body, headers):
        seen.append(headers.get("Proxy-Authorization"))
        return route(method, path, query, body, headers)

    gw.route = record
    host, port = gw.address
    no_proxy_env.setenv("HTTP_PROXY", f"http://ada:p%40ss@{host}:{port}")
    assert ZoneClient("http://zone.invalid:1").ping()["zone"]
    assert seen == ["Basic " + base64.b64encode(b"ada:p@ss").decode()]


def openssl(*args, cwd):
    subprocess.run(["openssl", *args], cwd=cwd, check=True,
                   capture_output=True, timeout=CLI_TIMEOUT)


@pytest.fixture
def tls_gw(tmp_path, no_proxy_env):
    """A gateway serving TLS with a certificate for 127.0.0.1 signed by a
    fresh CA; yields its URL and the CA's certificate file."""
    if shutil.which("openssl") is None:
        pytest.skip("needs the openssl command")
    no_proxy_env.delenv("SSL_CERT_DIR", raising=False)
    curve = ("-newkey", "ec", "-pkeyopt", "ec_paramgen_curve:prime256v1",
             "-nodes")
    openssl("req", "-x509", *curve, "-keyout", "ca.key", "-out", "ca.pem",
            "-days", "2", "-subj", "/CN=pgzone test CA",
            "-addext", "basicConstraints=critical,CA:TRUE",
            "-addext", "keyUsage=critical,keyCertSign,cRLSign", cwd=tmp_path)
    openssl("req", *curve, "-keyout", "leaf.key", "-out", "leaf.csr",
            "-subj", "/CN=127.0.0.1", cwd=tmp_path)
    (tmp_path / "leaf.ext").write_text(
        "subjectAltName = IP:127.0.0.1\n"
        "basicConstraints = critical, CA:FALSE\n"
        "keyUsage = critical, digitalSignature\n"
        "extendedKeyUsage = serverAuth\n"
        "authorityKeyIdentifier = keyid\n"
        "subjectKeyIdentifier = hash\n")
    openssl("x509", "-req", "-in", "leaf.csr", "-CA", "ca.pem", "-CAkey",
            "ca.key", "-CAcreateserial", "-days", "2", "-extfile",
            "leaf.ext", "-out", "leaf.pem", cwd=tmp_path)
    context = ssl.create_default_context(ssl.Purpose.CLIENT_AUTH)
    context.load_cert_chain(tmp_path / "leaf.pem", tmp_path / "leaf.key")
    zone = make_zone()
    server = GatewayServer(zone, host="127.0.0.1", port=0).start()
    listener = context.wrap_socket(socket.create_server(("127.0.0.1", 0)),
                                   server_side=True)
    stop, relays = threading.Event(), []

    def accept():
        # Each TLS connection is relayed, decrypted, to the gateway.
        while not stop.is_set():
            try:
                tls, _ = listener.accept()
            except OSError:  # the client refused the certificate, or stop
                continue
            plain = socket.create_connection(server.address)
            relays.append(threading.Thread(target=relay, args=(tls, plain)))
            relays[-1].start()

    acceptor = threading.Thread(target=accept)
    acceptor.start()
    host, port = listener.getsockname()
    yield f"https://{host}:{port}", tmp_path / "ca.pem"
    server.shutdown()  # which ends each relay
    stop.set()
    listener.shutdown(socket.SHUT_RDWR)  # wakes the accept
    listener.close()
    for thread in [acceptor, *relays]:
        thread.join(10)
    zone.close()


def relay(a, b):
    """Copy bytes both ways between sockets a and b until either ends."""
    with a, b:
        try:
            while True:
                ready = [a] if a.pending() else \
                    select.select([a, b], [], [])[0]
                for src in ready:
                    data = src.recv(65536)
                    if not data:
                        return
                    (b if src is a else a).sendall(data)
        except OSError:
            return


def test_https_verifies_the_server_certificate(tls_gw, tmp_path,
                                               no_proxy_env):
    url, ca = tls_gw
    no_proxy_env.setenv("SSL_CERT_FILE", str(tmp_path / "no-such-ca.pem"))
    with pytest.raises(TransportError, match="CERTIFICATE_VERIFY_FAILED"):
        ZoneClient(url).ping()
    no_proxy_env.setenv("SSL_CERT_FILE", str(ca))  # read at construction
    client = ZoneClient(url)
    client.login(ADMIN, ADMIN_SECRET)
    client.put("/home/f", b"sealed")
    assert client.get("/home/f") == b"sealed"


def test_server_closed_idle_connection_is_replaced(gw, admin_client,
                                                    monkeypatch):
    """The server hangs up after each answer, with no "Connection: close"
    to warn of it; each next call notices and opens a fresh socket."""
    answer, close = gw._answer, gw._close
    hung_up = threading.Event()

    def answer_then_hang_up(conn, *args):
        answer(conn, *args)
        conn.close_after = True

    def close_and_tell(conn):
        close(conn)
        hung_up.set()

    monkeypatch.setattr(gw, "_answer", answer_then_hang_up)
    monkeypatch.setattr(gw, "_close", close_and_tell)
    for call in (admin_client.ping,
                 lambda: admin_client.put("/home/f", b"abc"),
                 lambda: admin_client.get("/home/f"),
                 admin_client.ping):
        call()
        assert hung_up.wait(5)
        hung_up.clear()
    assert admin_client.get("/home/f") == b"abc"


def test_put_cut_off_after_sending_is_not_resent(gw, admin_client,
                                                 monkeypatch):
    """A connection that dies after the server took a PUT raises
    TransportError; the PUT is not sent again, so one version is made."""
    def hang_up(conn, *args):
        conn.close_after = True  # the answer is never sent

    monkeypatch.setattr(gw, "_answer", hang_up)
    with pytest.raises(TransportError):
        admin_client.put("/home/f", b"once")
    monkeypatch.undo()
    puts = [r for r in gw.zone.catalog.records()
            if r["op"] == "object.put" and r["args"]["path"] == "/home/f"]
    assert len(puts) == 1
    assert admin_client.stat("/home/f")["version"] == 1
    assert admin_client.get("/home/f") == b"once"


def test_threads_share_one_client(gw, admin_client):
    answers, errors_seen = [], []

    def pings():
        try:
            for _ in range(200):
                answers.append(admin_client.ping()["zone"])
        except Exception as e:  # noqa: BLE001 - reported below
            errors_seen.append(e)

    threads = [threading.Thread(target=pings) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(60)
    assert errors_seen == [] and len(answers) == 400


def test_shutdown_ends_keepalive_connections(tmp_path):
    """A client that connected before the shutdown is not served after
    it: its next call fails, nothing more is journaled, and the server's
    threads have ended: the loop's (more than one if a route ran past
    HANDOFF), and the one that watches its routes."""
    zone = make_zone(journal_dir=tmp_path / "journal")
    before = set(threading.enumerate())
    gw = GatewayServer(zone, host="127.0.0.1", port=0).start()
    client = ZoneClient(gw.url)
    client.login(ADMIN, ADMIN_SECRET)
    client.put("/home/g", b"before")
    served_by = set(threading.enumerate()) - before  # the server's threads
    assert {t.name for t in served_by} == {"pgzone-gateway",
                                           "pgzone-gateway-watch"}
    gw.shutdown()
    assert not any(t.is_alive() for t in served_by)
    journaled = len(zone.catalog.records())
    with pytest.raises(TransportError):
        client.ping()
    with pytest.raises(TransportError):
        client.put("/home/g", b"after")
    assert len(zone.catalog.records()) == journaled
    zone.close()
    reopened = make_zone(journal_dir=tmp_path / "journal")
    assert reopened.catalog.get_object("/home/g").version == 1
    reopened.close()


def test_shutdown_lets_a_request_in_flight_answer(gw, admin_client,
                                                  monkeypatch):
    entered, release = threading.Event(), threading.Event()
    route = gw.route

    def held_route(method, *args):
        if method == "PUT":
            entered.set()
            release.wait(10)
        return route(method, *args)

    monkeypatch.setattr(gw, "route", held_route)
    answers = []
    put = threading.Thread(
        target=lambda: answers.append(admin_client.put("/home/f", b"x")))
    put.start()
    assert entered.wait(5)
    with ZoneClient(gw.url) as other:  # the held route keeps a thread
        start = time.monotonic()
        assert other.ping()["zone"]
        assert time.monotonic() - start < 0.5
    stopper = threading.Thread(target=gw.shutdown)
    stopper.start()
    stopper.join(0.3)
    assert stopper.is_alive()  # it waits for the request in flight
    release.set()
    put.join(10)
    stopper.join(10)
    assert not stopper.is_alive()
    assert answers and answers[0]["version"] == 1
    with pytest.raises(TransportError):
        admin_client.ping()


def test_refused_connection_is_a_transport_error(tmp_path, dead_url):
    with ZoneClient(dead_url) as client, pytest.raises(TransportError):
        client.ping()
    assert main(["--server", dead_url, "--token-file", str(tmp_path / "t"),
                 "ping"]) == 3


def test_client_needs_an_http_url(tmp_path):
    for url in ("ftp://127.0.0.1:1", "127.0.0.1:8442", "http://h:port"):
        with pytest.raises(TransportError):
            ZoneClient(url)
        assert main(["--server", url, "--token-file", str(tmp_path / "t"),
                     "ping"]) == 3


def test_gateway_imports_no_third_party_http_library():
    code = ("import sys, pgzone.gateway, pgzone.gateway.cli; "
            "assert 'requests' not in sys.modules, 'requests imported'")
    subprocess.run([sys.executable, "-c", code], env=cli_env(), check=True,
                   timeout=CLI_TIMEOUT)


def test_login_with_a_name_ending_in_a_newline_is_audited_as_malformed():
    zone = make_zone()
    try:
        with pytest.raises(errors.BadCredentials):
            SessionStore(zone.catalog).login("admin\n", ADMIN_SECRET)
        failed = [(e.actor, e.detail)
                  for e in zone.catalog.audit_query(ADMIN, event="login")]
        assert failed == [("-", "failed: malformed user name")]
    finally:
        zone.close()


class _OpenCatalog:
    """Accepts every secret and keeps no audit trail."""

    def verify_secret(self, user, secret):
        return True

    def audit_append(self, actor, event, detail):
        pass


def test_session_lookup_among_many_sessions(monkeypatch):
    store = SessionStore(_OpenCatalog())
    tokens = [(store.login(f"u{i % 97}", "pw").token, f"u{i % 97}")
              for i in range(10_000)]
    for token, user in tokens[::499] + tokens[-1:]:
        assert store.authenticate(token) == user
    monkeypatch.setattr(sessions, "TOKEN_TTL_US", 0)
    token = store.login("u0", "pw").token  # expired on arrival
    for bad in (token, tokens[0][0][:-1] + "x", "", None):
        with pytest.raises(errors.BadCredentials):
            store.authenticate(bad)
    assert len(store._sessions) == 10_000  # the lookup dropped it
    assert store.authenticate(tokens[1235][0]) == tokens[1235][1]


def test_expired_sessions_do_not_pile_up(monkeypatch):
    monkeypatch.setattr(sessions, "TOKEN_TTL_US", 0)  # expired on arrival
    store = SessionStore(_OpenCatalog())
    tokens = [store.login("u", "pw").token for _ in range(5000)]
    with pytest.raises(errors.BadCredentials):
        store.authenticate(tokens[-1])
    assert len(store._sessions) <= 2048


# Every ZoneError subclass and the HTTP status the gateway answers it with.
ERROR_STATUS = {
    "ZoneError": 500,
    "BadCredentials": 401,
    "Denied": 403, "PermissionDenied": 403,
    "NoSuchPath": 404, "NoSuchUser": 404, "NoSuchObject": 404,
    "NoSuchResource": 404, "NoSuchRule": 404, "NoSuchWorkflow": 404,
    "NoSuchRun": 404, "NoSuchReplica": 404, "NoParent": 404,
    "UnknownDriver": 404, "UnknownPep": 404,
    "DuplicateName": 409, "DuplicateRuleName": 409,
    "DuplicateReplica": 409, "StaleInputs": 409,
    "ParseError": 400, "MalformedPredicate": 400, "BadFraming": 400,
    "BadInterval": 400, "TimestampsDecreasing": 400, "BadBindings": 400,
    "KindMismatch": 400, "NotAStreamCollection": 400,
    "NotAWorkflowCollection": 400, "EvalError": 400,
    "UnboundVariable": 400, "TypeMismatch": 400, "DivisionByZero": 400,
    "FetchFailed": 502,
    "ChecksumMismatch": 500, "AllReplicasSuspect": 500,
    "CorruptJournal": 500, "EngineError": 500,
    "DriverError": 500, "NoSuchRef": 500, "Unsupported": 500,
}


def test_error_status_table_covers_every_zone_error():
    classes = {name for name, cls in vars(errors).items()
               if isinstance(cls, type) and issubclass(cls, errors.ZoneError)}
    assert classes == set(ERROR_STATUS)


@pytest.mark.parametrize("name", sorted(ERROR_STATUS))
def test_error_http_status(name):
    assert getattr(errors, name).http_status == ERROR_STATUS[name]


def test_fetch_failed_keeps_upstream_status_apart():
    e = errors.FetchFailed("GET x -> 404", 404)
    assert (e.status, e.http_status) == (404, 502)


def test_unknown_route_is_404(gw, admin_client):
    with pytest.raises(ClientError) as exc:
        admin_client._json("GET", "/no/such/route")
    assert exc.value.status == 404


# ---------------------------------------------------------------------------
# Data plane
# ---------------------------------------------------------------------------

def test_put_get_stat_remove_round_trip(gw, admin_client):
    body = bytes(range(256))
    info = admin_client.put("/home/blob.bin", body)
    assert info["version"] == 1
    assert admin_client.get("/home/blob.bin") == body
    stat = admin_client.stat("/home/blob.bin")
    assert stat["size"] == 256 and len(stat["replicas"]) == 1
    admin_client.remove("/home/blob.bin")
    with pytest.raises(ClientError) as exc:
        admin_client.get("/home/blob.bin")
    assert exc.value.status == 404


def test_get_sets_checksum_header(gw, admin_client):
    admin_client.put("/home/f", b"abc")
    resp = admin_client._request("GET", "/data/home/f")
    import hashlib
    assert resp.headers["X-Checksum"] == \
        "sha256:" + hashlib.sha256(b"abc").hexdigest()


def test_checksum_header_names_the_bytes_sent(gw, admin_client):
    """A put that lands while a GET runs must not change that GET's
    X-Checksum: the header names the bytes of the body it came with."""
    admin_client.put("/home/f", b"old bytes")
    engine = gw.zone.engine
    get = engine.get
    putters = []

    def get_then_put(actor, path):
        data = get(actor, path)
        # A put of the same path from another thread, given time to land
        # before the gateway looks up the checksum.
        putter = threading.Thread(target=engine.put,
                                  args=(ADMIN, path, b"new bytes"))
        putter.start()
        putters.append(putter)
        putter.join(0.5)
        return data

    engine.get = get_then_put
    try:
        resp = admin_client._request("GET", "/data/home/f")
    finally:
        del engine.get
        for putter in putters:
            putter.join(10)
    assert putters and not putters[0].is_alive()
    assert resp.content == b"old bytes"
    assert resp.headers["X-Checksum"] == \
        "sha256:" + hashlib.sha256(resp.content).hexdigest()
    assert admin_client.get("/home/f") == b"new bytes"


def test_names_with_colon_round_trip(gw, admin_client):
    """ZoneClient sends a ':' in a logical name as %3A, so it is part of
    the name and never read as a verb."""
    info = admin_client.put("/home/x:stat", b"colon")
    assert info["path"] == "/home/x:stat"
    assert admin_client.get("/home/x:stat") == b"colon"
    assert admin_client.stat("/home/x:stat")["path"] == "/home/x:stat"
    gw.zone.engine.put(ADMIN, "/home/y:stat", b"why")
    gw.zone.engine.put(ADMIN, "/home/y", b"not this one")
    assert admin_client.get("/home/y:stat") == b"why"
    assert admin_client.stat("/home/y:stat")["size"] == 3


def test_known_verb_with_wrong_method_is_no_such_path(gw, admin_client):
    admin_client.put("/home/f", b"abc")
    with pytest.raises(ClientError) as exc:
        admin_client._json("GET", "/data/home/f:replicate")
    assert (exc.value.status, exc.value.error) == (404, "NoSuchPath")


def test_permission_errors_are_403(gw, admin_client):
    uc = user_client(gw)
    admin_client.put("/home/secret", b"x")
    with pytest.raises(ClientError) as exc:
        uc.get("/home/secret")
    assert exc.value.status == 403
    assert exc.value.error == "PermissionDenied"


def test_policy_deny_is_403_with_reason(gw, admin_client):
    uc = user_client(gw)
    admin_client.add_rules(
        'rule wall on pep.data.put.pre when $user.role != "admin" '
        'do deny("writes are closed")')
    with pytest.raises(ClientError) as exc:
        uc.put("/home/u/f", b"x")
    assert exc.value.status == 403
    assert "writes are closed" in exc.value.detail


def test_conflict_is_409(gw, admin_client):
    admin_client.make_collection("/home/d")
    with pytest.raises(ClientError) as exc:
        admin_client.make_collection("/home/d")
    assert exc.value.status == 409


def test_malformed_rule_is_400(gw, admin_client):
    with pytest.raises(ClientError) as exc:
        admin_client.add_rules("rule rule rule")
    assert exc.value.status == 400
    assert exc.value.error == "ParseError"


JUNK = ([], {}, 7, None, True, [["a"]])


def post_json(conn, route, token, body) -> tuple[int, str]:
    """POST body as JSON on a bare http.client connection, bypassing
    ZoneClient's argument handling; the answer's status and text."""
    conn.request("POST", route, json.dumps(body),
                 {"Authorization": f"Bearer {token}",
                  "Content-Type": "application/json"})
    answer = conn.getresponse()
    return answer.status, answer.read().decode("utf-8", "replace")


def test_malformed_json_fields_are_4xx_and_never_journaled(tmp_path):
    """Junk in place of any field of a JSON body answers 4xx and stores
    nothing, so queries still answer and the zone reopens to the same
    state. {} stays valid for the fields that take an object, and 7 for
    the ones that take a count."""
    journal = tmp_path / "journal"
    zone = make_zone(journal_dir=journal)
    zone.allow_dynamic_code = True
    add_user(zone, "u")
    zone.engine.put(ADMIN, "/home/u/f", b"x")
    zone.catalog.make_collection(ADMIN, "/proj", kind="workflow")
    server = GatewayServer(zone, host="127.0.0.1", port=0).start()
    try:
        admin = ZoneClient(server.url)
        admin.login(ADMIN, ADMIN_SECRET)
        wid = admin.attach_workflow(
            "/proj", 'procedure p() { audit_msg("x") }')["id"]
        rid = admin.run(wid, {})["run_id"]
        bodies = {
            "/login": {"user": ADMIN, "secret": ADMIN_SECRET},
            "/data/home/u/f:replicate": {"resource": "main"},
            "/data/home/u/f:stage": {"resource": "main"},
            "/data/home/u/f:archive": {"resource": "main"},
            "/collections": {"path": "/home/u/c", "kind": "plain"},
            "/meta": {"path": "/home/u", "name": "n", "value": "v",
                      "comment": "c"},
            "/rules": {"text": "rule r on pep.data.get.pre do allow()"},
            "/users": {"name": "x", "role": "user", "secret": "s"},
            "/groups": {"user": "u", "group": "g"},
            "/acl": {"path": "/home/u", "principal": "u", "perm": "read"},
            "/resources": {"name": "r", "driver": "mem", "root": "/r",
                           "kind": "cache"},
            "/workflows": {"coll": "/proj",
                           "source": 'procedure q() { audit_msg("y") }'},
            "/runs": {"workflow_id": wid, "bindings": {}},
            f"/runs/{rid}:rerun": {"overrides": {}},
            "/microservices": {"name": "m", "code": MS_CODE, "min_args": 2,
                               "max_args": 2},
            "/drivers": {"name": "d", "code": DRIVER_CODE},
        }
        answers = {}
        conn = http.client.HTTPConnection(*server.address)
        try:
            for route, body in bodies.items():
                for field, good in body.items():
                    for junk in JUNK:
                        if isinstance(good, dict) and junk == {} or \
                                isinstance(good, int) and junk == 7:
                            continue
                        answers[route, field, json.dumps(junk)] = post_json(
                            conn, route, admin.token,
                            {**body, field: junk})[0]
        finally:
            conn.close()
        assert {pair: status for pair, status in answers.items()
                if not 400 <= status < 500} == {}
        assert admin.meta_query('name like "*"') == []
        digest = zone.catalog.data_state_digest()
    finally:
        server.shutdown()
        zone.close()
    reopened = make_zone(journal_dir=journal)
    try:
        assert reopened.catalog.data_state_digest() == digest
    finally:
        reopened.close()


def test_replicate_verify_over_http(gw, admin_client):
    from pgzone.common import SYSTEM
    gw.zone.ensure_resource(SYSTEM, "r2", "mem", "/blobs/r2", "cache")
    admin_client.put("/home/f", b"data")
    info = admin_client.replicate("/home/f", "r2")
    assert sorted(r["resource"] for r in info["replicas"]) == ["main", "r2"]
    assert admin_client.verify("/home/f") == {
        "replicas": [{"resource": "main", "status": "good"},
                     {"resource": "r2", "status": "good"}]}


# ---------------------------------------------------------------------------
# Rules, metadata, collections over the wire
# ---------------------------------------------------------------------------

def test_rule_lifecycle_over_http(gw, admin_client):
    added = admin_client.add_rules(
        'rule r1 on pep.data.get.pre do allow()')
    assert added["added"] == ["r1"]
    names = [r["name"] for r in admin_client.rules()["rules"]]
    assert names == ["r1"]
    admin_client.remove_rule("r1")
    assert admin_client.rules()["rules"] == []


def test_rule_management_needs_admin(gw, admin_client):
    uc = user_client(gw)
    with pytest.raises(ClientError) as exc:
        uc.add_rules('rule r on pep.data.get.pre do allow()')
    assert exc.value.status == 403


def test_meta_and_query_over_http(gw, admin_client):
    admin_client.put("/home/f", b"x")
    admin_client.meta_add("/home/f", "color", "teal")
    listed = admin_client.meta_list("/home/f")
    assert listed["triples"] == [
        {"attr_name": "color", "attr_value": "teal", "attr_comment": ""}]
    assert admin_client.meta_query('name = "color"') == ["/home/f"]
    with pytest.raises(ClientError) as exc:
        admin_client.meta_query("name ~~~")
    assert exc.value.status == 400


def test_collections_over_http(gw, admin_client):
    admin_client.make_collection("/home/d")
    admin_client.put("/home/d/f", b"x")
    listing = admin_client.list_collection("/home/d")
    assert listing == {"path": "/home/d", "kind": "plain", "owner": ADMIN,
                       "collections": [], "objects": ["/home/d/f"]}


def test_users_groups_acl_over_http(gw, admin_client):
    admin_client.create_user("ada", "user", "s3cret")
    admin_client.make_collection("/home/ada")
    admin_client.set_acl("/home/ada", "ada", "own")
    ac = ZoneClient(gw.url)
    ac.login("ada", "s3cret")
    ac.put("/home/ada/f", b"hers")
    assert ac.get("/home/ada/f") == b"hers"


def test_audit_admin_only_over_http(gw, admin_client):
    uc = user_client(gw)
    assert any(e["event"] == "login" for e in admin_client.audit())
    with pytest.raises(ClientError) as exc:
        uc.audit()
    assert exc.value.status == 403


# ---------------------------------------------------------------------------
# Streams and workflows over the wire
# ---------------------------------------------------------------------------

def test_stream_over_http(gw, admin_client):
    from pgzone.streams import pack_records, parse_segment
    admin_client.make_collection("/home/s", kind="stream")
    seg = pack_records([(5, b"a"), (9, b"bb")])
    info = admin_client.stream_ingest("/home/s", seg)
    assert info["count"] == 2 and info["segment_id"] == 1
    assert parse_segment(admin_client.stream_read("/home/s", 0, 9)) == \
        [(5, b"a")]
    assert admin_client.stream_stat("/home/s") == {
        "segments": 1, "records": 2, "t_min": 5, "t_max": 9}


def test_workflow_over_http(gw, admin_client):
    admin_client.make_collection("/home/w", kind="workflow")
    wf = admin_client.attach_workflow("/home/w", '''
        procedure put_n($n) { put_int($n, "out.txt") }
    ''')
    rec = admin_client.run(wf["id"], {"n": 12})
    assert rec["status"] == "ok"
    assert admin_client.get("/home/w/out.txt") == b"12"
    rec2 = admin_client.rerun(rec["run_id"], {"n": 13})
    diff = admin_client.diff_runs(rec["run_id"], rec2["run_id"])
    assert diff["outputs"]["differing"] == ["/home/w/out.txt"]
    assert admin_client.run_record(rec["run_id"])["bindings"] == {"n": 12}


# ---------------------------------------------------------------------------
# Dynamic code upload
# ---------------------------------------------------------------------------

MS_CODE = '''
def ms(ctx, path, suffix):
    ctx.engine.catalog.add_avu(ctx.actor, ctx.resolve(path),
                               "tagged", suffix)
    return ""
'''

def test_dynamic_code_disabled_by_default(gw, admin_client):
    with pytest.raises(ClientError) as exc:
        admin_client.register_microservice("tagger", MS_CODE, 2, 2)
    assert exc.value.status == 403
    with pytest.raises(ClientError) as exc:
        admin_client.register_driver("dyn", DRIVER_CODE)
    assert exc.value.status == 403


@pytest.fixture
def dyn_gw():
    zone = make_zone()
    zone.allow_dynamic_code = True
    server = GatewayServer(zone, host="127.0.0.1", port=0).start()
    yield server
    server.shutdown()
    zone.close()


def test_dynamic_microservice_and_driver(dyn_gw):
    c = ZoneClient(dyn_gw.url)
    c.login(ADMIN, ADMIN_SECRET)
    c.register_microservice("tagger", MS_CODE, 2, 2)
    c.add_rules('rule tag on pep.data.put.post do '
                'tagger($obj.path, "via-rule")')
    c.register_driver("dyn", DRIVER_CODE)
    c.register_resource("dynres", "dyn", "/blobs/dyn", "cache")
    c.put("/home/f", b"x", resource="dynres")
    triples = c.meta_list("/home/f")["triples"]
    assert triples[0]["attr_value"] == "via-rule"


def test_dynamic_code_requires_admin(dyn_gw):
    uc = user_client(dyn_gw)
    with pytest.raises(ClientError) as exc:
        uc.register_microservice("evil", MS_CODE, 2, 2)
    assert exc.value.status == 403


@pytest.mark.parametrize("counts", [
    {"min_args": -1}, {"min_args": 1, "max_args": -1},
    {"min_args": 3, "max_args": 2}, {"min_args": 2.0}, {"max_args": "2"}])
def test_microservice_arity_must_be_counts(dyn_gw, counts):
    c = ZoneClient(dyn_gw.url)
    c.login(ADMIN, ADMIN_SECRET)
    conn = http.client.HTTPConnection(*dyn_gw.address)
    try:
        status, text = post_json(conn, "/microservices", c.token,
                                 {"name": "m", "code": MS_CODE, **counts})
    finally:
        conn.close()
    assert status == 400, text
    c.register_microservice("m", MS_CODE, 2)  # the name is still free


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

SRC = Path(__file__).resolve().parent.parent / "src"
CLI_TIMEOUT = 60  # seconds for one `pg` command or for the server to start


def cli_env(**pg_vars):
    """Environment for a `pg` child: the given PG_* settings, PATH, and
    this checkout's src first on PYTHONPATH, so the child imports the
    pgzone under test without an installed package. Nothing else is
    passed on, so the developer's own PG_* settings do not leak in."""
    pythonpath = [str(SRC)]
    if os.environ.get("PYTHONPATH"):
        pythonpath.append(os.environ["PYTHONPATH"])
    return {**pg_vars, "PATH": "/usr/bin:/bin",
            "PYTHONPATH": os.pathsep.join(pythonpath)}


def read_line(proc, timeout):
    """First line of proc's stdout, or "" if none arrives in timeout s."""
    lines = []
    reader = threading.Thread(
        target=lambda: lines.append(proc.stdout.readline()), daemon=True)
    reader.start()
    reader.join(timeout)
    return lines[0] if lines else ""


def serve_url(proc):
    """The URL a `pg serve` child prints on its first line."""
    line = read_line(proc, CLI_TIMEOUT)
    assert " listening on " in line, line
    return line.split(" listening on ", 1)[1].strip()


def test_cli_against_live_server(tmp_path):
    env = cli_env(
        PG_ADMIN_SECRET=ADMIN_SECRET,
        PG_BIND_PORT="0",
        PG_TOKEN_FILE=str(tmp_path / "token"),
        PG_JOURNAL_DIR=str(tmp_path / "journal"),
        PG_DATA_ROOT=str(tmp_path / "blobs"),
    )
    server = subprocess.Popen(
        [sys.executable, "-m", "pgzone.gateway.cli", "serve"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    try:
        env["PG_SERVER"] = serve_url(server)

        def pg(*args):
            return subprocess.run(
                [sys.executable, "-m", "pgzone.gateway.cli", *args],
                env=env, capture_output=True, text=True, timeout=CLI_TIMEOUT)

        assert pg("login", ADMIN, "--secret", ADMIN_SECRET).returncode == 0
        src = tmp_path / "payload.bin"
        src.write_bytes(b"cli payload")
        assert pg("mkdir", "/d").returncode == 0
        assert pg("put", "/d/f", str(src)).returncode == 0
        out = pg("get", "/d/f", str(tmp_path / "back.bin"))
        assert out.returncode == 0
        assert (tmp_path / "back.bin").read_bytes() == b"cli payload"
        ls = pg("ls", "/d")
        assert ls.returncode == 0 and "/d/f" in ls.stdout

        # Policy denial maps to its own exit code.
        rule_file = tmp_path / "wall.rule"
        rule_file.write_text(
            'rule wall on pep.data.remove.pre do deny("no")\n')
        assert pg("rule", "add", str(rule_file)).returncode == 0
        denied = pg("rm", "/d/f")
        assert denied.returncode == 2
        assert pg("rule", "rm", "wall").returncode == 0
        assert pg("rm", "/d/f").returncode == 0

        # Unknown object is a plain error.
        assert pg("get", "/d/missing", str(tmp_path / "x")).returncode == 1
    finally:
        server.terminate()
        try:
            server.wait(timeout=10)
        except subprocess.TimeoutExpired:
            server.kill()
            server.wait()
        server.stdout.close()


def test_serve_stops_cleanly_on_sigterm(tmp_path):
    """kill, docker stop and systemd send SIGTERM: `pg serve` shuts the
    gateway down and closes the zone, as on Ctrl-C, and exits 0."""
    env = cli_env(
        PG_ADMIN_SECRET=ADMIN_SECRET,
        PG_BIND_PORT="0",
        PG_JOURNAL_DIR=str(tmp_path / "journal"),
        PG_DATA_ROOT=str(tmp_path / "blobs"),
    )
    server = subprocess.Popen(
        [sys.executable, "-m", "pgzone.gateway.cli", "serve"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    try:
        with ZoneClient(serve_url(server)) as client:
            client.login(ADMIN, ADMIN_SECRET)
            client.put("/home/f", b"kept")
            server.terminate()
            assert server.wait(timeout=CLI_TIMEOUT) == 0
    finally:
        if server.poll() is None:
            server.kill()
            server.wait()
        server.stdout.close()
    with Zone(journal_dir=tmp_path / "journal") as zone:
        assert zone.catalog.get_object("/home/f").version == 1


def test_cli_transport_error_exit_code(tmp_path, dead_url):
    env = cli_env(
        PG_SERVER=dead_url,
        PG_TOKEN_FILE=str(tmp_path / "token"),
    )
    r = subprocess.run(
        [sys.executable, "-m", "pgzone.gateway.cli", "ping"],
        env=env, capture_output=True, text=True, timeout=CLI_TIMEOUT)
    assert r.returncode == 3


def test_config_precedence(tmp_path):
    cfg = tmp_path / "gw.conf"
    cfg.write_text("bind_port = 1234\nzone_name = filezone\n")
    c1 = GatewayConfig.load(cfg, env={})
    assert c1.bind_port == 1234 and c1.zone_name == "filezone"
    c2 = GatewayConfig.load(cfg, env={"PG_BIND_PORT": "4321"})
    assert c2.bind_port == 4321 and c2.zone_name == "filezone"
    c3 = GatewayConfig.load(None, env={"PG_ALLOW_DYNAMIC_CODE": "true"})
    assert c3.allow_dynamic_code is True and c3.bind_port == 8442


def test_cli_bad_credentials_exit_2(gw, tmp_path):
    """401 and 403 both exit 2, for a login and for any other command."""
    token_file = tmp_path / "token"
    token_file.write_text("garbage\n")
    base = ["--server", gw.url, "--token-file", str(token_file)]
    assert main([*base, "ls", "/"]) == 2
    assert main([*base, "login", ADMIN, "--secret", "not it"]) == 2
    assert token_file.read_text() == "garbage\n"
    assert main([*base, "login", ADMIN, "--secret", ADMIN_SECRET]) == 0
    assert main([*base, "ls", "/"]) == 0
    assert main([*base, "get", "/no/such/object", "-"]) == 1


def test_cli_usage_error_exits_1(capsys):
    """A usage error exits 1, not argparse's 2, which means 401/403."""
    assert main(["stream", "read", "/x", "0", "1", "./out.bin"]) == 1
    assert "unrecognized arguments" in capsys.readouterr().err
    with pytest.raises(SystemExit) as e:
        main(["--help"])
    assert e.value.code == 0


REPO = Path(__file__).resolve().parent.parent


def test_readme_cli_lines_parse():
    """Every `pg ...` line of README's "Use the CLI" block parses."""
    readme = (REPO / "README.md").read_text()
    block = readme.split("## Use the CLI", 1)[1]
    block = block.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("pg ")]
    assert len(lines) >= 15
    parser = build_parser()
    for line in lines:
        try:
            parser.parse_args(shlex.split(line, comments=True)[1:])
        except SystemExit:
            pytest.fail(f"README line does not parse: {line}")


def test_every_subcommand_has_help():
    """`pg --help` and each group's --help list no blank subcommand."""
    blank, todo = [], [("pg", build_parser())]
    while todo:
        words, parser = todo.pop()
        for action in parser._actions:
            if not isinstance(action, argparse._SubParsersAction):
                continue
            helps = {choice.dest: choice.help
                     for choice in action._choices_actions}
            for name, child in action.choices.items():
                if not helps.get(name):
                    blank.append(f"{words} {name}")
                todo.append((f"{words} {name}", child))
    assert blank == []


def test_api_doc_uploads_the_tested_driver():
    """docs/api.md's driver upload example is DRIVER_CODE, the driver the
    tests upload and run through the conformance suite."""
    assert DRIVER_CODE.strip() in (REPO / "docs" / "api.md").read_text()


def test_api_doc_lists_the_route_table():
    """docs/api.md's "Routes" list equals the server's table, in order."""
    from pgzone.gateway.server import OPEN_ROUTES, ROUTES

    doc = (REPO / "docs" / "api.md").read_text()
    section = doc.split("\n## Routes\n", 1)[1].split("\n## ", 1)[0]
    rows = [tuple(cell.strip() for cell in line.strip("|").split("|"))
            for line in section.splitlines() if line.startswith("| ")]
    assert rows[0] == ("Method", "Path pattern", "Verb", "Token")
    assert rows[1:] == [
        (method, f"`{pattern}`", f"`:{verb}`" if verb else "",
         "no" if (method, pattern) in OPEN_ROUTES else "yes")
        for method, pattern, verb, _handler in ROUTES]
