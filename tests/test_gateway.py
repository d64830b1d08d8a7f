import argparse
import base64
import hashlib
import http.client
import json
import os
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
from pgzone.gateway.cli import build_parser, main
from pgzone.gateway.client import ClientError, TransportError, ZoneClient
from pgzone.gateway.config import GatewayConfig
from pgzone.gateway.server import MAX_BODY, GatewayServer
from pgzone.gateway.sessions import SessionStore
from pgzone.testing import free_port
from pgzone.zone import Zone

from conftest import ADMIN, ADMIN_SECRET, DRIVER_CODE, add_user, make_zone


@pytest.fixture
def gw():
    zone = make_zone()
    server = GatewayServer(zone, host="127.0.0.1", port=free_port()).start()
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
    server = GatewayServer(zone, host="127.0.0.1", port=free_port()).start()
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


def test_expired_token_is_rejected(gw, admin_client):
    gw.sessions.expire_now(admin_client.token)
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


def test_proxies_resolved_once_at_construction(gw, no_proxy_env):
    # zone.invalid never resolves: the ping arrives only through the
    # proxy, here the live gateway, which answers an absolute URL.
    no_proxy_env.setenv("HTTP_PROXY", gw.url)
    client = ZoneClient("http://zone.invalid:1")
    # The environment is not read again per request: were it, this ping
    # would go to the dead proxy.
    no_proxy_env.setenv("HTTP_PROXY", f"http://127.0.0.1:{free_port()}")
    assert client.ping()["zone"]
    no_proxy_env.delenv("HTTP_PROXY")
    assert client.ping()["zone"]


def test_no_proxy_bypasses_a_dead_proxy(gw, no_proxy_env):
    no_proxy_env.setenv("HTTP_PROXY", f"http://127.0.0.1:{free_port()}")
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
    server = GatewayServer(zone, host="127.0.0.1", port=0)
    server.httpd.socket = context.wrap_socket(server.httpd.socket,
                                              server_side=True)
    server.start()
    host, port = server.address
    yield f"https://{host}:{port}", tmp_path / "ca.pem"
    server.shutdown()
    zone.close()


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
    handler = gw.httpd.RequestHandlerClass
    respond = handler._respond
    hung_up = threading.Event()

    def respond_then_hang_up(self, *args):
        respond(self, *args)
        self.close_connection = True

    shutdown_request = gw.httpd.shutdown_request

    def close_and_tell(request):
        shutdown_request(request)
        hung_up.set()

    monkeypatch.setattr(handler, "_respond", respond_then_hang_up)
    monkeypatch.setattr(gw.httpd, "shutdown_request", close_and_tell)
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
    handler = gw.httpd.RequestHandlerClass

    def hang_up(self, *args):
        self.close_connection = True  # the answer is never sent

    monkeypatch.setattr(handler, "_respond", hang_up)
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
    it: its next call fails, nothing more is journaled, and the handler
    thread that served it has ended."""
    zone = make_zone(journal_dir=tmp_path / "journal")
    before = set(threading.enumerate())
    gw = GatewayServer(zone, host="127.0.0.1", port=free_port()).start()
    client = ZoneClient(gw.url)
    client.login(ADMIN, ADMIN_SECRET)
    client.put("/home/g", b"before")
    served_by = set(threading.enumerate()) - before  # the server's threads
    assert len(served_by) >= 2
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

    def held_route(*args):
        entered.set()
        release.wait(10)
        return route(*args)

    monkeypatch.setattr(gw, "route", held_route)
    answers = []
    put = threading.Thread(
        target=lambda: answers.append(admin_client.put("/home/f", b"x")))
    put.start()
    assert entered.wait(5)
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


def test_refused_connection_is_a_transport_error(tmp_path):
    url = f"http://127.0.0.1:{free_port()}"
    with ZoneClient(url) as client, pytest.raises(TransportError):
        client.ping()
    assert main(["--server", url, "--token-file", str(tmp_path / "t"),
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


def test_session_lookup_among_many_sessions():
    store = SessionStore(_OpenCatalog())
    tokens = [(store.login(f"u{i % 97}", "pw").token, f"u{i % 97}")
              for i in range(10_000)]
    for token, user in tokens[::499] + tokens[-1:]:
        assert store.authenticate(token) == user
    token, _user = tokens[1234]
    store.expire_now(token)
    for bad in (token, tokens[0][0][:-1] + "x", "", None):
        with pytest.raises(errors.BadCredentials):
            store.authenticate(bad)
    assert len(store._sessions) == 9_999  # the lookup dropped it
    assert store.authenticate(tokens[1235][0]) == tokens[1235][1]


def test_expired_sessions_do_not_pile_up():
    store = SessionStore(_OpenCatalog(), ttl_us=0)  # expired on arrival
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
    server = GatewayServer(zone, host="127.0.0.1", port=free_port()).start()
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
    server = GatewayServer(zone, host="127.0.0.1", port=free_port()).start()
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


def test_cli_against_live_server(tmp_path):
    port = free_port()
    env = cli_env(
        PG_ADMIN_SECRET=ADMIN_SECRET,
        PG_BIND_PORT=str(port),
        PG_SERVER=f"http://127.0.0.1:{port}",
        PG_TOKEN_FILE=str(tmp_path / "token"),
        PG_JOURNAL_DIR=str(tmp_path / "journal"),
        PG_DATA_ROOT=str(tmp_path / "blobs"),
    )
    server = subprocess.Popen(
        [sys.executable, "-m", "pgzone.gateway.cli", "serve"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    try:
        line = read_line(server, CLI_TIMEOUT)
        assert "listening" in line

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
    port = free_port()
    env = cli_env(
        PG_ADMIN_SECRET=ADMIN_SECRET,
        PG_BIND_PORT=str(port),
        PG_JOURNAL_DIR=str(tmp_path / "journal"),
        PG_DATA_ROOT=str(tmp_path / "blobs"),
    )
    server = subprocess.Popen(
        [sys.executable, "-m", "pgzone.gateway.cli", "serve"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    try:
        assert "listening" in read_line(server, CLI_TIMEOUT)
        with ZoneClient(f"http://127.0.0.1:{port}") as client:
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


def test_cli_transport_error_exit_code(tmp_path):
    env = cli_env(
        PG_SERVER=f"http://127.0.0.1:{free_port()}",
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
