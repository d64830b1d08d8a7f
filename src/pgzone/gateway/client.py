"""Thin HTTP client for the gateway; every method maps to one route.

Failures surface as ClientError carrying the HTTP status plus the
server's error name and detail, so callers can branch on .status or
.error without parsing text.

A client talks to one server over one keep-alive socket, with the
standard library only: http.client opens it (through a proxy or a
CONNECT tunnel, with TLS), and the client writes each request and reads
each answer itself, framed as the gateway frames them (wire.py). It does
not read the environment per request: the proxy for its server URL
(HTTP(S)_PROXY, ALL_PROXY, NO_PROXY) is resolved once, at construction,
and ~/.netrc is never consulted, since a netrc entry for the server's
host would replace the bearer token. https:// URLs are verified against
the system's CAs.
"""

from __future__ import annotations

import base64
import http.client
import json
import re
import select
import ssl
import threading
import uuid
import weakref
from typing import NamedTuple
from urllib.parse import quote, unquote, urlencode, urlsplit
from urllib.request import getproxies, proxy_bypass

from .wire import MAX_LINE, FramingError, Headers, read_head


class ClientError(Exception):
    def __init__(self, status: int, error: str, detail: str):
        super().__init__(f"{status} {error}: {detail}")
        self.status = status
        self.error = error
        self.detail = detail


class TransportError(Exception):
    """The server could not be reached at all."""


class Response(NamedTuple):
    """One answer, read whole: its status, headers and body."""

    status: int
    headers: Headers
    content: bytes

    def json(self):
        return json.loads(self.content)


def _peer_closed(sock) -> bool:
    """Whether an idle socket reads as ready, as urllib3's
    is_connection_dropped asks: the peer closed it (or sent what no
    request asked for), so it cannot carry the next request."""
    if hasattr(select, "poll"):  # select() fails on a descriptor >= 1024
        poller = select.poll()
        poller.register(sock, select.POLLIN)
        return bool(poller.poll(0))
    return bool(select.select([sock], [], [], 0)[0])


_STATUS_LINE = re.compile(rb"HTTP/1\.[01] ([0-9]{3})(?: [^\r\n]*)?\r\n")
# What may not stand in a request target or a bearer token: a blank or a
# control character would end the request line or a header line early.
_UNSENDABLE = re.compile("[\x00-\x20\x7f]")


def _read_response(rfile) -> tuple[Response, bool]:
    """One answer read whole, and whether the server closes after it."""
    line = rfile.readline(MAX_LINE + 1)
    status = _STATUS_LINE.fullmatch(line)
    if status is None:
        raise FramingError(f"malformed status line {line[:80]!r}")
    headers, length = read_head(rfile)
    close = "close" in headers.get("Connection", "").lower()
    if length is None and not close:
        raise FramingError("a keep-alive answer without Content-Length")
    content = rfile.read(length)  # up to the close when length is None
    if length is not None and len(content) != length:
        raise FramingError(f"body ended after {len(content)} of {length}")
    return Response(int(status[1]), headers, content), close


def _connect(server: str, timeout: float):
    """The connection for server through the proxy the environment names
    for it now, unopened; what each request path is appended to; and
    the header lines each request carries, the proxy's among them."""
    url = urlsplit(server)
    if url.scheme not in ("http", "https") or not url.hostname:
        raise ValueError("the server URL must be http[s]://host[:port]")
    if re.search("[^\x21-\x7e]", server):
        raise ValueError("the server URL must be printable ASCII")
    lines = [f"Host: {url.netloc.rpartition('@')[2]}",
             "Accept-Encoding: identity"]
    https = url.scheme == "https"
    port = url.port or (443 if https else 80)
    kind = http.client.HTTPSConnection if https else http.client.HTTPConnection
    tls = {"context": ssl.create_default_context()} if https else {}
    proxies = getproxies()
    proxy = proxies.get(url.scheme) or proxies.get("all")
    if not proxy or proxy_bypass(f"{url.hostname}:{port}"):
        conn = kind(url.hostname, port, timeout=timeout, **tls)
        return conn, url.path, lines
    purl = urlsplit(proxy if "://" in proxy else "http://" + proxy)
    if not purl.hostname:
        raise ValueError(f"proxy {proxy!r} names no host")
    auth = {}
    if purl.username is not None:
        pair = f"{unquote(purl.username)}:{unquote(purl.password or '')}"
        auth["Proxy-Authorization"] = \
            "Basic " + base64.b64encode(pair.encode()).decode()
    conn = kind(purl.hostname, purl.port or 80, timeout=timeout, **tls)
    if https:  # a CONNECT tunnel through the proxy, TLS inside it
        conn.set_tunnel(url.hostname, port, headers=auth)
        return conn, url.path, lines
    # Plain HTTP goes to the proxy whole: an absolute URL, its own auth.
    return conn, server, lines + [f"{k}: {v}" for k, v in auth.items()]


class ZoneClient:
    def __init__(self, server: str, token: str | None = None,
                 timeout: float = 60.0):
        self.server = server.rstrip("/")
        self.token = token
        self.timeout = timeout
        try:
            self._conn, self._prefix, self._headers = _connect(
                self.server, timeout)
        except ValueError as e:  # http.client.InvalidURL among them
            raise TransportError(f"{self.server}: {e}") from e
        self._lock = threading.Lock()  # one exchange at a time on the socket
        # A dropped client closes its socket, as urllib3's pool did.
        weakref.finalize(self, self._conn.close)

    def __enter__(self) -> ZoneClient:
        return self

    def __exit__(self, *exc) -> None:
        self._conn.close()

    # -- plumbing ---------------------------------------------------------

    def _request(self, method: str, path: str, *, params=None,
                 json_body=None, data=None) -> Response:
        target = self._prefix + path
        if params:
            target += "?" + urlencode(params)
        if _UNSENDABLE.search(target) or _UNSENDABLE.search(self.token or ""):
            raise ValueError(f"{method} {path}: a blank or control character "
                             "in the request target or the token")
        lines = [f"{method} {target} HTTP/1.1", *self._headers,
                 f"X-Request-Id: {uuid.uuid4().hex}"]
        if self.token:
            lines.append(f"Authorization: Bearer {self.token}")
        if json_body is not None:
            lines.append("Content-Type: application/json")
            data = json.dumps(json_body).encode("utf-8")
        if data is not None or method in ("POST", "PUT"):
            lines.append(f"Content-Length: {len(data or b'')}")
        message = "\r\n".join(lines).encode("latin-1") + b"\r\n\r\n" \
            + (data or b"")
        conn = self._conn
        with self._lock:
            if conn.sock is not None and _peer_closed(conn.sock):
                conn.close()  # the next request opens a fresh socket
            try:
                if conn.sock is None:
                    conn.connect()
                conn.sock.sendall(message)
                with conn.sock.makefile("rb") as rfile:
                    response, close = _read_response(rfile)
            except BaseException as e:
                # Never resent: its bytes may have reached the server.
                conn.close()
                if isinstance(e, (OSError, http.client.HTTPException,
                                  FramingError)):
                    raise TransportError(f"{method} {path}: {e}") from e
                raise
            if close:
                conn.close()
        if response.status >= 400:
            try:
                payload = response.json()
            except ValueError:
                payload = {}
            raise ClientError(
                response.status, payload.get("error", "HTTPError"),
                payload.get("detail",
                            response.content[:500].decode("utf-8", "replace")))
        return response

    def _json(self, method: str, path: str, **kw) -> dict:
        return self._request(method, path, **kw).json()

    @staticmethod
    def _q(logical_path: str) -> str:
        return quote(logical_path, safe="/")

    # -- sessions ----------------------------------------------------------

    def login(self, user: str, secret: str) -> str:
        payload = self._json("POST", "/login",
                             json_body={"user": user, "secret": secret})
        self.token = payload["token"]
        return self.token

    def ping(self) -> dict:
        return self._json("GET", "/ping")

    # -- data ----------------------------------------------------------------

    def put(self, path: str, data: bytes, resource: str | None = None) -> dict:
        params = {"resource": resource} if resource else None
        return self._json("PUT", "/data" + self._q(path), params=params,
                          data=data)

    def get(self, path: str) -> bytes:
        return self._request("GET", "/data" + self._q(path)).content

    def remove(self, path: str) -> dict:
        return self._json("DELETE", "/data" + self._q(path))

    def replicate(self, path: str, resource: str) -> dict:
        return self._json("POST", "/data" + self._q(path) + ":replicate",
                          json_body={"resource": resource})

    def stage(self, path: str, resource: str) -> dict:
        return self._json("POST", "/data" + self._q(path) + ":stage",
                          json_body={"resource": resource})

    def archive(self, path: str, resource: str) -> dict:
        return self._json("POST", "/data" + self._q(path) + ":archive",
                          json_body={"resource": resource})

    def verify(self, path: str) -> dict:
        return self._json("POST", "/data" + self._q(path) + ":verify")

    def stat(self, path: str) -> dict:
        return self._json("GET", "/data" + self._q(path) + ":stat")

    # -- collections ------------------------------------------------------------

    def make_collection(self, path: str, kind: str = "plain") -> dict:
        return self._json("POST", "/collections",
                          json_body={"path": path, "kind": kind})

    def list_collection(self, path: str, marker: str | None = None,
                        limit: int | None = None) -> dict:
        params = {k: v for k, v in (("marker", marker), ("limit", limit))
                  if v is not None}
        return self._json("GET", "/collections" + self._q(path),
                          params=params)

    # -- metadata -----------------------------------------------------------

    def meta_add(self, path: str, name: str, value: str,
                 comment: str = "") -> dict:
        return self._json("POST", "/meta", json_body={
            "path": path, "name": name, "value": value, "comment": comment})

    def meta_list(self, path: str) -> dict:
        return self._json("GET", "/meta", params={"path": path})

    def meta_query(self, q: str) -> list[str]:
        return self._json("GET", "/meta/query", params={"q": q})["paths"]

    # -- rules ------------------------------------------------------------------

    def add_rules(self, text: str) -> dict:
        return self._json("POST", "/rules", json_body={"text": text})

    def rules(self) -> dict:
        return self._json("GET", "/rules")

    def remove_rule(self, name: str) -> dict:
        return self._json("DELETE", "/rules/" + quote(name, safe=""))

    # -- admin --------------------------------------------------------------------

    def create_user(self, name: str, role: str, secret: str) -> dict:
        return self._json("POST", "/users", json_body={
            "name": name, "role": role, "secret": secret})

    def add_group(self, user: str, group: str) -> dict:
        return self._json("POST", "/groups",
                          json_body={"user": user, "group": group})

    def set_acl(self, path: str, principal: str, perm: str) -> dict:
        return self._json("POST", "/acl", json_body={
            "path": path, "principal": principal, "perm": perm})

    def register_resource(self, name: str, driver: str, root: str,
                          kind: str) -> dict:
        return self._json("POST", "/resources", json_body={
            "name": name, "driver": driver, "root": root, "kind": kind})

    def resources(self) -> list[dict]:
        return self._json("GET", "/resources")["resources"]

    def audit(self, **filters) -> list[dict]:
        params = {k: v for k, v in filters.items() if v is not None}
        return self._json("GET", "/audit", params=params)["entries"]

    def orphans(self) -> list[dict]:
        return self._json("GET", "/orphans")["orphans"]

    def register_microservice(self, name: str, code: str, min_args: int,
                              max_args: int | None = None) -> dict:
        body = {"name": name, "code": code, "min_args": min_args}
        if max_args is not None:
            body["max_args"] = max_args
        return self._json("POST", "/microservices", json_body=body)

    def register_driver(self, name: str, code: str) -> dict:
        return self._json("POST", "/drivers",
                          json_body={"name": name, "code": code})

    # -- procedures ----------------------------------------------------------

    def attach_workflow(self, coll: str, source: str) -> dict:
        return self._json("POST", "/workflows",
                          json_body={"coll": coll, "source": source})

    def workflow(self, workflow_id: str) -> dict:
        return self._json("GET", "/workflows/" + quote(workflow_id, safe=""))

    def run(self, workflow_id: str, bindings: dict) -> dict:
        return self._json("POST", "/runs", json_body={
            "workflow_id": workflow_id, "bindings": bindings})

    def rerun(self, run_id: str, overrides: dict | None = None) -> dict:
        return self._json("POST", f"/runs/{quote(run_id, safe='')}:rerun",
                          json_body={"overrides": overrides or {}})

    def run_record(self, run_id: str) -> dict:
        return self._json("GET", "/runs/" + quote(run_id, safe=""))

    def diff_runs(self, a: str, b: str) -> dict:
        return self._json("GET", "/runs/diff", params={"a": a, "b": b})

    # -- streams -------------------------------------------------------------

    def stream_ingest(self, coll: str, segment: bytes,
                      resource: str | None = None) -> dict:
        params = {"resource": resource} if resource else None
        return self._json("POST", "/streams" + self._q(coll),
                          params=params, data=segment)

    def stream_read(self, coll: str, t_lo: int, t_hi: int) -> bytes:
        return self._request("GET", "/streams" + self._q(coll),
                             params={"from": t_lo, "to": t_hi}).content

    def stream_stat(self, coll: str) -> dict:
        return self._json("GET", "/streams" + self._q(coll) + ":stat")
