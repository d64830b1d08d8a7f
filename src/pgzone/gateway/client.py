"""Thin HTTP client for the gateway; every method maps to one route.

Failures surface as ClientError carrying the HTTP status plus the
server's error name and detail, so callers can branch on .status or
.error without parsing text.

A client talks to one server over one keep-alive session. It does not
read the environment per request: the proxies for its server URL
(HTTP(S)_PROXY, NO_PROXY) are resolved once, at construction, and
~/.netrc is never consulted, since a netrc entry for the server's host
would replace the bearer token.
"""

from __future__ import annotations

import json
import uuid
from urllib.parse import quote

import requests


class ClientError(Exception):
    def __init__(self, status: int, error: str, detail: str):
        super().__init__(f"{status} {error}: {detail}")
        self.status = status
        self.error = error
        self.detail = detail


class TransportError(Exception):
    """The server could not be reached at all."""


class ZoneClient:
    def __init__(self, server: str, token: str | None = None,
                 timeout: float = 60.0):
        self.server = server.rstrip("/")
        self.token = token
        self.timeout = timeout
        self._session = requests.Session()
        self._session.trust_env = False
        self._session.proxies = requests.utils.get_environ_proxies(
            self.server)

    # -- plumbing ---------------------------------------------------------

    def _request(self, method: str, path: str, *, params=None,
                 json_body=None, data=None) -> requests.Response:
        headers = {"X-Request-Id": uuid.uuid4().hex}
        if self.token:
            headers["Authorization"] = f"Bearer {self.token}"
        try:
            response = self._session.request(
                method, self.server + path, params=params, json=json_body,
                data=data, headers=headers, timeout=self.timeout)
        except requests.RequestException as e:
            raise TransportError(f"{method} {path}: {e}") from e
        if response.status_code >= 400:
            try:
                payload = response.json()
            except (ValueError, json.JSONDecodeError):
                payload = {}
            raise ClientError(response.status_code,
                              payload.get("error", "HTTPError"),
                              payload.get("detail", response.text[:500]))
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

    def list_collection(self, path: str) -> dict:
        return self._json("GET", "/collections" + self._q(path))

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
        return self._json("GET", "/workflows/" + workflow_id)

    def run(self, workflow_id: str, bindings: dict) -> dict:
        return self._json("POST", "/runs", json_body={
            "workflow_id": workflow_id, "bindings": bindings})

    def rerun(self, run_id: str, overrides: dict | None = None) -> dict:
        return self._json("POST", f"/runs/{run_id}:rerun",
                          json_body={"overrides": overrides or {}})

    def run_record(self, run_id: str) -> dict:
        return self._json("GET", "/runs/" + run_id)

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
