"""Bearer-token sessions.

A login checks the stored secret and mints a 32-byte random token good
for 24 hours. Sessions are kept in a dict keyed by the SHA-256 of the
token, so a lookup is one hash and one dict probe, whatever the number
of live sessions. The probe compares digests, not tokens, so its timing
tells nothing about the token. An expired session is dropped when a
lookup finds it; sessions nobody looks up again are swept at login once
the store has doubled since the last sweep, so memory stays bounded at
O(1) amortized cost per login.
"""

from __future__ import annotations

import hashlib
import secrets
import threading
from dataclasses import dataclass

from ..catalog import Catalog
from ..common import now_us
from ..errors import BadCredentials

TOKEN_TTL_US = 24 * 60 * 60 * 1_000_000
_MIN_SWEEP = 1024   # store size that triggers the first sweep at login


@dataclass
class Session:
    token: str
    user: str
    expires_at: int


def _key(token: str) -> bytes:
    return hashlib.sha256(token.encode("utf-8")).digest()


class SessionStore:
    def __init__(self, catalog: Catalog, ttl_us: int = TOKEN_TTL_US):
        self.catalog = catalog
        self.ttl_us = ttl_us
        self._lock = threading.Lock()
        self._sessions: dict[bytes, Session] = {}
        self._sweep_at = _MIN_SWEEP

    def login(self, user: str, secret: str) -> Session:
        if not self.catalog.verify_secret(user, secret):
            self.catalog.audit_append(user, "login", "failed")
            raise BadCredentials("unknown user or wrong secret")
        session = Session(token=secrets.token_hex(32), user=user,
                          expires_at=now_us() + self.ttl_us)
        with self._lock:
            if len(self._sessions) >= self._sweep_at:
                now = now_us()
                self._sessions = {k: s for k, s in self._sessions.items()
                                  if s.expires_at > now}
                self._sweep_at = max(_MIN_SWEEP, 2 * len(self._sessions))
            self._sessions[_key(session.token)] = session
        self.catalog.audit_append(user, "login", "ok")
        return session

    def authenticate(self, token: str) -> str:
        """Token -> user name, or BadCredentials."""
        if not isinstance(token, str) or not token:
            raise BadCredentials("missing token")
        key = _key(token)
        with self._lock:
            session = self._sessions.get(key)
            if session is not None and session.expires_at <= now_us():
                del self._sessions[key]
                session = None
        if session is None:
            raise BadCredentials("invalid or expired token")
        return session.user

    def expire_now(self, token: str) -> None:
        """Force-expire one session (test hook for TTL behavior)."""
        with self._lock:
            session = self._sessions.get(_key(token))
            if session is not None:
                session.expires_at = 0
