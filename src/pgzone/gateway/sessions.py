"""Bearer-token sessions.

A login checks the stored secret and mints a 32-byte random token good
for 24 hours. Token lookup compares against every live session with a
constant-time comparison, so neither the match position nor a partial
prefix leaks through timing.
"""

from __future__ import annotations

import hmac
import secrets
import threading
from dataclasses import dataclass

from ..catalog import Catalog
from ..common import now_us
from ..errors import BadCredentials

TOKEN_TTL_US = 24 * 60 * 60 * 1_000_000


@dataclass
class Session:
    token: str
    user: str
    expires_at: int


class SessionStore:
    def __init__(self, catalog: Catalog, ttl_us: int = TOKEN_TTL_US):
        self.catalog = catalog
        self.ttl_us = ttl_us
        self._lock = threading.Lock()
        self._sessions: list[Session] = []

    def login(self, user: str, secret: str) -> Session:
        if not self.catalog.verify_secret(user, secret):
            self.catalog.audit_append(user, "login", "failed")
            raise BadCredentials("unknown user or wrong secret")
        session = Session(token=secrets.token_hex(32), user=user,
                          expires_at=now_us() + self.ttl_us)
        with self._lock:
            self._sessions.append(session)
        self.catalog.audit_append(user, "login", "ok")
        return session

    def authenticate(self, token: str) -> str:
        """Token -> user name, or BadCredentials."""
        if not isinstance(token, str) or not token:
            raise BadCredentials("missing token")
        now = now_us()
        found: Session | None = None
        with self._lock:
            self._sessions = [s for s in self._sessions
                              if s.expires_at > now]
            for session in self._sessions:
                # Constant-time compare on every candidate.
                if hmac.compare_digest(session.token, token):
                    found = session
        if found is None:
            raise BadCredentials("invalid or expired token")
        return found.user

    def expire_now(self, token: str) -> None:
        """Force-expire one session (test hook for TTL behavior)."""
        with self._lock:
            for session in self._sessions:
                if hmac.compare_digest(session.token, token):
                    session.expires_at = 0
