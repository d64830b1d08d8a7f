"""Small helpers used by more than one module."""

from __future__ import annotations

import functools
import hashlib
import re
import threading
import time
from typing import Callable, Generic, TypeVar

from .errors import DuplicateName

# Actor name used for internal mutations (bootstrap, recovery plumbing).
# Real user names cannot contain "@", so this can never collide.
SYSTEM = "@system"

T = TypeVar("T")


def now_us() -> int:
    """Current wall-clock time in microseconds since the epoch."""
    return time.time_ns() // 1000


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@functools.lru_cache(maxsize=4096)
def _glob_regex(pattern: str) -> re.Pattern[str]:
    parts = []
    for ch in pattern:
        if ch == "*":
            parts.append(".*")
        elif ch == "?":
            parts.append(".")
        else:
            parts.append(re.escape(ch))
    # (?s) so "*" crosses newlines as well as "/"; anchored full match.
    return re.compile("(?s)\\A" + "".join(parts) + "\\Z")


def glob_match(text: str, pattern: str) -> bool:
    """Anchored glob match supporting exactly "*" and "?".

    "*" matches any run of characters including "/", "?" matches one
    character. No character classes.
    """
    return _glob_regex(pattern).match(text) is not None


class Registry(Generic[T]):
    """Name -> plugged-in entry (a driver, a micro-service), mutable
    while the zone runs. A lookup is one lock and one dict get; a name
    never registered raises unknown(name), each kind's own error."""

    def __init__(self, kind: str, unknown: Callable[[str], Exception]):
        self.kind = kind
        self._unknown = unknown
        self._entries: dict[str, T] = {}
        self._lock = threading.Lock()

    def register(self, name: str, entry: T) -> None:
        with self._lock:
            if name in self._entries:
                raise DuplicateName(
                    f"{self.kind} {name!r} already registered")
            self._entries[name] = entry

    def get(self, name: str) -> T:
        with self._lock:
            entry = self._entries.get(name)
        if entry is None:
            raise self._unknown(name)
        return entry

    def names(self) -> tuple[str, ...]:
        with self._lock:
            return tuple(sorted(self._entries))
