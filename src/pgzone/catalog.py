"""The zone catalog: users, resources, collections, objects, metadata,
policies, procedures, plus the audit trail.

Every mutation is validated against the caller, appended to the journal
as one record, and only then applied to in-memory state, so a failed
append changes nothing. The journal is the only record of the commits:
records() reads it back. Replaying records 1..k from an empty catalog
reproduces the state after the k-th mutation exactly. A snapshot of the
state is written every SNAPSHOT_EVERY mutations, and the journal keeps
only the newest two. Recovery loads the latest snapshot that passes its
check, then parses and applies only the journal records after it.
Damage to a record the snapshot covers therefore does not fail the
open: a malformed one raises CorruptJournal when records(),
audit_query() or state_dict() parse the whole journal, and a seq out of
order when Catalog.replay(records()) checks the seqs. A snapshot that
fails with an OSError is logged and skipped: the commit it follows
stands, and the next boundary writes one.

The audit trail is no mutation and is never held in memory. Each entry
is one line of a journal of its own (audit.log), with the trail's own
seq, one past the last; a reopen reads only its last whole line. A zone
written before audit.log holds its older entries as audit.append
records of the main journal, which a replay accepts and skips; its
audit.log then starts one past the main journal's seq at that open, so
the trail's seqs stay unique and increasing. audit_query() and
state_dict() read the main journal's entries, then audit.log, each below
the end it had under the lock; they parse outside it. A malformed record
of either file that a reopen did not parse shows there.

A snapshot reuses the serialized text of each object, triple list and
run that has not changed since the last snapshot; a commit drops the
text of the path it names, in the sections its op changes, before it
applies. The bytes written are the same as a fresh serialization.
data_state_digest() and state_dict() never use that text, so a stale
one shows as a reopened zone whose digest differs from the live one.

All state is kept as JSON-able dicts so snapshots, replay, and deep
state comparison share one representation. Callers get immutable view
dataclasses, never the internal dicts: the public getters (get_user,
get_resource, get_object and the listings of them) build a view on each
call. A few lookups that the engine makes on every trapped operation
return plain values instead, only the fields it reads: user_role,
resource_location, object_owner and good_replicas. Each raises the
same NoSuch* error as the getter it stands in for.

Two indexes are derived state: the children of each collection, as a
sorted list of subcollections and one of objects, and the paths under
each attribute (name, value) pair. The _apply_* functions keep them and
_load_state rebuilds them, so recovery and replay rebuild them too;
they are never journaled or written to a snapshot. A listing then costs
O(children), and a page of one O(page). A metadata query costs
O(distinct pairs under the name it narrows to); a `like` value literal
with a fixed prefix narrows, under each name, to the sorted range of
values that start with it, from a sorted list of the name's values
built at the first such query and kept from then on. The _apply_*
functions also note, per collection, the seq of the newest object put
or removed in it other than by a stream ingest (rewrite_seq), which
tells a cache of the collection, the stream index, that it must look
again; it starts empty at every open.

Mutations are serialized through one lock (the journal sequence is the
linearization order); the catalog object may be shared across threads.
"""

from __future__ import annotations

import hashlib
import hmac
import json
import logging
import os
import re
import threading
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable

from .common import SYSTEM, glob_match, now_us, sha256_hex
from .errors import (
    ChecksumMismatch,
    CorruptJournal,
    DuplicateName,
    DuplicateReplica,
    DuplicateRuleName,
    MalformedPredicate,
    NoParent,
    NoSuchObject,
    NoSuchPath,
    NoSuchReplica,
    NoSuchResource,
    NoSuchRule,
    NoSuchRun,
    NoSuchUser,
    NoSuchWorkflow,
    PermissionDenied,
    UnknownDriver,
    ZoneError,
)
from .journal import (AUDIT_NAME, SNAPSHOT_EVERY, Journal, canonical_json,
                      validate_record)
from .ruledsl.lexer import TOKEN_RE, unescape

log = logging.getLogger("pgzone.catalog")

ROLES = ("admin", "user")
COLLECTION_KINDS = ("plain", "stream", "workflow")
RESOURCE_KINDS = ("cache", "archive")
REPLICA_STATUSES = ("good", "stale", "suspect")

PERM_ORDER = {"read": 1, "write": 2, "own": 3}

MAX_PATH_BYTES = 4096
_NAME_RE = re.compile(r"[A-Za-z0-9_][A-Za-z0-9_.-]{0,127}")
_CHECKSUM_RE = re.compile(r"[0-9a-f]{64}")

_PBKDF2_ITERATIONS = 100_000


# --------------------------------------------------------------------------
# Views handed to callers
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class UserView:
    name: str
    role: str
    groups: tuple[str, ...]


@dataclass(frozen=True)
class ResourceView:
    name: str
    driver_name: str
    root: str
    kind: str


@dataclass(frozen=True)
class CollectionView:
    path: str
    owner: str
    acl: dict
    kind: str


@dataclass(frozen=True)
class ReplicaView:
    resource: str
    physical_ref: str
    checksum: str
    size: int
    status: str


@dataclass(frozen=True)
class ObjectView:
    path: str
    owner: str
    acl: dict
    version: int
    replicas: tuple[ReplicaView, ...]

    @property
    def checksum(self) -> str:
        return self.replicas[0].checksum


@dataclass(frozen=True)
class AvuTriple:
    attr_name: str
    attr_value: str
    attr_comment: str = ""


@dataclass(frozen=True)
class AuditEntry:
    seq: int
    when: int
    actor: str
    event: str
    detail: str


@dataclass(frozen=True)
class RuleEntryView:
    name: str
    pep: str
    priority: int
    text: str


# --------------------------------------------------------------------------
# Path helpers
# --------------------------------------------------------------------------

def validate_path(path: str) -> str:
    if not isinstance(path, str) or not path.startswith("/"):
        raise NoSuchPath(f"not an absolute logical path: {path!r}")
    if len(path.encode("utf-8")) > MAX_PATH_BYTES:
        raise NoSuchPath("logical path too long")
    if path == "/":
        return path
    if path.endswith("/"):
        raise NoSuchPath(f"trailing slash in {path!r}")
    for seg in path.split("/")[1:]:
        if seg in ("", ".", ".."):
            raise NoSuchPath(f"bad path segment in {path!r}")
    return path


def parent_path(path: str) -> str:
    """The same as posixpath.dirname for every path validate_path takes,
    at a third of the cost; it differs only on a leading "//"."""
    return path.rstrip("/").rpartition("/")[0].rstrip("/") or "/"


# --------------------------------------------------------------------------
# Metadata query predicate
# --------------------------------------------------------------------------

_FIELDS = ("name", "value")
_OPS = ("=", "!=", "like")
_CONJS = ("and", "&&")


class AvuPredicate:
    """Conjunction of (field op literal) clauses over attribute name and
    value; op is =, !=, or like (glob with * and ?). A path matches when
    at least one of its triples satisfies every clause. The text is
    lexed by the rule language's TOKEN_RE, skipping only whitespace.
    """

    def __init__(self, clauses: list[tuple[str, str, str]]):
        if not clauses:
            raise MalformedPredicate("empty predicate")
        for field, op, _lit in clauses:
            if field not in _FIELDS:
                raise MalformedPredicate(f"unknown field {field!r}")
            if op not in _OPS:
                raise MalformedPredicate(f"unknown operator {op!r}")
        self.clauses = list(clauses)

    @classmethod
    def parse(cls, text: str) -> "AvuPredicate":
        if not isinstance(text, str):
            raise MalformedPredicate("predicate must be a string")
        words = [m[0] for m in TOKEN_RE.finditer(text) if m.lastgroup != "WS"]
        clauses = []
        for i in range(0, len(words) - 2, 4):
            lit = words[i + 2]
            # Only a STRING token starts with '"' and is longer than one
            # character: ERROR takes a lone '"'.
            if lit[0] != '"' or lit == '"' or i and words[i - 1] not in _CONJS:
                break
            clauses.append((words[i], words[i + 1], unescape(lit[1:-1])))
        if 4 * len(clauses) - 1 != len(words):
            raise MalformedPredicate(
                'expected clauses name|value =|!=|like "literal" joined by '
                f"and or &&, got {text!r}")
        return cls(clauses)  # which checks each field and op

    def matches_triple(self, name: str, value: str) -> bool:
        for field, op, lit in self.clauses:
            actual = name if field == "name" else value
            if op == "=":
                ok = actual == lit
            elif op == "!=":
                ok = actual != lit
            else:
                ok = glob_match(actual, lit)
            if not ok:
                return False
        return True


# The text every match of a `like` pattern starts with.
_LIKE_PREFIX_RE = re.compile(r"[^*?]*")


def _prefixed(keys: list[str], prefix: str) -> list[str]:
    """The keys, sorted, that start with prefix: those from prefix up to
    the first string past all of them, which is prefix with its last
    character below U+10FFFF raised by one and what follows it cut."""
    lo = bisect_left(keys, prefix)
    stem = prefix.rstrip("\U0010ffff")
    if not stem:
        return keys[lo:]
    return keys[lo:bisect_left(keys, stem[:-1] + chr(ord(stem[-1]) + 1), lo)]


# --------------------------------------------------------------------------
# Catalog
# --------------------------------------------------------------------------

def _empty_memo() -> dict[str, dict[str, str]]:
    """Snapshot text of each entry of the sections that hold most of the
    state, by key; see Journal.write_snapshot. A run is never rewritten,
    as record_run refuses a duplicate id, so only _commit drops texts."""
    return {"objects": {}, "avus": {}, "runs": {}}


# The memo sections whose entry for its "path" an op changes, where that
# is not "objects" alone.
_MEMO_SECTIONS = {
    "avu.add": ("avus",),
    "object.remove": ("objects", "avus"),
    "stream.ingest": ("objects", "avus"),
}


def _json_copy(value):
    """A copy of a JSON value that shares no dict or list with it.
    copy.deepcopy of a run record costs about six times as much."""
    if type(value) is dict:
        return {key: _json_copy(item) for key, item in value.items()}
    if type(value) is list:
        return [_json_copy(item) for item in value]
    return value


_AUDIT_FIELDS = frozenset(("actor", "event", "detail"))


def _audit_entry(rec: dict) -> dict:
    """The entry of an audit.append record. Its time is the record's own
    `when`; records written before it was the only one carry theirs in
    args["when"]."""
    a = rec["args"]
    try:
        return {"seq": rec["seq"], "when": a.get("when", rec["when"]),
                "actor": a["actor"], "event": a["event"],
                "detail": a["detail"]}
    except KeyError as e:
        raise CorruptJournal(f"malformed audit.append at seq {rec['seq']}: "
                             f"no {e}") from e


def _hash_secret(secret: str) -> str:
    salt = os.urandom(16)
    digest = hashlib.pbkdf2_hmac(
        "sha256", secret.encode("utf-8"), salt, _PBKDF2_ITERATIONS)
    return f"pbkdf2${_PBKDF2_ITERATIONS}${salt.hex()}${digest.hex()}"


def _check_secret(secret: str, stored: str) -> bool:
    try:
        scheme, iters, salt_hex, digest_hex = stored.split("$")
        if scheme != "pbkdf2":
            return False
        digest = hashlib.pbkdf2_hmac(
            "sha256", secret.encode("utf-8"), bytes.fromhex(salt_hex),
            int(iters))
        return hmac.compare_digest(digest.hex(), digest_hex)
    except (ValueError, TypeError):
        return False


class Catalog:
    """See module docstring. Pass journal_dir=None for a purely in-memory
    catalog (used for oracles and fast tests): its journal keeps the
    records in a list."""

    def __init__(self, journal_dir: str | Path | None = None,
                 driver_names: Callable[[], Iterable[str]] | None = None):
        self._lock = threading.RLock()
        self._driver_names = driver_names
        self._reset_state()
        self._journal = Journal(journal_dir)
        self._audit = Journal(journal_dir, AUDIT_NAME)
        self._recover()

    def _reset_state(self) -> None:
        self._seq = 0
        self._users: dict[str, dict] = {}
        self._resources: dict[str, dict] = {}
        self._collections: dict[str, dict] = {}
        self._objects: dict[str, dict] = {}
        self._avus: dict[str, list[list[str]]] = {}
        self._rules: dict[str, dict] = {}
        self._rule_version = 0
        self._workflows: dict[str, dict] = {}
        self._runs: dict[str, dict] = {}
        self._orphans: list[dict] = []
        self._stream_counters: dict[str, int] = {}
        # Derived from the above; see the module docstring. A parent's
        # children are (subcollections, objects), each sorted.
        self._children: dict[str, tuple[list[str], list[str]]] = {}
        self._avu_index: dict[str, dict[str, set[str]]] = {}
        # Of each name in _avu_index, its sorted values: no entry until a
        # `like` range scan needs it.
        self._sorted_values: dict[str, list[str]] = {}
        self._snapshot_memo = _empty_memo()
        # Collection -> seq of the newest object.put or object.remove in
        # it: lets a cache of a collection's objects see it changed.
        self._rewrites: dict[str, int] = {}

    # -- journal plumbing -------------------------------------------------

    def _commit(self, op: str, args: dict) -> None:
        """Journal one validated mutation, then apply it. Caller holds lock."""
        seq = self._seq + 1
        self._journal.append(
            {"seq": seq, "op": op, "args": args, "when": now_us()})
        # The record is journaled, so its seq is taken even if the apply
        # below raises: the next commit must not reuse it.
        self._seq = seq
        # Every op that changes an object or its triples names it as
        # "path". Its snapshot text goes before the change, so that an
        # apply that raises half way leaves none that is stale.
        path = args.get("path")
        if path is not None:
            for section in _MEMO_SECTIONS.get(op, ("objects",)):
                self._snapshot_memo[section].pop(path, None)
        self._apply(op, args, seq)
        if seq % SNAPSHOT_EVERY == 0:
            # The commit stands without its snapshot: recovery replays a
            # longer tail, and the next boundary tries again.
            try:
                self._journal.write_snapshot(seq, self._state(),
                                             self._snapshot_memo)
            except OSError as e:
                log.error("snapshot at seq %d not written: %s", seq, e)

    def _recover(self) -> None:
        """The one replay loop: load the latest snapshot that passes its
        check, then parse and apply only the journal records after its seq
        S, which must run S+1..n. The records up to S are not parsed here.
        Then restore the audit seq from audit.log's last whole line."""
        start = 0
        snap = self._journal.latest_snapshot()
        if snap is not None:
            start, state = snap
            self._load_state(state)
        records = self._journal.read_records(after=start)
        for seq, rec in enumerate(records, start + 1):
            if rec["seq"] != seq:
                raise CorruptJournal(
                    f"sequence gap: record {seq} has seq {rec['seq']}")
            try:
                self._apply(rec["op"], rec["args"], seq)
            except (KeyError, ValueError, TypeError, ZoneError) as e:
                raise CorruptJournal(
                    f"replay failed at seq {seq}: {e}") from e
        self._seq = start + len(records)
        last = self._audit.last_record()
        self._audit_seq = self._seq if last is None else last["seq"]

    @classmethod
    def replay(cls, records: Iterable[dict]) -> "Catalog":
        """Rebuild a catalog purely from journal records: they go into an
        in-memory journal, which is then recovered like any other."""
        catalog = cls()
        for rec in records:
            catalog._journal.append(validate_record(rec))
        catalog._recover()
        return catalog

    def records(self) -> list[dict]:
        with self._lock:
            return self._journal.read_records()

    def close(self) -> None:
        with self._lock:
            self._journal.close()
            self._audit.close()

    # -- state serialization ----------------------------------------------

    def _state(self) -> dict:
        """The live state except the audit trail, which is what a snapshot
        holds, as one tree of the catalog's own dicts, not a copy: the
        caller holds the lock and neither changes nor keeps it."""
        return {
            "last_seq": self._seq,
            "users": self._users,
            "resources": self._resources,
            "collections": self._collections,
            "objects": self._objects,
            "avus": self._avus,
            "rules": self._rules,
            "rule_version": self._rule_version,
            "workflows": self._workflows,
            "runs": self._runs,
            "orphans": self._orphans,
            "stream_counters": self._stream_counters,
        }

    def state_dict(self) -> dict:
        """Full state as a JSON-able tree; the caller owns it."""
        with self._lock:
            state = json.loads(json.dumps(self._state()))
            ends = self._audit_ends()
        state["audit"] = self._audit_trail(ends)
        return state

    def data_state_digest(self) -> str:
        """Digest of everything except the audit trail and sequence counter
        (those legitimately advance when an operation is denied)."""
        with self._lock:
            state = self._state()
            del state["last_seq"]
            return sha256_hex(canonical_json(state).encode("utf-8"))

    def _load_state(self, state: dict) -> None:
        """Adopt a snapshot's state. An "audit" key, which snapshots once
        held, is ignored: the trail is read from its files."""
        self._seq = state["last_seq"]
        self._users = state["users"]
        self._resources = state["resources"]
        self._collections = state["collections"]
        self._objects = state["objects"]
        self._avus = state["avus"]
        self._rules = state["rules"]
        self._rule_version = state["rule_version"]
        self._workflows = state["workflows"]
        self._runs = state["runs"]
        self._orphans = state["orphans"]
        self._stream_counters = state["stream_counters"]
        self._children = {}
        self._avu_index = {}
        self._sorted_values = {}
        self._snapshot_memo = _empty_memo()
        # Each child list is filled in any order, then sorted once.
        for kind, paths in enumerate((self._collections, self._objects)):
            for path in paths:
                if path != "/":
                    parent = parent_path(path)
                    lists = self._children.get(parent)
                    if lists is None:
                        lists = self._children[parent] = ([], [])
                    lists[kind].append(path)
        for lists in self._children.values():
            for paths in lists:
                paths.sort()
        for path, triples in self._avus.items():
            for name, value, _comment in triples:
                self._index_avu(path, name, value)

    # -- access helpers -----------------------------------------------------

    def _require_admin(self, caller: str) -> None:
        if caller == SYSTEM:
            return
        user = self._users.get(caller)
        if user is None or user["role"] != "admin":
            raise PermissionDenied(f"{caller!r} is not an administrator")

    def is_admin(self, name: str) -> bool:
        with self._lock:
            if name == SYSTEM:
                return True
            user = self._users.get(name)
            return user is not None and user["role"] == "admin"

    def require_admin(self, caller: str) -> None:
        with self._lock:
            self._require_admin(caller)

    def _node(self, path: str) -> dict | None:
        return self._objects.get(path) or self._collections.get(path)

    def check_access(self, path: str, user: str, need: str) -> bool:
        """True iff `user` holds at least `need` on `path`; own > write >
        read; administrators and the owner always pass."""
        if need not in PERM_ORDER:
            raise ValueError(f"unknown permission {need!r}")
        with self._lock:
            node = self._node(path)
            if node is None:
                raise NoSuchPath(path)
            if user == SYSTEM:
                return True
            record = self._users.get(user)
            if record is not None and record["role"] == "admin":
                return True
            if node["owner"] == user:
                return True
            held = 0
            acl = node["acl"]
            if user in acl:
                held = PERM_ORDER[acl[user]]
            groups = set(record["groups"]) if record else set()
            for g in groups:
                if g in acl:
                    held = max(held, PERM_ORDER[acl[g]])
            return held >= PERM_ORDER[need]

    def require_access(self, path: str, user: str, need: str) -> None:
        if not self.check_access(path, user, need):
            raise PermissionDenied(f"{user!r} lacks {need} on {path!r}")

    # -- users ---------------------------------------------------------------

    def create_user(self, caller: str, name: str, role: str,
                    secret: str) -> str:
        if role not in ROLES:
            raise ValueError(f"unknown role {role!r}")
        if not _NAME_RE.fullmatch(name or ""):
            raise ValueError(f"bad user name {name!r}")
        with self._lock:
            self._require_admin(caller)
            if name in self._users:
                raise DuplicateName(f"user {name!r} already exists")
            self._commit("user.create", {
                "name": name, "role": role,
                "secret_hash": _hash_secret(secret), "groups": [],
            })
            self.audit_append(caller, "user.create", name)
        return name

    def add_user_to_group(self, caller: str, user: str, group: str) -> None:
        if not _NAME_RE.fullmatch(group or ""):
            raise ValueError(f"bad group name {group!r}")
        with self._lock:
            self._require_admin(caller)
            record = self._users.get(user)
            if record is None:
                raise NoSuchUser(user)
            if group in record["groups"]:
                return
            self._commit("user.group_add", {"user": user, "group": group})
            self.audit_append(caller, "user.group_add", f"{user}+{group}")

    def get_user(self, name: str) -> UserView:
        with self._lock:
            record = self._users.get(name)
            if record is None:
                raise NoSuchUser(name)
            return UserView(name=name, role=record["role"],
                            groups=tuple(sorted(record["groups"])))

    def user_role(self, name: str) -> str:
        """get_user(name).role, without the view."""
        with self._lock:
            record = self._users.get(name)
            if record is None:
                raise NoSuchUser(name)
            return record["role"]

    def user_exists(self, name: str) -> bool:
        with self._lock:
            return name in self._users

    def verify_secret(self, name: str, secret: str) -> bool:
        with self._lock:
            record = self._users.get(name)
            stored = record["secret_hash"] if record else _hash_secret("!")
        # Hash check runs either way so unknown-user and wrong-secret are
        # indistinguishable by timing as well as by error.
        return _check_secret(secret, stored) and record is not None

    def _group_known(self, name: str) -> bool:
        return any(name in u["groups"] for u in self._users.values())

    # -- resources -------------------------------------------------------------

    def register_resource(self, caller: str, name: str, driver_name: str,
                          root: str, kind: str) -> str:
        if kind not in RESOURCE_KINDS:
            raise ValueError(f"unknown resource kind {kind!r}")
        if not _NAME_RE.fullmatch(name or ""):
            raise ValueError(f"bad resource name {name!r}")
        with self._lock:
            self._require_admin(caller)
            if name in self._resources:
                raise DuplicateName(f"resource {name!r} already exists")
            if self._driver_names is not None and \
                    driver_name not in set(self._driver_names()):
                raise UnknownDriver(driver_name)
            self._commit("resource.register", {
                "name": name, "driver_name": driver_name,
                "root": root, "kind": kind,
            })
            self.audit_append(caller, "resource.register", name)
        return name

    def get_resource(self, name: str) -> ResourceView:
        with self._lock:
            record = self._resources.get(name)
            if record is None:
                raise NoSuchResource(name)
            return ResourceView(name=name, **record)

    def resource_location(self, name: str) -> tuple[str, str]:
        """(driver_name, root) of get_resource(name), without the view."""
        with self._lock:
            record = self._resources.get(name)
            if record is None:
                raise NoSuchResource(name)
            return record["driver_name"], record["root"]

    def resources(self) -> list[ResourceView]:
        with self._lock:
            return [ResourceView(name=n, **r)
                    for n, r in sorted(self._resources.items())]

    # -- collections -------------------------------------------------------------

    def make_collection(self, caller: str, path: str, owner: str | None = None,
                        kind: str = "plain") -> str:
        validate_path(path)
        if kind not in COLLECTION_KINDS:
            raise ValueError(f"unknown collection kind {kind!r}")
        owner = owner or caller
        with self._lock:
            if path in self._collections or path in self._objects:
                raise DuplicateName(f"path {path!r} already exists")
            if path == "/":
                if self._collections:
                    raise DuplicateName("root already exists")
                self._require_admin(caller)
            else:
                parent = parent_path(path)
                if parent not in self._collections:
                    raise NoParent(parent)
                self.require_access(parent, caller, "write")
            if owner != SYSTEM and owner not in self._users:
                raise NoSuchUser(owner)
            self._commit("collection.create", {
                "path": path, "owner": owner, "kind": kind,
                "acl": {owner: "own"},
            })
        return path

    def get_collection(self, path: str) -> CollectionView:
        with self._lock:
            record = self._collections.get(path)
            if record is None:
                raise NoSuchPath(path)
            return CollectionView(path=path, owner=record["owner"],
                                  acl=dict(record["acl"]),
                                  kind=record["kind"])

    def collection_exists(self, path: str) -> bool:
        with self._lock:
            return path in self._collections

    def path_exists(self, path: str) -> bool:
        with self._lock:
            return path in self._collections or path in self._objects

    def list_collection(self, path: str, marker: str | None = None,
                        limit: int | None = None
                        ) -> tuple[list[str], list[str]]:
        """Immediate children of a collection: (subcollections, objects),
        each sorted. A page holds, of all the children in path order, at
        most `limit` of those after `marker`, which need not be a child."""
        if limit is not None and limit < 1:
            raise ValueError(f"limit must be 1 or more, not {limit}")
        with self._lock:
            if path not in self._collections:
                raise NoSuchPath(path)
            subcolls, objects = self._children.get(path, ([], []))
            i = bisect_right(subcolls, marker or "")
            j = bisect_right(objects, marker or "")
            if limit is None:
                return subcolls[i:], objects[j:]
            # The first `limit` of the two runs merged in path order.
            page = sorted(subcolls[i:i + limit] + objects[j:j + limit])
            del page[limit:]
            return ([p for p in page if p in self._collections],
                    [p for p in page if p in self._objects])

    def set_acl(self, caller: str, path: str, principal: str,
                perm: str) -> None:
        if perm not in PERM_ORDER:
            raise ValueError(f"unknown permission {perm!r}")
        with self._lock:
            node = self._node(path)
            if node is None:
                raise NoSuchPath(path)
            if not (caller == SYSTEM or self.is_admin(caller)
                    or node["owner"] == caller):
                raise PermissionDenied(
                    f"{caller!r} does not own {path!r}")
            if principal not in self._users and \
                    not self._group_known(principal):
                raise NoSuchUser(principal)
            self._commit("acl.set", {
                "path": path, "principal": principal, "perm": perm,
            })
            self.audit_append(caller, "acl.set",
                              f"{path} {principal}={perm}")

    # -- metadata -------------------------------------------------------------

    def add_avu(self, caller: str, path: str, name: str, value: str,
                comment: str = "") -> None:
        # Checked before the commit: a journaled triple that is not
        # three strings fails its apply on every replay or breaks queries.
        if not (isinstance(name, str) and isinstance(value, str)
                and isinstance(comment, str)):
            raise ValueError("attribute name, value and comment must be "
                             "strings")
        if not name:
            raise ValueError("attribute name must be non-empty")
        with self._lock:
            if self._node(path) is None:
                raise NoSuchPath(path)
            self.require_access(path, caller, "write")
            triple = [name, value, comment]
            if triple in self._avus.get(path, []):
                return  # idempotent
            self._commit("avu.add", {
                "path": path, "name": name, "value": value,
                "comment": comment,
            })

    def avus(self, path: str) -> list[AvuTriple]:
        with self._lock:
            if self._node(path) is None:
                raise NoSuchPath(path)
            return [AvuTriple(*t) for t in self._avus.get(path, [])]

    def query_avu(self, predicate: "str | AvuPredicate") -> list[str]:
        """Paths with at least one triple satisfying the predicate,
        lexicographically ordered."""
        if isinstance(predicate, str):
            predicate = AvuPredicate.parse(predicate)
        if not isinstance(predicate, AvuPredicate):
            raise MalformedPredicate(f"not a predicate: {predicate!r}")
        # Of each field, the first `=` literal, and the longest prefix of
        # the value's `like` literals: every match holds it, so it narrows
        # the scan, and matches_triple makes the final check.
        name_lit = value_lit = None
        value_prefix = ""
        for field, op, lit in predicate.clauses:
            if op == "=":
                if field == "name" and name_lit is None:
                    name_lit = lit
                elif field == "value" and value_lit is None:
                    value_lit = lit
            elif op == "like" and field == "value":
                prefix = _LIKE_PREFIX_RE.match(lit)[0]
                if len(prefix) > len(value_prefix):
                    value_prefix = prefix
        # A triple matches on its name and value alone, so a path matches
        # when one of its (name, value) pairs does.
        hits: set[str] = set()
        with self._lock:
            if name_lit is None:
                by_name = self._avu_index.items()
            else:
                by_name = [(name_lit, self._avu_index.get(name_lit, {}))]
            for name, by_value in by_name:
                if value_lit is not None:
                    pairs = [(value_lit, by_value.get(value_lit, ()))]
                elif value_prefix and by_value:
                    # A name no triple holds gets no list: none is kept.
                    values = self._sorted_values.get(name)
                    if values is None:
                        values = self._sorted_values[name] = sorted(by_value)
                    pairs = [(value, by_value[value]) for value in
                             _prefixed(values, value_prefix)]
                else:
                    pairs = by_value.items()
                for value, paths in pairs:
                    if paths and predicate.matches_triple(name, value):
                        hits.update(paths)
        return sorted(hits)

    # -- audit -------------------------------------------------------------

    def audit_append(self, actor: str, event: str, detail: str) -> None:
        """Internal: called by the engine and catalog, never by clients.
        One line of audit.log, with the trail's next seq; no commit."""
        with self._lock:
            seq = self._audit_seq + 1
            self._audit.append({
                "seq": seq, "op": "audit.append",
                "args": {"actor": actor, "event": event, "detail": detail},
                "when": now_us()})
            self._audit_seq = seq

    def audit_query(self, caller: str, t_lo: int | None = None,
                    t_hi: int | None = None, event: str | None = None,
                    actor: str | None = None) -> list[AuditEntry]:
        with self._lock:
            self._require_admin(caller)
            ends = self._audit_ends()
        return [AuditEntry(**e) for e in self._audit_trail(ends)
                if (t_lo is None or e["when"] >= t_lo)
                and (t_hi is None or e["when"] < t_hi)
                and (event is None or e["event"] == event)
                and (actor is None or e["actor"] == actor)]

    def _audit_ends(self) -> tuple[int, int]:
        """Where the whole records of the main journal and of audit.log
        end. Caller holds lock."""
        return self._journal.end(), self._audit.end()

    def _audit_trail(self, ends: tuple[int, int]) -> list[dict]:
        """Every audit entry below the ends _audit_ends took: the main
        journal's, then audit.log's, whose seqs must be contiguous. A
        reopen parses neither file whole, so a malformed record shows here.
        Needs no lock."""
        journal_end, audit_end = ends
        trail = [_audit_entry(rec)
                 for rec in self._journal.read_to(journal_end)
                 if rec["op"] == "audit.append"]
        records = self._audit.read_to(audit_end)
        for i, rec in enumerate(records):
            if rec["op"] != "audit.append" or \
                    i and rec["seq"] != records[i - 1]["seq"] + 1:
                raise CorruptJournal(f"{AUDIT_NAME} line {i + 1} holds "
                                     f"{rec['op']} at seq {rec['seq']}")
            trail.append(_audit_entry(rec))
        return trail

    # -- objects (engine-mediated: authorization happens in the engine) ----

    def put_object(self, path: str, owner: str, resource: str,
                   physical_ref: str, checksum: str,
                   size: int) -> tuple[int, list[ReplicaView]]:
        """Create or version an object; returns (version, replaced replicas)."""
        validate_path(path)
        if not _CHECKSUM_RE.fullmatch(checksum):
            raise ValueError(f"bad checksum {checksum!r}")
        if size < 0:
            raise ValueError("negative size")
        with self._lock:
            if path in self._collections:
                raise DuplicateName(f"{path!r} is a collection")
            if parent_path(path) not in self._collections:
                raise NoParent(parent_path(path))
            existing = self._objects.get(path)
            replaced = [ReplicaView(**r) for r in existing["replicas"]] \
                if existing else []
            self._commit("object.put", {
                "path": path, "owner": owner, "resource": resource,
                "physical_ref": physical_ref, "checksum": checksum,
                "size": size,
            })
            return self._objects[path]["version"], replaced

    def add_replica(self, path: str, resource: str, physical_ref: str,
                    checksum: str, size: int, status: str = "good") -> None:
        if status not in REPLICA_STATUSES:
            raise ValueError(f"unknown replica status {status!r}")
        with self._lock:
            obj = self._objects.get(path)
            if obj is None:
                raise NoSuchObject(path)
            if any(r["resource"] == resource for r in obj["replicas"]):
                raise DuplicateReplica(
                    f"{path!r} already has a replica on {resource!r}")
            good = [r for r in obj["replicas"] if r["status"] == "good"]
            if status == "good" and good and good[0]["checksum"] != checksum:
                raise ChecksumMismatch(
                    f"replica checksum {checksum} disagrees with object")
            self._commit("replica.add", {
                "path": path, "resource": resource,
                "physical_ref": physical_ref, "checksum": checksum,
                "size": size, "status": status,
            })

    def set_replica_status(self, path: str, physical_ref: str,
                           status: str) -> None:
        if status not in REPLICA_STATUSES:
            raise ValueError(f"unknown replica status {status!r}")
        with self._lock:
            obj = self._objects.get(path)
            if obj is None:
                raise NoSuchObject(path)
            if not any(r["physical_ref"] == physical_ref
                       for r in obj["replicas"]):
                raise NoSuchReplica(physical_ref)
            self._commit("replica.status", {
                "path": path, "physical_ref": physical_ref, "status": status,
            })

    def remove_object(self, path: str) -> list[ReplicaView]:
        """Remove an object; returns the replicas its record dropped."""
        with self._lock:
            obj = self._objects.get(path)
            if obj is None:
                raise NoSuchObject(path)
            dropped = [ReplicaView(**r) for r in obj["replicas"]]
            self._commit("object.remove", {"path": path})
            return dropped

    def get_object(self, path: str) -> ObjectView:
        with self._lock:
            obj = self._objects.get(path)
            if obj is None:
                raise NoSuchObject(path)
            return ObjectView(
                path=path, owner=obj["owner"], acl=dict(obj["acl"]),
                version=obj["version"],
                replicas=tuple(ReplicaView(**r) for r in obj["replicas"]))

    def object_owner(self, path: str) -> str:
        """get_object(path).owner, without the view."""
        with self._lock:
            obj = self._objects.get(path)
            if obj is None:
                raise NoSuchObject(path)
            return obj["owner"]

    def good_replicas(self, path: str) -> list[tuple[str, str, str]]:
        """(resource, physical_ref, checksum) of each replica of
        get_object(path) whose status is good, in the same order, without
        the view."""
        with self._lock:
            obj = self._objects.get(path)
            if obj is None:
                raise NoSuchObject(path)
            return [(r["resource"], r["physical_ref"], r["checksum"])
                    for r in obj["replicas"] if r["status"] == "good"]

    def object_exists(self, path: str) -> bool:
        with self._lock:
            return path in self._objects

    def rewrite_seq(self, coll: str) -> int:
        """The seq of the newest object.put or object.remove of an object
        directly in coll that this catalog applied, or 0. An ingest that
        adds a segment does not count: the stream index adds it itself,
        and is built again when this moves."""
        with self._lock:
            return self._rewrites.get(coll, 0)

    def add_orphan(self, path: str, resource: str, physical_ref: str,
                   checksum: str) -> None:
        with self._lock:
            self._commit("orphan.add", {
                "path": path, "resource": resource,
                "physical_ref": physical_ref, "checksum": checksum,
            })

    def orphans(self) -> list[dict]:
        with self._lock:
            return _json_copy(self._orphans)

    # -- policies (rule base) ------------------------------------------------

    def add_rule_records(self, rules: list[tuple[str, str, int, str]]) -> None:
        """Commit one rule.add per (name, pep, priority, text). Every name
        is checked under the same hold of the lock as the commits, so no
        rule is committed when any name is taken or repeated. A journal
        write that fails midway leaves the rules committed before it."""
        with self._lock:
            seen: set[str] = set()
            for name, _pep, _priority, _text in rules:
                if name in self._rules or name in seen:
                    raise DuplicateRuleName(name)
                seen.add(name)
            for name, pep, priority, text in rules:
                self._commit("rule.add", {
                    "name": name, "pep": pep, "priority": priority,
                    "text": text,
                })

    def remove_rule_record(self, name: str) -> str:
        """Commit one rule.remove; returns the point the rule was on."""
        with self._lock:
            rule = self._rules.get(name)
            if rule is None:
                raise NoSuchRule(name)
            self._commit("rule.remove", {"name": name})
            return rule["pep"]

    def rules(self) -> list[RuleEntryView]:
        with self._lock:
            return [RuleEntryView(name=n, **r)
                    for n, r in sorted(self._rules.items())]

    @property
    def rule_version(self) -> int:
        with self._lock:
            return self._rule_version

    # -- procedures (workflow versions and runs) -------------------------------

    def attach_workflow_record(self, workflow_id: str, coll: str,
                               source: str) -> bool:
        """Returns False when the id was already attached (dedup)."""
        with self._lock:
            if workflow_id in self._workflows:
                return False
            self._commit("workflow.attach", {
                "id": workflow_id, "coll": coll, "source": source,
                "attached_at": now_us(),
            })
            return True

    def workflow(self, workflow_id: str) -> dict:
        with self._lock:
            record = self._workflows.get(workflow_id)
            if record is None:
                raise NoSuchWorkflow(workflow_id)
            return dict(record, id=workflow_id)

    def record_run(self, record: dict) -> None:
        with self._lock:
            run_id = record["run_id"]
            if run_id in self._runs:
                raise ValueError(f"run {run_id!r} already recorded")
            self._commit("run.record", {"record": record})

    def run(self, run_id: str) -> dict:
        with self._lock:
            record = self._runs.get(run_id)
            if record is None:
                raise NoSuchRun(run_id)
            return _json_copy(record)

    # -- streams ----------------------------------------------------------------

    def next_segment_id(self, coll: str) -> int:
        with self._lock:
            return self._stream_counters.get(coll, 0) + 1

    def ingest_segment(self, coll: str, segment_id: int, path: str,
                       owner: str, resource: str, physical_ref: str,
                       checksum: str, size: int, t_min: int, t_max: int,
                       record_count: int) -> None:
        with self._lock:
            self._commit("stream.ingest", {
                "coll": coll, "segment_id": segment_id, "path": path,
                "owner": owner, "resource": resource,
                "physical_ref": physical_ref, "checksum": checksum,
                "size": size, "t_min": t_min, "t_max": t_max,
                "record_count": record_count,
            })

    # -- journal apply layer (pure functions of args) ----------------------------

    def _apply(self, op: str, args: dict, seq: int) -> None:
        handler = _APPLY.get(op)
        if handler is None:
            raise CorruptJournal(f"unknown op {op!r}")
        handler(self, args, seq)

    def _apply_user_create(self, a: dict, seq: int) -> None:
        self._users[a["name"]] = {
            "role": a["role"], "secret_hash": a["secret_hash"],
            "groups": list(a["groups"]),
        }

    def _apply_user_group_add(self, a: dict, seq: int) -> None:
        groups = self._users[a["user"]]["groups"]
        if a["group"] not in groups:
            groups.append(a["group"])
            groups.sort()

    def _apply_resource_register(self, a: dict, seq: int) -> None:
        self._resources[a["name"]] = {
            "driver_name": a["driver_name"], "root": a["root"],
            "kind": a["kind"],
        }

    # These two run for every record a reopen replays: they look up
    # before they insert, as setdefault would build a throwaway container
    # each call, which costs more in garbage collection than the lookup.

    def _add_child(self, path: str, kind: int) -> None:
        """File a new path under its parent: kind 0 is a subcollection,
        1 an object."""
        parent = parent_path(path)
        lists = self._children.get(parent)
        if lists is None:
            lists = self._children[parent] = ([], [])
        insort(lists[kind], path)

    def _index_avu(self, path: str, name: str, value: str) -> None:
        by_value = self._avu_index.get(name)
        if by_value is None:
            self._avu_index[name] = {value: {path}}
            return
        paths = by_value.get(value)
        if paths is None:
            by_value[value] = {path}
            values = self._sorted_values.get(name)
            if values is not None:
                insort(values, value)
        else:
            paths.add(path)

    def _apply_collection_create(self, a: dict, seq: int) -> None:
        self._collections[a["path"]] = {
            "owner": a["owner"], "acl": dict(a["acl"]), "kind": a["kind"],
        }
        if a["path"] != "/":
            self._add_child(a["path"], 0)

    def _apply_acl_set(self, a: dict, seq: int) -> None:
        node = self._node(a["path"])
        node["acl"][a["principal"]] = a["perm"]

    def _apply_avu_add(self, a: dict, seq: int) -> None:
        triples = self._avus.setdefault(a["path"], [])
        triple = [a["name"], a["value"], a["comment"]]
        if triple not in triples:
            triples.append(triple)
            self._index_avu(a["path"], a["name"], a["value"])

    def _apply_object_put(self, a: dict, seq: int) -> None:
        self._put_replica(a)
        self._rewrites[parent_path(a["path"])] = seq

    def _put_replica(self, a: dict) -> None:
        """Create the object with one replica, or replace its replicas."""
        replica = {
            "resource": a["resource"], "physical_ref": a["physical_ref"],
            "checksum": a["checksum"], "size": a["size"], "status": "good",
        }
        obj = self._objects.get(a["path"])
        if obj is None:
            self._objects[a["path"]] = {
                "owner": a["owner"], "acl": {a["owner"]: "own"},
                "version": 1, "replicas": [replica],
            }
            self._add_child(a["path"], 1)
        else:
            obj["version"] += 1
            obj["replicas"] = [replica]

    def _apply_replica_add(self, a: dict, seq: int) -> None:
        self._objects[a["path"]]["replicas"].append({
            "resource": a["resource"], "physical_ref": a["physical_ref"],
            "checksum": a["checksum"], "size": a["size"],
            "status": a["status"],
        })

    def _apply_replica_status(self, a: dict, seq: int) -> None:
        for r in self._objects[a["path"]]["replicas"]:
            if r["physical_ref"] == a["physical_ref"]:
                r["status"] = a["status"]

    def _apply_object_remove(self, a: dict, seq: int) -> None:
        path = a["path"]
        parent = parent_path(path)
        del self._objects[path]
        subcolls, objects = self._children[parent]
        del objects[bisect_left(objects, path)]
        if not (subcolls or objects):
            del self._children[parent]
        self._rewrites[parent] = seq
        # Triples that differ only in their comment share one pair.
        pairs = {(name, value) for name, value, _ in self._avus.pop(path, ())}
        for name, value in pairs:
            # Drop emptied buckets, so a query's work stays bounded by
            # the live (name, value) pairs.
            by_value = self._avu_index[name]
            paths = by_value[value]
            paths.discard(path)
            if not paths:
                del by_value[value]
                values = self._sorted_values.get(name)
                if values is not None:
                    del values[bisect_left(values, value)]
                if not by_value:
                    del self._avu_index[name]
                    self._sorted_values.pop(name, None)

    def _apply_orphan_add(self, a: dict, seq: int) -> None:
        self._orphans.append({
            "path": a["path"], "resource": a["resource"],
            "physical_ref": a["physical_ref"], "checksum": a["checksum"],
        })

    def _apply_rule_add(self, a: dict, seq: int) -> None:
        self._rules[a["name"]] = {
            "pep": a["pep"], "priority": a["priority"], "text": a["text"],
        }
        self._rule_version += 1

    def _apply_rule_remove(self, a: dict, seq: int) -> None:
        del self._rules[a["name"]]
        self._rule_version += 1

    def _apply_workflow_attach(self, a: dict, seq: int) -> None:
        self._workflows[a["id"]] = {
            "coll": a["coll"], "source": a["source"],
            "attached_at": a["attached_at"],
        }

    def _apply_run_record(self, a: dict, seq: int) -> None:
        record = _json_copy(a["record"])
        self._runs[record["run_id"]] = record

    def _apply_stream_ingest(self, a: dict, seq: int) -> None:
        # Streams indexes its own ingests, but not one that replaces an
        # object put under the segment's name beforehand.
        if a["path"] in self._objects:
            self._rewrites[a["coll"]] = seq
        self._put_replica(a)
        current = self._stream_counters.get(a["coll"], 0)
        self._stream_counters[a["coll"]] = max(current, a["segment_id"])
        for name, value in (("stream.t_min", str(a["t_min"])),
                            ("stream.t_max", str(a["t_max"]))):
            self._apply_avu_add(
                {"path": a["path"], "name": name, "value": value,
                 "comment": ""}, seq)

    def _apply_audit_append(self, a: dict, seq: int) -> None:
        """An audit.append of the main journal, as zones wrote them before
        audit.log: it changes no state. A malformed one fails a replay."""
        if not _AUDIT_FIELDS <= a.keys():
            raise CorruptJournal(f"malformed audit.append at seq {seq}")


_APPLY = {
    "user.create": Catalog._apply_user_create,
    "user.group_add": Catalog._apply_user_group_add,
    "resource.register": Catalog._apply_resource_register,
    "collection.create": Catalog._apply_collection_create,
    "acl.set": Catalog._apply_acl_set,
    "avu.add": Catalog._apply_avu_add,
    "object.put": Catalog._apply_object_put,
    "replica.add": Catalog._apply_replica_add,
    "replica.status": Catalog._apply_replica_status,
    "object.remove": Catalog._apply_object_remove,
    "orphan.add": Catalog._apply_orphan_add,
    "rule.add": Catalog._apply_rule_add,
    "rule.remove": Catalog._apply_rule_remove,
    "workflow.attach": Catalog._apply_workflow_attach,
    "run.record": Catalog._apply_run_record,
    "stream.ingest": Catalog._apply_stream_ingest,
    "audit.append": Catalog._apply_audit_append,
}
