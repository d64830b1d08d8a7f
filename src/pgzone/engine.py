"""The policy engine: traps client actions at enforcement points,
resolves them against the rule base, and runs micro-service chains.

Engine.trapped is the one place that implements the trap. Each of the
eight trapped operations (PEP_OPS) validates its arguments and takes its
locks, then runs its effect, authorization included, as the body of
``with engine.trapped(op, actor, ...)``:

    fire pep.<op>.pre -> effect (the with-block) -> fire pep.<op>.post

and afterwards appends its own audit entry where it has one. A pre
verdict of Deny aborts with Denied before any effect; Error aborts with
EngineError. An effect that raises skips post. Post verdicts are
recorded in the audit trail but never undo the effect. Operations
invoked from inside rule chains or procedure bodies (via micro-services)
use the internal entry points, which authorize and act but do not
re-enter the enforcement points, so policy evaluation cannot recurse.

The path every trapped operation shares reads the catalog through its
plain lookups, not its views: the firing's user.role (user_role), the
owner a get, put, remove or replicate binds (object_owner), a
resource's driver and root (resource_location), and the replicas a
read tries (good_replicas). A public getter (get_object, get_user,
get_resource) builds a frozen view on each call; the engine uses them
for what it hands back, such as the ObjectView a put returns, and off
that path.

Rule dispatch is first match wins over rules for the point, ordered by
descending priority then ascending name; when nothing matches the
verdict is Allow. A rule is parsed when it is added or when the zone
opens. Each rule change replaces the dispatch table, so a firing never
parses or sorts, and a concurrent edit affects the next firing, never
one in flight.
"""

from __future__ import annotations

import threading
import urllib.error
import urllib.request
import weakref
from _weakref import _remove_dead_weakref
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping

from .catalog import (
    Catalog,
    ObjectView,
    ReplicaView,
    RuleEntryView,
    parent_path,
    validate_path,
)
from .common import SYSTEM, Registry, sha256_hex
from .drivers import Driver
from .errors import (
    AllReplicasSuspect,
    ChecksumMismatch,
    CorruptJournal,
    Denied,
    DuplicateName,
    DuplicateReplica,
    EngineError,
    EvalError,
    FetchFailed,
    KindMismatch,
    NoParent,
    NoSuchPath,
    NoSuchRef,
    TypeMismatch,
    UnknownPep,
    ZoneError,
)
from .ruledsl import (
    Allow,
    Assign,
    Call,
    Deny,
    Foreach,
    If,
    RuleAst,
    Value,
    eval_expr,
    parse_rules,
    print_rule,
)

PEP_OPS = (
    "data.put", "data.get", "data.remove", "data.replicate",
    "collection.create", "meta.add", "stream.ingest", "workflow.run",
)
PEP_NAMES = tuple(
    f"pep.{op}.{phase}" for op in PEP_OPS for phase in ("pre", "post"))
_PEP_SET = frozenset(PEP_NAMES)


@dataclass(frozen=True)
class Verdict:
    kind: str  # "allow" | "deny" | "error"
    detail: str = ""
    rule: str | None = None  # name of the deciding rule, None for default


ALLOW = Verdict("allow")


# --------------------------------------------------------------------------
# Run recording (consumed by the provenance layer)
# --------------------------------------------------------------------------

@dataclass
class RunRecorder:
    """Collects the logical paths a chain touches. First-read checksums
    capture what the run actually consumed; writes are checksummed after
    the run completes."""
    reads: dict[str, str] = field(default_factory=dict)
    writes: set[str] = field(default_factory=set)

    def record_read(self, path: str, checksum: str) -> None:
        self.reads.setdefault(path, checksum)

    def record_write(self, path: str) -> None:
        self.writes.add(path)


_tls = threading.local()


def current_recorder() -> RunRecorder | None:
    return getattr(_tls, "recorder", None)


class recording:
    """Context manager installing a RunRecorder for the current thread."""

    def __init__(self, recorder: RunRecorder):
        self.recorder = recorder

    def __enter__(self) -> RunRecorder:
        _tls.recorder = self.recorder
        return self.recorder

    def __exit__(self, *exc) -> None:
        _tls.recorder = None


# --------------------------------------------------------------------------
# Micro-service plumbing
# --------------------------------------------------------------------------

@dataclass
class MsContext:
    """Execution context handed to every micro-service: the engine, the
    user the chain runs as, and the collection relative paths resolve
    against (set inside procedure runs, None at rule chains)."""
    engine: "Engine"
    actor: str
    base_coll: str | None = None

    def resolve(self, path: Value) -> str:
        if not isinstance(path, str) or not path:
            raise TypeMismatch(f"expected a path string, got {path!r}")
        if path.startswith("/"):
            return path
        if self.base_coll is None:
            raise EngineError(
                f"relative path {path!r} outside a procedure run")
        return f"{self.base_coll.rstrip('/')}/{path}"


@dataclass(frozen=True)
class MicroService:
    name: str
    fn: Callable[..., Value | None]
    min_args: int
    max_args: int


def _require_str(value: Value, what: str) -> str:
    if not isinstance(value, str):
        raise TypeMismatch(f"{what} must be a string, got {value!r}")
    return value


def _require_int(value: Value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeMismatch(f"{what} must be an integer, got {value!r}")
    return value


# Built-in micro-services. Each performs the real operation as the
# calling user through the internal entry points (authorized, recorded,
# but not re-trapped).

def _ms_set_avu(ctx: MsContext, *args: Value) -> Value:
    path = ctx.resolve(args[0])
    name = _require_str(args[1], "attribute name")
    value = _require_str(args[2], "attribute value")
    comment = _require_str(args[3], "attribute comment") if len(args) > 3 \
        else ""
    ctx.engine.catalog.add_avu(ctx.actor, path, name, value, comment)
    return ""


def _ms_checksum(ctx: MsContext, *args: Value) -> Value:
    _data, checksum = ctx.engine.read_object(ctx.actor, ctx.resolve(args[0]))
    return checksum


def _ms_replicate_to(ctx: MsContext, *args: Value) -> Value:
    path = ctx.resolve(args[0])
    resource = _require_str(args[1], "resource name")
    ctx.engine.replicate_internal(ctx.actor, path, resource)
    return ""


def _ms_audit_msg(ctx: MsContext, *args: Value) -> Value:
    text = _require_str(args[0], "message")
    ctx.engine.catalog.audit_append(ctx.actor, "user.message", text)
    return ""


def _ms_http_fetch(ctx: MsContext, *args: Value) -> Value:
    url = _require_str(args[0], "url")
    dest = ctx.resolve(args[1])
    path, _cached = ctx.engine.fetch(ctx.actor, url, dest)
    return path


def _ms_put_int(ctx: MsContext, *args: Value) -> Value:
    value = _require_int(args[0], "value")
    path = ctx.resolve(args[1])
    data = str(value).encode("ascii")
    ctx.engine.put_internal(ctx.actor, path, data)
    return path


_BUILTINS = (
    ("set_avu", _ms_set_avu, 3, 4),
    ("checksum", _ms_checksum, 1, 1),
    ("replicate_to", _ms_replicate_to, 2, 2),
    ("audit_msg", _ms_audit_msg, 1, 1),
    ("http_fetch", _ms_http_fetch, 2, 2),
    ("put_int", _ms_put_int, 2, 2),
)

# Micro-services whose first argument names a logical path they only
# read; the provenance layer uses this to pre-scan procedure bodies for
# literal inputs.
READING_MICROSERVICES = frozenset({"checksum", "replicate_to"})


def _table_with(rules: list[RuleAst], table: dict) -> dict:
    """A new dispatch table: table plus rules, each point's rules in
    descending priority, then ascending name."""
    table = dict(table)
    for pep in {rule.pep for rule in rules}:
        table[pep] = tuple(sorted(
            [*table.get(pep, ()), *(r for r in rules if r.pep == pep)],
            key=lambda r: (-r.priority, r.name)))
    return table


# --------------------------------------------------------------------------
# Chain execution
# --------------------------------------------------------------------------

class _VerdictSignal(Exception):
    """Internal control flow: allow() / deny() unwinding a chain."""

    def __init__(self, verdict: Verdict):
        self.verdict = verdict


class _Trap:
    """The context manager Engine.trapped returns. A class, because a
    @contextmanager generator costs ~2.5 us more per trapped operation."""

    __slots__ = ("engine", "op", "actor", "bindings")

    def __init__(self, engine: "Engine", op: str, actor: str,
                 extra: dict[str, Value]):
        self.engine, self.op, self.actor = engine, op, actor
        self.bindings: dict[str, Value] = {
            "user.name": actor, "user.role": engine._role_of(actor),
            "op": op, **extra}

    def __enter__(self) -> dict[str, Value]:
        pre = f"pep.{self.op}.pre"
        verdict = self.engine.fire_pep(pre, self.actor, self.bindings)
        if verdict.kind == "deny":
            raise Denied(verdict.detail or "denied by policy")
        if verdict.kind == "error":
            raise EngineError(f"policy error at {pre}: {verdict.detail}")
        return self.bindings

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.engine.fire_pep(f"pep.{self.op}.post", self.actor,
                                 self.bindings)


class Engine:
    def __init__(self, catalog: Catalog, drivers: Registry[Driver],
                 default_resource: str | None = None):
        self.catalog = catalog
        self.drivers = drivers
        self.default_resource = default_resource
        self.microservices: Registry[MicroService] = Registry(
            "micro-service",
            lambda name: EngineError(f"unknown micro-service {name!r}"))
        for name, fn, lo, hi in _BUILTINS:
            self.microservices.register(name, MicroService(name, fn, lo, hi))
        self._rules_lock = threading.Lock()  # serializes rule changes
        self._load_table()  # point -> its rules in dispatch order
        # A path's lock lives while someone holds or waits for it, so
        # the map holds only the locks in use: path -> weak ref to it.
        self._path_locks: dict[str, weakref.ref] = {}
        self._path_locks_guard = threading.Lock()
        self.run_lock = threading.Lock()  # serializes procedure runs
        self._fetch_lock = threading.Lock()
        self._fetch_cache: dict[str, tuple[str, str]] = {}  # url -> (path, checksum)
        self.fetch_count = 0  # network round trips actually made
        self.url_opener = urllib.request.urlopen  # swappable in tests

    # -- locks -------------------------------------------------------------

    def _path_lock(self, path: str) -> threading.RLock:
        locks = self._path_locks
        with self._path_locks_guard:
            ref = locks.get(path)
            lock = ref() if ref is not None else None
            if lock is None:
                lock = threading.RLock()
                # When the lock dies, its entry goes, but only while the
                # entry is still a dead ref: a live lock made for the path
                # since then stays. The removal is one C call that takes
                # no lock, so the callback cannot deadlock when the lock
                # dies under the guard (a GC pass in this very method).
                locks[path] = weakref.ref(
                    lock, lambda _ref: _remove_dead_weakref(locks, path))
            return lock

    # -- rule base ----------------------------------------------------------

    def _load_table(self) -> None:
        """Build the dispatch table from the stored rules."""
        trees = []
        for entry in self.catalog.rules():
            try:
                (tree,) = parse_rules(entry.text)
            except (ZoneError, ValueError) as e:
                raise CorruptJournal(f"stored rule {entry.name!r}: {e}") from e
            trees.append(tree)
        self._table: dict[str, tuple[RuleAst, ...]] = _table_with(trees, {})

    def add_rules(self, caller: str, text: str) -> list[str]:
        """Parse and install one or more rules; atomic per call: either
        every rule in the text is installed or none is, even when another
        admin adds a rule of the same name at the same time. Only a
        journal write that fails midway leaves the rules committed before
        it installed."""
        self.catalog.require_admin(caller)
        rules = parse_rules(text)
        if not rules:
            raise EngineError("no rules in input")
        seen: set[str] = set()
        for rule in rules:
            if rule.pep not in _PEP_SET:
                raise UnknownPep(rule.pep)
            if rule.name in seen:
                raise DuplicateName(f"rule {rule.name!r} repeated in input")
            seen.add(rule.name)
        with self._rules_lock:
            try:
                self.catalog.add_rule_records(
                    [(r.name, r.pep, r.priority, print_rule(r))
                     for r in rules])
            except BaseException as e:
                if not isinstance(e, ZoneError):  # a write failed midway
                    self._load_table()  # so the rules before it stand
                raise
            self._table = _table_with(rules, self._table)
        for rule in rules:
            self.catalog.audit_append(caller, "rule.add", rule.name)
        return [r.name for r in rules]

    def remove_rule(self, caller: str, name: str) -> None:
        self.catalog.require_admin(caller)
        with self._rules_lock:
            pep = self.catalog.remove_rule_record(name)
            self._table = {**self._table, pep: tuple(
                r for r in self._table[pep] if r.name != name)}
        self.catalog.audit_append(caller, "rule.remove", name)

    def list_rules(self) -> list[RuleEntryView]:
        return self.catalog.rules()

    def _rules_for(self, pep: str) -> tuple[RuleAst, ...]:
        """The rules of pep, in dispatch order."""
        return self._table.get(pep, ())

    # -- enforcement points ---------------------------------------------------

    def _role_of(self, actor: str) -> str:
        if actor == SYSTEM:
            return "system"
        return self.catalog.user_role(actor)

    def fire_pep(self, pep: str, actor: str,
                 bindings: Mapping[str, Value]) -> Verdict:
        """Resolve one enforcement-point firing to a verdict and audit it."""
        if pep not in _PEP_SET:
            raise UnknownPep(pep)
        verdict = ALLOW
        for rule in self._rules_for(pep):
            try:
                hit = eval_expr(rule.condition, bindings)
            except (EvalError, ZoneError) as e:
                verdict = Verdict("error", f"condition: {e}", rule.name)
                break
            if not isinstance(hit, bool):
                verdict = Verdict("error", "condition is not a boolean",
                                  rule.name)
                break
            if not hit:
                continue
            try:
                self._exec_items(rule.actions, {**bindings}, actor, None)
            except _VerdictSignal as sig:
                verdict = Verdict(sig.verdict.kind, sig.verdict.detail,
                                  rule.name)
            except (EvalError, ZoneError) as e:
                verdict = Verdict("error", str(e), rule.name)
            else:
                verdict = Verdict("allow", "", rule.name)
            break
        detail = f"{pep} rule={verdict.rule or '-'}"
        if verdict.detail:
            detail += f" {verdict.detail}"
        self.catalog.audit_append(actor, f"pep.{verdict.kind}", detail)
        return verdict

    def trapped(self, op: str, actor: str, **extra: Value) -> "_Trap":
        """Trap one client operation: fire pep.<op>.pre, run the with-block
        as the effect, then fire pep.<op>.post. The with-statement's
        target is the firing's bindings. A pre Deny raises Denied and an Error raises
        EngineError, both before the effect; an effect that raises skips
        post."""
        return _Trap(self, op, actor, extra)

    def _exec_items(self, items: Iterable, scope: dict[str, Value],
                    actor: str, base_coll: str | None) -> None:
        """Run a chain. scope holds its variables: a copy of the bindings
        it runs with, which its assignments extend or shadow."""
        for item in items:
            if isinstance(item, Call):
                self._exec_call(item, scope, actor, base_coll)
            elif isinstance(item, Assign):
                if isinstance(item.value, Call):
                    result = self._exec_call(item.value, scope, actor,
                                             base_coll)
                    if result is None:
                        result = ""
                else:
                    result = eval_expr(item.value, scope)
                scope[item.target] = result
            elif isinstance(item, If):
                cond = eval_expr(item.cond, scope)
                if not isinstance(cond, bool):
                    raise TypeMismatch("if condition is not a boolean")
                if cond:
                    self._exec_items(item.then, scope, actor, base_coll)
                elif item.orelse is not None:
                    self._exec_items(item.orelse, scope, actor, base_coll)
            elif isinstance(item, Foreach):
                seq = eval_expr(item.items, scope)
                if not isinstance(seq, list):
                    raise TypeMismatch("foreach needs a list of strings")
                for element in seq:
                    scope[item.var] = element
                    self._exec_items(item.body, scope, actor, base_coll)
            elif isinstance(item, Allow):
                raise _VerdictSignal(ALLOW)
            elif isinstance(item, Deny):
                raise _VerdictSignal(Verdict("deny", item.reason))
            else:
                raise EngineError(f"unknown chain item {item!r}")

    def _exec_call(self, call: Call, scope: dict[str, Value], actor: str,
                   base_coll: str | None) -> Value | None:
        ms = self.microservices.get(call.name)
        args = [eval_expr(a, scope) for a in call.args]
        if not ms.min_args <= len(args) <= ms.max_args:
            raise EngineError(
                f"{call.name} takes {ms.min_args}..{ms.max_args} arguments, "
                f"got {len(args)}")
        ctx = MsContext(engine=self, actor=actor, base_coll=base_coll)
        return ms.fn(ctx, *args)

    def run_procedure_body(self, items: Iterable, scope: dict[str, Value],
                           actor: str, base_coll: str) -> None:
        """Execute a procedure body; allow()/deny() end it early, deny
        raising Denied. Used by the provenance layer."""
        try:
            self._exec_items(items, scope, actor, base_coll)
        except _VerdictSignal as sig:
            if sig.verdict.kind == "deny":
                raise Denied(sig.verdict.detail or "denied") from None

    # -- micro-service registration -------------------------------------------

    def register_microservice(self, caller: str, name: str, fn: Callable,
                              min_args: int, max_args: int | None = None) -> None:
        self.catalog.require_admin(caller)
        if max_args is None:
            max_args = min_args
        self.microservices.register(
            name, MicroService(name, fn, min_args, max_args))
        self.catalog.audit_append(caller, "microservice.register", name)

    # -- resource helpers --------------------------------------------------------

    def _resource_or_default(self, resource: str | None) -> str:
        if resource is not None:
            return resource
        if self.default_resource is None:
            raise EngineError("no resource given and no default configured")
        return self.default_resource

    def _driver_for(self, resource_name: str) -> tuple[Driver, str]:
        driver_name, root = self.catalog.resource_location(resource_name)
        return self.drivers.get(driver_name), root

    def _store_bytes(self, resource_name: str, data: bytes) -> tuple[str, str]:
        driver, root = self._driver_for(resource_name)
        ref = driver.new_ref(root)
        driver.store(ref, data)
        return ref, sha256_hex(data)

    # -- effects (shared by trapped and internal entry points) -----------------

    def _put_effect(self, actor: str, path: str, data: bytes,
                    resource: str) -> ObjectView:
        if self.catalog.object_exists(path):
            owner = self.catalog.object_owner(path)
            self.catalog.require_access(path, actor, "write")
        else:
            owner = actor
            parent = parent_path(path)
            if not self.catalog.collection_exists(parent):
                raise NoParent(parent)
            self.catalog.require_access(parent, actor, "write")
        ref, checksum = self._store_bytes(resource, data)
        _version, replaced = self.catalog.put_object(
            path, owner, resource, ref, checksum, len(data))
        for old in replaced:
            self._dispose_replica(path, old)
        rec = current_recorder()
        if rec is not None:
            rec.record_write(path)
        return self.catalog.get_object(path)

    def _dispose_replica(self, path: str, replica) -> None:
        """Delete the bytes of a replica no record names any more: one a
        put replaced or a remove dropped, or a replicate copy that read
        back wrong. When they cannot be deleted (Unsupported, any other
        DriverError, or no driver), park the replica on the orphan list
        so an operator can reclaim it; the operation stands either way."""
        try:
            driver, _root = self._driver_for(replica.resource)
            driver.unlink(replica.physical_ref)
        except NoSuchRef:
            pass
        except ZoneError:
            self.catalog.add_orphan(path, replica.resource,
                                    replica.physical_ref, replica.checksum)

    def _read_replica(self, resource: str, physical_ref: str,
                      checksum: str) -> bytes | None:
        """A replica's bytes, or None when they cannot be read or no
        longer hash to its recorded checksum."""
        try:
            driver, _root = self._driver_for(resource)
            data = driver.read_all(physical_ref)
        except ZoneError:
            return None
        return data if sha256_hex(data) == checksum else None

    def read_object(self, actor: str, path: str) -> tuple[bytes, str]:
        """Authorized read returning verified bytes and the checksum they
        were verified against; replicas whose bytes no longer hash to
        their recorded checksum are marked suspect and skipped."""
        with self._path_lock(path):
            replicas = self.catalog.good_replicas(path)
            self.catalog.require_access(path, actor, "read")
            for resource, physical_ref, checksum in replicas:
                data = self._read_replica(resource, physical_ref, checksum)
                if data is not None:
                    rec = current_recorder()
                    if rec is not None:
                        rec.record_read(path, checksum)
                    return data, checksum
                self.catalog.set_replica_status(
                    path, physical_ref, "suspect")
            raise AllReplicasSuspect(path)

    def put_internal(self, actor: str, path: str, data: bytes) -> ObjectView:
        validate_path(path)
        resource = self._resource_or_default(None)
        with self._path_lock(path):
            return self._put_effect(actor, path, data, resource)

    def replicate_internal(self, actor: str, path: str,
                           dest_resource: str) -> ObjectView:
        with self._path_lock(path):
            return self._replicate_effect(actor, path, dest_resource)

    def _replicate_effect(self, actor: str, path: str,
                          dest_resource: str) -> ObjectView:
        obj = self.catalog.get_object(path)
        self.catalog.require_access(path, actor, "write")
        self.catalog.get_resource(dest_resource)
        if any(r.resource == dest_resource for r in obj.replicas):
            raise DuplicateReplica(
                f"{path!r} already has a replica on {dest_resource!r}")
        data, checksum = self.read_object(actor, path)
        driver, root = self._driver_for(dest_resource)
        ref = driver.new_ref(root)
        driver.store(ref, data)
        back = driver.read_all(ref)
        if sha256_hex(back) != checksum:
            self._dispose_replica(path, ReplicaView(
                dest_resource, ref, sha256_hex(back), len(back), "suspect"))
            raise ChecksumMismatch(
                f"replica on {dest_resource!r} reads back corrupted")
        self.catalog.add_replica(path, dest_resource, ref, checksum,
                                 len(data))
        return self.catalog.get_object(path)

    # -- trapped client operations ------------------------------------------

    def put(self, actor: str, path: str, data: bytes,
            resource: str | None = None) -> ObjectView:
        validate_path(path)
        resource = self._resource_or_default(resource)
        self.catalog.resource_location(resource)  # NoSuchResource if absent
        with self._path_lock(path):
            owner = self.catalog.object_owner(path) \
                if self.catalog.object_exists(path) else actor
            with self.trapped("data.put", actor, **{
                    "obj.path": path, "obj.owner": owner,
                    "resc.name": resource}):
                view = self._put_effect(actor, path, data, resource)
            self.catalog.audit_append(actor, "data.put", path)
            return view

    def get(self, actor: str, path: str) -> bytes:
        with self._path_lock(path):
            owner = self.catalog.object_owner(path)  # NoSuchObject if absent
            with self.trapped("data.get", actor, **{
                    "obj.path": path, "obj.owner": owner}):
                data, _checksum = self.read_object(actor, path)
            return data

    def remove(self, actor: str, path: str) -> None:
        with self._path_lock(path):
            owner = self.catalog.object_owner(path)
            with self.trapped("data.remove", actor, **{
                    "obj.path": path, "obj.owner": owner}):
                self.catalog.require_access(path, actor, "write")
                for replica in self.catalog.remove_object(path):
                    self._dispose_replica(path, replica)
            self.catalog.audit_append(actor, "data.remove", path)

    def replicate(self, actor: str, path: str,
                  dest_resource: str) -> ObjectView:
        with self._path_lock(path):
            owner = self.catalog.object_owner(path)
            self.catalog.get_resource(dest_resource)
            with self.trapped("data.replicate", actor, **{
                    "obj.path": path, "obj.owner": owner,
                    "resc.name": dest_resource}):
                view = self._replicate_effect(actor, path, dest_resource)
            self.catalog.audit_append(
                actor, "data.replicate", f"{path} -> {dest_resource}")
            return view

    def stage(self, actor: str, path: str, to_resource: str) -> ObjectView:
        """Copy toward fast storage: destination must be a cache resource."""
        return self._replicate_to_kind(actor, path, to_resource, "stage",
                                       "a cache")

    def archive(self, actor: str, path: str, to_resource: str) -> ObjectView:
        """Copy toward preservation storage: destination must be archival."""
        return self._replicate_to_kind(actor, path, to_resource, "archive",
                                       "an archive")

    def _replicate_to_kind(self, actor: str, path: str, to_resource: str,
                           op: str, needs: str) -> ObjectView:
        """replicate(), once to_resource is of the kind `needs` names
        ("a cache", "an archive")."""
        res = self.catalog.get_resource(to_resource)
        if res.kind != needs.split()[-1]:
            raise KindMismatch(
                f"{op} needs {needs} resource, {to_resource!r} is "
                f"{res.kind!r}")
        return self.replicate(actor, path, to_resource)

    def verify_object(self, actor: str, path: str) -> list[tuple[str, str]]:
        """Re-hash every replica against its recorded checksum, fixing
        statuses up or down; returns (resource, status) pairs."""
        with self._path_lock(path):
            obj = self.catalog.get_object(path)
            self.catalog.require_access(path, actor, "read")
            result: list[tuple[str, str]] = []
            for replica in obj.replicas:
                ok = self._read_replica(replica.resource,
                                        replica.physical_ref,
                                        replica.checksum) is not None
                status = "good" if ok else "suspect"
                if status != replica.status:
                    self.catalog.set_replica_status(
                        path, replica.physical_ref, status)
                result.append((replica.resource, status))
            self.catalog.audit_append(
                actor, "data.verify",
                f"{path} " + ",".join(f"{r}={s}" for r, s in result))
            return result

    def make_collection(self, actor: str, path: str,
                        kind: str = "plain") -> str:
        validate_path(path)
        with self.trapped("collection.create", actor, **{"coll.path": path}):
            self.catalog.make_collection(actor, path, kind=kind)
        return path

    def add_avu(self, actor: str, path: str, name: str, value: str,
                comment: str = "") -> None:
        if not self.catalog.path_exists(path):
            raise NoSuchPath(path)
        with self.trapped("meta.add", actor, **{"obj.path": path}):
            self.catalog.add_avu(actor, path, name, value, comment)

    # -- remote fetch with caching ---------------------------------------------

    def fetch(self, actor: str, url: str, dest_path: str) -> tuple[str, bool]:
        """Fetch a URL into the zone once: a later fetch of the exact
        same URL returns the already-stored object without touching the
        network, as long as that object still exists unchanged."""
        validate_path(dest_path)
        with self._fetch_lock:
            cached = self._fetch_cache.get(url)
            if cached is not None:
                path, checksum = cached
                if self.catalog.object_exists(path) and \
                        self.catalog.get_object(path).checksum == checksum:
                    self.catalog.require_access(path, actor, "read")
                    rec = current_recorder()
                    if rec is not None:
                        rec.record_read(path, checksum)
                    return path, True
                del self._fetch_cache[url]
            data = self._http_get(url)
            view = self.put_internal(actor, dest_path, data)
            self._fetch_cache[url] = (dest_path, view.checksum)
            return dest_path, False

    def _http_get(self, url: str) -> bytes:
        self.fetch_count += 1  # counts network attempts, caller holds lock
        try:
            with self.url_opener(url, timeout=30) as response:
                status = getattr(response, "status", 200)
                if status != 200:
                    raise FetchFailed(f"GET {url} -> {status}", status)
                return response.read()
        except urllib.error.HTTPError as e:
            raise FetchFailed(f"GET {url} -> {e.code}", e.code) from e
        except urllib.error.URLError as e:
            raise FetchFailed(f"GET {url}: {e.reason}") from e
