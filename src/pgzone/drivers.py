"""Storage drivers: the four-call contract, built-ins, and registry.

A driver stores and reads whole blobs at one class of storage location.
The engine treats physical refs as opaque tokens: it asks the driver to
allocate one (new_ref), then only ever hands it back unchanged. A driver
is a Driver subclass with four calls:

  new_ref(root) -> str    a fresh ref under root (the base class's uuid
                          layout serves most drivers)
  store(ref, data)        write the blob; DriverError if ref exists
  read_all(ref) -> bytes  the stored bytes; NoSuchRef if ref is missing
  unlink(ref)             delete the blob; NoSuchRef if ref is missing,
                          Unsupported if the driver never deletes

Any other failure of the storage is raised as a DriverError, so that the
engine can fail over to another replica, or orphan-list one it could
not delete. Built-in drivers are "localfs" (filesystem), "mem"
(in-process), and "archive" (in-process, never deletes). run_conformance
checks a driver's four calls against an in-memory model.
"""

from __future__ import annotations

import os
import posixpath
import random
import threading
import uuid
from dataclasses import dataclass, field

from .errors import DriverError, DuplicateName, NoSuchRef, Unsupported, UnknownDriver


class Driver:
    """Base contract. Subclasses implement store, read_all and unlink."""

    def new_ref(self, root: str) -> str:
        u = uuid.uuid4().hex
        return posixpath.join(root, u[:2], u)

    def store(self, ref: str, data: bytes) -> None:
        raise NotImplementedError

    def read_all(self, ref: str) -> bytes:
        raise NotImplementedError

    def unlink(self, ref: str) -> None:
        raise NotImplementedError


class MemDriver(Driver):
    """In-process byte store; refs are keys into a dict."""

    def __init__(self):
        self.blobs: dict[str, bytes] = {}
        self._lock = threading.Lock()

    def store(self, ref: str, data: bytes) -> None:
        data = bytes(data)
        with self._lock:
            if ref in self.blobs:
                raise DriverError(f"ref already exists: {ref!r}")
            self.blobs[ref] = data

    def read_all(self, ref: str) -> bytes:
        with self._lock:
            blob = self.blobs.get(ref)
            if blob is None:
                raise NoSuchRef(ref)
            return bytes(blob)

    def unlink(self, ref: str) -> None:
        with self._lock:
            if self.blobs.pop(ref, None) is None:
                raise NoSuchRef(ref)


class ArchiveDriver(MemDriver):
    """Write-once store: a stored blob is never deleted."""

    def unlink(self, ref: str) -> None:
        raise Unsupported("the archive driver never deletes")


class LocalFsDriver(Driver):
    """Filesystem driver; a ref is a real path <root>/<two-hex>/<uuid>.

    Every OSError other than a missing or an existing ref is raised as a
    DriverError."""

    def store(self, ref: str, data: bytes) -> None:
        try:
            try:
                f = open(ref, "xb")
            except FileNotFoundError:
                # The two-hex directory is made only when the open finds
                # it missing, and the open is then retried once.
                os.makedirs(os.path.dirname(ref), exist_ok=True)
                f = open(ref, "xb")
            with f:
                f.write(data)
        except FileExistsError:
            raise DriverError(f"ref already exists: {ref!r}") from None
        except OSError as e:
            raise DriverError(f"store of {ref!r} failed: {e}") from e

    def read_all(self, ref: str) -> bytes:
        try:
            with open(ref, "rb") as f:
                return f.read()
        except FileNotFoundError:
            raise NoSuchRef(ref) from None
        except OSError as e:
            raise DriverError(f"read of {ref!r} failed: {e}") from e

    def unlink(self, ref: str) -> None:
        try:
            os.remove(ref)
        except FileNotFoundError:
            raise NoSuchRef(ref) from None
        except OSError as e:
            raise DriverError(f"unlink of {ref!r} failed: {e}") from e


class DriverRegistry:
    """Name -> driver map, mutable while the system runs."""

    def __init__(self):
        self._drivers: dict[str, Driver] = {}
        self._lock = threading.Lock()

    def register(self, name: str, driver: Driver) -> None:
        with self._lock:
            if name in self._drivers:
                raise DuplicateName(f"driver {name!r} already registered")
            self._drivers[name] = driver

    def get(self, name: str) -> Driver:
        with self._lock:
            try:
                return self._drivers[name]
            except KeyError:
                raise UnknownDriver(name) from None

    def names(self) -> tuple[str, ...]:
        with self._lock:
            return tuple(sorted(self._drivers))


def builtin_registry() -> DriverRegistry:
    reg = DriverRegistry()
    reg.register("localfs", LocalFsDriver())
    reg.register("mem", MemDriver())
    reg.register("archive", ArchiveDriver())
    return reg


# --------------------------------------------------------------------------
# Model-based conformance suite
# --------------------------------------------------------------------------

@dataclass
class ConformanceReport:
    ops_run: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def run_conformance(driver: Driver, root: str, n_ops: int = 1000,
                    seed: int = 0) -> ConformanceReport:
    """Drive a seeded random sequence of the four calls against `driver`
    and an in-memory model; any observable divergence, or a DriverError
    the contract does not name, is a failure. An unlink may answer
    Unsupported, after which the blob must still read back.
    """
    rng = random.Random(seed)
    model: dict[str, bytes] = {}
    report = ConformanceReport()
    # Reads are drawn twice as often as the rest; "*_unknown" goes to a
    # ref that was never stored.
    ops = ("store", "store_existing", "read", "read", "read_unknown",
           "unlink", "unlink_unknown")

    def notice(op_idx: int, msg: str) -> None:
        report.failures.append(f"op {op_idx}: {msg}")

    def must_raise(op_idx: int, want, call, ref: str, *args) -> None:
        name = f"{call.__name__}({ref!r})"
        try:
            call(ref, *args)
        except want:
            return
        except DriverError as e:
            notice(op_idx, f"{name} raised {type(e).__name__}: {e}")
            return
        notice(op_idx, f"{name} succeeded")

    for idx in range(n_ops):
        op = rng.choice(ops) if model else "store"
        report.ops_run += 1
        if op in ("store", "read_unknown", "unlink_unknown"):
            ref = driver.new_ref(root)
        else:
            ref = rng.choice(sorted(model))

        if op == "store":
            data = rng.randbytes(rng.randrange(0, 65))
            try:
                driver.store(ref, data)
            except DriverError as e:
                notice(idx, f"store({ref!r}) failed: {e}")
                continue
            model[ref] = data

        elif op == "store_existing":
            must_raise(idx, DriverError, driver.store, ref, b"other")

        elif op == "read":
            try:
                got = driver.read_all(ref)
            except DriverError as e:
                notice(idx, f"read_all({ref!r}) failed: {e}")
                continue
            if got != model[ref]:
                notice(idx, f"read_all({ref!r}) -> {got!r}, "
                            f"want {model[ref]!r}")

        elif op == "unlink":
            try:
                driver.unlink(ref)
            except Unsupported:
                continue
            except DriverError as e:
                notice(idx, f"unlink({ref!r}) failed: {e}")
                continue
            del model[ref]
            must_raise(idx, NoSuchRef, driver.read_all, ref)

        elif op == "read_unknown":
            must_raise(idx, NoSuchRef, driver.read_all, ref)

        elif op == "unlink_unknown":
            must_raise(idx, (NoSuchRef, Unsupported), driver.unlink, ref)

    return report
