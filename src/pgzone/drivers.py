"""Storage drivers: the capability contract, built-ins, and registry.

A driver applies byte-level operations at one class of storage location.
The engine treats physical refs as opaque tokens: it asks the driver to
allocate one (new_ref), then only ever hands it back unchanged. Built-in
drivers are "localfs" (filesystem), "mem" (in-process), and "archive"
(in-process, write-once: no in-place update, no unlink).

Every driver must satisfy the same observable contract, checked by
run_conformance against an in-memory model:

  * read-after-write returns the written bytes
  * reads past EOF return the available (possibly empty) bytes, not errors
  * writes beyond EOF zero-fill the gap
  * stat reflects all writes; unknown refs stat as exists=False
  * handles are single-use per open/close pair
"""

from __future__ import annotations

import os
import posixpath
import random
import threading
import uuid
from dataclasses import dataclass, field

from .errors import BadHandle, DriverError, DuplicateName, NoSuchRef, Unsupported, UnknownDriver


@dataclass(frozen=True)
class StatResult:
    exists: bool
    size: int


class Handle:
    """One open ref; valid from open() until close()."""

    def __init__(self, driver: "Driver", ref: str):
        self.driver = driver
        self.ref = ref
        self.closed = False

    def _check(self, driver: "Driver") -> None:
        if self.closed:
            raise BadHandle(f"handle for {self.ref!r} already closed")
        if self.driver is not driver:
            raise BadHandle("handle belongs to a different driver")


class Driver:
    """Base contract. Subclasses implement the byte operations."""

    supports_update: bool = True
    supports_unlink: bool = True

    def new_ref(self, root: str) -> str:
        u = uuid.uuid4().hex
        return posixpath.join(root, u[:2], u)

    def create(self, ref: str) -> None:
        raise NotImplementedError

    def open(self, ref: str) -> Handle:
        raise NotImplementedError

    def read(self, handle: Handle, offset: int, length: int) -> bytes:
        raise NotImplementedError

    def write(self, handle: Handle, offset: int, data: bytes) -> None:
        raise NotImplementedError

    def close(self, handle: Handle) -> None:
        handle._check(self)
        handle.closed = True

    def unlink(self, ref: str) -> None:
        raise NotImplementedError

    def stat(self, ref: str) -> StatResult:
        raise NotImplementedError

    # Convenience wrappers used throughout the engine.

    def read_all(self, ref: str) -> bytes:
        h = self.open(ref)
        try:
            size = self.stat(ref).size
            return self.read(h, 0, size)
        finally:
            self.close(h)

    def store(self, ref: str, data: bytes) -> None:
        self.create(ref)
        h = self.open(ref)
        try:
            self.write(h, 0, data)
        finally:
            self.close(h)


class MemDriver(Driver):
    """In-process byte store; refs are keys into a dict."""

    def __init__(self):
        self.blobs: dict[str, bytearray] = {}
        self._lock = threading.Lock()

    def create(self, ref: str) -> None:
        with self._lock:
            if ref in self.blobs:
                raise DriverError(f"ref already exists: {ref!r}")
            self.blobs[ref] = bytearray()

    def open(self, ref: str) -> Handle:
        with self._lock:
            if ref not in self.blobs:
                raise NoSuchRef(ref)
        return Handle(self, ref)

    def read(self, handle: Handle, offset: int, length: int) -> bytes:
        handle._check(self)
        with self._lock:
            blob = self.blobs.get(handle.ref)
            if blob is None:
                raise NoSuchRef(handle.ref)
            return bytes(blob[offset:offset + length])

    def write(self, handle: Handle, offset: int, data: bytes) -> None:
        handle._check(self)
        with self._lock:
            blob = self.blobs.get(handle.ref)
            if blob is None:
                raise NoSuchRef(handle.ref)
            if not self.supports_update and offset < len(blob):
                raise Unsupported("driver forbids in-place update")
            if offset > len(blob):
                blob.extend(b"\x00" * (offset - len(blob)))
            blob[offset:offset + len(data)] = data

    def unlink(self, ref: str) -> None:
        if not self.supports_unlink:
            raise Unsupported("driver forbids unlink")
        with self._lock:
            if ref not in self.blobs:
                raise NoSuchRef(ref)
            del self.blobs[ref]

    def stat(self, ref: str) -> StatResult:
        with self._lock:
            blob = self.blobs.get(ref)
        if blob is None:
            return StatResult(exists=False, size=0)
        return StatResult(exists=True, size=len(blob))


class ArchiveDriver(MemDriver):
    """Write-once store: appends only, never mutates or unlinks bytes."""

    supports_update = False
    supports_unlink = False


class LocalFsDriver(Driver):
    """Filesystem driver; a ref is a real path <root>/<two-hex>/<uuid>."""

    def create(self, ref: str) -> None:
        # The two-hex directory is made only when the create finds it
        # missing, and the create is then retried once.
        flags = os.O_CREAT | os.O_EXCL | os.O_WRONLY
        try:
            try:
                fd = os.open(ref, flags)
            except FileNotFoundError:
                os.makedirs(os.path.dirname(ref), exist_ok=True)
                fd = os.open(ref, flags)
        except FileExistsError:
            raise DriverError(f"ref already exists: {ref!r}") from None
        os.close(fd)

    def open(self, ref: str) -> Handle:
        if not os.path.isfile(ref):
            raise NoSuchRef(ref)
        h = Handle(self, ref)
        h.file = open(ref, "r+b")  # type: ignore[attr-defined]
        return h

    def read(self, handle: Handle, offset: int, length: int) -> bytes:
        handle._check(self)
        f = handle.file  # type: ignore[attr-defined]
        f.seek(offset)
        return f.read(length)

    def write(self, handle: Handle, offset: int, data: bytes) -> None:
        handle._check(self)
        f = handle.file  # type: ignore[attr-defined]
        f.seek(0, os.SEEK_END)
        size = f.tell()
        if not self.supports_update and offset < size:
            raise Unsupported("driver forbids in-place update")
        if offset > size:
            f.seek(size)
            f.write(b"\x00" * (offset - size))
        f.seek(offset)
        f.write(data)
        f.flush()

    def close(self, handle: Handle) -> None:
        handle._check(self)
        handle.file.close()  # type: ignore[attr-defined]
        handle.closed = True

    def unlink(self, ref: str) -> None:
        if not self.supports_unlink:
            raise Unsupported("driver forbids unlink")
        try:
            os.remove(ref)
        except FileNotFoundError:
            raise NoSuchRef(ref) from None

    def stat(self, ref: str) -> StatResult:
        try:
            return StatResult(exists=True, size=os.path.getsize(ref))
        except OSError:
            return StatResult(exists=False, size=0)


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
    """Drive random operation sequences against `driver` and an in-memory
    model; any observable divergence is a failure. Operations are drawn
    only from what the driver's capability flags permit.
    """
    rng = random.Random(seed)
    model: dict[str, bytearray] = {}
    report = ConformanceReport()

    def notice(op_idx: int, msg: str) -> None:
        report.failures.append(f"op {op_idx}: {msg}")

    ops = ["create", "write", "read", "stat", "stat_unknown", "read_unknown"]
    if driver.supports_unlink:
        ops += ["unlink", "unlink_unknown"]

    for idx in range(n_ops):
        op = rng.choice(ops)
        report.ops_run += 1

        if op == "create" or not model:
            ref = driver.new_ref(root)
            try:
                driver.create(ref)
            except DriverError as e:
                notice(idx, f"create failed: {e}")
                continue
            model[ref] = bytearray()
            continue

        ref = rng.choice(sorted(model))
        blob = model[ref]

        if op == "write":
            if driver.supports_update:
                offset = rng.randrange(0, len(blob) + 17)
            else:
                offset = len(blob)
            data = rng.randbytes(rng.randrange(0, 65))
            h = driver.open(ref)
            try:
                driver.write(h, offset, data)
            finally:
                driver.close(h)
            if offset > len(blob):
                blob.extend(b"\x00" * (offset - len(blob)))
            blob[offset:offset + len(data)] = data

        elif op == "read":
            offset = rng.randrange(0, len(blob) + 17)
            length = rng.randrange(0, 65)
            h = driver.open(ref)
            try:
                got = driver.read(h, offset, length)
            finally:
                driver.close(h)
            want = bytes(blob[offset:offset + length])
            if got != want:
                notice(idx, f"read({ref!r},{offset},{length}) -> {got!r}, "
                            f"want {want!r}")

        elif op == "stat":
            st = driver.stat(ref)
            if not st.exists or st.size != len(blob):
                notice(idx, f"stat({ref!r}) -> {st}, want size {len(blob)}")

        elif op == "unlink":
            driver.unlink(ref)
            del model[ref]
            st = driver.stat(ref)
            if st.exists:
                notice(idx, f"stat after unlink({ref!r}) still exists")

        elif op == "stat_unknown":
            ghost = driver.new_ref(root)
            st = driver.stat(ghost)
            if st.exists:
                notice(idx, f"stat of never-created {ghost!r} says exists")

        elif op == "read_unknown":
            ghost = driver.new_ref(root)
            try:
                driver.open(ghost)
                notice(idx, f"open of never-created {ghost!r} succeeded")
            except NoSuchRef:
                pass

        elif op == "unlink_unknown":
            ghost = driver.new_ref(root)
            try:
                driver.unlink(ghost)
                notice(idx, f"unlink of never-created {ghost!r} succeeded")
            except NoSuchRef:
                pass

    return report
