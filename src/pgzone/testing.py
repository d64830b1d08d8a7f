"""Support for exercising failure paths: FaultDriver, a driver wrapper
that injects faults, used by the test suite and by operators
reproducing a storage fault.
"""

from __future__ import annotations

from .drivers import Driver
from .errors import DriverError


class FaultDriver(Driver):
    """Wraps any driver and injects faults on demand.

    corrupt_writes: flip the first byte of every stored payload, so
    stored bytes no longer match the checksum computed from the
    original data. fail_unlink: every unlink raises DriverError.
    Both flags can be toggled at runtime.
    """

    def __init__(self, inner: Driver, corrupt_writes: bool = False,
                 fail_unlink: bool = False):
        self.inner = inner
        self.corrupt_writes = corrupt_writes
        self.fail_unlink = fail_unlink

    def new_ref(self, root: str) -> str:
        return self.inner.new_ref(root)

    def store(self, ref: str, data: bytes) -> None:
        if self.corrupt_writes and data:
            data = bytes([data[0] ^ 0xFF]) + data[1:]
        self.inner.store(ref, data)

    def read_all(self, ref: str) -> bytes:
        return self.inner.read_all(ref)

    def unlink(self, ref: str) -> None:
        if self.fail_unlink:
            raise DriverError(f"injected unlink failure for {ref!r}")
        self.inner.unlink(ref)
