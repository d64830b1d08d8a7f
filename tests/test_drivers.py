import os
import re

import pytest

import pgzone.drivers as drivers_mod
from pgzone.drivers import (
    ArchiveDriver,
    LocalFsDriver,
    MemDriver,
    builtin_registry,
    run_conformance,
)
from pgzone.engine import MicroService
from pgzone.errors import (
    DriverError,
    DuplicateName,
    EngineError,
    NoSuchRef,
    UnknownDriver,
    Unsupported,
)
from pgzone.gateway.client import ClientError, ZoneClient
from pgzone.gateway.server import GatewayServer
from pgzone.testing import FaultDriver

from conftest import ADMIN, ADMIN_SECRET, DRIVER_CODE, make_zone


def drivers_under_test(tmp_path):
    return [
        ("mem", MemDriver(), "/blobs"),
        ("archive", ArchiveDriver(), "/blobs"),
        ("localfs", LocalFsDriver(), str(tmp_path / "blobs")),
    ]


def test_new_ref_layout():
    driver = MemDriver()
    ref = driver.new_ref("/root/x")
    m = re.fullmatch(r"/root/x/([0-9a-f]{2})/([0-9a-f]{32})", ref)
    assert m and m.group(2).startswith(m.group(1))


def test_new_refs_unique():
    driver = MemDriver()
    refs = {driver.new_ref("/r") for _ in range(200)}
    assert len(refs) == 200


def test_store_and_read_all_each_builtin(tmp_path):
    for name, driver, root in drivers_under_test(tmp_path):
        ref = driver.new_ref(root)
        driver.store(ref, b"payload-" + name.encode())
        assert driver.read_all(ref) == b"payload-" + name.encode(), name


def test_create_duplicate_fails(tmp_path):
    for name, driver, root in drivers_under_test(tmp_path):
        ref = driver.new_ref(root)
        driver.store(ref, b"first")
        with pytest.raises(DriverError):
            driver.store(ref, b"second")
        assert driver.read_all(ref) == b"first", name


def test_missing_ref_raises(tmp_path):
    for name, driver, root in drivers_under_test(tmp_path):
        with pytest.raises(NoSuchRef):
            driver.read_all(driver.new_ref(root))
        expected = Unsupported if name == "archive" else NoSuchRef
        with pytest.raises(expected):
            driver.unlink(driver.new_ref(root))


def test_archive_is_write_once():
    driver = ArchiveDriver()
    ref = driver.new_ref("/r")
    driver.store(ref, b"immutable")
    with pytest.raises(Unsupported):
        driver.unlink(ref)
    with pytest.raises(DriverError):
        driver.store(ref, b"X")
    assert driver.read_all(ref) == b"immutable"


def test_mem_unlink():
    driver = MemDriver()
    ref = driver.new_ref("/r")
    driver.store(ref, b"x")
    driver.unlink(ref)
    with pytest.raises(NoSuchRef):
        driver.read_all(ref)
    with pytest.raises(NoSuchRef):
        driver.unlink(ref)


def test_localfs_unlink_missing(tmp_path):
    driver = LocalFsDriver()
    with pytest.raises(NoSuchRef):
        driver.unlink(str(tmp_path / "nope" / "file"))


def test_localfs_raises_other_os_errors_as_driver_errors(tmp_path):
    driver = LocalFsDriver()
    ref = driver.new_ref(str(tmp_path))
    driver.store(ref, b"x")
    os.remove(ref)
    os.mkdir(ref)  # a directory where the blob was
    for call in (driver.read_all, driver.unlink):
        with pytest.raises(DriverError) as exc:
            call(ref)
        assert type(exc.value) is DriverError, call.__name__
        assert isinstance(exc.value.__cause__, OSError)
    (tmp_path / "file").write_bytes(b"")
    with pytest.raises(DriverError) as exc:  # a file where a directory goes
        driver.store(str(tmp_path / "file" / "ab" / "ab01"), b"x")
    assert isinstance(exc.value.__cause__, OSError)


@pytest.mark.skipif(os.geteuid() == 0,
                    reason="mode bits do not bind the superuser")
def test_localfs_reads_a_read_only_blob(tmp_path):
    driver = LocalFsDriver()
    ref = driver.new_ref(str(tmp_path))
    driver.store(ref, b"kept")
    os.chmod(ref, 0o444)
    assert driver.read_all(ref) == b"kept"


def test_localfs_store_onto_existing_ref_fails(tmp_path):
    driver = LocalFsDriver()
    ref = driver.new_ref(str(tmp_path))
    driver.store(ref, b"first")
    with pytest.raises(DriverError):
        driver.store(ref, b"second")
    with open(ref, "rb") as f:
        assert f.read() == b"first"


def test_localfs_store_makes_a_missing_directory_once(tmp_path, monkeypatch):
    made = []
    real_makedirs = os.makedirs

    def counting_makedirs(path, exist_ok=False):
        made.append(os.path.basename(path))
        real_makedirs(path, exist_ok=exist_ok)

    (tmp_path / "blobs").mkdir()
    monkeypatch.setattr(drivers_mod.os, "makedirs", counting_makedirs)
    driver = LocalFsDriver()
    # The first store finds the fresh two-hex directory missing.
    driver.store(str(tmp_path / "blobs" / "ab" / "ab01"), b"one")
    assert made == ["ab"]
    driver.store(str(tmp_path / "blobs" / "ab" / "ab02"), b"two")
    assert made == ["ab"]
    monkeypatch.undo()
    assert driver.read_all(str(tmp_path / "blobs" / "ab" / "ab01")) == b"one"
    assert driver.read_all(str(tmp_path / "blobs" / "ab" / "ab02")) == b"two"


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

def test_registry_builtins():
    reg = builtin_registry()
    assert reg.names() == ("archive", "localfs", "mem")
    assert isinstance(reg.get("mem"), MemDriver)


def _nop(ctx):
    return ""


@pytest.mark.parametrize("kind", ["driver", "micro-service"])
def test_registry_duplicate_and_unknown(kind):
    """Both kinds of plugged-in code share one registry: a taken name is
    DuplicateName (409 through the gateway) and keeps the first entry,
    an unknown name raises the kind's own error, and names are sorted."""
    zone = make_zone()
    zone.allow_dynamic_code = True
    if kind == "driver":
        registry, make = zone.drivers, MemDriver
        unknown = pytest.raises(UnknownDriver)

        def upload(client, name):
            client.register_driver(name, DRIVER_CODE)
    else:
        registry = zone.engine.microservices

        def make():
            return MicroService("m", _nop, 0, 0)
        unknown = pytest.raises(EngineError,
                                match="^unknown micro-service 'x'$")

        def upload(client, name):
            client.register_microservice(name, "def ms(ctx):\n    pass\n", 0)
    server = GatewayServer(zone, host="127.0.0.1", port=0).start()
    try:
        first = make()
        registry.register("m", first)
        with pytest.raises(DuplicateName):
            registry.register("m", make())
        assert registry.get("m") is first
        with unknown:
            registry.get("x")
        registry.register("a", make())
        names = registry.names()
        assert {"a", "m"} <= set(names) and list(names) == sorted(names)

        with ZoneClient(server.url) as client:
            client.login(ADMIN, ADMIN_SECRET)
            upload(client, "up")
            with pytest.raises(ClientError) as exc:
                upload(client, "up")
        assert (exc.value.status, exc.value.error) == (409, "DuplicateName")
    finally:
        server.shutdown()
        zone.close()


# ---------------------------------------------------------------------------
# Conformance suite over every built-in plus the fault wrapper baseline
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", [0, 1, 2])
def test_conformance_mem(seed):
    report = run_conformance(MemDriver(), "/blobs", n_ops=1000, seed=seed)
    assert report.ok, report.failures[:5]
    assert report.ops_run == 1000


@pytest.mark.parametrize("seed", [0, 1])
def test_conformance_archive(seed):
    report = run_conformance(ArchiveDriver(), "/blobs", n_ops=800, seed=seed)
    assert report.ok, report.failures[:5]


def test_conformance_localfs(tmp_path):
    report = run_conformance(LocalFsDriver(), str(tmp_path), n_ops=600,
                             seed=7)
    assert report.ok, report.failures[:5]


@pytest.mark.parametrize("seed", [0, 1])
def test_conformance_uploaded_driver(seed):
    namespace = {}
    exec(DRIVER_CODE, namespace)
    report = run_conformance(namespace["make_driver"](), "/blobs",
                             n_ops=800, seed=seed)
    assert report.ok, report.failures[:5]


def test_conformance_clean_fault_wrapper():
    # With no faults enabled the wrapper must be indistinguishable.
    report = run_conformance(FaultDriver(MemDriver()), "/blobs", n_ops=500,
                             seed=3)
    assert report.ok, report.failures[:5]


def test_conformance_catches_misbehaving_driver():
    class LyingDriver(MemDriver):
        def read_all(self, ref):
            data = super().read_all(ref)
            return data[:-1] if data else data  # silently drops a byte

    report = run_conformance(LyingDriver(), "/blobs", n_ops=400, seed=0)
    assert not report.ok


# ---------------------------------------------------------------------------
# Fault wrapper behavior
# ---------------------------------------------------------------------------

def test_fault_driver_corrupts_writes():
    driver = FaultDriver(MemDriver(), corrupt_writes=True)
    ref = driver.new_ref("/r")
    driver.store(ref, b"hello")
    got = driver.read_all(ref)
    assert got != b"hello" and got[1:] == b"ello"


def test_fault_driver_fail_unlink():
    driver = FaultDriver(MemDriver(), fail_unlink=True)
    ref = driver.new_ref("/r")
    driver.store(ref, b"x")
    with pytest.raises(DriverError):
        driver.unlink(ref)
    driver.fail_unlink = False
    driver.unlink(ref)
