import os
import re

import pytest

import pgzone.drivers as drivers_mod
from pgzone.drivers import (
    ArchiveDriver,
    DriverRegistry,
    LocalFsDriver,
    MemDriver,
    builtin_registry,
    run_conformance,
)
from pgzone.errors import (
    BadHandle,
    DriverError,
    DuplicateName,
    NoSuchRef,
    UnknownDriver,
    Unsupported,
)
from pgzone.testing import FaultDriver


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
        st = driver.stat(ref)
        assert st.exists and st.size == len(b"payload-") + len(name), name


def test_read_past_eof_returns_available(tmp_path):
    for name, driver, root in drivers_under_test(tmp_path):
        ref = driver.new_ref(root)
        driver.store(ref, b"0123456789")
        h = driver.open(ref)
        assert driver.read(h, 7, 100) == b"789", name
        assert driver.read(h, 50, 10) == b"", name
        driver.close(h)


def test_write_beyond_eof_zero_fills(tmp_path):
    for name, driver, root in drivers_under_test(tmp_path):
        ref = driver.new_ref(root)
        driver.store(ref, b"ab")
        h = driver.open(ref)
        driver.write(h, 5, b"XY")
        driver.close(h)
        assert driver.read_all(ref) == b"ab\x00\x00\x00XY", name


def test_create_duplicate_fails(tmp_path):
    for name, driver, root in drivers_under_test(tmp_path):
        ref = driver.new_ref(root)
        driver.create(ref)
        with pytest.raises(DriverError):
            driver.create(ref)


def test_open_missing_raises(tmp_path):
    for name, driver, root in drivers_under_test(tmp_path):
        with pytest.raises(NoSuchRef):
            driver.open(driver.new_ref(root))


def test_stat_missing_not_exists(tmp_path):
    for name, driver, root in drivers_under_test(tmp_path):
        st = driver.stat(driver.new_ref(root))
        assert not st.exists and st.size == 0


def test_handles_are_single_use():
    driver = MemDriver()
    ref = driver.new_ref("/r")
    driver.store(ref, b"x")
    h = driver.open(ref)
    driver.close(h)
    with pytest.raises(BadHandle):
        driver.read(h, 0, 1)
    with pytest.raises(BadHandle):
        driver.close(h)


def test_handle_bound_to_its_driver():
    d1, d2 = MemDriver(), MemDriver()
    ref = d1.new_ref("/r")
    d1.store(ref, b"x")
    h = d1.open(ref)
    with pytest.raises(BadHandle):
        d2.read(h, 0, 1)
    d1.close(h)


def test_archive_is_write_once():
    driver = ArchiveDriver()
    assert not driver.supports_update and not driver.supports_unlink
    ref = driver.new_ref("/r")
    driver.store(ref, b"immutable")
    h = driver.open(ref)
    with pytest.raises(Unsupported):
        driver.write(h, 0, b"X")  # rewrite inside existing bytes
    driver.write(h, 9, b"-more")  # append is fine
    driver.close(h)
    assert driver.read_all(ref) == b"immutable-more"
    with pytest.raises(Unsupported):
        driver.unlink(ref)


def test_mem_unlink():
    driver = MemDriver()
    ref = driver.new_ref("/r")
    driver.store(ref, b"x")
    driver.unlink(ref)
    assert not driver.stat(ref).exists
    with pytest.raises(NoSuchRef):
        driver.unlink(ref)


def test_localfs_unlink_missing(tmp_path):
    driver = LocalFsDriver()
    with pytest.raises(NoSuchRef):
        driver.unlink(str(tmp_path / "nope" / "file"))


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


def test_localfs_store_onto_existing_ref_fails(tmp_path):
    driver = LocalFsDriver()
    ref = driver.new_ref(str(tmp_path))
    driver.store(ref, b"first")
    with pytest.raises(DriverError):
        driver.store(ref, b"second")
    assert driver.read_all(ref) == b"first"


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

def test_registry_builtins():
    reg = builtin_registry()
    assert reg.names() == ("archive", "localfs", "mem")
    assert isinstance(reg.get("mem"), MemDriver)


def test_registry_duplicate_and_unknown():
    reg = DriverRegistry()
    reg.register("a", MemDriver())
    with pytest.raises(DuplicateName):
        reg.register("a", MemDriver())
    with pytest.raises(UnknownDriver):
        reg.get("b")


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


def test_conformance_clean_fault_wrapper():
    # With no faults enabled the wrapper must be indistinguishable.
    report = run_conformance(FaultDriver(MemDriver()), "/blobs", n_ops=500,
                             seed=3)
    assert report.ok, report.failures[:5]


def test_conformance_catches_misbehaving_driver():
    class LyingDriver(MemDriver):
        def read(self, handle, offset, length):
            data = super().read(handle, offset, length)
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
