import json
import subprocess
import sys
from pathlib import Path

import pytest

from pgzone.catalog import Catalog
from pgzone.common import sha256_hex
from pgzone.zone import Zone

HELPER = Path(__file__).with_name("_crash_session.py")
REMOVE_HELPER = Path(__file__).with_name("_remove_kill_session.py")


def crash_then_reopen(tmp_path, seed, n_ops=200):
    journal_dir = tmp_path / "journal"
    journal_dir.mkdir()
    shadow = tmp_path / "shadow.json"
    proc = subprocess.run(
        [sys.executable, str(HELPER), str(journal_dir), str(shadow),
         str(seed), str(n_ops)],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 3, proc.stderr
    want = json.loads(shadow.read_text())
    recovered = Catalog(journal_dir)
    try:
        return recovered.state_dict(), want
    finally:
        recovered.close()


@pytest.mark.parametrize("seed", [1, 2])
def test_recovery_after_hard_kill(tmp_path, seed):
    got, want = crash_then_reopen(tmp_path, seed)
    assert got == want


def test_recovery_crossing_snapshot_boundary(tmp_path):
    # Enough ops to force at least one snapshot plus a journal tail.
    got, want = crash_then_reopen(tmp_path, seed=7, n_ops=1200)
    journal_dir = tmp_path / "journal"
    assert list(journal_dir.glob("snapshot-*.json")), \
        "session should have crossed the snapshot threshold"
    assert got == want


def test_a_kill_inside_remove_leaves_no_listed_object_without_bytes(
        tmp_path):
    journal_dir = tmp_path / "journal"
    proc = subprocess.run(
        [sys.executable, str(REMOVE_HELPER), str(journal_dir),
         str(tmp_path / "blobs")],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 9, proc.stderr
    zone = Zone(journal_dir=journal_dir)
    try:
        listed = sorted(zone.catalog.state_dict()["objects"])
        assert listed == ["/home/keep"]
        for path in listed:
            data, checksum = zone.engine.read_object("admin", path)
            assert sha256_hex(data) == checksum
    finally:
        zone.close()
