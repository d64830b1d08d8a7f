"""The journal's durability contract: a torn tail is cut off before the
next append, a failed append changes nothing, a failed snapshot fails no
commit and deletes nothing, only the newest two snapshots are kept, and
recovery reproduces the live state exactly, down to the order of each
path's metadata triples and the audit trail a snapshot leaves out.
"""

import errno
import json
from pathlib import Path

import pytest

import pgzone.journal as journal_mod
from pgzone.catalog import Catalog
from pgzone.common import SYSTEM, sha256_hex
from pgzone.journal import JOURNAL_NAME, SNAPSHOT_EVERY, canonical_json
from pgzone.zone import Zone


def new_catalog(journal_dir):
    c = Catalog(journal_dir)
    c.create_user(SYSTEM, "admin", "admin", "pw")
    c.make_collection(SYSTEM, "/", owner="admin")
    return c


def reopened_state(journal_dir):
    again = Catalog(journal_dir)
    try:
        return again.state_dict()
    finally:
        again.close()


@pytest.mark.parametrize("commits", [1, 2])
def test_commits_after_torn_tail_survive_reopen(tmp_path, commits):
    c = new_catalog(tmp_path)
    c.make_collection("admin", "/a")
    c.close()
    with open(tmp_path / JOURNAL_NAME, "ab") as f:  # crash mid-append
        f.write(b'{"seq": 5, "op": "collection.create", "args": {"pa')

    c = Catalog(tmp_path)
    for i in range(commits):
        c.make_collection("admin", f"/after{i}")
    want = c.state_dict()
    c.close()
    assert reopened_state(tmp_path) == want
    assert (tmp_path / JOURNAL_NAME).read_bytes().endswith(b"}\n")


class FailingFile:
    """A journal file whose first write puts `keep` bytes on disk and then
    fails as a full disk would; with `cut_fails`, so does truncate().
    Everything else goes to the real file."""

    def __init__(self, real, keep, cut_fails):
        self._real, self._keep, self.failed = real, keep, False
        self._cut_fails = cut_fails

    def write(self, data):
        if self.failed:
            return self._real.write(data)
        self.failed = True
        self._real.write(data[:self._keep])
        raise OSError(errno.ENOSPC, "No space left on device")

    def truncate(self, size):
        if self.failed and self._cut_fails:
            raise OSError(errno.EIO, "Input/output error")
        return self._real.truncate(size)

    def __getattr__(self, name):
        return getattr(self._real, name)


@pytest.mark.parametrize("keep,cut_fails", [(0, False), (10, False),
                                            (10, True)],
                         ids=["whole", "partial", "partial-cut-fails"])
def test_failed_append_changes_nothing(tmp_path, monkeypatch, keep,
                                       cut_fails):
    c = new_catalog(tmp_path)
    c.close()  # the next append reopens journal.log through open()
    size = (tmp_path / JOURNAL_NAME).stat().st_size
    digest = c.data_state_digest()
    files = []

    def failing_open(*args, **kwargs):
        files.append(FailingFile(open(*args, **kwargs), keep, cut_fails))
        return files[-1]

    monkeypatch.setattr(journal_mod, "open", failing_open, raising=False)
    with pytest.raises(OSError):
        c.make_collection("admin", "/lost")
    monkeypatch.undo()
    assert files[0].failed
    assert not c.path_exists("/lost")
    assert c.data_state_digest() == digest
    if not cut_fails:
        assert (tmp_path / JOURNAL_NAME).stat().st_size == size

    c.make_collection("admin", "/kept")
    want = c.state_dict()
    c.close()
    assert reopened_state(tmp_path) == want


def test_avus_order_survives_recovery(tmp_path):
    c = new_catalog(tmp_path)
    c.make_collection("admin", "/d")
    for name in ("zeta", "alpha", "k", "beta"):
        c.add_avu("admin", "/d", name, "v")
    for i in range(SNAPSHOT_EVERY):
        c.audit_append("admin", "noise", str(i))
    c.add_avu("admin", "/d", "aardvark", "v")
    assert list(tmp_path.glob("snapshot-*.json"))
    want = c.avus("/d")
    assert [t.attr_name for t in want] == \
        ["zeta", "alpha", "k", "beta", "aardvark"]
    c.close()
    again = Catalog(tmp_path)
    try:
        assert again.avus("/d") == want
    finally:
        again.close()


def enospc(*args, **kwargs):
    raise OSError(errno.ENOSPC, "No space left on device")


def test_failed_snapshot_does_not_fail_the_commit(tmp_path, monkeypatch):
    """A put whose object.put record is seq SNAPSHOT_EVERY still returns
    and disposes of the replica it replaced when the snapshot fails."""
    blobs = tmp_path / "blobs"
    zone = Zone(journal_dir=tmp_path / "j", admin_secret="pw",
                default_resource="disk")
    zone.ensure_resource(SYSTEM, "disk", "localfs", str(blobs), "cache")
    zone.engine.put("admin", "/home/f", b"one")
    old_ref = zone.catalog.get_object("/home/f").replicas[0].physical_ref
    # The put's pre-PEP audit entry takes the seq before object.put.
    for i in range(SNAPSHOT_EVERY - 2 - len(zone.catalog.records())):
        zone.catalog.audit_append("admin", "noise", str(i))

    monkeypatch.setattr(journal_mod.Journal, "write_snapshot", enospc)
    view = zone.engine.put("admin", "/home/f", b"two")
    monkeypatch.undo()

    assert view.version == 2
    assert zone.catalog.records()[SNAPSHOT_EVERY - 1]["op"] == "object.put"
    assert not list((tmp_path / "j").glob("snapshot-*"))
    assert not Path(old_ref).exists()
    assert zone.catalog.orphans() == []
    digest = zone.catalog.data_state_digest()
    zone.close()
    with Zone(journal_dir=tmp_path / "j") as again:
        assert again.catalog.data_state_digest() == digest
        assert again.engine.get("admin", "/home/f") == b"two"


def test_failed_snapshot_leaves_no_tmp_and_is_retried(tmp_path, monkeypatch):
    c = new_catalog(tmp_path)
    monkeypatch.setattr(journal_mod.os, "replace", enospc)
    for i in range(SNAPSHOT_EVERY):
        c.audit_append("admin", "noise", str(i))
    monkeypatch.undo()
    assert sorted(p.name for p in tmp_path.iterdir()) == [JOURNAL_NAME]

    for i in range(SNAPSHOT_EVERY):
        c.audit_append("admin", "noise", str(i))
    assert sorted(p.name for p in tmp_path.glob("snapshot-*")) == \
        [f"snapshot-{2 * SNAPSHOT_EVERY}.json"]
    want = c.state_dict()
    c.close()
    assert reopened_state(tmp_path) == want


def snapshot_names(journal_dir):
    return sorted(p.name for p in journal_dir.glob("snapshot-*"))


def noise(c, n):
    for i in range(n):
        c.audit_append("admin", "noise", str(i))


def test_audit_trail_survives_reopen_from_snapshot(tmp_path):
    c = new_catalog(tmp_path)
    noise(c, SNAPSHOT_EVERY + 10)
    snapshot = tmp_path / f"snapshot-{SNAPSHOT_EVERY}.json"
    assert "audit" not in json.loads(snapshot.read_text())["state"]
    want = c.audit_query("admin")
    assert want[0].seq < SNAPSHOT_EVERY < want[-1].seq
    digest = c.data_state_digest()
    c.close()
    again = Catalog(tmp_path)
    try:
        assert again.audit_query("admin") == want
        assert again.data_state_digest() == digest
    finally:
        again.close()


def test_snapshot_with_audit_trail_opens_without_duplicates(tmp_path):
    """A snapshot that still holds the audit trail, as snapshots once did,
    yields each audit entry once: the journal's records rebuild it."""
    c = new_catalog(tmp_path)
    noise(c, SNAPSHOT_EVERY + 10)
    want, digest = c.audit_query("admin"), c.data_state_digest()
    c.close()
    snapshot = tmp_path / f"snapshot-{SNAPSHOT_EVERY}.json"
    doc = json.loads(snapshot.read_text())
    doc["state"]["audit"] = [
        {"seq": e.seq, "when": e.when, "actor": e.actor, "event": e.event,
         "detail": e.detail} for e in want if e.seq <= SNAPSHOT_EVERY]
    doc["state_hash"] = sha256_hex(canonical_json(doc["state"]).encode())
    snapshot.write_text(canonical_json(doc))
    again = Catalog(tmp_path)
    try:
        assert again.audit_query("admin") == want
        assert again.data_state_digest() == digest
    finally:
        again.close()


def test_snapshot_whose_state_holds_a_state_hash_key_opens(tmp_path):
    """A user and an ACL principal named state_hash put the text of the
    snapshot's outer key inside its state as well; the hash check still
    finds the outer one."""
    c = new_catalog(tmp_path)
    c.create_user("admin", "state_hash", "user", "pw")
    c.make_collection("admin", "/d")
    c.set_acl("admin", "/d", "state_hash", "read")
    noise(c, SNAPSHOT_EVERY)
    text = (tmp_path / f"snapshot-{SNAPSHOT_EVERY}.json").read_text()
    assert text.count(',"state_hash":"') == 2
    want = c.state_dict()
    c.close()
    assert reopened_state(tmp_path) == want


def test_only_the_newest_two_snapshots_are_kept(tmp_path):
    c = new_catalog(tmp_path)
    noise(c, 5 * SNAPSHOT_EVERY - len(c.records()))
    assert snapshot_names(tmp_path) == [
        f"snapshot-{4 * SNAPSHOT_EVERY}.json",
        f"snapshot-{5 * SNAPSHOT_EVERY}.json"]
    want = c.state_dict()
    c.close()
    assert reopened_state(tmp_path) == want


def test_failed_snapshot_deletes_nothing(tmp_path, monkeypatch):
    c = new_catalog(tmp_path)
    noise(c, 2 * SNAPSHOT_EVERY - len(c.records()))
    (tmp_path / "snapshot-1500.tmp").write_text("{")  # left by a kill
    before = snapshot_names(tmp_path)
    monkeypatch.setattr(journal_mod.os, "replace", enospc)
    noise(c, SNAPSHOT_EVERY)
    monkeypatch.undo()
    assert snapshot_names(tmp_path) == before == [
        "snapshot-1000.json", "snapshot-1500.tmp", "snapshot-2000.json"]
    c.close()


def test_stale_tmp_is_deleted_at_next_snapshot(tmp_path):
    c = new_catalog(tmp_path)
    (tmp_path / "snapshot-700.tmp").write_text('{"seq":700')  # left by a kill
    noise(c, SNAPSHOT_EVERY - len(c.records()) - 1)
    assert "snapshot-700.tmp" in snapshot_names(tmp_path)
    noise(c, 1)
    assert snapshot_names(tmp_path) == [f"snapshot-{SNAPSHOT_EVERY}.json"]
    want = c.state_dict()
    c.close()
    assert reopened_state(tmp_path) == want


def test_snapshot_that_cannot_be_pruned_is_pruned_later(tmp_path,
                                                        monkeypatch, caplog):
    c = new_catalog(tmp_path)
    noise(c, 2 * SNAPSHOT_EVERY - len(c.records()))
    real_unlink = Path.unlink

    def failing_unlink(self, missing_ok=False):
        if self.name == f"snapshot-{SNAPSHOT_EVERY}.json":
            raise OSError(errno.EACCES, "Permission denied")
        real_unlink(self, missing_ok=missing_ok)

    monkeypatch.setattr(Path, "unlink", failing_unlink)
    noise(c, SNAPSHOT_EVERY)
    monkeypatch.undo()
    assert "not deleted" in caplog.text
    assert snapshot_names(tmp_path) == [
        "snapshot-1000.json", "snapshot-2000.json", "snapshot-3000.json"]
    noise(c, SNAPSHOT_EVERY)
    assert snapshot_names(tmp_path) == [
        "snapshot-3000.json", "snapshot-4000.json"]
    c.close()
