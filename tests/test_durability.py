"""The journal's durability contract: a torn tail is cut off before the
next append, a failed append changes nothing, and recovery reproduces the
live state exactly, down to the order of each path's metadata triples.
"""

import errno

import pytest

import pgzone.journal as journal_mod
from pgzone.catalog import Catalog
from pgzone.common import SYSTEM
from pgzone.journal import JOURNAL_NAME, SNAPSHOT_EVERY


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
