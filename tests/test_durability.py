"""The journal's durability contract: a torn tail is cut off before the
next append, a failed append changes nothing, a failed snapshot fails no
commit and deletes nothing, only the newest two snapshots are kept, and
recovery reproduces the live state exactly, down to the order of each
path's metadata triples and the audit trail a snapshot leaves out,
while it applies only the records after the snapshot, and a snapshot
built from the texts it kept of unchanged entries holds the
same bytes as one serialized afresh.
"""

import errno
import itertools
import json
import random
import shutil
from pathlib import Path

import pytest

import pgzone.catalog as catalog_mod
import pgzone.journal as journal_mod
from pgzone.catalog import REPLICA_STATUSES, Catalog
from pgzone.common import SYSTEM, sha256_hex
from pgzone.errors import CorruptJournal
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


# ---------------------------------------------------------------------------
# Snapshot texts kept across snapshots: the oracle is canonical_json of the
# live state, serialized afresh at each boundary.
# ---------------------------------------------------------------------------

def snapshot_body(path, seq):
    data = path.read_bytes()
    prefix = b'{"seq":%d,"state":' % seq
    assert data.startswith(prefix)
    return data[len(prefix):data.rfind(b',"state_hash":"')]


def digest_of(state):
    rest = {k: v for k, v in state.items() if k != "last_seq"}
    return sha256_hex(canonical_json(rest).encode("utf-8"))


@pytest.fixture
def checked_snapshots(monkeypatch):
    """Snapshot every 7 commits; check each one written against the
    state it was handed, and reopen the zone from it. Returns the seqs of
    the checked snapshots and a switch that fails the next os.replace."""
    monkeypatch.setattr(catalog_mod, "SNAPSHOT_EVERY", 7)
    real_write, real_replace = journal_mod.Journal.write_snapshot, \
        journal_mod.os.replace
    checked, fail_next = [], []

    def checking(self, seq, state, memo=None):
        assert memo is not None
        target = real_write(self, seq, state, memo)
        assert snapshot_body(target, seq) == canonical_json(state).encode()
        # A text for each entry, and none kept for an entry that is gone.
        for name, texts in memo.items():
            assert texts.keys() == state[name].keys()
        again = Catalog(self.dir)
        try:
            assert again.data_state_digest() == digest_of(state)
        finally:
            again.close()
        checked.append(seq)
        return target

    def replace(*args):
        if fail_next:
            fail_next.clear()
            enospc()
        real_replace(*args)

    monkeypatch.setattr(journal_mod.Journal, "write_snapshot", checking)
    monkeypatch.setattr(journal_mod.os, "replace", replace)
    return checked, fail_next


def random_ops(c, rng, n, hits, serial):
    """n seeded catalog mutations over a small set of paths, so that most
    of them change an entry whose text a snapshot already kept; hits
    counts those per kind. serial numbers the refs and runs."""
    objects = [f"/d/o{i}" for i in range(12)]
    segments = [f"/d/s/seg{i}" for i in range(4)]
    for k in itertools.islice(serial, n):
        live = [p for p in objects + segments if c.object_exists(p)]
        kind = rng.choice(["put", "put", "replica.add", "replica.status",
                           "acl.set", "avu.add", "remove", "ingest", "run"])
        if kind in ("replica.add", "replica.status", "remove") and not live:
            kind = "put"
        path = rng.choice({"put": objects, "ingest": segments,
                           "acl.set": live + ["/d", "/d/s"],
                           "avu.add": live + ["/d"],
                           "run": [None]}.get(kind, live))
        memo = c._snapshot_memo
        if path in memo["objects"] or path in memo["avus"]:
            hits[kind] = hits.get(kind, 0) + 1
        data = b"v%d" % k
        if kind == "put":
            c.put_object(path, "admin", "r0", f"ref{k}", sha256_hex(data),
                         len(data))
        elif kind == "replica.add":
            obj = c.get_object(path)
            c.add_replica(path, f"r{len(obj.replicas)}", f"ref{k}",
                          obj.checksum, obj.replicas[0].size,
                          rng.choice(REPLICA_STATUSES))
        elif kind == "replica.status":
            replica = rng.choice(c.get_object(path).replicas)
            c.set_replica_status(path, replica.physical_ref,
                                 rng.choice(REPLICA_STATUSES))
        elif kind == "acl.set":
            c.set_acl("admin", path, "u1", rng.choice(["read", "write"]))
        elif kind == "avu.add":  # few distinct triples, so some repeat
            c.add_avu("admin", path, rng.choice("abc"), rng.choice("xy"))
        elif kind == "remove":
            c.remove_object(path)
            c.put_object(path, "admin", "r0", f"ref{k}", sha256_hex(data),
                         len(data))
        elif kind == "ingest":
            c.ingest_segment("/d/s", c.next_segment_id("/d/s"), path,
                             "admin", "r0", f"ref{k}", sha256_hex(data),
                             len(data), k, k + rng.randrange(5), 3)
        else:
            c.record_run({"run_id": f"run{k}", "inputs": [k], "ok": True})


def test_every_snapshot_is_the_canonical_json_of_the_live_state(
        tmp_path, checked_snapshots):
    checked, fail_next = checked_snapshots
    rng, hits, serial = random.Random(8), {}, itertools.count(1)
    c = new_catalog(tmp_path)
    c.create_user("admin", "u1", "user", "pw")
    c.make_collection("admin", "/d")
    c.make_collection("admin", "/d/s", kind="stream")
    random_ops(c, rng, 300, hits, serial)
    assert len(checked) > 40

    # A reopen from a snapshot starts with no texts kept.
    digest = c.data_state_digest()
    c.close()
    c = Catalog(tmp_path)
    assert c.data_state_digest() == digest
    assert c._snapshot_memo == {"objects": {}, "avus": {}, "runs": {}}
    before = len(checked)
    random_ops(c, rng, 200, hits, serial)
    assert len(checked) > before + 30

    # A snapshot that fails keeps the texts it filled in; the next ones
    # must still be exact.
    fail_next.append(True)
    before = len(checked)
    random_ops(c, rng, 10, hits, serial)
    assert not fail_next
    random_ops(c, rng, 200, hits, serial)
    assert len(checked) > before + 30
    assert all(hits.get(kind, 0) >= 5 for kind in (
        "put", "replica.add", "replica.status", "acl.set", "avu.add",
        "remove", "ingest")), hits

    digest = c.data_state_digest()
    c.close()
    again = Catalog(tmp_path)
    try:
        assert again.data_state_digest() == digest
    finally:
        again.close()


def test_apply_that_raises_leaves_no_stale_snapshot_text(tmp_path,
                                                        monkeypatch):
    """An apply that fails after it changed an entry has still dropped the
    text a snapshot kept of it, so the next snapshot holds the entry as
    it is."""
    monkeypatch.setattr(catalog_mod, "SNAPSHOT_EVERY", 7)
    c = new_catalog(tmp_path)
    c.make_collection("admin", "/d")
    c.put_object("/d/o", "admin", "r0", "ref", sha256_hex(b"x"), 1)
    c.add_avu("admin", "/d/o", "a", "1")
    noise(c, 7)
    assert "/d/o" in c._snapshot_memo["avus"]

    def broken(*args):
        raise MemoryError("index update failed")

    with monkeypatch.context() as m:
        m.setattr(Catalog, "_index_avu", broken)
        with pytest.raises(MemoryError):
            c.add_avu("admin", "/d/o", "b", "2")
    assert [t.attr_name for t in c.avus("/d/o")] == ["a", "b"]
    # An avu.add changes the object's triples, not its own record.
    assert "/d/o" in c._snapshot_memo["objects"]
    state = c._state()
    target = c._journal.write_snapshot(c._seq, state, c._snapshot_memo)
    assert snapshot_body(target, c._seq) == canonical_json(state).encode()

    # The failed apply's record is journaled, so its seq is taken: the
    # next commit gets the one after it, and the journal reopens.
    c.add_avu("admin", "/d/o", "c", "3")
    replayed = Catalog.replay(c.records()).state_dict()
    c.close()
    assert reopened_state(tmp_path) == replayed


def test_reopen_applies_only_the_records_after_the_snapshot(tmp_path,
                                                            monkeypatch):
    c = new_catalog(tmp_path)
    c.make_collection("admin", "/d")
    noise(c, SNAPSHOT_EVERY + 5)
    c.add_avu("admin", "/d", "a", "1")
    total = len(c.records())
    want = c.state_dict()
    c.close()
    assert snapshot_names(tmp_path) == [f"snapshot-{SNAPSHOT_EVERY}.json"]

    applied = []
    real_apply = Catalog._apply

    def counting(self, op, args, seq):
        applied.append(seq)
        real_apply(self, op, args, seq)

    monkeypatch.setattr(Catalog, "_apply", counting)
    again = Catalog(tmp_path)
    monkeypatch.undo()
    try:
        assert applied == list(range(SNAPSHOT_EVERY + 1, total + 1))
        assert again.state_dict() == want
    finally:
        again.close()


# The tail read: a reopen finds where record S of snapshot-S ends and
# parses only the records after it.
S = SNAPSHOT_EVERY


def past_one_snapshot(journal_dir, tail=12):
    """A closed journal with snapshot-S and `tail` records of several ops
    after it; returns its records."""
    c = new_catalog(journal_dir)
    noise(c, S - len(c.records()))
    for i in range(tail):
        if i % 3 == 0:
            c.make_collection("admin", f"/t{i}")
        elif i % 3 == 1:
            c.add_avu("admin", f"/t{i - 1}", "k", str(i))
        else:
            c.audit_append("admin", "tail", str(i))
    records = c.records()
    c.close()
    assert snapshot_names(journal_dir) == [f"snapshot-{S}.json"]
    assert len(records) == S + tail
    return records


def journal_lines(journal_dir):
    return (journal_dir / JOURNAL_NAME).read_bytes().splitlines(keepends=True)


def rewrite_journal(journal_dir, lines):
    (journal_dir / JOURNAL_NAME).write_bytes(b"".join(lines))


def test_reopen_parses_only_the_records_after_the_snapshot(tmp_path,
                                                           monkeypatch):
    records = past_one_snapshot(tmp_path)
    parsed = []
    real_validate = journal_mod.validate_record

    def counting(record):
        parsed.append(record["seq"])
        return real_validate(record)

    monkeypatch.setattr(journal_mod, "validate_record", counting)
    again = Catalog(tmp_path)
    monkeypatch.undo()
    try:
        assert again.state_dict() == Catalog.replay(records).state_dict()
    finally:
        again.close()
    # Each record after S once, and the bisect's few one-line probes.
    assert set(range(S + 1, len(records) + 1)) <= set(parsed)
    probes = len(parsed) - (len(records) - S)
    assert 0 < probes <= 2 * len(records).bit_length()


@pytest.mark.parametrize("edit", ["dropped", "seq-below", "seq-above"])
def test_reopen_raises_unless_the_tail_follows_record_s(tmp_path, edit):
    past_one_snapshot(tmp_path)
    lines = journal_lines(tmp_path)
    if edit == "dropped":
        del lines[S - 1]
    else:
        record = json.loads(lines[S - 1])
        record["seq"] += -1 if edit == "seq-below" else 1
        lines[S - 1] = canonical_json(record).encode() + b"\n"
    rewrite_journal(tmp_path, lines)
    with pytest.raises(CorruptJournal, match=f"no record {S}"):
        Catalog(tmp_path)


def test_reopen_raises_on_a_seq_gap_after_the_snapshot(tmp_path):
    past_one_snapshot(tmp_path)
    lines = journal_lines(tmp_path)
    del lines[S + 3]
    rewrite_journal(tmp_path, lines)
    with pytest.raises(CorruptJournal, match="sequence gap"):
        Catalog(tmp_path)


@pytest.mark.parametrize("newline", [False, True],
                         ids=["torn", "torn-with-newline"])
def test_torn_tail_after_the_snapshot_is_cut_off_and_no_record_lost(
        tmp_path, newline):
    records = past_one_snapshot(tmp_path)
    with open(tmp_path / JOURNAL_NAME, "ab") as f:  # crash mid-append
        f.write(b'{"seq":%d,"op":"collection.create","args":{"pa'
                % (len(records) + 1) + (b"\n" if newline else b""))
    c = Catalog(tmp_path)
    c.make_collection("admin", "/after")
    want = c.state_dict()
    after = c.records()
    c.close()
    assert after[:-1] == records
    assert after[-1]["seq"] == len(records) + 1
    assert (tmp_path / JOURNAL_NAME).read_bytes() == b"".join(
        canonical_json(r).encode() + b"\n" for r in after)
    assert reopened_state(tmp_path) == want == \
        Catalog.replay(after).state_dict()


def test_malformed_audit_record_below_the_snapshot_fails_the_query(tmp_path):
    """A reopen does not parse seq 2 in place, so damage there shows when
    the audit trail is read, as CorruptJournal."""
    past_one_snapshot(tmp_path)
    lines = journal_lines(tmp_path)
    record = json.loads(lines[1])
    assert record["op"] == "audit.append"
    del record["args"]["actor"]
    lines[1] = canonical_json(record).encode() + b"\n"
    rewrite_journal(tmp_path, lines)
    again = Catalog(tmp_path)
    try:
        with pytest.raises(CorruptJournal, match="seq 2"):
            again.audit_query("admin")
        with pytest.raises(CorruptJournal, match="seq 2"):
            again.state_dict()
    finally:
        again.close()


def cut_copy(src, dst, cut):
    shutil.copytree(src, dst)
    with open(dst / JOURNAL_NAME, "r+b") as f:
        f.truncate(cut)
    return dst


def test_crash_cut_oracle(tmp_path):
    """A kill can leave journal.log cut at any byte. Cut after record S,
    at every record boundary and at one byte inside every record, a
    reopen holds exactly the whole records before the cut. Cut below S,
    the snapshot is ahead of the journal, and the reopen raises."""
    src = tmp_path / "zone"
    records = past_one_snapshot(src)
    ends = list(itertools.accumulate(len(line)
                                     for line in journal_lines(src)))
    ends.insert(0, 0)  # ends[k]: the byte after record k
    rng = random.Random(0)
    cuts = [(ends[k], k) for k in range(S, len(records) + 1)]
    cuts += [(rng.randrange(ends[k] + 1, ends[k + 1]), k)
             for k in range(S, len(records))]
    for i, (cut, k) in enumerate(cuts):
        got = reopened_state(cut_copy(src, tmp_path / f"cut{i}", cut))
        assert got == Catalog.replay(records[:k]).state_dict(), (cut, k)

    below = [0, ends[1], ends[S // 2], ends[S - 1],
             rng.randrange(ends[S - 1] + 1, ends[S]), ends[S] - 1]
    for i, cut in enumerate(below):
        with pytest.raises(CorruptJournal):
            Catalog(cut_copy(src, tmp_path / f"below{i}", cut))


def audit_line(seq, when, args):
    return canonical_json({"seq": seq, "op": "audit.append",
                           "args": args, "when": when}).encode() + b"\n"


def test_audit_entry_time_is_the_records_own_unless_its_args_hold_one(
        tmp_path):
    """An audit record carries its time once, as the record's own "when".
    A line written when args["when"] held it too keeps reporting that
    one, through reopens, replay and new records after it."""
    c = new_catalog(tmp_path)
    c.close()
    old = {"actor": "admin", "event": "old", "detail": "d", "when": 111}
    seq = len(journal_lines(tmp_path)) + 1
    with open(tmp_path / JOURNAL_NAME, "ab") as f:
        f.write(audit_line(seq, 222, old))
    c = Catalog(tmp_path)
    c.audit_append("admin", "new", "d")
    new_line = journal_lines(tmp_path)[-1]
    assert new_line.count(b'"when"') == 1
    new = json.loads(new_line)
    want = [(seq, 111, "old"), (seq + 1, new["when"], "new")]
    records, entries = c.records(), c.audit_query("admin")
    assert [(e.seq, e.when, e.event) for e in entries[-2:]] == want
    c.close()
    again = Catalog(tmp_path)
    try:
        assert again.audit_query("admin") == entries
        again.audit_append("admin", "newer", "d")
        got = again.audit_query("admin")
        assert got[:-1] == entries and got[-1].event == "newer"
    finally:
        again.close()
    assert Catalog.replay(records).audit_query("admin") == entries
    assert Catalog.replay(records).audit_query("admin", t_lo=111,
                                              t_hi=112) == entries[-2:-1]


@pytest.mark.parametrize("missing", ["actor", "event", "detail"])
@pytest.mark.parametrize("old_style", [False, True])
def test_audit_record_without_a_field_is_corrupt(tmp_path, missing,
                                                 old_style):
    c = new_catalog(tmp_path)
    c.close()
    args = {"actor": "admin", "event": "e", "detail": "d"}
    if old_style:
        args["when"] = 111
    del args[missing]
    seq = len(journal_lines(tmp_path)) + 1
    with open(tmp_path / JOURNAL_NAME, "ab") as f:
        f.write(audit_line(seq, 222, args))
    with pytest.raises(CorruptJournal, match=f"seq {seq}"):
        Catalog(tmp_path)
    records = [json.loads(line) for line in journal_lines(tmp_path)]
    with pytest.raises(CorruptJournal, match=f"seq {seq}"):
        Catalog.replay(records)
