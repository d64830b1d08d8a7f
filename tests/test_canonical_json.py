"""canonical_json and Journal.append against json.dumps as the reference.

The journal encodes with one C encoder made at import and splices a
record's seq and when around its encoded args and op. Every test here
compares those bytes with json.dumps(..., sort_keys=True,
separators=(",", ":"), ensure_ascii=True) of the same value, taken
before the code under test sees it.
"""

import json
import random

import pytest

from pgzone.common import SYSTEM, sha256_hex
from pgzone.errors import Denied
from pgzone.journal import JOURNAL_NAME, Journal, canonical_json
from pgzone.streams import pack_records

from conftest import ADMIN, add_user, make_zone


def reference(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=True)


# -- a seeded random corpus ------------------------------------------------

CHARS = ("abcXYZ09 _-/.", "éÿĀ中€",
         "\U0001f600\U00010000", "\x00\x01\x1f\x7f\n\t\r\b\f",
         '"\\', "\ud800\udfff\udc00")  # the last: lone surrogates
FLOATS = (-0.0, 0.0, 1e300, -1e300, 5e-324, 1.5, -2.25, 0.1,
          float("nan"), float("inf"), float("-inf"))


def random_text(rng: random.Random) -> str:
    return "".join(rng.choice(rng.choice(CHARS))
                   for _ in range(rng.randint(0, 8)))


def random_scalar(rng: random.Random):
    kind = rng.randrange(7)
    if kind == 0:
        return random_text(rng)
    if kind == 1:
        return rng.randint(-2 ** 70, 2 ** 70)
    if kind == 2:
        return rng.randint(-3, 3)
    if kind == 3:
        return rng.choice(FLOATS)
    if kind == 4:
        return rng.uniform(-1e6, 1e6)
    if kind == 5:
        return rng.choice([True, False])
    return None


def random_value(rng: random.Random, depth: int):
    if depth == 0 or rng.random() < 0.3:
        return random_scalar(rng)
    n = rng.randint(0, 5)
    if rng.random() < 0.5:
        return [random_value(rng, depth - 1) for _ in range(n)]
    keys = [random_text(rng) for _ in range(n)]
    if rng.random() < 0.1:
        keys = [rng.randint(-1000, 1000) for _ in range(n)]
    rng.shuffle(keys)  # insertion order unlike code-point order
    return {k: random_value(rng, depth - 1) for k in keys}


def test_random_corpus_matches_json_dumps():
    rng = random.Random(0xC0DE)
    corpus = [random_value(rng, 4) for _ in range(2000)]
    corpus += [{"b": 1, "a": 2, "B": 3, "é": 4, "\x00": 5, "": 6,
                "\ud800": 7, "\U0001f600": 8, "\uffff": 9}]
    for value in corpus:
        assert canonical_json(value) == reference(value), value


# -- an engine session's journal lines and snapshot ------------------------

def run_session(zone) -> None:
    """One of each kind of op: user, group, ACL, collection, put and
    overwrite, a denied get, replicate, AVU, stream ingest, workflow run,
    and a rule added and removed."""
    zone.ensure_resource(SYSTEM, "spare", "mem", "/blobs/spare", "cache")
    add_user(zone, "u1")
    zone.catalog.add_user_to_group(ADMIN, "u1", "staff")
    zone.engine.make_collection(ADMIN, "/home/d中 \"q\\")
    zone.catalog.set_acl(ADMIN, "/home/d中 \"q\\", "u1", "write")
    path = "/home/d中 \"q\\/f\U0001f600\x01.txt"
    zone.engine.put(ADMIN, path, b"first")
    zone.engine.put(ADMIN, path, b"second, overwritten")
    zone.engine.add_rules(ADMIN, 'rule lockdown on pep.data.get.pre '
                                 'do deny("read é freeze")')
    with pytest.raises(Denied):
        zone.engine.get(ADMIN, path)
    zone.engine.remove_rule(ADMIN, "lockdown")
    assert zone.engine.get(ADMIN, path) == b"second, overwritten"
    zone.engine.replicate(ADMIN, path, "spare")
    zone.engine.add_avu(ADMIN, path, "kéy", "v\ud800\"", "c\t")
    zone.catalog.make_collection(ADMIN, "/feed", kind="stream")
    zone.streams.ingest(ADMIN, "/feed", pack_records([(1, b"a"),
                                                      (5, b"\xff")]))
    zone.catalog.make_collection(ADMIN, "/wf", kind="workflow")
    zone.engine.put(ADMIN, "/wf/in.dat", b"input")
    wf = zone.provenance.attach(ADMIN, "/wf", '''
        procedure stamp($n) {
            $c = checksum("in.dat");
            set_avu("in.dat", "seen", $c);
            put_int($n, "out.txt")
        }''')
    assert zone.provenance.run(ADMIN, wf["id"], {"n": -7})["status"] == "ok"


def record_references(monkeypatch) -> list[str]:
    """The reference line of every record Journal.append is handed,
    made before append sees the record."""
    lines: list[str] = []
    append = Journal.append

    def spy(self, record):
        lines.append(reference(record) + "\n")
        return append(self, record)

    monkeypatch.setattr(Journal, "append", spy)
    return lines


@pytest.mark.parametrize("on_disk", [True, False], ids=["file", "memory"])
def test_every_journal_line_of_a_session_matches_json_dumps(
        tmp_path, monkeypatch, on_disk):
    want = record_references(monkeypatch)
    zone = make_zone(tmp_path if on_disk else None)
    try:
        run_session(zone)
        ops = {json.loads(line)["op"] for line in want}
        assert {"user.create", "user.group_add", "acl.set",
                "collection.create",
                "object.put", "replica.add", "avu.add", "rule.add",
                "rule.remove", "stream.ingest", "workflow.attach",
                "run.record", "audit.append"} <= ops, ops
        if on_disk:
            got = (tmp_path / JOURNAL_NAME).read_bytes()
        else:
            got = b"".join(zone.catalog._journal._lines)
        assert got.decode("ascii").splitlines(keepends=True) == want
    finally:
        zone.close()


def test_snapshot_body_of_a_session_matches_json_dumps(tmp_path):
    zone = make_zone(tmp_path)
    try:
        run_session(zone)
        catalog = zone.catalog
        for _ in range(2):  # the second snapshot joins the kept texts
            state = catalog._state()
            want = reference(state).encode("ascii")
            target = catalog._journal.write_snapshot(
                catalog._seq, state, catalog._snapshot_memo)
            prefix = b'{"seq":%d,"state":' % catalog._seq
            data = target.read_bytes()
            assert data[len(prefix):len(prefix) + len(want) + 1] == \
                want + b","
            zone.engine.put(ADMIN, "/home/after", b"x")
        state = dict(catalog._state())
        del state["last_seq"]
        assert catalog.data_state_digest() == \
            sha256_hex(reference(state).encode("ascii"))
    finally:
        zone.close()


@pytest.mark.parametrize("on_disk", [True, False], ids=["file", "memory"])
def test_audit_lines_in_and_out_of_their_template_match_json_dumps(
        tmp_path, on_disk):
    """An audit.append whose args are the three strings of an audit
    entry fills a fixed template; any other args, and any other op, go
    through canonical_json. Both give json.dumps's bytes."""
    rng = random.Random(35)
    args = [{"actor": random_text(rng), "event": random_text(rng),
             "detail": random_text(rng)} for _ in range(200)]
    args += [{"actor": "a", "event": "e", "detail": 7},
             {"actor": "a", "event": "e", "detail": None},
             {"actor": "a", "event": ["e"], "detail": "d"},
             {"actor": "a", "event": "e", "detail": "d", "when": 5},
             {"actor": "a", "event": "e", "extra": "d"},
             {"actor": "a", "event": "e"}, {}]
    records = [{"seq": seq, "op": op, "args": a, "when": -seq}
               for seq, a in enumerate(args, 1)
               for op in ("audit.append", "audit.appendix")]
    want = [reference(record) + "\n" for record in records]
    j = Journal(tmp_path if on_disk else None)
    for record in records:
        j.append(record)
    got = ((tmp_path / JOURNAL_NAME).read_bytes() if on_disk
           else b"".join(j._lines))
    assert got.decode("ascii").splitlines(keepends=True) == want
    j.close()


# -- an encoding that fails ------------------------------------------------

@pytest.mark.parametrize("on_disk", [True, False], ids=["file", "memory"])
def test_failed_encoding_writes_nothing_and_marks_nothing(tmp_path, on_disk):
    """A value json cannot encode fails the append with TypeError and
    leaves no trace: not in the journal, and not in the encoder, whose
    next encoding of the same containers must not see a cycle."""
    j = Journal(tmp_path if on_disk else None)
    j.append({"seq": 1, "op": "noop", "args": {}, "when": 1})
    before = ((tmp_path / JOURNAL_NAME).read_bytes() if on_disk
              else list(j._lines))
    end = j._end
    shared = [1, {2}]
    bad = {"seq": 2, "op": "noop", "args": {"list": shared}, "when": 2}
    for _ in range(2):
        with pytest.raises(TypeError, match="set"):
            j.append(bad)
        after = ((tmp_path / JOURNAL_NAME).read_bytes() if on_disk
                 else list(j._lines))
        assert after == before and j._end == end
    shared.pop()
    j.append({"seq": 2, "op": "noop", "args": {"again": shared}, "when": 2})
    assert [r["args"] for r in j.read_records()] == [{}, {"again": [1]}]
    j.close()
