import json

import pytest

from pgzone.common import sha256_hex
from pgzone.errors import CorruptJournal
from pgzone.journal import (
    JOURNAL_NAME,
    Journal,
    SNAPSHOT_EVERY,
    canonical_json,
    _read_snapshot,
    validate_record,
)


def rec(seq, op="noop", **args):
    return {"seq": seq, "op": op, "args": args, "when": 1000 + seq}


def test_append_and_read_round_trip(tmp_path):
    j = Journal(tmp_path)
    for i in range(1, 6):
        j.append(rec(i, payload=f"v{i}"))
    j.close()
    got = Journal(tmp_path).read_records()
    assert [r["seq"] for r in got] == [1, 2, 3, 4, 5]
    assert got[2]["args"] == {"payload": "v3"}


def test_canonical_json_is_stable():
    a = canonical_json({"b": 1, "a": [1, 2], "c": "x"})
    b = canonical_json({"c": "x", "a": [1, 2], "b": 1})
    assert a == b
    assert " " not in a


@pytest.mark.parametrize("bad", [
    "not a dict",
    {"seq": 1, "op": "x", "args": {}},                        # missing key
    {"seq": 1, "op": "x", "args": {}, "when": 1, "z": 2},     # extra key
    {"seq": "1", "op": "x", "args": {}, "when": 1},           # seq type
    {"seq": 1, "op": 2, "args": {}, "when": 1},               # op type
    {"seq": 1, "op": "x", "args": [], "when": 1},             # args type
    {"seq": 1, "op": "x", "args": {}, "when": "now"},         # when type
    {"seq": True, "op": "x", "args": {}, "when": 1},          # bool seq
    {"seq": 1, "op": "x", "args": {}, "when": False},         # bool when
])
def test_validate_record_rejects(bad):
    with pytest.raises(CorruptJournal):
        validate_record(bad)


def test_torn_final_line_is_dropped(tmp_path):
    j = Journal(tmp_path)
    j.append(rec(1))
    j.append(rec(2))
    j.close()
    with open(tmp_path / JOURNAL_NAME, "a") as f:
        f.write('{"seq": 3, "op": "half')  # crash mid-append
    got = Journal(tmp_path).read_records()
    assert [r["seq"] for r in got] == [1, 2]


def test_malformed_interior_line_is_corrupt(tmp_path):
    j = Journal(tmp_path)
    j.append(rec(1))
    j.close()
    with open(tmp_path / JOURNAL_NAME, "a") as f:
        f.write("garbage line\n")
        f.write(canonical_json(rec(2)) + "\n")
    with pytest.raises(CorruptJournal):
        Journal(tmp_path).read_records()


@pytest.mark.parametrize("bad", [
    canonical_json(rec(2)) + "," + canonical_json(rec(3)),  # two records
    "",                                                     # empty line
], ids=["two-records", "empty"])
def test_malformed_line_found_after_one_pass_parse(tmp_path, bad):
    j = Journal(tmp_path)
    j.append(rec(1))
    j.close()
    with open(tmp_path / JOURNAL_NAME, "a") as f:
        f.write(bad + "\n")
        f.write(canonical_json(rec(4)) + "\n")
    with pytest.raises(CorruptJournal, match="malformed journal line 2"):
        Journal(tmp_path).read_records()


def test_unparsable_final_line_is_torn_and_overwritten(tmp_path):
    j = Journal(tmp_path)
    j.append(rec(1))
    j.close()
    with open(tmp_path / JOURNAL_NAME, "a") as f:
        f.write('{"seq": 2, "op"\n')  # newline written, record not
    j = Journal(tmp_path)
    assert [r["seq"] for r in j.read_records()] == [1]
    j.append(rec(2))
    j.close()
    assert [r["seq"] for r in Journal(tmp_path).read_records()] == [1, 2]
    assert (tmp_path / JOURNAL_NAME).read_text().count("\n") == 2


def test_empty_dir_reads_empty(tmp_path):
    assert Journal(tmp_path).read_records() == []
    assert Journal(tmp_path).latest_snapshot() is None


def test_snapshot_round_trip(tmp_path):
    j = Journal(tmp_path)
    state = {"users": {"u": {"role": "user"}}, "n": 7}
    j.write_snapshot(42, state)
    seq, got = j.latest_snapshot()
    assert seq == 42 and got == state


def test_snapshot_from_kept_texts_has_the_same_bytes(tmp_path):
    """Keys that need escaping, sort differently by code point, or are no
    longer in the state; a kept text is used as it is."""
    state = {"objects": {"/b\u00e9": {"x": [1, "\"q\\"]}, "/a": {},
                         "/A\n": None, "/\u4e2d": 2},
             "avus": {}, "runs": {"r\u00ff": {"k": [None, True]}},
             "users": {"z": 1, "a": 2}, "last_seq": 3}
    memo = {"objects": {"/gone": '"/gone":1'}, "avus": {}, "runs": {}}
    j = Journal(tmp_path)
    want = canonical_json(state).encode()
    for seq in (1, 2):
        text = j.write_snapshot(seq, state, memo).read_bytes()
        assert text[len(b'{"seq":%d,"state":' % seq):].startswith(
            want + b',"state_hash":"')
        assert j.latest_snapshot() == (seq, state)
    assert set(memo["objects"]) == set(state["objects"]) | {"/gone"}
    assert memo["runs"] == {"r\u00ff": '"r\\u00ff":{"k":[null,true]}'}


def test_snapshot_file_is_canonical_json(tmp_path):
    state = {"users": {"u": {"role": "user", "groups": ["g"]}},
             "note": "caf\u00e9 \"q\"", "n": 7}
    Journal(tmp_path).write_snapshot(42, state)
    text = (tmp_path / "snapshot-42.json").read_text(encoding="utf-8")
    doc = json.loads(text)
    assert text == canonical_json(doc)
    assert doc["seq"] == 42 and doc["state"] == state
    assert doc["state_hash"] == sha256_hex(canonical_json(state).encode())


def test_latest_snapshot_picks_newest(tmp_path):
    j = Journal(tmp_path)
    j.write_snapshot(10, {"v": 1})
    j.write_snapshot(30, {"v": 3})
    j.write_snapshot(20, {"v": 2})
    assert j.latest_snapshot() == (30, {"v": 3})


def test_snapshot_hash_detects_tampering(tmp_path):
    j = Journal(tmp_path)
    j.write_snapshot(5, {"balance": 100})
    p = tmp_path / "snapshot-5.json"
    doc = json.loads(p.read_text())
    doc["state"]["balance"] = 999999
    p.write_text(json.dumps(doc))
    with pytest.raises(CorruptJournal) as e:
        _read_snapshot(5, p)
    assert "hash" in str(e.value)


@pytest.mark.parametrize("edit", [
    lambda text: text.replace('{"seq":5,', '{"seq":6,'),
    lambda text: text[:-1] + ',"extra":1}',
    lambda text: text + "\n",
], ids=["seq-not-the-file-name", "extra-key", "trailing-newline"])
def test_snapshot_in_another_layout_is_rejected(tmp_path, edit):
    j = Journal(tmp_path)
    j.write_snapshot(5, {"balance": 100})
    p = tmp_path / "snapshot-5.json"
    p.write_text(edit(p.read_text()))
    with pytest.raises(CorruptJournal, match="hash"):
        _read_snapshot(5, p)


def test_snapshot_malformed_document(tmp_path):
    (tmp_path / "snapshot-3.json").write_text('{"not": "a snapshot"}')
    with pytest.raises(CorruptJournal):
        _read_snapshot(3, tmp_path / "snapshot-3.json")


def test_snapshot_every_constant():
    assert SNAPSHOT_EVERY == 1000


def test_final_line_without_newline_is_torn(tmp_path):
    j = Journal(tmp_path)
    j.append(rec(1))
    j.close()
    with open(tmp_path / JOURNAL_NAME, "ab") as f:
        f.write(canonical_json(rec(2)).encode())  # whole record, no newline
    j = Journal(tmp_path)
    assert [r["seq"] for r in j.read_records()] == [1]
    j.append(rec(2, payload="again"))  # overwrites the torn bytes
    j.close()
    got = Journal(tmp_path).read_records()
    assert [r["seq"] for r in got] == [1, 2]
    assert got[1]["args"] == {"payload": "again"}


def test_in_memory_journal_keeps_lines_and_no_snapshot():
    j = Journal()
    for i in range(1, 4):
        j.append(rec(i, payload=[i]))
    got = j.read_records()
    assert [r["args"]["payload"] for r in got] == [[1], [2], [3]]
    got[0]["args"]["payload"].append(99)  # each read is a fresh copy
    assert j.read_records()[0]["args"] == {"payload": [1]}
    assert j.write_snapshot(3, {"v": 1}) is None
    assert j.latest_snapshot() is None
    j.close()


def seven_records(tmp_path, torn):
    j = Journal(tmp_path)
    for i in range(1, 8):
        j.append(rec(i, payload="x" * i))
    j.close()
    with open(tmp_path / JOURNAL_NAME, "a") as f:
        f.write(torn)


# The long torn line holds most of the file, so the bisect's first probe
# lands in it.
@pytest.mark.parametrize("torn", ["", '{"seq": 8, "op"', '{"seq": 8, "op"\n',
                                  '{"seq": 8, "op": "' + "x" * 2000 + "\n"],
                         ids=["none", "torn", "torn-with-newline",
                              "long-torn-with-newline"])
@pytest.mark.parametrize("after", range(1, 8))
def test_read_records_after_a_seq_returns_the_later_ones(tmp_path, torn,
                                                         after):
    seven_records(tmp_path, torn)
    j = Journal(tmp_path)
    assert [r["seq"] for r in j.read_records(after=after)] == \
        list(range(after + 1, 8))
    # The torn line is cut off before the next append, not a record more.
    j.append(rec(8))
    j.close()
    want = [rec(i, payload="x" * i) for i in range(1, 8)] + [rec(8)]
    assert Journal(tmp_path).read_records() == want


@pytest.mark.parametrize("torn", ["", '{"seq": 8, "op"\n'],
                         ids=["none", "torn-with-newline"])
@pytest.mark.parametrize("after", [8, 9, 100])
def test_read_records_after_a_seq_the_journal_lacks_is_corrupt(tmp_path, torn,
                                                                after):
    seven_records(tmp_path, torn)
    with pytest.raises(CorruptJournal, match=f"no record {after}"):
        Journal(tmp_path).read_records(after=after)


def test_read_records_after_raises_on_a_malformed_line_in_its_place(tmp_path):
    seven_records(tmp_path, "")
    lines = (tmp_path / JOURNAL_NAME).read_text().splitlines(keepends=True)
    lines[3] = "garbage line\n"
    (tmp_path / JOURNAL_NAME).write_text("".join(lines))
    with pytest.raises(CorruptJournal, match="malformed"):
        Journal(tmp_path).read_records(after=4)


def test_read_records_after_in_memory():
    j = Journal()
    for i in range(1, 6):
        j.append(rec(i))
    assert [r["seq"] for r in j.read_records(after=3)] == [4, 5]
    assert j.read_records(after=5) == []
    with pytest.raises(CorruptJournal):
        j.read_records(after=6)


# The audit journal's reads: its last whole record from the file's end,
# and the records below an end taken earlier.

BIG = "y" * (1 << 15)  # a line longer than last_record's first reads


@pytest.mark.parametrize("torn", ["", '{"seq": 6, "op"', '{"seq": 6, "op"\n',
                                  '{"seq": 6, "op": "' + BIG + "\n"],
                         ids=["none", "torn", "torn-with-newline",
                              "long-torn-with-newline"])
@pytest.mark.parametrize("big", [None, 4, 5])
def test_last_record_reads_the_last_whole_record(tmp_path, torn, big):
    want = [rec(i, payload=BIG if i == big else "x") for i in range(1, 6)]
    j = Journal(tmp_path)
    for record in want:
        j.append(record)
    j.close()
    with open(tmp_path / JOURNAL_NAME, "a") as f:
        f.write(torn)
    j = Journal(tmp_path)
    assert j.last_record() == want[-1]
    assert j.read_to(j.end()) == want
    j.append(rec(6))  # cuts the torn tail off first
    j.close()
    assert Journal(tmp_path).read_records() == want + [rec(6)]


@pytest.mark.parametrize("content", [None, "", '{"seq": 1, "op"',
                                     '{"seq": 1, "op"\n'],
                         ids=["missing", "empty", "torn", "torn-with-newline"])
def test_last_record_of_a_file_without_a_whole_record(tmp_path, content):
    if content is not None:
        (tmp_path / JOURNAL_NAME).write_text(content)
    j = Journal(tmp_path)
    assert j.last_record() is None
    assert j.end() == 0 and j.read_to(j.end()) == []
    j.append(rec(1))
    j.close()
    assert Journal(tmp_path).read_records() == [rec(1)]


@pytest.mark.parametrize("tail", ["", '{"seq": 4, "op"'],
                         ids=["none", "torn"])
def test_last_record_raises_on_a_malformed_line_before_the_tail(tmp_path,
                                                                 tail):
    j = Journal(tmp_path)
    for i in range(1, 3):
        j.append(rec(i))
    j.close()
    with open(tmp_path / JOURNAL_NAME, "a") as f:
        f.write("garbage\n" + ('{"seq": 3}\n' if not tail else tail))
    with pytest.raises(CorruptJournal, match="malformed"):
        Journal(tmp_path).last_record()


@pytest.mark.parametrize("on_disk", [True, False], ids=["file", "memory"])
def test_read_to_parses_only_below_the_end_it_was_given(tmp_path, on_disk):
    j = Journal(tmp_path if on_disk else None)
    for i in range(1, 4):
        j.append(rec(i))
    end = j.end()
    j.append(rec(4))
    assert j.read_to(end) == [rec(1), rec(2), rec(3)]
    assert j.read_to(j.end()) == [rec(i) for i in range(1, 5)]
    assert j.read_to(0) == []
    assert j.last_record() == rec(4)
    j.close()


def test_read_to_raises_on_a_malformed_line_below_the_end(tmp_path):
    seven_records(tmp_path, "")
    lines = (tmp_path / JOURNAL_NAME).read_text().splitlines(keepends=True)
    for bad in (3, 6):
        damaged = list(lines)
        damaged[bad] = "garbage line\n"
        (tmp_path / JOURNAL_NAME).write_text("".join(damaged))
        j = Journal(tmp_path)
        with pytest.raises(CorruptJournal, match="malformed"):
            j.read_to(sum(len(line) for line in damaged))


def test_latest_snapshot_falls_back_past_a_damaged_one(tmp_path, caplog):
    """A snapshot that fails its check is logged and renamed out of the
    snapshots, so the next prune keeps the one loaded instead of it."""
    j = Journal(tmp_path)
    j.write_snapshot(10, {"v": 1})
    j.write_snapshot(20, {"v": 2})
    (tmp_path / "snapshot-20.json").write_text("")
    assert j.latest_snapshot() == (10, {"v": 1})
    assert "snapshot-20.json" in caplog.text
    assert (tmp_path / "snapshot-20.bad").read_text() == ""
    j.write_snapshot(30, {"v": 3})
    assert sorted(p.name for p in tmp_path.glob("snapshot-*")) == [
        "snapshot-10.json", "snapshot-20.bad", "snapshot-30.json"]
    (tmp_path / "snapshot-30.json").write_text("{")
    (tmp_path / "snapshot-10.json").write_text("{")
    assert j.latest_snapshot() is None
    assert not list(tmp_path.glob("snapshot-*.json"))
