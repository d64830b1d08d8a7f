"""Append-only journal with periodic full-state snapshots.

The journal is the catalog's only record of its commits: the catalog
appends each record before it applies it, and `Catalog.records()` reads
the records back from here.

Layout inside the journal directory:

  journal.log          one JSON object per line, canonical_json(record):
                       {"args":{...},"op":"...","seq":n,"when":us}
  snapshot-<seq>.json  {"seq":S,"state":BODY,"state_hash":H,"when":W}
                       with BODY the canonical JSON of the state the
                       caller hands over as of seq S, and H its sha256,
                       checked over BODY's bytes as read; it holds no
                       audit trail, whose only copy is the audit.append
                       records of journal.log

A snapshot need not serialize the whole state afresh: the caller may
hand over, for some sections, the serialized text of each entry, kept
from the last snapshot for every entry that has not changed since. The
text of the other entries is made and kept here. The bytes written are
the same either way.

Every text here is canonical JSON: sorted keys, no spaces, ASCII only,
the bytes of json.dumps(value, sort_keys=True, separators=(",", ":"),
ensure_ascii=True). canonical_json encodes with the one C encoder made
at import, not with a new encoder per call as json.dumps does. A line
of journal.log encodes only the record's args; its op, encoded once per
op name into a token table, and its seq and when follow them in one %
format. The args of an audit.append, three strings under fixed keys,
fill one fixed template of three encoded strings instead; any other
args go through canonical_json. Canonical JSON sorts the four keys as
args, op, seq, when, so the line has the same bytes as
canonical_json(record). A line goes to the file in one write; only a
short write loops.

A journal made without a directory keeps its lines in a list and writes
no snapshot.

Recovery is latest snapshot plus tail replay: read_records(after=S)
parses only the records after the snapshot's seq S. It finds where
record S ends by bisecting the line starts of journal.log, parsing one
line per probe, and raises unless a line there holds record S; the
records up to S are parsed only by read_records() without an argument,
which records(), the audit trail and state_dict() use. The lines read are
parsed with one json.loads; only when that fails does a per-line parse
find the fault. A torn final line (the mark of a crash mid-append: it
lacks its newline or does not parse) is dropped and cut off before the
next append; a malformed line anywhere else means the journal is
corrupt. The caller checks that the sequence numbers it reads are
contiguous. An append that fails leaves the file as it was before the
append.

A snapshot is written to snapshot-<seq>.tmp and renamed into place. Only
then are all but the newest KEEP_SNAPSHOTS snapshots deleted, together
with any .tmp file a kill left behind. A snapshot that fails deletes
nothing and leaves no temporary file behind.
"""

from __future__ import annotations

import json
import logging
import os
import re
from pathlib import Path
from typing import Any, NoReturn

from .common import now_us, sha256_hex
from .errors import CorruptJournal

log = logging.getLogger("pgzone.journal")

JOURNAL_NAME = "journal.log"
SNAPSHOT_EVERY = 1000
KEEP_SNAPSHOTS = 2

_RECORD_KEYS = {"seq", "op", "args", "when"}
# What follows the state in a snapshot file; see write_snapshot.
_SNAPSHOT_SUFFIX = re.compile(rb',"state_hash":"([0-9a-f]{64})","when":-?\d+\}')


def _unserializable(value: Any) -> NoReturn:
    raise TypeError(f"Object of type {type(value).__name__} "
                    "is not JSON serializable")


# The encoder json.dumps builds afresh on each call with these settings.
# No markers dict: a shared one would keep the ids of a failed encoding
# and fail the next encoding of the same object as a circular reference.
# Without one, a cycle, which no record holds, ends in RecursionError.
_ENCODE = json.encoder.c_make_encoder(
    None, _unserializable, json.encoder.encode_basestring_ascii, None,
    ":", ",", True, False, True)


def canonical_json(value: Any) -> str:
    return "".join(_ENCODE(value, 0))


_encode_str = json.encoder.encode_basestring_ascii
# Each op name, encoded.
_OP_TOKENS: dict[str, bytes] = {}
# A whole audit.append line, its args' keys in canonical order.
_AUDIT_LINE = ('{"args":{"actor":%s,"detail":%s,"event":%s},'
               '"op":"audit.append","seq":%d,"when":%d}\n')


def _line(record: dict) -> bytes:
    """canonical_json(record) and a newline, as ASCII bytes."""
    op, args = record["op"], record["args"]
    if op == "audit.append" and len(args) == 3:
        try:
            return (_AUDIT_LINE % (
                _encode_str(args["actor"]), _encode_str(args["detail"]),
                _encode_str(args["event"]), record["seq"], record["when"])
            ).encode("ascii")
        except (KeyError, TypeError):  # other keys, or not strings
            pass
    token = _OP_TOKENS.get(op)
    if token is None:
        token = _OP_TOKENS[op] = canonical_json(op).encode("ascii")
    return b'{"args":%s,"op":%s,"seq":%d,"when":%d}\n' % (
        canonical_json(args).encode("ascii"), token,
        record["seq"], record["when"])


def validate_record(record: Any) -> dict:
    if not isinstance(record, dict) or set(record) != _RECORD_KEYS:
        raise CorruptJournal(f"malformed record: {record!r}")
    # type() is int: a bool is an int, and would replay as seq 1.
    if type(record["seq"]) is not int or not isinstance(record["op"], str) \
            or not isinstance(record["args"], dict) \
            or type(record["when"]) is not int:
        raise CorruptJournal(f"malformed record: {record!r}")
    return record


class Journal:
    """File-backed journal, or an in-memory one when directory is None.
    All methods assume the caller serializes."""

    def __init__(self, directory: str | Path | None = None):
        self.dir = self.path = None
        # The lines, each with its newline, of an in-memory journal.
        self._lines: list[bytes] = []
        self._file = None
        # Bytes of whole records in journal.log, once read_records or the
        # first append has looked; the file is cut back to this on reopen.
        self._end: int | None = None
        if directory is not None:
            self.dir = Path(directory)
            self.dir.mkdir(parents=True, exist_ok=True)
            self.path = self.dir / JOURNAL_NAME

    # -- write side -----------------------------------------------------

    def _ensure_open(self):
        if self._file is None:
            self._file = open(self.path, "ab", buffering=0)
            if self._end is None:
                self._end = self._file.tell()
            else:
                self._file.truncate(self._end)  # drop a torn tail
        return self._file

    def append(self, record: dict) -> None:
        """Write one record of the shape validate_record accepts."""
        line = _line(record)
        if self.path is None:
            self._lines.append(line)
            return
        f = self._ensure_open()
        try:
            written = f.write(line)
            if written != len(line):  # a short write: finish it
                data = memoryview(line)[written:]
                while data:
                    data = data[f.write(data):]
        except BaseException:
            # Cut off a part-written line, so the next append starts on a
            # record boundary; were the cut to fail, the reopen retries it.
            self._file = None
            try:
                f.truncate(self._end)
            finally:
                f.close()
            raise
        self._end += len(line)

    def write_snapshot(self, seq: int, state: dict,
                       memo: dict[str, dict[str, str]] | None = None
                       ) -> Path | None:
        """Write the snapshot of `state` as of `seq`. For each section of
        the state that `memo` names, memo[section] maps an entry's key to
        its text, canonical_json(key) + ":" + canonical_json(value); an
        entry without one gets it here. The caller drops the text of an
        entry before it changes that entry. The bytes written are the same
        with or without a memo."""
        if self.dir is None:
            return None
        body = _memoized_json(state, memo or {}).encode("ascii")
        target = self.dir / f"snapshot-{seq}.json"
        tmp = target.with_suffix(".tmp")
        try:
            # canonical_json of {"seq", "state", "state_hash", "when"},
            # written around the one serialization of the state, which is
            # never copied into a larger string.
            with open(tmp, "wb") as f:
                f.write(b'{"seq":%d,"state":' % seq)
                f.write(body)
                f.write(b',"state_hash":"%s","when":%d}' % (
                    sha256_hex(body).encode("ascii"), now_us()))
            os.replace(tmp, target)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
        self._prune()
        return target

    def _prune(self) -> None:
        """Delete all but the newest KEEP_SNAPSHOTS snapshots, and any
        temporary file a kill left between a write and its rename. A file
        that cannot be deleted stays until the next snapshot prunes."""
        stale = [p for _, p in self._snapshots()[:-KEEP_SNAPSHOTS]]
        stale += self.dir.glob("snapshot-*.tmp")
        for p in stale:
            try:
                p.unlink(missing_ok=True)
            except OSError as e:
                log.warning("stale snapshot file %s not deleted: %s",
                            p.name, e)

    def close(self) -> None:
        if self._file is not None:
            os.fsync(self._file.fileno())
            self._file.close()
            self._file = None

    # -- read side ------------------------------------------------------

    def read_records(self, after: int = 0) -> list[dict]:
        """Parse the records after seq `after`, by default every record;
        tolerate only a torn final line. With after > 0 the journal must
        hold record `after`, found by a bisect of the line starts that
        parses one line per probe; no record before it is parsed."""
        if self.path is None:
            data = b"".join(self._lines)
        else:
            data = self.path.read_bytes() if self.path.exists() else b""
        start = _end_of_record(data, after) if after else 0
        lines = data[start:].split(b"\n")
        tail = lines.pop()  # b"" when the file ends on a newline
        records = _parse_at_once(lines)
        if records is None:
            records = _parse_each(lines, tail, after)
        self._end = start + sum(len(line) + 1
                                for line in lines[:len(records)])
        return records

    def _snapshots(self) -> list[tuple[int, Path]]:
        """(seq, path) of each snapshot file, oldest first."""
        found = []
        for p in self.dir.glob("snapshot-*.json"):
            try:
                found.append((int(p.stem.split("-", 1)[1]), p))
            except (IndexError, ValueError):
                continue
        return sorted(found)

    def latest_snapshot(self) -> tuple[int, dict] | None:
        """Return (seq, state) of the newest snapshot file. The file must
        have exactly the layout write_snapshot gives it, and its hash is
        checked over the state's bytes as read, before they are parsed."""
        if self.dir is None:
            return None
        snapshots = self._snapshots()
        if not snapshots:
            return None
        best_seq, best_path = snapshots[-1]
        try:
            data = best_path.read_bytes()
        except OSError as e:
            raise CorruptJournal(f"unreadable snapshot {best_path.name}: {e}")
        prefix = b'{"seq":%d,"state":' % best_seq
        # rfind: the state may itself hold a "state_hash" key.
        cut = data.rfind(b',"state_hash":"')
        suffix = _SNAPSHOT_SUFFIX.fullmatch(data, cut) \
            if cut >= len(prefix) else None
        body = data[len(prefix):cut]
        if not data.startswith(prefix) or suffix is None \
                or sha256_hex(body) != suffix[1].decode("ascii"):
            raise CorruptJournal(f"snapshot hash mismatch in {best_path.name}")
        try:
            state = json.loads(body)
        except ValueError as e:
            raise CorruptJournal(f"unreadable snapshot {best_path.name}: {e}")
        if not isinstance(state, dict):
            raise CorruptJournal(f"malformed snapshot {best_path.name}")
        return best_seq, state


def _memoized_json(state: dict, memo: dict[str, dict[str, str]]) -> str:
    """canonical_json(state), with each section that memo names joined
    from its entries' texts, sorted by key as json.dumps sorts them.
    Nothing is added to a large string: each copy of one costs."""
    parts = ["{"]
    for name in sorted(state):
        if len(parts) > 1:
            parts.append(",")
        parts.append(canonical_json(name) + ":")
        section, texts = state[name], memo.get(name)
        if texts is None:
            parts.append(canonical_json(section))
            continue
        for key in section.keys() - texts.keys():
            texts[key] = canonical_json(key) + ":" + \
                canonical_json(section[key])
        parts += ["{", ",".join([texts[key] for key in sorted(section)]),
                  "}"]
    parts.append("}")
    return "".join(parts)


def _parse_at_once(lines: list[bytes]) -> list[dict] | None:
    """All lines as records with one json.loads, or None unless there is
    exactly one valid record per line; _parse_each then finds the fault.
    The count cannot catch a line that holds a record and a half whose
    other half ends the next line; no append writes such lines."""
    try:
        records = json.loads(b"[" + b",".join(lines) + b"]")
    except ValueError:
        return None
    if len(records) != len(lines):
        return None
    try:
        for record in records:
            validate_record(record)
    except CorruptJournal:
        return None
    return records


def _end_of_record(data: bytes, seq: int) -> int:
    """The offset just past the line of record `seq` in the journal bytes
    `data`, found by bisecting the line starts: seqs rise by line. Raise
    CorruptJournal unless one line holds that record. Only whole lines
    are probed; a final one that does not parse is a torn tail and sorts
    after every record, as _parse_each drops it."""
    lo, hi = 0, data.rfind(b"\n") + 1
    while lo < hi:
        begin = data.rfind(b"\n", lo, (lo + hi) // 2) + 1 or lo
        end = data.index(b"\n", begin) + 1
        try:
            found = validate_record(json.loads(data[begin:end]))["seq"]
        except (ValueError, CorruptJournal):
            if end < len(data):
                raise CorruptJournal(
                    f"malformed journal line at byte {begin}")
            found = None  # torn final line
        if found == seq:
            return end
        if found is not None and found < seq:
            lo = end
        else:
            hi = begin
    raise CorruptJournal(f"snapshot at seq {seq} but the journal holds no "
                         f"record {seq}")


def _parse_each(lines: list[bytes], tail: bytes,
                after: int = 0) -> list[dict]:
    """Parse line by line; drop a torn final line, raise on any other.
    The lines follow record `after`, so a line's number is its seq."""
    records: list[dict] = []
    for i, line in enumerate(lines, 1):
        try:
            records.append(validate_record(json.loads(line)))
        except (ValueError, CorruptJournal):
            if i < len(lines) or tail:
                raise CorruptJournal(f"malformed journal line {after + i}")
            break  # torn final line from a crash mid-append
    return records
