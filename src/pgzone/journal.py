"""Append-only journals with periodic full-state snapshots.

A journal directory holds two journals. journal.log is the catalog's
only record of its commits: the catalog appends each record before it
applies it, and `Catalog.records()` reads the records back from it.
audit.log holds the audit trail, one audit.append record per entry,
with the trail's own seq; an entry changes no state, so no reopen
replays it. Zones written before audit.log kept their audit.append
records in journal.log, in its seq space; those records stay there.

Layout inside the journal directory:

  journal.log          one JSON object per line, canonical_json(record):
                       {"args":{...},"op":"...","seq":n,"when":us}
  audit.log            the same line shape, op "audit.append", args
                       {"actor","detail","event"}; seqs contiguous
  snapshot-<seq>.json  {"seq":S,"state":BODY,"state_hash":H,"when":W}
                       with BODY the canonical JSON of the state the
                       caller hands over as of journal.log's seq S, and
                       H its sha256, checked over BODY's bytes as read;
                       it holds no audit trail
  snapshot-<seq>.bad   a snapshot that failed its check at a reopen

A snapshot need not serialize the whole state afresh: the caller may
hand over, for some sections, the serialized text of each entry, kept
from the last snapshot for every entry that has not changed since. The
text of the other entries is made and kept here. The bytes written are
the same either way.

Every text here is canonical JSON: sorted keys, no spaces, ASCII only,
the bytes of json.dumps(value, sort_keys=True, separators=(",", ":"),
ensure_ascii=True). canonical_json encodes with the one C encoder made
at import, not with a new encoder per call as json.dumps does. A line
encodes only the record's args; its op, encoded once per op name into
a token table, and its seq and when follow them in one % format. The
args of an audit.append, three strings under fixed keys, fill one fixed
template of three encoded strings instead; any other args go through
canonical_json. Canonical JSON sorts the four keys as args, op, seq,
when, so the line has the same bytes as canonical_json(record). A line
goes to the file in one write; only a short write loops.

A journal made without a directory keeps its lines in a list and writes
no snapshot.

Recovery is latest snapshot plus tail replay: read_records(after=S)
parses only the records after the snapshot's seq S. It finds where
record S ends by bisecting the line starts of journal.log, parsing one
line per probe, and raises unless a line there holds record S; the
records up to S are parsed only by read_records() without an argument,
which records() uses, and by read_to(). The audit journal is opened
with last_record(), which reads the file back from its end only as far
as its last whole line. The lines read are
parsed with one json.loads; only when that fails does a per-line parse
find the fault. A torn final line (the mark of a crash mid-append: it
lacks its newline or does not parse) is dropped and cut off before the
next append; a malformed line anywhere else means the journal is
corrupt. The caller checks that the sequence numbers it reads are
contiguous. An append that fails leaves the file as it was before the
append.

end() and read_to() read a journal without the caller's lock: end(),
taken under it, is where the whole records end, and read_to(end) parses
the records below it after the lock is let go. Appends only add bytes
past it, and the only cuts, of a failed append or a torn tail, lie at
or past it too.

A snapshot is written to snapshot-<seq>.tmp and renamed into place. Only
then are all but the newest KEEP_SNAPSHOTS snapshots deleted, together
with any .tmp file a kill left behind. A snapshot that fails deletes
nothing and leaves no temporary file behind. A reopen that finds the
newest snapshot damaged renames it to snapshot-<seq>.bad, which no
prune counts or deletes, and falls back to the one before it, then to
seq 0: journal.log is never cut below a snapshot.
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
AUDIT_NAME = "audit.log"
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
    All methods but read_to assume the caller serializes."""

    def __init__(self, directory: str | Path | None = None,
                 name: str = JOURNAL_NAME):
        self.dir = self.path = None
        # The lines, each with its newline, of an in-memory journal.
        self._lines: list[bytes] = []
        self._file = None
        # Bytes of whole records in the file, once read_records,
        # last_record or the first append has looked; the file is cut
        # back to this on reopen.
        self._end: int | None = None
        if directory is not None:
            self.dir = Path(directory)
            self.dir.mkdir(parents=True, exist_ok=True)
            self.path = self.dir / name

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
        records, self._end = _parse_from(data, start, after)
        return records

    def last_record(self) -> dict | None:
        """The record of the last whole line, or None when there is none.
        The file is read back from its end only as far as the start of the
        line before that record's, since a torn tail may hide it; a
        malformed line other than a torn tail raises. The next append
        cuts off whatever follows that record."""
        if self.path is None:
            return json.loads(self._lines[-1]) if self._lines else None
        try:
            f = open(self.path, "rb")
        except FileNotFoundError:
            self._end = 0
            return None
        with f:
            size = f.seek(0, os.SEEK_END)
            chunk = 1 << 12
            while True:
                begin = max(0, size - chunk)
                f.seek(begin)
                data = f.read(size - begin)
                # Three newlines bound two whole lines and the torn tail.
                if begin == 0 or data.count(b"\n") >= 3:
                    break
                chunk *= 4
        lines = data.split(b"\n")
        tail = lines.pop()
        if begin:
            del lines[0]  # the part of a line before the bytes read
        record = _record_or_none(lines[-1]) if lines else None
        if record is None and lines and not tail:
            tail = lines.pop() + b"\n"  # a torn tail with its newline
            record = _record_or_none(lines[-1]) if lines else None
        if record is None and lines:
            raise CorruptJournal(f"malformed line before the end of "
                                 f"{self.path.name}")
        self._end = size - len(tail)
        return record

    def end(self) -> int:
        """Where the whole records end: a byte offset into the file, or a
        count of lines in memory. Take it under the lock that serializes
        appends, once read_records, last_record or an append has looked,
        and hand it to read_to."""
        if self.path is None:
            return len(self._lines)
        assert self._end is not None, "end() before the file was read"
        return self._end

    def read_to(self, end: int) -> list[dict]:
        """Parse the records below `end`, which end() gave; every line
        there must hold a whole record. Nothing here changes, so the caller
        need not hold the lock: what other threads append or cut lies past
        `end`."""
        if not end:
            return []
        if self.path is None:
            data = b"".join(self._lines[:end])
        else:
            try:
                with open(self.path, "rb") as f:
                    data = f.read(end)
            except FileNotFoundError:
                data = b""
            if len(data) < end:
                raise CorruptJournal(f"{self.path.name} is shorter than "
                                     f"its {end} bytes of records")
        records, stop = _parse_from(data, 0)
        if stop < len(data):  # a bad last line, which is no torn tail here
            raise CorruptJournal(f"malformed journal line {len(records) + 1}")
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
        """Return (seq, state) of the newest snapshot file that passes
        _read_snapshot's check, or None when none does. One that fails is
        logged and renamed to snapshot-<seq>.bad, so that _prune, which
        keeps the newest KEEP_SNAPSHOTS, never counts it in place of the
        one loaded; then the next older one is tried."""
        if self.dir is None:
            return None
        for seq, path in reversed(self._snapshots()):
            try:
                return seq, _read_snapshot(seq, path)
            except CorruptJournal as e:
                log.error("%s; reopening from an older snapshot or "
                          "seq 0", e)
                try:
                    path.replace(path.with_suffix(".bad"))
                except OSError as err:
                    log.warning("damaged snapshot %s not renamed: %s",
                                path.name, err)
        return None


def _read_snapshot(seq: int, path: Path) -> dict:
    try:
        data = path.read_bytes()
    except OSError as e:
        raise CorruptJournal(f"unreadable snapshot {path.name}: {e}")
    prefix = b'{"seq":%d,"state":' % seq
    # rfind: the state may itself hold a "state_hash" key.
    cut = data.rfind(b',"state_hash":"')
    suffix = _SNAPSHOT_SUFFIX.fullmatch(data, cut) \
        if cut >= len(prefix) else None
    body = data[len(prefix):cut]
    if not data.startswith(prefix) or suffix is None \
            or sha256_hex(body) != suffix[1].decode("ascii"):
        raise CorruptJournal(f"snapshot hash mismatch in {path.name}")
    try:
        state = json.loads(body)
    except ValueError as e:
        raise CorruptJournal(f"unreadable snapshot {path.name}: {e}")
    if not isinstance(state, dict):
        raise CorruptJournal(f"malformed snapshot {path.name}")
    return state


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


def _parse_from(data: bytes, start: int, after: int = 0
                ) -> tuple[list[dict], int]:
    """The records of the lines of `data` from offset `start`, which
    follow record `after`, and the offset where the last of them ends.
    Only a torn final line is dropped; any other malformed line raises."""
    lines = data[start:].split(b"\n")
    tail = lines.pop()  # b"" when data ends on a newline
    records = _parse_at_once(lines)
    if records is None:
        records = _parse_each(lines, tail, after)
    return records, start + sum(len(line) + 1
                                for line in lines[:len(records)])


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


def _record_or_none(line: bytes) -> dict | None:
    try:
        return validate_record(json.loads(line))
    except (ValueError, CorruptJournal):
        return None


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
