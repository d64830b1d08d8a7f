"""Append-only journal with periodic full-state snapshots.

The journal is the catalog's only record of its commits: the catalog
appends each record before it applies it, and `Catalog.records()` reads
the records back from here.

Layout inside the journal directory:

  journal.log          one JSON object per line:
                       {"seq": n, "op": "...", "args": {...}, "when": us}
  snapshot-<seq>.json  {"seq":S,"state":BODY,"state_hash":H,"when":W}
                       with BODY the canonical JSON of the state the
                       caller hands over as of seq S, and H its sha256,
                       checked over BODY's bytes as read; the catalog
                       leaves its audit trail out, and rebuilds it from
                       journal.log on recovery

A journal made without a directory keeps its lines in a list and writes
no snapshot.

Recovery is latest snapshot plus tail replay. The whole journal is parsed
with one json.loads; only when that fails does a per-line parse find the
fault. A torn final line (the mark of a crash mid-append: it lacks its
newline or does not parse) is dropped and cut off before the next append;
a malformed line anywhere else means the journal is corrupt. Sequence
numbers must be contiguous from 1. An append that fails leaves the file
as it was before the append.

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
from typing import Any

from .common import now_us, sha256_hex
from .errors import CorruptJournal

log = logging.getLogger("pgzone.journal")

JOURNAL_NAME = "journal.log"
SNAPSHOT_EVERY = 1000
KEEP_SNAPSHOTS = 2

_RECORD_KEYS = {"seq", "op", "args", "when"}
# What follows the state in a snapshot file; see write_snapshot.
_SNAPSHOT_SUFFIX = re.compile(rb',"state_hash":"([0-9a-f]{64})","when":-?\d+\}')


def canonical_json(value: Any) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=True)


def validate_record(record: Any) -> dict:
    if not isinstance(record, dict) or set(record) != _RECORD_KEYS:
        raise CorruptJournal(f"malformed record: {record!r}")
    if not isinstance(record["seq"], int) or not isinstance(record["op"], str) \
            or not isinstance(record["args"], dict) \
            or not isinstance(record["when"], int):
        raise CorruptJournal(f"malformed record: {record!r}")
    return record


class Journal:
    """File-backed journal, or an in-memory one when directory is None.
    All methods assume the caller serializes."""

    def __init__(self, directory: str | Path | None = None):
        self.dir = self.path = None
        self._lines: list[bytes] = []  # the records of an in-memory journal
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
        line = canonical_json(record).encode("ascii")
        if self.path is None:
            self._lines.append(line)
            return
        f = self._ensure_open()
        data = memoryview(line + b"\n")
        try:
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
        self._end += len(line) + 1

    def write_snapshot(self, seq: int, state: dict) -> Path | None:
        if self.dir is None:
            return None
        body = canonical_json(state)
        # canonical_json of {"seq", "state", "state_hash", "when"}, built
        # around the one serialization of the state.
        text = '{"seq":%d,"state":%s,"state_hash":"%s","when":%d}' % (
            seq, body, sha256_hex(body.encode("utf-8")), now_us())
        target = self.dir / f"snapshot-{seq}.json"
        tmp = target.with_suffix(".tmp")
        try:
            tmp.write_text(text, encoding="utf-8")
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

    def read_records(self) -> list[dict]:
        """Parse every record; tolerate only a torn final line."""
        if self.path is None:
            lines, tail = self._lines, b""
        else:
            data = self.path.read_bytes() if self.path.exists() else b""
            lines = data.split(b"\n")
            tail = lines.pop()  # b"" when the file ends on a newline
        records = _parse_at_once(lines)
        if records is None:
            records = _parse_each(lines, tail)
        self._end = sum(len(line) + 1 for line in lines[:len(records)])
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


def _parse_each(lines: list[bytes], tail: bytes) -> list[dict]:
    """Parse line by line; drop a torn final line, raise on any other."""
    records: list[dict] = []
    for i, line in enumerate(lines, 1):
        try:
            records.append(validate_record(json.loads(line)))
        except (ValueError, CorruptJournal):
            if i < len(lines) or tail:
                raise CorruptJournal(f"malformed journal line {i}")
            break  # torn final line from a crash mid-append
    return records
