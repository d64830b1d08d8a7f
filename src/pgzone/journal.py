"""Append-only journal with periodic full-state snapshots.

The journal is the catalog's only record of its commits: the catalog
appends each record before it applies it, and `Catalog.records()` reads
the records back from here.

Layout inside the journal directory:

  journal.log          one JSON object per line:
                       {"seq": n, "op": "...", "args": {...}, "when": us}
  snapshot-<seq>.json  full state as of seq, with an integrity hash

A journal made without a directory keeps its lines in a list and writes
no snapshot.

Recovery is latest snapshot plus tail replay. A torn final line (the mark
of a crash mid-append: it lacks its newline or does not parse) is dropped
and cut off before the next append; a malformed line anywhere else means
the journal is corrupt. Sequence numbers must be contiguous from 1. An
append that fails leaves the file as it was before the append; a
snapshot that fails leaves no temporary file behind.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any

from .common import now_us, sha256_hex
from .errors import CorruptJournal

JOURNAL_NAME = "journal.log"
SNAPSHOT_EVERY = 1000

_RECORD_KEYS = {"seq", "op", "args", "when"}


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
        self._lines: list[str] = []   # the records of an in-memory journal
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
        line = canonical_json(record)
        if self.path is None:
            self._lines.append(line)
            return
        f = self._ensure_open()
        data = memoryview((line + "\n").encode("ascii"))
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
        doc = {
            "seq": seq,
            "when": now_us(),
            "state": state,
            "state_hash": sha256_hex(body.encode("utf-8")),
        }
        target = self.dir / f"snapshot-{seq}.json"
        tmp = target.with_suffix(".tmp")
        try:
            tmp.write_text(canonical_json(doc), encoding="utf-8")
            os.replace(tmp, target)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
        return target

    def close(self) -> None:
        if self._file is not None:
            os.fsync(self._file.fileno())
            self._file.close()
            self._file = None

    # -- read side ------------------------------------------------------

    def read_records(self) -> list[dict]:
        """Parse every record; tolerate only a torn final line."""
        if self.path is None:
            lines, tail = self._lines, ""
        else:
            data = self.path.read_bytes() if self.path.exists() else b""
            lines = data.split(b"\n")
            tail = lines.pop()  # b"" when the file ends on a newline
        records: list[dict] = []
        end = 0
        for i, line in enumerate(lines, 1):
            try:
                records.append(validate_record(json.loads(line)))
            except (ValueError, CorruptJournal):
                if i < len(lines) or tail:
                    raise CorruptJournal(f"malformed journal line {i}")
                break  # torn final line from a crash mid-append
            end += len(line) + 1
        self._end = end
        return records

    def latest_snapshot(self) -> tuple[int, dict] | None:
        """Return (seq, state) of the newest valid-looking snapshot file."""
        if self.dir is None:
            return None
        best_seq, best_path = -1, None
        for p in self.dir.glob("snapshot-*.json"):
            try:
                seq = int(p.stem.split("-", 1)[1])
            except (IndexError, ValueError):
                continue
            if seq > best_seq:
                best_seq, best_path = seq, p
        if best_path is None:
            return None
        try:
            doc = json.loads(best_path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as e:
            raise CorruptJournal(f"unreadable snapshot {best_path.name}: {e}")
        state = doc.get("state")
        want_hash = doc.get("state_hash")
        if not isinstance(state, dict) or not isinstance(want_hash, str):
            raise CorruptJournal(f"malformed snapshot {best_path.name}")
        got_hash = sha256_hex(canonical_json(state).encode("utf-8"))
        if got_hash != want_hash:
            raise CorruptJournal(f"snapshot hash mismatch in {best_path.name}")
        return best_seq, state
