"""Time-series segments over stream collections.

Wire format, one record after another with no padding:

    8 bytes  timestamp, microseconds, unsigned big-endian
    4 bytes  payload length, unsigned big-endian
    N bytes  payload

Timestamps inside a segment must be non-decreasing and a segment must
hold at least one record. Segments land as ordinary data objects named
seg-<n>.tsz inside the collection, tagged with stream.t_min and
stream.t_max so metadata queries can find them; the in-memory interval
index is a cache rebuilt from segment bytes whenever it is missing, or
once when it names a segment that has since been removed.

Queries are half-open [t_lo, t_hi); the global record order is
(timestamp, segment id, position in segment), so replaying overlapping
segments is deterministic.
"""

from __future__ import annotations

import struct
import threading
from dataclasses import dataclass
from typing import Iterator

from .common import SYSTEM
from .engine import Engine
from .errors import (
    BadFraming,
    BadInterval,
    NoSuchObject,
    NotAStreamCollection,
    TimestampsDecreasing,
)

_HEADER = struct.Struct(">QI")

MAX_PAYLOAD = 2**32 - 1
MAX_TIMESTAMP = 2**64 - 1


def pack_records(records: list[tuple[int, bytes]]) -> bytes:
    out = bytearray()
    for t, payload in records:
        if not 0 <= t <= MAX_TIMESTAMP:
            raise BadFraming(f"timestamp out of range: {t}")
        if len(payload) > MAX_PAYLOAD:
            raise BadFraming("payload too large")
        out += _HEADER.pack(t, len(payload))
        out += payload
    return bytes(out)


def parse_segment(data: bytes) -> list[tuple[int, bytes]]:
    """Decode one segment, enforcing framing and timestamp order."""
    if len(data) == 0:
        raise BadFraming("empty segment")
    records: list[tuple[int, bytes]] = []
    pos = 0
    last_t = -1
    while pos < len(data):
        if pos + _HEADER.size > len(data):
            raise BadFraming(f"truncated header at byte {pos}")
        t, length = _HEADER.unpack_from(data, pos)
        pos += _HEADER.size
        if pos + length > len(data):
            raise BadFraming(f"truncated payload at byte {pos}")
        if t < last_t:
            raise TimestampsDecreasing(
                f"timestamp {t} after {last_t}")
        last_t = t
        records.append((t, data[pos:pos + length]))
        pos += length
    return records


@dataclass(frozen=True)
class SegmentEntry:
    segment_id: int
    path: str
    t_min: int
    t_max: int
    count: int


class Streams:
    def __init__(self, engine: Engine):
        self.engine = engine
        self.catalog = engine.catalog
        self._index: dict[str, list[SegmentEntry]] = {}
        self._index_lock = threading.Lock()

    # -- helpers -----------------------------------------------------------

    def _stream_coll(self, coll: str) -> None:
        view = self.catalog.get_collection(coll)  # NoSuchPath if absent
        if view.kind != "stream":
            raise NotAStreamCollection(coll)

    @staticmethod
    def _segment_path(coll: str, segment_id: int) -> str:
        return f"{coll.rstrip('/')}/seg-{segment_id:08d}.tsz"

    def _entries(self, coll: str) -> list[SegmentEntry]:
        with self._index_lock:
            entries = self._index.get(coll)
        if entries is None:
            entries = self._rebuild(coll)
        return entries

    def _rebuild(self, coll: str) -> list[SegmentEntry]:
        """Derive the index purely from stored segment bytes."""
        _subcolls, objects = self.catalog.list_collection(coll)
        entries: list[SegmentEntry] = []
        for path in objects:
            name = path.rsplit("/", 1)[1]
            if not (name.startswith("seg-") and name.endswith(".tsz")):
                continue
            try:
                segment_id = int(name[4:-4])
            except ValueError:
                continue
            records = parse_segment(self.engine.read_object(SYSTEM, path))
            entries.append(SegmentEntry(
                segment_id=segment_id, path=path,
                t_min=records[0][0], t_max=records[-1][0],
                count=len(records)))
        entries.sort(key=lambda e: (e.t_min, e.segment_id))
        with self._index_lock:
            self._index[coll] = entries
        return entries

    def drop_index(self, coll: str | None = None) -> None:
        with self._index_lock:
            if coll is None:
                self._index.clear()
            else:
                self._index.pop(coll, None)

    # -- operations -----------------------------------------------------------

    def ingest(self, actor: str, coll: str, segment: bytes,
               resource: str | None = None) -> SegmentEntry:
        """Validate and store one segment; nothing is written when the
        segment is malformed or policy denies the ingest."""
        self._stream_coll(coll)
        records = parse_segment(segment)
        resource = self.engine._resource_or_default(resource)
        self.catalog.get_resource(resource)
        with self.engine._path_lock(coll):
            with self.engine.trapped("stream.ingest", actor, **{
                    "coll.path": coll, "resc.name": resource}):
                self.catalog.require_access(coll, actor, "write")
                segment_id = self.catalog.next_segment_id(coll)
                path = self._segment_path(coll, segment_id)
                ref, checksum = self.engine._store_bytes(resource, segment)
                t_min, t_max = records[0][0], records[-1][0]
                self.catalog.ingest_segment(
                    coll, segment_id, path, actor, resource, ref, checksum,
                    len(segment), t_min, t_max, len(records))
                entry = SegmentEntry(segment_id=segment_id, path=path,
                                     t_min=t_min, t_max=t_max,
                                     count=len(records))
                with self._index_lock:
                    if coll in self._index:
                        self._index[coll].append(entry)
                        self._index[coll].sort(
                            key=lambda e: (e.t_min, e.segment_id))
            self.catalog.audit_append(
                actor, "stream.ingest",
                f"{coll} seg={segment_id} n={len(records)}")
        return entry

    def read(self, actor: str, coll: str, t_lo: int,
             t_hi: int) -> list[tuple[int, bytes]]:
        """All records with t_lo <= t < t_hi in global order."""
        self._stream_coll(coll)
        for bound in (t_lo, t_hi):
            if isinstance(bound, bool) or not isinstance(bound, int) \
                    or bound < 0:
                raise BadInterval(f"bad bound {bound!r}")
        if t_lo > t_hi:
            raise BadInterval(f"empty-crossing interval [{t_lo}, {t_hi})")
        self.catalog.require_access(coll, actor, "read")
        try:
            hits = sorted(self._hits(coll, t_lo, t_hi))
        except NoSuchObject:  # a segment was removed since the index was built
            self.drop_index(coll)
            hits = sorted(self._hits(coll, t_lo, t_hi))
        return [(t, payload) for t, _sid, _idx, payload in hits]

    def _hits(self, coll: str, t_lo: int,
              t_hi: int) -> Iterator[tuple[int, int, int, bytes]]:
        """(t, segment id, position, payload) of each record in range;
        the first three are unique, so a sort never compares payloads."""
        for entry in self._entries(coll):
            if entry.t_max < t_lo or entry.t_min >= t_hi:
                continue
            records = parse_segment(
                self.engine.read_object(SYSTEM, entry.path))
            for idx, (t, payload) in enumerate(records):
                if t_lo <= t < t_hi:
                    yield t, entry.segment_id, idx, payload

    def read_framed(self, actor: str, coll: str, t_lo: int,
                    t_hi: int) -> bytes:
        return pack_records(self.read(actor, coll, t_lo, t_hi))

    def stat(self, actor: str, coll: str) -> dict:
        self._stream_coll(coll)
        self.catalog.require_access(coll, actor, "read")
        entries = self._entries(coll)
        _subcolls, objects = self.catalog.list_collection(coll)
        if not set(objects).issuperset(e.path for e in entries):
            entries = self._rebuild(coll)  # it names a removed segment
        if not entries:
            return {"segments": 0, "records": 0, "t_min": None,
                    "t_max": None}
        return {
            "segments": len(entries),
            "records": sum(e.count for e in entries),
            "t_min": min(e.t_min for e in entries),
            "t_max": max(e.t_max for e in entries),
        }
