"""Time-series segments over stream collections.

Wire format, one record after another with no padding:

    8 bytes  timestamp, microseconds, unsigned big-endian
    4 bytes  payload length, unsigned big-endian
    N bytes  payload

Timestamps inside a segment must be non-decreasing and a segment must
hold at least one record. Segments land as ordinary data objects named
seg-<n>.tsz inside the collection, tagged with stream.t_min and
stream.t_max so metadata queries can find them.

Each stream collection has an in-memory interval index, a cache of its
segment bytes. Its entries are sorted by (t_min, segment id), next to
the running maximum of their t_max, so two bisects find the segments
that overlap an interval. Each segment also has a frame table: every
record's timestamp and frame offset, in two arrays, 12 bytes a record
(16 for a segment of 4 GiB or more). One pass over the framing, which
copies no payload, both validates a segment and builds its table;
ingest keeps the table it validated with. A read bisects [t_lo, t_hi)
in the table of each segment it draws from and slices out only those
records, but still reads the segment through Engine.read_object, which
checks access and verifies the checksum.

A table holds for one checksum of its segment: the one Engine.read_object
verified the scanned bytes against. The index is built from the segment
bytes when it is missing, and built again, keeping every table whose
segment still has its checksum, when the catalog has put or removed an
object in the collection other than by an ingest: a put over a segment
re-indexes that segment, and a removed one leaves the index with its
table. A segment whose bytes are not a valid segment (a put of other
bytes over it) is left out of the index, with a warning on the
pgzone.streams logger, until a valid put over it brings it back. A read
that finds a segment's checksum changed since the index was checked
builds it again and starts over.

Queries are half-open [t_lo, t_hi); the global record order is
(timestamp, segment id, position in segment), so replaying overlapping
segments is deterministic. When the segments a read draws from hold
disjoint ranges in index order, the usual case, their slices are
already in that order and are joined; otherwise they are merged.
"""

from __future__ import annotations

import logging
import struct
import threading
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import NamedTuple

from .common import SYSTEM
from .engine import Engine
from .errors import (
    BadFraming,
    BadInterval,
    NoSuchObject,
    NotAStreamCollection,
    TimestampsDecreasing,
)

log = logging.getLogger("pgzone.streams")

_HEADER = struct.Struct(">QI")
_HEADER_SIZE = _HEADER.size

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


def scan_segment(data: bytes) -> tuple[array, array]:
    """Check one segment's framing and timestamp order, copying no
    payload. Returns the timestamp of each record, and the offset of
    each record's frame followed by len(data)."""
    size = len(data)
    if size == 0:
        raise BadFraming("empty segment")
    stamps = array("Q")
    offsets = array("I" if size < 1 << 32 else "Q")
    unpack = _HEADER.unpack_from
    pos = 0
    last_t = 0
    while pos < size:
        if pos + _HEADER_SIZE > size:
            raise BadFraming(f"truncated header at byte {pos}")
        t, length = unpack(data, pos)
        end = pos + _HEADER_SIZE + length
        if end > size:
            raise BadFraming(f"truncated payload at byte {pos + _HEADER_SIZE}")
        if t < last_t:
            raise TimestampsDecreasing(f"timestamp {t} after {last_t}")
        last_t = t
        stamps.append(t)
        offsets.append(pos)
        pos = end
    offsets.append(size)
    return stamps, offsets


def _records(data: bytes, stamps: array, offsets: array, lo: int,
             hi: int) -> list[tuple[int, bytes]]:
    """Records lo..hi-1 of a scanned segment."""
    return [(t, data[start + _HEADER_SIZE:end]) for t, start, end in zip(
        stamps[lo:hi], offsets[lo:hi], offsets[lo + 1:hi + 1])]


def parse_segment(data: bytes) -> list[tuple[int, bytes]]:
    """Decode one segment, enforcing framing and timestamp order."""
    stamps, offsets = scan_segment(data)
    return _records(data, stamps, offsets, 0, len(stamps))


@dataclass(frozen=True)
class SegmentEntry:
    segment_id: int
    path: str
    t_min: int
    t_max: int
    count: int


class _Frames(NamedTuple):
    """A segment's frame table, which holds while its checksum does."""
    checksum: str
    stamps: array
    offsets: array


class _Part(NamedTuple):
    """Records lo..hi-1 of one segment, read and verified."""
    segment_id: int
    data: bytes
    frames: _Frames
    lo: int
    hi: int

    def records(self) -> list[tuple[int, bytes]]:
        return _records(self.data, self.frames.stamps, self.frames.offsets,
                        self.lo, self.hi)


def _order(entry: SegmentEntry) -> tuple[int, int]:
    return entry.t_min, entry.segment_id


def _t_min(entry: SegmentEntry) -> int:
    return entry.t_min


class _Index:
    """The segments of one stream collection: entries in (t_min, segment
    id) order, reach[i] the largest t_max of entries[:i + 1], and each
    segment's frame table by path. stamp is the catalog's rewrite_seq of
    the collection that the index reflects. Streams._index_lock guards
    every field."""

    def __init__(self, stamp: int, entries: list[SegmentEntry],
                 frames: dict[str, _Frames]):
        self.stamp = stamp
        self.entries = sorted(entries, key=_order)
        self.reach = list(accumulate((e.t_max for e in self.entries), max))
        self.frames = frames

    def add(self, entry: SegmentEntry, frames: _Frames) -> None:
        i = bisect_right(self.entries, _order(entry), key=_order)
        self.entries.insert(i, entry)
        reach = self.reach
        reach.insert(i, max(reach[i - 1], entry.t_max) if i else entry.t_max)
        for j in range(i + 1, len(reach)):
            if reach[j] >= entry.t_max:
                break
            reach[j] = entry.t_max
        self.frames[entry.path] = frames

    def overlapping(self, t_lo: int,
                    t_hi: int) -> list[tuple[SegmentEntry, _Frames]]:
        """The entries whose range meets [t_lo, t_hi), in index order.
        Every entry before start ends before t_lo; every one from stop
        on starts at or after t_hi."""
        start = bisect_left(self.reach, t_lo)
        stop = bisect_left(self.entries, t_hi, start, key=_t_min)
        return [(e, self.frames[e.path]) for e in self.entries[start:stop]
                if e.t_max >= t_lo]


def _segment_id(path: str) -> int | None:
    name = path.rsplit("/", 1)[1]
    if not (name.startswith("seg-") and name.endswith(".tsz")):
        return None
    try:
        return int(name[4:-4])
    except ValueError:
        return None


def _in_order(parts: list[_Part]) -> bool:
    """Whether the parts' records, joined, are in global order."""
    return all(
        (a.frames.stamps[a.hi - 1], a.segment_id)
        < (b.frames.stamps[b.lo], b.segment_id)
        for a, b in zip(parts, parts[1:]))


def _merged(parts: list[_Part]) -> list[tuple[int, bytes]]:
    """The parts' records sorted by (t, segment id, position); the three
    are unique, so the sort never compares payloads."""
    hits = sorted((t, part.segment_id, pos, payload) for part in parts
                  for pos, (t, payload) in enumerate(part.records()))
    return [(t, payload) for t, _sid, _pos, payload in hits]


class Streams:
    def __init__(self, engine: Engine):
        self.engine = engine
        self.catalog = engine.catalog
        self._index: dict[str, _Index] = {}
        self._index_lock = threading.Lock()

    # -- helpers -----------------------------------------------------------

    def _stream_coll(self, coll: str) -> None:
        view = self.catalog.get_collection(coll)  # NoSuchPath if absent
        if view.kind != "stream":
            raise NotAStreamCollection(coll)

    @staticmethod
    def _segment_path(coll: str, segment_id: int) -> str:
        return f"{coll.rstrip('/')}/seg-{segment_id:08d}.tsz"

    def _current(self, coll: str) -> _Index:
        """The collection's index, built again first when it is missing
        or an object of the collection was put or removed since."""
        stamp = self.catalog.rewrite_seq(coll)
        with self._index_lock:
            index = self._index.get(coll)
            if index is not None and index.stamp == stamp:
                return index
        # An ingest holds this lock from its commit until its entry is
        # in the index, so none lands between the listing and the swap.
        with self.engine._path_lock(coll):
            return self._rebuild(coll)

    def _rebuild(self, coll: str) -> _Index:
        """Derive the index from the stored segment bytes, keeping each
        table of the old index whose segment still has its checksum.
        Caller holds the collection's path lock."""
        with self._index_lock:
            old = self._index.get(coll)
        # Read unlocked below: only an ingest adds to it, and an ingest
        # waits for the collection's lock.
        kept = old.frames if old is not None else {}
        stamp = self.catalog.rewrite_seq(coll)
        _subcolls, objects = self.catalog.list_collection(coll)
        entries: list[SegmentEntry] = []
        frames: dict[str, _Frames] = {}
        for path in objects:
            segment_id = _segment_id(path)
            if segment_id is None:
                continue
            table = kept.get(path)
            try:
                if table is None or table.checksum != \
                        self.catalog.get_object(path).checksum:
                    data, checksum = self.engine.read_object(SYSTEM, path)
                    table = _Frames(checksum, *scan_segment(data))
            except NoSuchObject:  # removed since the listing
                continue
            except (BadFraming, TimestampsDecreasing) as e:
                log.warning("segment %s left out of the index: %s", path, e)
                continue
            frames[path] = table
            entries.append(SegmentEntry(
                segment_id=segment_id, path=path, t_min=table.stamps[0],
                t_max=table.stamps[-1], count=len(table.stamps)))
        index = _Index(stamp, entries, frames)
        with self._index_lock:
            self._index[coll] = index
        return index

    def _segment_bytes(self, path: str, checksum: str) -> bytes | None:
        """The segment's verified bytes, or None when it no longer has
        the checksum: it was put over or removed."""
        try:
            data, got = self.engine.read_object(SYSTEM, path)
        except NoSuchObject:
            return None
        return data if got == checksum else None

    # -- operations -----------------------------------------------------------

    def ingest(self, actor: str, coll: str, segment: bytes,
               resource: str | None = None) -> SegmentEntry:
        """Validate and store one segment; nothing is written when the
        segment is malformed or policy denies the ingest."""
        self._stream_coll(coll)
        stamps, offsets = scan_segment(segment)
        resource = self.engine._resource_or_default(resource)
        self.catalog.get_resource(resource)
        with self.engine._path_lock(coll):
            with self.engine.trapped("stream.ingest", actor, **{
                    "coll.path": coll, "resc.name": resource}):
                self.catalog.require_access(coll, actor, "write")
                segment_id = self.catalog.next_segment_id(coll)
                path = self._segment_path(coll, segment_id)
                ref, checksum = self.engine._store_bytes(resource, segment)
                t_min, t_max = stamps[0], stamps[-1]
                self.catalog.ingest_segment(
                    coll, segment_id, path, actor, resource, ref, checksum,
                    len(segment), t_min, t_max, len(stamps))
                entry = SegmentEntry(segment_id=segment_id, path=path,
                                     t_min=t_min, t_max=t_max,
                                     count=len(stamps))
                with self._index_lock:
                    index = self._index.get(coll)
                    if index is not None:
                        index.add(entry, _Frames(checksum, stamps, offsets))
            self.catalog.audit_append(
                actor, "stream.ingest",
                f"{coll} seg={segment_id} n={len(stamps)}")
        return entry

    def _parts(self, actor: str, coll: str, t_lo: int,
               t_hi: int) -> list[_Part]:
        """The records in [t_lo, t_hi) of each segment that holds any,
        in index order."""
        self._stream_coll(coll)
        for bound in (t_lo, t_hi):
            if isinstance(bound, bool) or not isinstance(bound, int) \
                    or bound < 0:
                raise BadInterval(f"bad bound {bound!r}")
        if t_lo > t_hi:
            raise BadInterval(f"empty-crossing interval [{t_lo}, {t_hi})")
        self.catalog.require_access(coll, actor, "read")
        while True:
            index = self._current(coll)
            with self._index_lock:
                overlapping = index.overlapping(t_lo, t_hi)
            parts = []
            for entry, frames in overlapping:
                lo = bisect_left(frames.stamps, t_lo)
                hi = bisect_left(frames.stamps, t_hi, lo)
                if lo == hi:
                    continue
                data = self._segment_bytes(entry.path, frames.checksum)
                if data is None:
                    break
                parts.append(_Part(entry.segment_id, data, frames, lo, hi))
            else:
                return parts
            # The segment changed after the index was checked.
            with self._index_lock:
                index.stamp = -1

    def read(self, actor: str, coll: str, t_lo: int,
             t_hi: int) -> list[tuple[int, bytes]]:
        """All records with t_lo <= t < t_hi in global order."""
        parts = self._parts(actor, coll, t_lo, t_hi)
        if not _in_order(parts):
            return _merged(parts)
        records = []
        for part in parts:
            records += part.records()
        return records

    def read_framed(self, actor: str, coll: str, t_lo: int,
                    t_hi: int) -> bytes:
        """read() in the wire format; in-order parts are joined as their
        bytes were stored."""
        parts = self._parts(actor, coll, t_lo, t_hi)
        if not _in_order(parts):
            return pack_records(_merged(parts))
        return b"".join(
            part.data[part.frames.offsets[part.lo]:
                      part.frames.offsets[part.hi]] for part in parts)

    def stat(self, actor: str, coll: str) -> dict:
        self._stream_coll(coll)
        self.catalog.require_access(coll, actor, "read")
        index = self._current(coll)
        with self._index_lock:
            entries = list(index.entries)
            t_max = index.reach[-1] if index.reach else None
        if not entries:
            return {"segments": 0, "records": 0, "t_min": None,
                    "t_max": None}
        return {
            "segments": len(entries),
            "records": sum(e.count for e in entries),
            "t_min": entries[0].t_min,
            "t_max": t_max,
        }
