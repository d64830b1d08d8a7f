import random
import struct
import sys
import threading

import pytest

from pgzone.common import SYSTEM
from pgzone.errors import (
    BadFraming,
    BadInterval,
    Denied,
    NotAStreamCollection,
    PermissionDenied,
    TimestampsDecreasing,
    ZoneError,
)
from pgzone.streams import Streams, pack_records, parse_segment, scan_segment

from conftest import ADMIN, add_user


def make_stream(zone, coll="/home/s", owner=ADMIN):
    zone.catalog.make_collection(owner, coll, kind="stream")
    return coll


# ---------------------------------------------------------------------------
# Framing
# ---------------------------------------------------------------------------

def test_pack_parse_round_trip():
    records = [(0, b""), (5, b"abc"), (5, b"abc"), (9, bytes(range(256)))]
    assert parse_segment(pack_records(records)) == records


def test_frame_layout_is_fixed_width_big_endian():
    data = pack_records([(0x0102030405060708, b"xy")])
    assert data[:8] == bytes.fromhex("0102030405060708")
    assert data[8:12] == (2).to_bytes(4, "big")
    assert data[12:] == b"xy"


BAD_FRAMING = [
    b"",                       # no records at all
    b"\x00" * 11,              # truncated header
    pack_records([(1, b"ab")])[:-1],   # truncated payload
    pack_records([(1, b"")]) + b"\x00",  # trailing garbage header
]
DECREASING = pack_records([(5, b"a")]) + pack_records([(4, b"b")])


@pytest.mark.parametrize("raw", BAD_FRAMING)
def test_bad_framing_rejected(raw):
    with pytest.raises(BadFraming):
        parse_segment(raw)


def test_decreasing_timestamps_rejected():
    with pytest.raises(TimestampsDecreasing):
        parse_segment(DECREASING)


def reference_parse(data):
    """A record-by-record decoder: the reference for the frame scan."""
    if len(data) == 0:
        raise BadFraming("empty segment")
    records = []
    pos = 0
    last_t = -1
    while pos < len(data):
        if pos + 12 > len(data):
            raise BadFraming(f"truncated header at byte {pos}")
        t, length = struct.unpack_from(">QI", data, pos)
        pos += 12
        if pos + length > len(data):
            raise BadFraming(f"truncated payload at byte {pos}")
        if t < last_t:
            raise TimestampsDecreasing(f"timestamp {t} after {last_t}")
        last_t = t
        records.append((t, data[pos:pos + length]))
        pos += length
    return records


def raised(fn, raw):
    with pytest.raises(ZoneError) as info:
        fn(raw)
    return type(info.value), str(info.value)


@pytest.mark.parametrize("raw", BAD_FRAMING + [
    DECREASING,
    DECREASING + b"\x00",     # decreasing, then a truncated header
    pack_records([(1, b"a")]) + pack_records([(2, b"bc")])[:-1],
])
def test_scan_raises_as_the_reference_decoder(raw):
    want = raised(reference_parse, raw)
    assert raised(scan_segment, raw) == want
    assert raised(parse_segment, raw) == want


def test_scan_tables_match_the_reference_decoder(rng):
    for _ in range(200):
        records, t = [], rng.randrange(1 << 40)
        for _ in range(rng.randint(1, 20)):
            t += rng.choice((0, 0, 1, rng.randrange(1 << 20)))
            records.append((t, rng.randbytes(rng.randint(0, 40))))
        raw = pack_records(records)
        stamps, offsets = scan_segment(raw)
        assert list(stamps) == [t for t, _ in records]
        assert offsets[-1] == len(raw) and len(offsets) == len(records) + 1
        assert parse_segment(raw) == reference_parse(raw) == records
        for i, (t, payload) in enumerate(records):
            assert raw[offsets[i]:offsets[i + 1]] == pack_records(
                [(t, payload)])


def test_negative_or_huge_timestamp_rejected():
    with pytest.raises(BadFraming):
        pack_records([(-1, b"a")])
    with pytest.raises(BadFraming):
        pack_records([(1 << 64, b"a")])


# ---------------------------------------------------------------------------
# Ingest
# ---------------------------------------------------------------------------

def test_ingest_assigns_sequential_segments(zone):
    coll = make_stream(zone)
    s0 = zone.streams.ingest(ADMIN, coll, pack_records([(1, b"a")]))
    s1 = zone.streams.ingest(ADMIN, coll, pack_records([(2, b"b")]))
    assert (s0.segment_id, s1.segment_id) == (1, 2)
    assert s0.path == f"{coll}/seg-00000001.tsz"
    assert zone.catalog.object_exists(s0.path)


def test_ingest_records_time_range_metadata(zone):
    coll = make_stream(zone)
    seg = zone.streams.ingest(
        ADMIN, coll, pack_records([(10, b"a"), (20, b"b"), (30, b"c")]))
    avus = {a.attr_name: a.attr_value for a in zone.catalog.avus(seg.path)}
    assert avus["stream.t_min"] == "10"
    assert avus["stream.t_max"] == "30"
    assert seg.count == 3


def test_ingest_requires_stream_collection(zone):
    zone.catalog.make_collection(ADMIN, "/home/plain")
    with pytest.raises(NotAStreamCollection):
        zone.streams.ingest(ADMIN, "/home/plain", pack_records([(1, b"a")]))


def test_ingest_validates_before_any_effect(zone):
    coll = make_stream(zone)
    before = zone.catalog.data_state_digest()
    with pytest.raises(BadFraming):
        zone.streams.ingest(ADMIN, coll, b"\x01garbage")
    with pytest.raises(TimestampsDecreasing):
        zone.streams.ingest(
            ADMIN, coll,
            pack_records([(5, b"a")]) + pack_records([(1, b"b")]))
    assert zone.catalog.data_state_digest() == before
    assert zone.catalog.list_collection(coll) == ([], [])


def test_ingest_needs_write_perm(zone):
    coll = make_stream(zone)
    add_user(zone, "u")
    with pytest.raises(PermissionDenied):
        zone.streams.ingest("u", coll, pack_records([(1, b"a")]))
    zone.catalog.set_acl(ADMIN, coll, "u", "write")
    zone.streams.ingest("u", coll, pack_records([(1, b"a")]))


def test_ingest_respects_policy(zone):
    coll = make_stream(zone)
    zone.engine.add_rules(ADMIN, '''
        rule freeze on pep.stream.ingest.pre do deny("intake closed")
    ''')
    with pytest.raises(Denied, match="intake closed"):
        zone.streams.ingest(ADMIN, coll, pack_records([(1, b"a")]))
    assert zone.catalog.list_collection(coll) == ([], [])


# ---------------------------------------------------------------------------
# Reads
# ---------------------------------------------------------------------------

def test_read_half_open_interval(zone):
    coll = make_stream(zone)
    zone.streams.ingest(ADMIN, coll,
                        pack_records([(10, b"a"), (20, b"b"), (30, b"c")]))
    got = zone.streams.read(ADMIN, coll, 10, 30)
    assert [t for t, _ in got] == [10, 20]
    assert zone.streams.read(ADMIN, coll, 30, 30) == []
    assert zone.streams.read(ADMIN, coll, 31, 99) == []


def test_read_orders_across_segments(zone):
    coll = make_stream(zone)
    # Overlapping time ranges across segments; ties break by segment then
    # by position within the segment.
    zone.streams.ingest(ADMIN, coll, pack_records([(5, b"s0r0"), (7, b"s0r1")]))
    zone.streams.ingest(ADMIN, coll, pack_records([(5, b"s1r0"), (6, b"s1r1")]))
    got = zone.streams.read(ADMIN, coll, 0, 100)
    assert [p for _, p in got] == [b"s0r0", b"s1r0", b"s1r1", b"s0r1"]


def test_read_framed_round_trips(zone):
    coll = make_stream(zone)
    zone.streams.ingest(ADMIN, coll, pack_records([(1, b"a"), (2, b"b")]))
    framed = zone.streams.read_framed(ADMIN, coll, 0, 10)
    assert parse_segment(framed) == [(1, b"a"), (2, b"b")]


@pytest.mark.parametrize("lo,hi", [(-1, 5), (5, -1), (7, 3), (True, 5), (1, False)])
def test_bad_intervals_rejected(zone, lo, hi):
    coll = make_stream(zone)
    zone.streams.ingest(ADMIN, coll, pack_records([(1, b"a")]))
    with pytest.raises(BadInterval):
        zone.streams.read(ADMIN, coll, lo, hi)


def test_read_needs_only_collection_read(zone):
    coll = make_stream(zone)
    zone.streams.ingest(ADMIN, coll, pack_records([(1, b"a")]))
    add_user(zone, "u")
    with pytest.raises(PermissionDenied):
        zone.streams.read("u", coll, 0, 10)
    zone.catalog.set_acl(ADMIN, coll, "u", "read")
    assert zone.streams.read("u", coll, 0, 10) == [(1, b"a")]


def test_empty_stream_reads_empty(zone):
    coll = make_stream(zone)
    assert zone.streams.read(ADMIN, coll, 0, 10) == []
    stats = zone.streams.stat(ADMIN, coll)
    assert stats == {"segments": 0, "records": 0, "t_min": None,
                     "t_max": None}


def test_stat_aggregates(zone):
    coll = make_stream(zone)
    zone.streams.ingest(ADMIN, coll, pack_records([(3, b"a"), (9, b"b")]))
    zone.streams.ingest(ADMIN, coll, pack_records([(1, b"c")]))
    stats = zone.streams.stat(ADMIN, coll)
    assert stats == {"segments": 2, "records": 3, "t_min": 1, "t_max": 9}


# ---------------------------------------------------------------------------
# Index rebuild
# ---------------------------------------------------------------------------

def test_index_rebuilds_from_segment_bytes(zone, rng):
    coll = make_stream(zone)
    want = []
    segments = []
    t = 0
    for _ in range(8):
        recs = []
        for _ in range(rng.randint(1, 5)):
            t += rng.randint(0, 4)
            recs.append((t, rng.randbytes(rng.randint(0, 16))))
        segments.append(zone.streams.ingest(ADMIN, coll, pack_records(recs)))
        want.extend(recs)
    full_before = zone.streams.read(ADMIN, coll, 0, t + 1)
    zone.streams = Streams(zone.engine)  # an empty index
    assert zone.streams.read(ADMIN, coll, 0, t + 1) == full_before
    assert sorted(full_before) == sorted(want)

    # A removed segment leaves live reads and stat as a rebuild from the
    # remaining segments' bytes has them, whichever of the two comes first.
    for segment, stat_first in ((segments[0], False), (segments[1], True)):
        zone.engine.remove(ADMIN, segment.path)
        if stat_first:
            stat = zone.streams.stat(ADMIN, coll)
        live = zone.streams.read(ADMIN, coll, 0, t + 1)
        if not stat_first:
            stat = zone.streams.stat(ADMIN, coll)
        zone.streams = Streams(zone.engine)  # an empty index
        assert live == zone.streams.read(ADMIN, coll, 0, t + 1)
        assert stat == zone.streams.stat(ADMIN, coll)
        assert stat["segments"] == len(zone.catalog.list_collection(coll)[1])


def test_index_survives_restart_of_zone(tmp_path):
    # Disk-backed resource: both catalog and bytes must survive.
    from conftest import ADMIN_SECRET
    from pgzone.zone import Zone

    def open_zone():
        z = Zone(journal_dir=tmp_path / "journal", admin_user=ADMIN,
                 admin_secret=ADMIN_SECRET, default_resource="disk")
        z.ensure_resource(SYSTEM, "disk", "localfs",
                          str(tmp_path / "blobs"), "cache")
        return z

    z = open_zone()
    coll = make_stream(z, coll="/s")
    z.streams.ingest(ADMIN, coll, pack_records([(4, b"x"), (8, b"y")]))
    want = z.streams.read(ADMIN, coll, 0, 100)
    z.close()
    z2 = open_zone()
    try:
        assert z2.streams.read(ADMIN, coll, 0, 100) == want
        assert z2.streams.stat(ADMIN, coll)["segments"] == 1
    finally:
        z2.close()


def test_put_over_a_segment_reindexes_it(zone):
    coll = make_stream(zone)
    first = zone.streams.ingest(ADMIN, coll,
                                pack_records([(10, b"a"), (20, b"b")]))
    zone.streams.ingest(ADMIN, coll, pack_records([(30, b"c")]))
    assert zone.streams.stat(ADMIN, coll)["records"] == 3  # index built
    zone.engine.put(ADMIN, first.path, pack_records([(50, b"X")]))

    def observed():
        return (zone.streams.read(ADMIN, coll, 0, 100),
                zone.streams.read(ADMIN, coll, 40, 100),
                zone.streams.read(ADMIN, coll, 10, 30),
                zone.streams.read_framed(ADMIN, coll, 40, 100),
                zone.streams.stat(ADMIN, coll))

    live = observed()
    zone.streams = Streams(zone.engine)  # an empty index
    assert live == observed()
    assert live[:3] == ([(30, b"c"), (50, b"X")], [(50, b"X")], [])
    assert live[4] == {"segments": 2, "records": 2, "t_min": 30,
                       "t_max": 50}


def test_an_unreadable_segment_is_left_out_of_the_index(zone, caplog):
    coll = make_stream(zone)
    first = zone.streams.ingest(ADMIN, coll,
                                pack_records([(10, b"a"), (20, b"b")]))
    zone.streams.ingest(ADMIN, coll, pack_records([(30, b"c")]))
    assert zone.streams.stat(ADMIN, coll)["records"] == 3  # index built
    with caplog.at_level("WARNING", logger="pgzone.streams"):
        zone.engine.put(ADMIN, first.path, b"garbage")
        assert zone.streams.read(ADMIN, coll, 5, 100) == [(30, b"c")]
    assert first.path in caplog.text
    assert zone.streams.read_framed(ADMIN, coll, 0, 100) == \
        pack_records([(30, b"c")])
    assert zone.streams.stat(ADMIN, coll) == {
        "segments": 1, "records": 1, "t_min": 30, "t_max": 30}
    # A valid put over it brings it back.
    zone.engine.put(ADMIN, first.path, pack_records([(15, b"back")]))
    assert zone.streams.read(ADMIN, coll, 5, 100) == [(15, b"back"),
                                                       (30, b"c")]
    assert zone.streams.stat(ADMIN, coll)["segments"] == 2


def test_path_locks_live_only_while_held(zone):
    coll = make_stream(zone)
    for i in range(5):
        zone.engine.put(ADMIN, f"/home/o{i}", b"x" * i)
        zone.engine.get(ADMIN, f"/home/o{i}")
        zone.streams.ingest(ADMIN, coll, pack_records([(i, b"r")]))
        zone.streams.read(ADMIN, coll, 0, 100)
    zone.streams = Streams(zone.engine)  # an empty index
    assert zone.streams.stat(ADMIN, coll)["segments"] == 5  # a rebuild
    assert len(zone.engine._path_locks) == 0


def test_ingest_over_an_object_put_under_its_name(zone):
    coll = make_stream(zone)
    zone.streams.ingest(ADMIN, coll, pack_records([(1, b"a")]))
    taken = f"{coll}/seg-00000002.tsz"
    zone.engine.put(ADMIN, taken, pack_records([(2, b"put")]))
    assert zone.streams.read(ADMIN, coll, 0, 9) == [(1, b"a"), (2, b"put")]
    entry = zone.streams.ingest(ADMIN, coll, pack_records([(3, b"c")]))
    assert entry.path == taken
    live = zone.streams.read(ADMIN, coll, 0, 9), zone.streams.stat(ADMIN, coll)
    zone.streams = Streams(zone.engine)  # an empty index
    assert live == (zone.streams.read(ADMIN, coll, 0, 9),
                    zone.streams.stat(ADMIN, coll))
    assert live[0] == [(1, b"a"), (3, b"c")]


# ---------------------------------------------------------------------------
# Seeded oracle over the index's upkeep
# ---------------------------------------------------------------------------

def random_segment(rng):
    """Timestamps from a small range, so that segments overlap, repeat
    each other's timestamps, and start before earlier ones."""
    t = rng.randrange(120)
    records = []
    for _ in range(rng.randint(1, 6)):
        t += rng.choice((0, 0, 1, 3, 10))
        records.append((t, rng.randbytes(rng.randint(0, 4))))
    return records


def oracle_read(model, t_lo, t_hi):
    """Brute force: every live record in range, sorted by (t, segment id,
    position)."""
    hits = sorted((t, sid, pos, payload)
                  for sid, records in model.values()
                  for pos, (t, payload) in enumerate(records)
                  if t_lo <= t < t_hi)
    return [(t, payload) for t, _sid, _pos, payload in hits]


def oracle_stat(model):
    stamps = [t for _sid, records in model.values() for t, _ in records]
    if not stamps:
        return {"segments": 0, "records": 0, "t_min": None, "t_max": None}
    return {"segments": len(model), "records": len(stamps),
            "t_min": min(stamps), "t_max": max(stamps)}


def check_against_oracle(zone, coll, model, rng):
    stamps = sorted({t for _sid, records in model.values()
                     for t, _ in records}) or [0]
    bounds = [(0, 200), (stamps[0], stamps[-1]), (stamps[-1], stamps[-1])]
    for _ in range(12):
        a, b = (rng.choice(stamps) + rng.choice((-1, 0, 0, 1))
                for _ in range(2))
        bounds.append((max(0, min(a, b)), max(0, a, b)))
    for t_lo, t_hi in bounds:
        got = zone.streams.read(ADMIN, coll, t_lo, t_hi)
        assert got == oracle_read(model, t_lo, t_hi), (t_lo, t_hi)
        assert zone.streams.read_framed(ADMIN, coll, t_lo, t_hi) == \
            pack_records(got)
    assert zone.streams.stat(ADMIN, coll) == oracle_stat(model)
    # A table is kept for each live segment and for no other.
    assert set(zone.streams._index[coll].frames) == set(model)


def test_reads_match_a_brute_force_oracle_through_index_upkeep(tmp_path):
    from conftest import ADMIN_SECRET
    from pgzone.zone import Zone

    def open_zone():
        z = Zone(journal_dir=tmp_path / "journal", admin_user=ADMIN,
                 admin_secret=ADMIN_SECRET, default_resource="disk")
        z.ensure_resource(SYSTEM, "disk", "localfs",
                          str(tmp_path / "blobs"), "cache")
        return z

    rng = random.Random(20261018)
    zone = open_zone()
    coll = make_stream(zone, coll="/s")
    model = {}  # segment path -> (segment id, records)
    kinds = ("ingest",) * 6 + ("remove", "overwrite", "drop", "reopen")
    try:
        for step in range(120):
            kind = rng.choice(kinds) if model else "ingest"
            if kind == "ingest":
                records = random_segment(rng)
                entry = zone.streams.ingest(ADMIN, coll,
                                            pack_records(records))
                model[entry.path] = (entry.segment_id, records)
            elif kind == "remove":
                path = rng.choice(sorted(model))
                zone.engine.remove(ADMIN, path)
                del model[path]
            elif kind == "overwrite":
                path = rng.choice(sorted(model))
                records = random_segment(rng)
                zone.engine.put(ADMIN, path, pack_records(records))
                model[path] = (model[path][0], records)
            elif kind == "drop":
                zone.streams = Streams(zone.engine)  # an empty index
            else:
                zone.close()
                zone = open_zone()
            check_against_oracle(zone, coll, model, rng)
    finally:
        zone.close()


def test_concurrent_ingests_reads_and_puts_lose_no_segment(zone):
    """Ingests race reads that build the index again after puts over a
    segment. An index that the catalog's rewrite_seq says is current
    holds every segment, and reads as one built afresh does."""
    coll = make_stream(zone)
    first = zone.streams.ingest(ADMIN, coll, pack_records([(0, b"0")]))
    puts_done = threading.Event()
    errors = []

    def guarded(work):
        def run():
            try:
                work()
            except Exception as e:  # reported by the main thread
                errors.append(e)
        return run

    def ingest(base):
        for t in range(base, base + 100):
            mark = b"%d" % t
            zone.streams.ingest(ADMIN, coll, pack_records(
                [(t, mark), (t + 50, b"b")]))
            assert (t, mark) in zone.streams.read(ADMIN, coll, t, t + 1)

    def read():
        rng = random.Random(7)
        more = 5
        while more:
            more -= puts_done.is_set()
            lo = rng.randrange(2200)
            got = zone.streams.read(ADMIN, coll, lo, lo + rng.randrange(60))
            assert [t for t, _ in got] == sorted(t for t, _ in got)
            zone.streams.stat(ADMIN, coll)

    def put_over():
        for i in range(300):
            zone.engine.put(ADMIN, first.path, pack_records([(i, b"p")]))
        puts_done.set()

    threads = [threading.Thread(target=guarded(fn)) for fn in (
        lambda: ingest(0), lambda: ingest(1000), lambda: ingest(2000),
        read, read, put_over)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    index = zone.streams._index[coll]
    assert index.stamp == zone.catalog.rewrite_seq(coll)
    assert set(index.frames) == set(zone.catalog.list_collection(coll)[1])
    live = (zone.streams.read(ADMIN, coll, 0, 3000),
            zone.streams.stat(ADMIN, coll))
    assert live[1]["segments"] == 301
    zone.streams = Streams(zone.engine)  # an empty index
    assert live == (zone.streams.read(ADMIN, coll, 0, 3000),
                    zone.streams.stat(ADMIN, coll))
