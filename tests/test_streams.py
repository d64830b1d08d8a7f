import pytest

from pgzone.common import SYSTEM
from pgzone.errors import (
    BadFraming,
    BadInterval,
    Denied,
    NotAStreamCollection,
    PermissionDenied,
    TimestampsDecreasing,
)
from pgzone.streams import pack_records, parse_segment

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


@pytest.mark.parametrize("raw", [
    b"",                       # no records at all
    b"\x00" * 11,              # truncated header
    pack_records([(1, b"ab")])[:-1],   # truncated payload
    pack_records([(1, b"")]) + b"\x00",  # trailing garbage header
])
def test_bad_framing_rejected(raw):
    with pytest.raises(BadFraming):
        parse_segment(raw)


def test_decreasing_timestamps_rejected():
    raw = pack_records([(5, b"a")]) + pack_records([(4, b"b")])
    with pytest.raises(TimestampsDecreasing):
        parse_segment(raw)


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
    zone.streams.drop_index()
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
        zone.streams.drop_index()
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
