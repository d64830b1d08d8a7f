import posixpath
import random
import re

import pytest

import pgzone.catalog
from pgzone.catalog import AuditEntry, AvuPredicate, Catalog, validate_path
from pgzone.common import SYSTEM, glob_match, sha256_hex
from pgzone.errors import (
    ChecksumMismatch,
    CorruptJournal,
    DuplicateName,
    DuplicateReplica,
    DuplicateRuleName,
    MalformedPredicate,
    NoParent,
    NoSuchPath,
    NoSuchRule,
    NoSuchUser,
    PermissionDenied,
    ZoneError,
)
from pgzone.journal import SNAPSHOT_EVERY
from pgzone.ruledsl.lexer import escape_string

from conftest import ADMIN, ADMIN_SECRET, add_user, make_zone


def fresh_catalog():
    c = Catalog()
    c.create_user(SYSTEM, "admin", "admin", "pw")
    c.make_collection(SYSTEM, "/", owner="admin")
    return c


CS = sha256_hex(b"content")


def put(c, path, owner="admin", resource="r1", data=b"content"):
    return c.put_object(path, owner, resource, f"ref-{path}",
                        sha256_hex(data), len(data))


# ---------------------------------------------------------------------------
# Paths
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("good", ["/", "/a", "/a/b", "/a.b/c-d_e"])
def test_valid_paths(good):
    assert validate_path(good) == good


@pytest.mark.parametrize("bad", [
    "", "relative", "a/b", "/a/", "/a//b", "/./x", "/a/../b", "/" + "x" * 5000,
])
def test_invalid_paths(bad):
    with pytest.raises(NoSuchPath):
        validate_path(bad)


# ---------------------------------------------------------------------------
# Users, groups, secrets
# ---------------------------------------------------------------------------

def test_user_lifecycle():
    c = fresh_catalog()
    c.create_user("admin", "ada", "user", "s1")
    view = c.get_user("ada")
    assert view.role == "user" and view.groups == ()
    with pytest.raises(DuplicateName):
        c.create_user("admin", "ada", "user", "x")
    with pytest.raises(NoSuchUser):
        c.get_user("ghost")


def test_only_admin_creates_users():
    c = fresh_catalog()
    c.create_user("admin", "ada", "user", "s1")
    with pytest.raises(PermissionDenied):
        c.create_user("ada", "eve", "user", "s2")


def test_user_names_validated():
    c = fresh_catalog()
    for bad in ("", "has space", "at@sign", "x" * 200):
        with pytest.raises(ValueError):
            c.create_user("admin", bad, "user", "s")


def test_names_ending_in_a_newline_are_refused():
    # `$` alone would match before a final "\n"; a name must match whole.
    c = fresh_catalog()
    c.create_user("admin", "ada", "user", "pw")
    with pytest.raises(ValueError, match="bad user name"):
        c.create_user("admin", "alice\n", "user", "pw")
    with pytest.raises(ValueError, match="bad group name"):
        c.add_user_to_group("admin", "ada", "g\n")
    with pytest.raises(ValueError, match="bad resource name"):
        c.register_resource("admin", "r\n", "mem", "/blobs/r", "cache")
    assert not c.user_exists("alice\n")
    assert not c.verify_secret("alice\n", "pw")
    assert c.get_user("ada").groups == ()


def test_a_journaled_name_ending_in_a_newline_still_replays(tmp_path,
                                                           monkeypatch):
    # Journals written before names had to match whole may hold such a
    # user; replay does not validate names, so the zone still opens.
    monkeypatch.setattr(pgzone.catalog, "_NAME_RE",
                        re.compile(r"[A-Za-z0-9_][A-Za-z0-9_.-]{0,127}\n?"))
    c = Catalog(tmp_path)
    c.create_user(SYSTEM, "admin", "admin", "pw")
    c.create_user("admin", "alice\n", "user", "pw")
    c.close()
    monkeypatch.undo()
    c = Catalog(tmp_path)
    try:
        assert c.user_exists("alice\n")
        assert c.verify_secret("alice\n", "pw")
    finally:
        c.close()


def test_checksums_ending_in_a_newline_are_refused():
    c = fresh_catalog()
    with pytest.raises(ValueError, match="bad checksum"):
        c.put_object("/o", "admin", "r1", "ref", sha256_hex(b"x") + "\n", 1)
    assert not c.object_exists("/o")


def test_a_journaled_checksum_ending_in_a_newline_still_replays(
        tmp_path, monkeypatch):
    # Journals written before checksums had to match whole may hold one;
    # replay does not validate checksums, so the zone still opens.
    monkeypatch.setattr(pgzone.catalog, "_CHECKSUM_RE",
                        re.compile(r"[0-9a-f]{64}\n?"))
    c = Catalog(tmp_path)
    c.create_user(SYSTEM, "admin", "admin", "pw")
    c.make_collection(SYSTEM, "/", owner="admin")
    c.put_object("/o", "admin", "r1", "ref", sha256_hex(b"x") + "\n", 1)
    c.close()
    monkeypatch.undo()
    c = Catalog(tmp_path)
    try:
        [replica] = c.get_object("/o").replicas
        assert replica.checksum == sha256_hex(b"x") + "\n"
    finally:
        c.close()


def test_secret_verification():
    c = fresh_catalog()
    c.create_user("admin", "ada", "user", "correct horse")
    assert c.verify_secret("ada", "correct horse")
    assert not c.verify_secret("ada", "wrong")
    assert not c.verify_secret("ghost", "anything")


def test_groups_membership_and_perms():
    c = fresh_catalog()
    c.create_user("admin", "ada", "user", "s")
    c.create_user("admin", "bob", "user", "s")
    c.add_user_to_group("admin", "ada", "lab")
    c.add_user_to_group("admin", "ada", "lab")  # idempotent
    assert c.get_user("ada").groups == ("lab",)
    c.make_collection("admin", "/shared")
    c.set_acl("admin", "/shared", "lab", "write")
    assert c.check_access("/shared", "ada", "write")
    assert not c.check_access("/shared", "bob", "read")


# ---------------------------------------------------------------------------
# Collections and ACL lattice
# ---------------------------------------------------------------------------

def test_collection_tree():
    c = fresh_catalog()
    c.make_collection("admin", "/a")
    c.make_collection("admin", "/a/b")
    with pytest.raises(NoParent):
        c.make_collection("admin", "/missing/child")
    with pytest.raises(DuplicateName):
        c.make_collection("admin", "/a")
    subcolls, objects = c.list_collection("/")
    assert subcolls == ["/a"] and objects == []


def test_acl_lattice_orders_permissions():
    c = fresh_catalog()
    c.create_user("admin", "u", "user", "s")
    c.make_collection("admin", "/d")
    for held, need, expect in [
        ("read", "read", True), ("read", "write", False),
        ("write", "read", True), ("write", "write", True),
        ("write", "own", False), ("own", "own", True),
    ]:
        c2 = fresh_catalog()
        c2.create_user("admin", "u", "user", "s")
        c2.make_collection("admin", "/d")
        c2.set_acl("admin", "/d", "u", held)
        assert c2.check_access("/d", "u", need) is expect, (held, need)


def test_owner_and_admin_always_pass():
    c = fresh_catalog()
    c.create_user("admin", "owner", "user", "s")
    c.create_user("admin", "root2", "admin", "s")
    c.make_collection("admin", "/d", owner="owner")
    for user in ("owner", "root2", "admin", SYSTEM):
        assert c.check_access("/d", user, "own"), user


def test_group_union_takes_strongest():
    c = fresh_catalog()
    c.create_user("admin", "u", "user", "s")
    c.add_user_to_group("admin", "u", "g1")
    c.add_user_to_group("admin", "u", "g2")
    c.make_collection("admin", "/d")
    c.set_acl("admin", "/d", "g1", "read")
    c.set_acl("admin", "/d", "g2", "write")
    assert c.check_access("/d", "u", "write")


def test_set_acl_requires_ownership():
    c = fresh_catalog()
    c.create_user("admin", "u", "user", "s")
    c.create_user("admin", "v", "user", "s")
    c.make_collection("admin", "/d", owner="u")
    c.set_acl("u", "/d", "v", "read")  # owner may grant
    with pytest.raises(PermissionDenied):
        c.set_acl("v", "/d", "v", "own")


def test_acl_unknown_principal():
    c = fresh_catalog()
    c.make_collection("admin", "/d")
    with pytest.raises(NoSuchUser):
        c.set_acl("admin", "/d", "nobody", "read")


# ---------------------------------------------------------------------------
# Objects and replicas
# ---------------------------------------------------------------------------

def test_put_versions_and_replaces_replicas():
    c = fresh_catalog()
    version, replaced = put(c, "/f")
    assert version == 1 and replaced == []
    obj = c.get_object("/f")
    assert obj.version == 1 and len(obj.replicas) == 1
    c.add_replica("/f", "r2", "ref2", obj.checksum, 7)
    version, replaced = put(c, "/f", data=b"content2")
    assert version == 2 and len(replaced) == 2
    assert len(c.get_object("/f").replicas) == 1


def test_replica_agreement_enforced():
    c = fresh_catalog()
    put(c, "/f")
    with pytest.raises(ChecksumMismatch):
        c.add_replica("/f", "r2", "ref2", sha256_hex(b"different"), 9)
    with pytest.raises(DuplicateReplica):
        c.add_replica("/f", "r1", "ref9", c.get_object("/f").checksum, 7)


def test_replica_status_and_remove():
    c = fresh_catalog()
    put(c, "/f")
    ref = c.get_object("/f").replicas[0].physical_ref
    c.set_replica_status("/f", ref, "suspect")
    assert c.get_object("/f").replicas[0].status == "suspect"
    c.remove_object("/f")
    assert not c.object_exists("/f")


def test_orphan_list():
    c = fresh_catalog()
    c.add_orphan("/f", "tape", "ref-1", CS)
    assert c.orphans() == [
        {"path": "/f", "resource": "tape", "physical_ref": "ref-1",
         "checksum": CS}]


# ---------------------------------------------------------------------------
# AVU metadata
# ---------------------------------------------------------------------------

def test_avu_add_and_idempotence():
    c = fresh_catalog()
    put(c, "/f")
    c.add_avu("admin", "/f", "color", "blue")
    c.add_avu("admin", "/f", "color", "blue")  # same triple, no-op
    c.add_avu("admin", "/f", "color", "blue", "a comment")  # distinct
    assert len(c.avus("/f")) == 2


def test_avu_requires_write():
    c = fresh_catalog()
    c.create_user("admin", "u", "user", "s")
    put(c, "/f")
    with pytest.raises(PermissionDenied):
        c.add_avu("u", "/f", "a", "b")


@pytest.mark.parametrize("triple", [
    (["x"], "v", ""), (7, "v", ""), ("n", None, ""), ("n", "v", ["c"]),
])
def test_avu_fields_must_be_strings(triple):
    c = fresh_catalog()
    put(c, "/f")
    seq = c._seq
    with pytest.raises(ValueError, match="strings"):
        c.add_avu("admin", "/f", *triple)
    assert c._seq == seq and c.avus("/f") == []


def test_single_triple_conjunction_semantics():
    # One triple must satisfy every clause; clauses never mix triples.
    c = fresh_catalog()
    put(c, "/f")
    c.add_avu("admin", "/f", "alpha", "1")
    c.add_avu("admin", "/f", "beta", "2")
    assert c.query_avu('name = "alpha" and value = "1"') == ["/f"]
    assert c.query_avu('name = "alpha" and value = "2"') == []


def test_query_results_sorted():
    c = fresh_catalog()
    for p in ("/zz", "/aa", "/mm"):
        put(c, p)
        c.add_avu("admin", p, "k", "v")
    assert c.query_avu('name = "k"') == ["/aa", "/mm", "/zz"]


@pytest.mark.parametrize("text,clauses", [
    ('name = "a"', 1),
    ('name != "a" and value like "b*"', 2),
    ('value = "x" && name = "y" && value != "z"', 3),
    ('name like "quoted \\" inner"', 1),
])
def test_predicate_parse_ok(text, clauses):
    assert len(AvuPredicate.parse(text).clauses) == clauses


@pytest.mark.parametrize("bad", [
    "", "name", 'name =', 'name = unquoted', '= "v"',
    'name = "a" and', 'name = "a" or value = "b"', 'comment = "c"',
    'name ~ "a"', 'and name = "a"',
])
def test_predicate_parse_rejects(bad):
    with pytest.raises(MalformedPredicate):
        AvuPredicate.parse(bad)


def test_query_literal_escapes_decode_as_in_rules():
    """A query decodes the escapes of a literal as a rule text does."""
    c = fresh_catalog()
    put(c, "/backslash")
    put(c, "/newline")
    c.add_avu("admin", "/backslash", "k", "a\\nb")
    c.add_avu("admin", "/newline", "k", "a\nb")
    assert c.query_avu('value = "a\\\\nb"') == ["/backslash"]
    assert c.query_avu('value = "a\\nb"') == ["/newline"]


def test_predicate_has_no_comments():
    with pytest.raises(MalformedPredicate):
        AvuPredicate.parse('name = "a" # and value = "b"')
    with pytest.raises(MalformedPredicate):
        AvuPredicate.parse('name = "a"#')


def test_avu_query_matches_linear_oracle():
    rng = random.Random(11)
    c = fresh_catalog()
    names = ["exp.run", "exp.site", "color", "size", "owner.lab"]
    values = ["a", "b", "ab", "a/b", "x1", "x2", "", '"', "\\", "a\nb",
              "a\\nb"]
    triples: dict[str, list[tuple[str, str]]] = {}
    for i in range(120):
        path = f"/obj{i:03d}"
        put(c, path)
        mine = []
        for _ in range(rng.randint(0, 4)):
            n, v = rng.choice(names), rng.choice(values)
            c.add_avu("admin", path, n, v)
            mine.append((n, v))
        triples[path] = mine

    ops = ["=", "!=", "like"]
    for _ in range(60):
        clauses = []
        for _ in range(rng.randint(1, 3)):
            field = rng.choice(["name", "value"])
            op = rng.choice(ops)
            lit = rng.choice(values + ["exp.*", "?", "*1", "a*b"])
            clauses.append((field, op, lit))
        text = " and ".join(
            f'{f} {op} "{escape_string(lit)}"' for f, op, lit in clauses)

        def clause_ok(triple, clause):
            f, op, lit = clause
            actual = triple[0] if f == "name" else triple[1]
            if op == "=":
                return actual == lit
            if op == "!=":
                return actual != lit
            return glob_match(actual, lit)

        expected = sorted(
            p for p, ts in triples.items()
            if any(all(clause_ok(t, cl) for cl in clauses) for t in ts))
        assert c.query_avu(text) == expected, text


# ---------------------------------------------------------------------------
# The listing and metadata indexes against a brute-force scan of state_dict()
# ---------------------------------------------------------------------------

INDEX_NAMES = ["a", "b", "c.x", "d"]
INDEX_VALUES = ["1", "2", "12", "x/y", ""]


def scan_listings(state):
    """Every collection's (subcollections, objects), from one scan."""
    listings = {coll: ([], []) for coll in state["collections"]}
    for kind, paths in enumerate((state["collections"], state["objects"])):
        for p in sorted(paths):
            if p != "/":
                listings[posixpath.dirname(p)][kind].append(p)
    return listings


def scan_query(state, clauses):
    def holds(name, value, field, op, lit):
        actual = name if field == "name" else value
        if op == "=":
            return actual == lit
        if op == "!=":
            return actual != lit
        return glob_match(actual, lit)

    return sorted(path for path, triples in state["avus"].items()
                  if any(all(holds(n, v, *cl) for cl in clauses)
                         for n, v, _comment in triples))


def random_clauses(rng):
    clauses = []
    for _ in range(rng.randint(1, 3)):
        field = rng.choice(["name", "value"])
        pool = INDEX_NAMES if field == "name" else INDEX_VALUES
        lit = rng.choice(pool + ["*", "?", "1*", "*.x", "missing"])
        clauses.append((field, rng.choice(["=", "!=", "like"]), lit))
    return clauses


def check_indexes(c, rng):
    state = c.state_dict()
    listings = scan_listings(state)
    for coll, listing in listings.items():
        assert c.list_collection(coll) == listing, coll
    # The children index holds each parent's two lists exactly, sorted
    # and without duplicates, and no removed path or empty entry.
    assert c._children == {p: (subs, objs)
                           for p, (subs, objs) in listings.items()
                           if subs or objs}
    a, b = rng.sample(INDEX_NAMES, 2)
    v = rng.choice(INDEX_VALUES)
    predicates = [random_clauses(rng) for _ in range(3)] + [
        [("name", "=", a), ("name", "=", b)],
        [("name", "=", a), ("value", "=", v), ("name", "=", a)],
    ]
    for clauses in predicates:
        text = " and ".join(f'{f} {op} "{lit}"' for f, op, lit in clauses)
        assert c.query_avu(text) == scan_query(state, clauses), text
    # The metadata index holds exactly the live pairs: no empty buckets.
    pairs: dict[str, dict[str, set[str]]] = {}
    for path, triples in state["avus"].items():
        for n, v, _comment in triples:
            pairs.setdefault(n, {}).setdefault(v, set()).add(path)
    assert c._avu_index == pairs


def check_audit(c):
    """The audit trail is exactly the journal's audit.append records, each
    at its record's time unless its args carry one."""
    assert c.audit_query("admin") == [
        AuditEntry(**{"seq": r["seq"], "when": r["when"], **r["args"]})
        for r in c.records() if r["op"] == "audit.append"]


def index_step(c, rng, colls, objects, segments):
    """One random mutation; colls, objects and segments track the zone."""
    roll = rng.random()
    if roll < 0.1:
        path = f"{rng.choice(colls).rstrip('/')}/c{rng.randint(0, 9)}"
        if not c.path_exists(path):
            c.make_collection("admin", path)
            colls.append(path)
    elif roll < 0.4:
        path = f"{rng.choice(colls).rstrip('/')}/o{rng.randint(0, 14)}"
        put(c, path, data=rng.randbytes(4))
        objects.add(path)
    elif roll < 0.55 and objects:
        path = rng.choice(sorted(objects))
        c.remove_object(path)
        objects.discard(path)
    elif roll < 0.6:
        segments.append(len(segments) + 1)
        path = f"/s/seg-{segments[-1]:08d}.tsz"
        t = segments[-1] * 10
        c.ingest_segment("/s", segments[-1], path, "admin", "r1",
                         f"ref-{path}", CS, 7, t, t + 5, 2)
        objects.add(path)
    else:
        c.add_avu("admin", rng.choice(sorted(objects) + colls),
                  rng.choice(INDEX_NAMES), rng.choice(INDEX_VALUES),
                  rng.choice(["", "", "note"]))


def test_indexes_match_scan_through_reopens(tmp_path):
    rng = random.Random(7)
    c = Catalog(tmp_path)
    c.create_user(SYSTEM, "admin", "admin", "pw")
    c.make_collection(SYSTEM, "/", owner="admin")
    c.make_collection("admin", "/s", kind="stream")
    colls, objects, segments = ["/", "/s"], set(), []
    steps = 0
    while steps < 100 or not list(tmp_path.glob("snapshot-*.json")):
        index_step(c, rng, colls, objects, segments)
        check_indexes(c, rng)
        steps += 1
    want = c.state_dict()
    c.close()

    again = Catalog(tmp_path)  # from the snapshot and the tail after it
    assert again.state_dict() == want
    check_indexes(again, rng)
    check_audit(again)
    for _ in range(40):
        index_step(again, rng, colls, objects, segments)
        check_indexes(again, rng)
    want = again.state_dict()
    records = again.records()
    again.close()

    for p in tmp_path.glob("snapshot-*.json"):
        p.unlink()
    from_journal = Catalog(tmp_path)  # every record applied
    assert from_journal.state_dict() == want
    check_indexes(from_journal, rng)
    check_audit(from_journal)
    from_journal.close()

    replayed = Catalog.replay(records)
    assert replayed.state_dict() == want
    check_indexes(replayed, rng)
    check_audit(replayed)


RANGE_NAMES = ["id", "idx", "i", "é", "éa", "ζ.x"]
RANGE_VALUES = ["v1", "v12", "v120", "v2", "ü", "üx", "", "x/y", "v1?",
                "z\U0010ffff", "z\U0010ffffq", "z", "{"]
# Each a `like` literal: an empty prefix, non-ASCII ones, a literal equal
# to values and names that start with it, and prefixes matching nothing.
RANGE_LITERALS = ["*x", "?x", "*", "?", "v1*", "v1", "v12*", "v1?", "ü*",
                  "é*", "éa", "id*", "i?", "i", "nothing*", "zz?", "ÿ*",
                  "v1*0", "*/y", "z\U0010ffff*", "z*", "\U0010ffff*"]


def check_pages(c, coll):
    """Pages of limit 1, 7 and more than the listing concatenate to it,
    and a marker that is no child starts after where it would sort."""
    subcolls, objects = c.list_collection(coll)
    merged = sorted(subcolls + objects)
    for limit in (1, 7, len(merged) + 1):
        got, marker = [], None
        # A pager that repeats a child stops once it has them all.
        while len(got) <= len(merged):
            subs, objs = c.list_collection(coll, marker, limit)
            page = sorted(subs + objs)
            assert subs == [p for p in page if p in subcolls]
            assert objs == [p for p in page if p in objects]
            assert len(page) <= limit
            got += page
            if len(page) < limit:
                break
            marker = page[-1]
        assert got == merged, (coll, limit)
    for marker in (coll, f"{coll}/o5~", f"{coll}/c", "\U0010ffff"):
        subs, objs = c.list_collection(coll, marker)
        assert subs == [p for p in subcolls if p > marker]
        assert objs == [p for p in objects if p > marker]
        after = [p for p in merged if p > marker][:3]
        assert c.list_collection(coll, marker, 3) == (
            [p for p in subcolls if p in after],
            [p for p in objects if p in after])


def check_ranges(c, rng):
    """Every `like` literal, on each field and under a name, gives what a
    linear scan of the state gives, and every listing pages to itself."""
    state = c.state_dict()
    for lit in RANGE_LITERALS:
        for clauses in ([("name", "like", lit)], [("value", "like", lit)],
                        [("name", "=", rng.choice(RANGE_NAMES)),
                         ("value", "like", lit)],
                        [("name", "like", lit),
                         ("value", "like", rng.choice(RANGE_LITERALS))],
                        [("value", "like", lit), ("value", "!=", "v12")]):
            text = " and ".join(f'{f} {op} "{escape_string(x)}"'
                                for f, op, x in clauses)
            assert c.query_avu(text) == scan_query(state, clauses), text
    for coll in state["collections"]:
        check_pages(c, coll)
    # The sorted value lists that the range scans built hold exactly the
    # live values of each name.
    for name, values in c._sorted_values.items():
        assert values == sorted(c._avu_index[name]), name


def range_step(c, rng, colls, objects):
    """One random add, put or object remove on a small zone."""
    roll = rng.random()
    if roll < 0.05:
        path = f"{rng.choice(colls).rstrip('/')}/c{rng.randint(0, 4)}"
        if not c.path_exists(path):
            c.make_collection("admin", path)
            colls.append(path)
    elif roll < 0.3:
        path = f"{rng.choice(colls).rstrip('/')}/o{rng.randint(0, 19)}"
        if not c.collection_exists(path):
            put(c, path)
            objects.add(path)
    elif roll < 0.45 and objects:
        path = rng.choice(sorted(objects))
        c.remove_object(path)
        objects.discard(path)
    elif objects:
        c.add_avu("admin", rng.choice(sorted(objects) + colls),
                  rng.choice(RANGE_NAMES), rng.choice(RANGE_VALUES))


def test_listings_and_like_ranges_match_scan_through_reopens(
        tmp_path, monkeypatch):
    monkeypatch.setattr(pgzone.catalog, "SNAPSHOT_EVERY", 60)
    rng = random.Random(34)
    c = Catalog(tmp_path)
    c.create_user(SYSTEM, "admin", "admin", "pw")
    c.make_collection(SYSTEM, "/", owner="admin")
    colls, objects = ["/"], set()
    for step in range(300):
        range_step(c, rng, colls, objects)
        if step % 10 == 0:
            check_ranges(c, rng)
    assert list(tmp_path.glob("snapshot-*.json"))
    want = c.state_dict()
    c.close()

    for reopen in ("from a snapshot", "from the journal alone"):
        if reopen == "from the journal alone":
            for p in tmp_path.glob("snapshot-*.json"):
                p.unlink()
        c = Catalog(tmp_path)
        assert c.state_dict() == want, reopen
        check_ranges(c, rng)
        for step in range(100):
            range_step(c, rng, colls, objects)
            if step % 10 == 0:
                check_ranges(c, rng)
        check_ranges(c, rng)
        want = c.state_dict()
        c.close()


def test_removing_every_object_under_a_name_empties_its_buckets():
    c = fresh_catalog()
    c.make_collection("admin", "/d")
    for i in range(3):
        put(c, f"/d/o{i}")
        c.add_avu("admin", f"/d/o{i}", "gone", f"v{i % 2}")
        c.add_avu("admin", f"/d/o{i}", "gone", f"v{i % 2}", "a comment")
        c.add_avu("admin", f"/d/o{i}", "kept", "v")
    c.add_avu("admin", "/d", "kept", "v")
    c.remove_object("/d/o0")
    assert c.query_avu('name = "gone"') == ["/d/o1", "/d/o2"]
    c.remove_object("/d/o1")
    c.remove_object("/d/o2")
    assert c.query_avu('name = "gone"') == []
    assert c.query_avu('name like "*"') == ["/d"]
    assert c._avu_index == {"kept": {"v": {"/d"}}}
    assert c.list_collection("/d") == ([], [])


def outcome(lookup, *args):
    """("ok", value) of a lookup, or the type and text of the ZoneError
    it raised."""
    try:
        return "ok", lookup(*args)
    except ZoneError as e:
        return type(e), str(e)


def check_lookups(c, users, resources, paths):
    """Each view-free lookup gives what the view it stands in for gives,
    for every name seen so far and one never made, and raises as the
    view's getter does for a missing one."""
    for name in users + ["ghost"]:
        assert outcome(c.user_role, name) == \
            outcome(lambda n: c.get_user(n).role, name)
    for name in resources + ["ghost"]:
        assert outcome(c.resource_location, name) == \
            outcome(lambda n: (c.get_resource(n).driver_name,
                               c.get_resource(n).root), name)
    for path in sorted(paths) + ["/d/ghost", "/d"]:
        assert outcome(c.object_owner, path) == \
            outcome(lambda p: c.get_object(p).owner, path)
        assert outcome(c.good_replicas, path) == outcome(
            lambda p: [(r.resource, r.physical_ref, r.checksum)
                       for r in c.get_object(p).replicas
                       if r.status == "good"], path)


def lookup_step(c, rng, users, resources, paths) -> str:
    """One random user or resource made, object put or overwritten,
    replica added, replica status set, or object removed; returns what
    it did."""
    roll = rng.random()
    live = sorted(p for p in paths if c.object_exists(p))
    if roll < 0.05:
        name = f"u{len(users)}"
        c.create_user("admin", name, rng.choice(("admin", "user")), "pw")
        users.append(name)
        return "user"
    if roll < 0.1:
        name = f"r{len(resources)}"
        c.register_resource("admin", name, rng.choice(("mem", "localfs")),
                            f"/blobs/{name}", "cache")
        resources.append(name)
        return "resource"
    if roll < 0.45 or not live:
        path = f"/d/o{rng.randint(0, 14)}"
        data = rng.randbytes(rng.randint(0, 3))
        kind = "overwrite" if c.object_exists(path) else "put"
        c.put_object(path, rng.choice(users), rng.choice(resources),
                     f"ref-{rng.random()}", sha256_hex(data), len(data))
        paths.add(path)
        return kind
    path = rng.choice(live)
    obj = c.get_object(path)
    if roll < 0.65:
        free = [r for r in resources
                if all(rep.resource != r for rep in obj.replicas)]
        if not free:
            return "none"
        c.add_replica(path, rng.choice(free), f"ref-{rng.random()}",
                      obj.checksum, 1,
                      rng.choice(("good", "stale", "suspect")))
        return "replica"
    if roll < 0.9:
        status = rng.choice(("suspect", "stale", "good"))
        c.set_replica_status(path, rng.choice(obj.replicas).physical_ref,
                             status)
        return status
    c.remove_object(path)
    return "remove"


def test_view_free_lookups_match_the_views_through_reopens(
        tmp_path, monkeypatch):
    monkeypatch.setattr(pgzone.catalog, "SNAPSHOT_EVERY", 25)
    rng = random.Random(35)
    c = Catalog(tmp_path)
    c.create_user(SYSTEM, "admin", "admin", "pw")
    c.make_collection(SYSTEM, "/", owner="admin")
    c.make_collection("admin", "/d")
    users, resources, paths = ["admin"], [], set()
    for name in ("r0", "r1"):
        c.register_resource("admin", name, "mem", f"/blobs/{name}", "cache")
        resources.append(name)
    done = set()
    for _ in range(150):
        done.add(lookup_step(c, rng, users, resources, paths))
        check_lookups(c, users, resources, paths)
    assert {"user", "resource", "put", "overwrite", "replica", "suspect",
            "stale", "good", "remove"} <= done, done
    assert list(tmp_path.glob("snapshot-*.json"))

    for reopen in ("from a snapshot", "from the journal alone"):
        want = c.data_state_digest()
        c.close()
        if reopen == "from the journal alone":
            for p in tmp_path.glob("snapshot-*.json"):
                p.unlink()
        c = Catalog(tmp_path)
        assert c.data_state_digest() == want, reopen
        check_lookups(c, users, resources, paths)
        for _ in range(60):
            lookup_step(c, rng, users, resources, paths)
            check_lookups(c, users, resources, paths)
    c.close()


# ---------------------------------------------------------------------------
# Rules, audit, deny purity
# ---------------------------------------------------------------------------

def test_rule_records_and_version():
    c = fresh_catalog()
    assert c.rule_version == 0
    c.add_rule_records([("r1", "pep.data.get.pre", 5, "rule r1 ...")])
    assert c.rule_version == 1
    with pytest.raises(DuplicateRuleName):
        c.add_rule_records([("r1", "pep.data.get.pre", 0, "x")])
    c.remove_rule_record("r1")
    assert c.rule_version == 2 and c.rules() == []
    with pytest.raises(NoSuchRule):
        c.remove_rule_record("r1")


def test_audit_query_filters_and_admin_gate():
    c = fresh_catalog()
    c.create_user("admin", "u", "user", "s")
    c.audit_append("u", "custom.event", "one")
    entries = c.audit_query("admin", event="custom.event")
    assert len(entries) == 1 and entries[0].actor == "u"
    assert entries[0].seq > 0
    with pytest.raises(PermissionDenied):
        c.audit_query("u")


def test_denied_op_leaves_data_state_unchanged():
    c = fresh_catalog()
    c.create_user("admin", "u", "user", "s")
    c.make_collection("admin", "/locked")
    before = c.data_state_digest()
    with pytest.raises(PermissionDenied):
        c.add_avu("u", "/locked", "a", "b")
    with pytest.raises(PermissionDenied):
        c.create_user("u", "w", "user", "s")
    assert c.data_state_digest() == before


# ---------------------------------------------------------------------------
# Replay and persistence
# ---------------------------------------------------------------------------

def random_session(c, rng, n=60):
    c.create_user("admin", "u1", "user", "s")
    c.make_collection("admin", "/data")
    paths = []
    for i in range(n):
        roll = rng.random()
        if roll < 0.4:
            path = f"/data/f{rng.randint(0, 20):02d}"
            put(c, path, data=rng.randbytes(8))
            paths.append(path)
        elif roll < 0.7 and paths:
            c.add_avu("admin", rng.choice(paths),
                      f"k{rng.randint(0, 5)}", f"v{rng.randint(0, 5)}")
        elif roll < 0.8 and paths:
            target = rng.choice(paths)
            c.remove_object(target)
            paths = [p for p in paths if p != target]
        elif roll < 0.9:
            c.audit_append("u1", "noise", str(i))
        else:
            c.set_acl("admin", "/data", "u1",
                      rng.choice(["read", "write", "own"]))


@pytest.mark.parametrize("journaled", [False, True],
                         ids=["memory", "journaled"])
def test_replay_reproduces_state(tmp_path, rng, journaled):
    if journaled:
        c = Catalog(tmp_path)
        c.create_user(SYSTEM, "admin", "admin", "pw")
        c.make_collection(SYSTEM, "/", owner="admin")
        random_session(c, rng, n=1000)
        assert list(tmp_path.glob("snapshot-*.json")), \
            "session should have crossed the snapshot threshold"
    else:
        c = fresh_catalog()
        random_session(c, rng)
    rebuilt = Catalog.replay(c.records())
    assert rebuilt.state_dict() == c.state_dict()
    c.close()


def test_replay_rejects_sequence_gap():
    c = fresh_catalog()
    records = c.records()
    records[1]["seq"] = 99
    with pytest.raises(CorruptJournal):
        Catalog.replay(records)


def test_replay_rejects_unknown_op():
    c = fresh_catalog()
    records = c.records()
    records[0]["op"] = "mystery.op"
    with pytest.raises(CorruptJournal):
        Catalog.replay(records)


def test_journaled_catalog_recovers(tmp_path, rng):
    c = Catalog(tmp_path)
    c.create_user(SYSTEM, "admin", "admin", "pw")
    c.make_collection(SYSTEM, "/", owner="admin")
    random_session(c, rng)
    want = c.state_dict()
    c.close()
    again = Catalog(tmp_path)
    assert again.state_dict() == want


def test_snapshot_written_and_used(tmp_path):
    c = Catalog(tmp_path)
    c.create_user(SYSTEM, "admin", "admin", "pw")
    c.make_collection(SYSTEM, "/", owner="admin")
    c.make_collection(SYSTEM, "/d", owner="admin")
    # Push past the snapshot threshold with distinct metadata triples.
    put(c, "/d/f")
    for i in range(1100):
        c.add_avu("admin", "/d/f", "k", f"v{i}")
    snapshots = list(tmp_path.glob("snapshot-*.json"))
    assert snapshots, "expected a snapshot after 1000 mutations"
    want = c.state_dict()
    c.close()
    again = Catalog(tmp_path)
    assert again.state_dict() == want


def test_state_dict_is_json_clean():
    import json
    c = fresh_catalog()
    random_session(c, random.Random(5))
    state = c.state_dict()
    assert json.loads(json.dumps(state)) == state


def test_state_dict_is_a_copy():
    c = fresh_catalog()
    random_session(c, random.Random(6))
    want, digest = c.state_dict(), c.data_state_digest()
    state = c.state_dict()
    state["users"]["admin"]["role"] = "user"
    state["collections"]["/data"]["acl"]["intruder"] = "own"
    next(iter(state["avus"].values())).append(["x", "y", ""])
    state["objects"].clear()
    state["audit"].pop()
    assert c.state_dict() == want
    assert c.data_state_digest() == digest
    assert c.is_admin("admin")
