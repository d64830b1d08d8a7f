import io
import os
import random
import re
import sys
import threading
import time

import pytest

from pgzone.catalog import Catalog
from pgzone.common import SYSTEM, sha256_hex
from pgzone.drivers import ArchiveDriver, LocalFsDriver, MemDriver
import pgzone.engine
from pgzone.engine import PEP_NAMES, PEP_OPS
from pgzone.errors import (
    AllReplicasSuspect,
    ChecksumMismatch,
    CorruptJournal,
    Denied,
    DuplicateRuleName,
    EngineError,
    FetchFailed,
    KindMismatch,
    NoSuchObject,
    NoSuchPath,
    NoSuchRef,
    PermissionDenied,
    UnknownPep,
)
from pgzone.provenance import workflow_id_of
from pgzone.ruledsl import eval_expr, parse_rules
from pgzone.streams import pack_records
from pgzone.testing import FaultDriver

from conftest import ADMIN, add_user, make_zone


# ---------------------------------------------------------------------------
# PEP naming
# ---------------------------------------------------------------------------

def test_pep_names_cover_all_ops_twice():
    assert len(PEP_NAMES) == 2 * len(PEP_OPS)
    for op in PEP_OPS:
        assert f"pep.{op}.pre" in PEP_NAMES
        assert f"pep.{op}.post" in PEP_NAMES


def test_unknown_pep_rejected_at_install(zone):
    with pytest.raises(UnknownPep):
        zone.engine.add_rules(
            ADMIN, 'rule r on pep.data.teleport.pre do allow()')


# ---------------------------------------------------------------------------
# Verdict semantics
# ---------------------------------------------------------------------------

def test_default_verdict_is_allow(zone):
    add_user(zone, "u")
    zone.engine.put("u", "/home/u/f", b"hi")
    assert zone.engine.get("u", "/home/u/f") == b"hi"


def test_pre_deny_aborts_with_reason(zone):
    add_user(zone, "u")
    zone.engine.put("u", "/home/u/f", b"hi")
    zone.engine.add_rules(ADMIN, '''
        rule no_reads on pep.data.get.pre do deny("reads are off")
    ''')
    with pytest.raises(Denied, match="reads are off"):
        zone.engine.get("u", "/home/u/f")
    # The object itself is untouched.
    assert zone.catalog.object_exists("/home/u/f")


def test_pre_deny_leaves_no_effect(zone):
    add_user(zone, "u")
    zone.engine.add_rules(ADMIN, '''
        rule no_puts on pep.data.put.pre do deny("frozen")
    ''')
    before = zone.catalog.data_state_digest()
    with pytest.raises(Denied):
        zone.engine.put("u", "/home/u/f", b"hi")
    assert zone.catalog.data_state_digest() == before
    assert not zone.catalog.object_exists("/home/u/f")


def test_condition_error_maps_to_engine_error(zone):
    add_user(zone, "u")
    zone.engine.add_rules(ADMIN, '''
        rule broken on pep.data.put.pre when 1 / 0 == 0 do allow()
    ''')
    with pytest.raises(EngineError, match="policy error"):
        zone.engine.put("u", "/home/u/f", b"hi")


def test_non_boolean_condition_is_policy_error(zone):
    add_user(zone, "u")
    zone.engine.add_rules(ADMIN, '''
        rule broken on pep.data.put.pre when 1 + 1 do allow()
    ''')
    with pytest.raises(EngineError, match="not a boolean"):
        zone.engine.put("u", "/home/u/f", b"hi")


def test_post_deny_recorded_but_not_enforced(zone):
    add_user(zone, "u")
    zone.engine.add_rules(ADMIN, '''
        rule post_gripe on pep.data.put.post do deny("too late")
    ''')
    view = zone.engine.put("u", "/home/u/f", b"hi")
    assert view.version == 1
    events = [e for e in zone.catalog.audit_query(ADMIN, event="pep.deny")
              if "data.put.post" in e.detail]
    assert len(events) == 1


def test_every_firing_is_audited(zone):
    add_user(zone, "u")
    zone.engine.put("u", "/home/u/f", b"hi")
    details = [e.detail for e in
               zone.catalog.audit_query(ADMIN, event="pep.allow")]
    assert any(d.startswith("pep.data.put.pre rule=-") for d in details)
    assert any(d.startswith("pep.data.put.post rule=-") for d in details)


# ---------------------------------------------------------------------------
# Rule resolution order
# ---------------------------------------------------------------------------

def test_priority_then_name_first_match_wins(zone):
    add_user(zone, "u")
    zone.engine.add_rules(ADMIN, '''
        rule b_low priority 1 on pep.data.put.pre do deny("low")
        rule z_high priority 9 on pep.data.put.pre do deny("high")
        rule a_high priority 9 on pep.data.put.pre do deny("high-a")
    ''')
    with pytest.raises(Denied, match="high-a"):
        zone.engine.put("u", "/home/u/f", b"hi")


def test_non_matching_condition_falls_through(zone):
    add_user(zone, "u")
    zone.engine.add_rules(ADMIN, '''
        rule admin_gate priority 5 on pep.data.put.pre
            when $user.role == "admin" do deny("no admin puts")
        rule fallback on pep.data.put.pre do allow()
    ''')
    zone.engine.put("u", "/home/u/f", b"hi")
    with pytest.raises(Denied, match="no admin puts"):
        zone.engine.put(ADMIN, "/home/u/g", b"hi")


def test_rule_snapshot_is_stable_within_firing(zone):
    # Removing a rule takes effect on the next firing, not mid-chain.
    add_user(zone, "u")
    zone.engine.add_rules(ADMIN, '''
        rule gate on pep.data.put.pre when $user.name == "u" do deny("no")
    ''')
    with pytest.raises(Denied):
        zone.engine.put("u", "/home/u/f", b"hi")
    zone.engine.remove_rule(ADMIN, "gate")
    zone.engine.put("u", "/home/u/f", b"hi")


def test_add_rules_is_atomic(zone):
    with pytest.raises(UnknownPep):
        zone.engine.add_rules(ADMIN, '''
            rule ok on pep.data.put.pre do allow()
            rule bad on pep.not.a.pep do allow()
        ''')
    assert zone.engine.list_rules() == []


def test_add_rules_is_atomic_against_a_concurrent_same_name_add(zone):
    # Another admin adds "b" while the first add_rules call is under
    # way, at its audit of rule "a". The call must still install both of
    # its rules or neither, and the other admin's add must then fail.
    outcome = {}

    def other_admin():
        try:
            zone.engine.add_rules(
                ADMIN, 'rule b on pep.data.get.pre do deny("other")')
            outcome["other"] = "added"
        except DuplicateRuleName:
            outcome["other"] = "refused"

    audit_append = zone.catalog.audit_append

    def audit_then_race(actor, event, detail):
        audit_append(actor, event, detail)
        if (event, detail) == ("rule.add", "a") and not outcome:
            racer = threading.Thread(target=other_admin)
            racer.start()
            racer.join(timeout=10)
            assert not racer.is_alive()

    zone.catalog.audit_append = audit_then_race
    try:
        zone.engine.add_rules(ADMIN, '''
            rule a on pep.data.put.pre do allow()
            rule b on pep.data.put.pre do allow()
        ''')
        first = "added"
    except DuplicateRuleName:
        first = "refused"
    installed = {(r.name, r.pep) for r in zone.engine.list_rules()}
    assert (first, outcome["other"]) == ("added", "refused")
    assert installed == {("a", "pep.data.put.pre"), ("b", "pep.data.put.pre")}


def test_duplicate_rule_name_rejected(zone):
    zone.engine.add_rules(ADMIN, 'rule r1 on pep.data.put.pre do allow()')
    with pytest.raises(DuplicateRuleName):
        zone.engine.add_rules(ADMIN, 'rule r1 on pep.data.get.pre do allow()')
    assert len(zone.engine.list_rules()) == 1


def test_rule_management_is_admin_only(zone):
    add_user(zone, "u")
    with pytest.raises(PermissionDenied):
        zone.engine.add_rules("u", 'rule r on pep.data.put.pre do allow()')


def test_rule_recompiles_match_a_full_parse_and_parse_only_new_texts(
        tmp_path, monkeypatch):
    """A seeded dispatch oracle: after every add, remove, refused
    duplicate, half-failed multi-rule add and reopen, each point's rules
    equal a full parse and sort of the stored texts, and every firing
    decides as the first of them that matches, without parsing."""
    rng = random.Random(1717)
    peps = ("pep.data.put.pre", "pep.data.put.post", "pep.data.get.pre",
            "pep.meta.add.pre")
    parsed: list[str] = []

    def counting(text):
        parsed.append(text)
        return parse_rules(text)

    monkeypatch.setattr(pgzone.engine, "parse_rules", counting)
    zone = make_zone(tmp_path / "j")
    names = [f"r{i:02d}" for i in range(25)]

    def rule_texts(chosen):
        return "\n".join(
            f'rule {n} priority {rng.randint(-2, 2)} '
            f'on {rng.choice(peps)} when $obj.path matches '
            f'"/p{rng.randrange(3)}/*" do deny("{n}")' for n in chosen)

    def second_append_fails(journal):
        real, calls = journal.append, []

        def append(record):
            calls.append(record)
            if len(calls) == 2:
                raise OSError("disk full")
            real(record)
        return append

    for step in range(120):
        engine, catalog = zone.engine, zone.catalog
        stored = {r.name for r in catalog.rules()}
        free = [n for n in names if n not in stored]
        roll = rng.random()
        if step % 30 == 29:
            zone.close()
            zone = make_zone(tmp_path / "j")
        elif stored and roll < 0.1:
            with pytest.raises(DuplicateRuleName):
                engine.add_rules(ADMIN, rule_texts(
                    [rng.choice(free), rng.choice(sorted(stored))]))
        elif len(free) >= 3 and roll < 0.2:
            chosen = rng.sample(free, 3)
            catalog._journal.append = second_append_fails(catalog._journal)
            with pytest.raises(OSError):
                engine.add_rules(ADMIN, rule_texts(chosen))
            del catalog._journal.append
            assert {r.name for r in catalog.rules()} - stored == {chosen[0]}
        elif stored and (len(stored) >= 20 or roll < 0.5):
            engine.remove_rule(ADMIN, rng.choice(sorted(stored)))
        else:
            engine.add_rules(ADMIN, rule_texts(
                rng.sample(free, min(rng.randint(1, 2), 20 - len(stored)))))
        entries = zone.catalog.rules()
        parsed.clear()
        for pep in PEP_NAMES:
            brute = sorted(
                (parse_rules(e.text)[0] for e in entries if e.pep == pep),
                key=lambda r: (-r.priority, r.name))
            assert list(zone.engine._rules_for(pep)) == brute, (step, pep)
            for path in ("/p0/f", "/p1/f", "/p2/f"):
                bindings = {"user.name": ADMIN, "user.role": "admin",
                            "op": "data.put", "obj.path": path}
                verdict = zone.engine.fire_pep(pep, ADMIN, bindings)
                first = next((r.name for r in brute
                              if eval_expr(r.condition, bindings)), None)
                assert verdict.rule == first, (step, pep, path)
        assert parsed == [], step
    zone.close()


def test_stored_rule_that_does_not_parse_fails_the_open(tmp_path):
    make_zone(tmp_path / "j").close()
    catalog = Catalog(tmp_path / "j")
    catalog.add_rule_records([("broken", "pep.data.get.pre", 0, "rule ...")])
    catalog.close()
    with pytest.raises(CorruptJournal, match="'broken'"):
        make_zone(tmp_path / "j")


# ---------------------------------------------------------------------------
# Chains: variables, if, foreach, micro-services
# ---------------------------------------------------------------------------

def test_chain_if_else_and_assignment(zone):
    add_user(zone, "u")
    zone.engine.add_rules(ADMIN, '''
        rule tag_big on pep.data.put.pre do
            $label = "small";
            if $user.name == "u" { $label = "from-u" }
            else { $label = "other" };
            audit_msg($label)
    ''')
    zone.engine.put("u", "/home/u/f", b"hi")
    entries = zone.catalog.audit_query(ADMIN, event="user.message")
    assert entries and entries[-1].detail == "from-u"


def test_chain_foreach_binds_each_element(zone):
    zone.engine.register_microservice(
        ADMIN, "three_tags", lambda ctx: ["a", "b", "c"], 0, 0)
    add_user(zone, "u")
    zone.engine.add_rules(ADMIN, '''
        rule fan_out on pep.meta.add.pre do
            $tags = three_tags();
            foreach $x in $tags { audit_msg($x) }
    ''')
    zone.engine.put("u", "/home/u/f", b"hi")
    zone.engine.add_avu("u", "/home/u/f", "k", "v")
    seen = [e.detail for e in
            zone.catalog.audit_query(ADMIN, event="user.message")]
    assert seen == ["a", "b", "c"]


def test_chain_calls_set_avu(zone):
    add_user(zone, "u")
    zone.engine.add_rules(ADMIN, '''
        rule stamp on pep.data.put.post do
            set_avu($obj.path, "ingested.by", $user.name)
    ''')
    zone.engine.put("u", "/home/u/f", b"hi")
    triples = [(a.attr_name, a.attr_value)
               for a in zone.catalog.avus("/home/u/f")]
    assert ("ingested.by", "u") in triples


def test_unknown_microservice_is_policy_error(zone):
    add_user(zone, "u")
    zone.engine.add_rules(ADMIN, '''
        rule bad on pep.data.put.pre do frobnicate("x")
    ''')
    with pytest.raises(EngineError):
        zone.engine.put("u", "/home/u/f", b"hi")


def test_microservice_arity_checked(zone):
    add_user(zone, "u")
    zone.engine.add_rules(ADMIN, '''
        rule bad on pep.data.put.pre do set_avu("only-one")
    ''')
    with pytest.raises(EngineError, match="argument"):
        zone.engine.put("u", "/home/u/f", b"hi")


def test_register_microservice_admin_only(zone):
    add_user(zone, "u")
    with pytest.raises(PermissionDenied):
        zone.engine.register_microservice("u", "nop", lambda ctx: "", 0, 0)
    zone.engine.register_microservice(ADMIN, "nop", lambda ctx: "", 0, 0)
    assert "nop" in zone.engine.microservices.names()


def test_registered_microservice_usable_from_rule(zone):
    calls = []

    def spy(ctx, *args):
        calls.append((ctx.actor, args))
        return "ok"

    zone.engine.register_microservice(ADMIN, "spy", spy, 1, 2)
    zone.engine.add_rules(ADMIN, '''
        rule watch on pep.data.put.pre do $r = spy($obj.path); audit_msg($r)
    ''')
    add_user(zone, "u")
    zone.engine.put("u", "/home/u/f", b"hi")
    assert calls == [("u", ("/home/u/f",))]


# ---------------------------------------------------------------------------
# ACL enforcement on trapped ops
# ---------------------------------------------------------------------------

def test_put_needs_parent_write_for_new_object(zone):
    add_user(zone, "u")
    add_user(zone, "v")
    with pytest.raises(PermissionDenied):
        zone.engine.put("v", "/home/u/f", b"hi")
    zone.catalog.set_acl("u", "/home/u", "v", "write")
    zone.engine.put("v", "/home/u/f", b"hi")


def test_put_into_missing_collection(zone):
    from pgzone.errors import NoParent
    with pytest.raises(NoParent):
        zone.engine.put(ADMIN, "/nowhere/f", b"hi")


def test_get_needs_read(zone):
    add_user(zone, "u")
    add_user(zone, "v")
    zone.engine.put("u", "/home/u/f", b"hi")
    with pytest.raises(PermissionDenied):
        zone.engine.get("v", "/home/u/f")
    zone.catalog.set_acl("u", "/home/u/f", "v", "read")
    assert zone.engine.get("v", "/home/u/f") == b"hi"


def test_remove_needs_write(zone):
    add_user(zone, "u")
    add_user(zone, "v")
    zone.engine.put("u", "/home/u/f", b"hi")
    with pytest.raises(PermissionDenied):
        zone.engine.remove("v", "/home/u/f")
    zone.engine.remove("u", "/home/u/f")
    with pytest.raises(NoSuchObject):
        zone.engine.get("u", "/home/u/f")


def test_overwrite_bumps_version_and_frees_old_replica(zone):
    add_user(zone, "u")
    v1 = zone.engine.put("u", "/home/u/f", b"one")
    v2 = zone.engine.put("u", "/home/u/f", b"two!")
    assert (v1.version, v2.version) == (1, 2)
    assert zone.engine.get("u", "/home/u/f") == b"two!"
    driver = zone.drivers.get("mem")
    assert len(driver.blobs) == 1  # old blob unlinked


# ---------------------------------------------------------------------------
# Replication, staging, archiving
# ---------------------------------------------------------------------------

def setup_three_resources(zone):
    zone.ensure_resource(SYSTEM, "r2", "mem", "/blobs/r2", "cache")
    zone.register_driver(ADMIN, "mem2", MemDriver())
    zone.ensure_resource(SYSTEM, "r3", "mem2", "/blobs/r3", "cache")


def test_replicate_copies_bytes(zone):
    setup_three_resources(zone)
    add_user(zone, "u")
    zone.engine.put("u", "/home/u/f", b"payload")
    view = zone.engine.replicate("u", "/home/u/f", "r2")
    assert sorted(r.resource for r in view.replicas) == ["main", "r2"]
    assert len({r.checksum for r in view.replicas}) == 1


def test_replicate_duplicate_and_missing_dest(zone):
    setup_three_resources(zone)
    add_user(zone, "u")
    zone.engine.put("u", "/home/u/f", b"payload")
    zone.engine.replicate("u", "/home/u/f", "r2")
    from pgzone.errors import DuplicateReplica, NoSuchResource
    with pytest.raises(DuplicateReplica):
        zone.engine.replicate("u", "/home/u/f", "r2")
    with pytest.raises(NoSuchResource):
        zone.engine.replicate("u", "/home/u/f", "r99")


@pytest.mark.parametrize("fail_unlink", [False, True])
def test_replicate_readback_catches_corruption(zone, fail_unlink):
    add_user(zone, "u")
    bad = FaultDriver(MemDriver(), corrupt_writes=True,
                      fail_unlink=fail_unlink)
    zone.register_driver(ADMIN, "badmem", bad)
    zone.ensure_resource(SYSTEM, "rbad", "badmem", "/blobs/rbad", "cache")
    zone.engine.put("u", "/home/u/f", b"payload")
    with pytest.raises(ChecksumMismatch):
        zone.engine.replicate("u", "/home/u/f", "rbad")
    # Failed copy is not registered as a replica.
    view = zone.catalog.get_object("/home/u/f")
    assert [r.resource for r in view.replicas] == ["main"]
    # Its bytes are deleted, or orphan-listed when they cannot be.
    orphans = [(o["resource"], o["physical_ref"])
               for o in zone.catalog.orphans()]
    assert orphans == [("rbad", ref) for ref in bad.inner.blobs]
    assert len(bad.inner.blobs) == (1 if fail_unlink else 0)


def test_a_get_fails_over_from_a_replica_its_driver_cannot_read(zone):
    """A get reads a path's good replicas in order: one whose driver
    fails is marked suspect and the next is read; when every one fails,
    the get raises AllReplicasSuspect and leaves each marked suspect."""
    drivers = {}
    for name in ("f1", "f2"):
        drivers[name] = FaultDriver(MemDriver())
        zone.register_driver(ADMIN, name, drivers[name])
        zone.ensure_resource(SYSTEM, f"r{name}", name, f"/blobs/{name}",
                             "cache")
    add_user(zone, "u")
    for path in ("/home/u/one", "/home/u/both"):
        zone.engine.put("u", path, b"payload", "rf1")
        zone.engine.replicate("u", path, "rf2")

    def statuses(path):
        return [(r.resource, r.status)
                for r in zone.catalog.get_object(path).replicas]

    drivers["f1"].fail_reads = True
    assert zone.engine.get("u", "/home/u/one") == b"payload"
    assert statuses("/home/u/one") == [("rf1", "suspect"), ("rf2", "good")]

    drivers["f2"].fail_reads = True
    with pytest.raises(AllReplicasSuspect):
        zone.engine.get("u", "/home/u/both")
    assert statuses("/home/u/both") == [("rf1", "suspect"),
                                        ("rf2", "suspect")]


def test_stage_and_archive_enforce_resource_kind(zone):
    zone.ensure_resource(SYSTEM, "tape", "archive", "/blobs/tape", "archive")
    zone.ensure_resource(SYSTEM, "fast", "mem", "/blobs/fast", "cache")
    add_user(zone, "u")
    zone.engine.put("u", "/home/u/f", b"payload")
    with pytest.raises(KindMismatch):
        zone.engine.stage("u", "/home/u/f", "tape")
    with pytest.raises(KindMismatch):
        zone.engine.archive("u", "/home/u/f", "fast")
    zone.engine.archive("u", "/home/u/f", "tape")
    zone.engine.stage("u", "/home/u/f", "fast")
    view = zone.catalog.get_object("/home/u/f")
    assert sorted(r.resource for r in view.replicas) == \
        ["fast", "main", "tape"]


def test_remove_orphans_archived_replica(zone):
    zone.ensure_resource(SYSTEM, "tape", "archive", "/blobs/tape", "archive")
    add_user(zone, "u")
    zone.engine.put("u", "/home/u/f", b"payload")
    zone.engine.archive("u", "/home/u/f", "tape")
    zone.engine.remove("u", "/home/u/f")
    orphans = zone.catalog.orphans()
    assert len(orphans) == 1 and orphans[0]["resource"] == "tape"
    assert orphans[0]["checksum"] == sha256_hex(b"payload")


def test_remove_orphans_a_replica_its_driver_cannot_unlink(zone):
    zone.register_driver(ADMIN, "flaky",
                         FaultDriver(MemDriver(), fail_unlink=True))
    zone.ensure_resource(SYSTEM, "r2", "flaky", "/blobs/r2", "cache")
    add_user(zone, "u")
    zone.engine.put("u", "/home/u/f", b"good")
    first, second = zone.engine.replicate("u", "/home/u/f", "r2").replicas
    assert (first.resource, second.resource) == ("main", "r2")
    zone.engine.remove("u", "/home/u/f")
    assert not zone.catalog.object_exists("/home/u/f")
    assert zone.drivers.get("mem").blobs == {}
    assert [(o["path"], o["resource"], o["physical_ref"], o["checksum"])
            for o in zone.catalog.orphans()] == \
        [("/home/u/f", "r2", second.physical_ref, sha256_hex(b"good"))]


def test_remove_disposes_of_a_replica_its_pre_rule_added(zone):
    zone.register_driver(ADMIN, "mem2", MemDriver())
    zone.ensure_resource(SYSTEM, "r2", "mem2", "/blobs/r2", "cache")
    add_user(zone, "u")
    zone.engine.put("u", "/home/u/f", b"payload")
    zone.engine.add_rules(ADMIN, '''
        rule copy_first on pep.data.remove.pre do
            replicate_to($obj.path, "r2")
    ''')
    zone.engine.remove("u", "/home/u/f")
    assert not zone.catalog.object_exists("/home/u/f")
    assert [r["args"]["resource"] for r in zone.catalog.records()
            if r["op"] == "replica.add"] == ["r2"]
    # No blob is left that neither a record nor an orphan entry names.
    assert zone.catalog.orphans() == []
    assert zone.drivers.get("mem").blobs == {}
    assert zone.drivers.get("mem2").blobs == {}


# How the engine disposes of the replica a put replaces or a remove drops,
# for each answer a driver's unlink can give: done ("gone"), Unsupported
# or another DriverError ("orphan": the put or remove stands and the
# replica goes on the orphan list), or NoSuchRef for a blob deleted out
# of band ("vanished").
DISPOSAL_DRIVERS = {
    "mem": (MemDriver, "gone"),
    "localfs": (LocalFsDriver, "gone"),
    "archive": (ArchiveDriver, "orphan"),
    "fail_unlink": (lambda: FaultDriver(MemDriver(), fail_unlink=True),
                    "orphan"),
    "vanished": (MemDriver, "vanished"),
}


@pytest.mark.parametrize("op", ["put", "remove"])
@pytest.mark.parametrize("kind", sorted(DISPOSAL_DRIVERS))
def test_replaced_or_removed_replica_is_disposed_of(zone, tmp_path, kind,
                                                   op):
    make, outcome = DISPOSAL_DRIVERS[kind]
    driver = make()
    zone.register_driver(ADMIN, "d", driver)
    zone.ensure_resource(SYSTEM, "r", "d", str(tmp_path / "blobs"), "cache")
    add_user(zone, "u")
    old = zone.engine.put("u", "/home/u/f", b"one", resource="r").replicas[0]
    if outcome == "vanished":
        driver.unlink(old.physical_ref)
    if op == "put":
        zone.engine.put("u", "/home/u/f", b"two", resource="r")
        assert zone.engine.get("u", "/home/u/f") == b"two"
    else:
        zone.engine.remove("u", "/home/u/f")
        assert not zone.catalog.object_exists("/home/u/f")
    orphans = [(o["path"], o["resource"], o["physical_ref"], o["checksum"])
               for o in zone.catalog.orphans()]
    if outcome == "orphan":
        assert orphans == [("/home/u/f", "r", old.physical_ref,
                            sha256_hex(b"one"))]
    else:
        assert orphans == []
        with pytest.raises(NoSuchRef):
            driver.read_all(old.physical_ref)


@pytest.mark.parametrize("op", ["put", "remove"])
def test_localfs_blob_turned_directory_is_disposed_of_as_unlink_failure(
        zone, tmp_path, op):
    zone.ensure_resource(SYSTEM, "disk", "localfs", str(tmp_path / "blobs"),
                         "cache")
    add_user(zone, "u")
    old = zone.engine.put("u", "/home/u/f", b"one",
                          resource="disk").replicas[0]
    os.remove(old.physical_ref)
    os.mkdir(old.physical_ref)  # the unlink now fails with an OSError
    if op == "put":
        assert zone.engine.put("u", "/home/u/f", b"two",
                               resource="disk").version == 2
    else:
        zone.engine.remove("u", "/home/u/f")
        assert not zone.catalog.object_exists("/home/u/f")
    assert [o["physical_ref"] for o in zone.catalog.orphans()] == \
        [old.physical_ref]


# ---------------------------------------------------------------------------
# Integrity: suspect marking and verification
# ---------------------------------------------------------------------------

def corrupt_replica(zone, path, resource):
    obj = zone.catalog.get_object(path)
    replica = next(r for r in obj.replicas if r.resource == resource)
    res = zone.catalog.get_resource(resource)
    driver = zone.drivers.get(res.driver_name)
    blob = driver.read_all(replica.physical_ref)
    driver.blobs[replica.physical_ref] = bytearray(
        bytes([blob[0] ^ 0xFF]) + blob[1:])
    return replica


def test_get_skips_corrupt_replica_and_marks_suspect(zone):
    zone.ensure_resource(SYSTEM, "r2", "mem", "/blobs/r2", "cache")
    add_user(zone, "u")
    zone.engine.put("u", "/home/u/f", b"payload")
    zone.engine.replicate("u", "/home/u/f", "r2")
    corrupt_replica(zone, "/home/u/f", "main")
    assert zone.engine.get("u", "/home/u/f") == b"payload"
    statuses = {r.resource: r.status
                for r in zone.catalog.get_object("/home/u/f").replicas}
    assert statuses == {"main": "suspect", "r2": "good"}


def test_read_object_returns_the_checksum_it_verified(zone):
    add_user(zone, "u")
    zone.engine.put("u", "/home/u/f", b"payload")
    assert zone.engine.read_object("u", "/home/u/f") == (
        b"payload", sha256_hex(b"payload"))
    assert zone.engine.get("u", "/home/u/f") == b"payload"


def test_path_locks_exclude_under_contention_and_then_go(zone):
    counts = {"/a": 0, "/b": 0}

    def bump(path):
        for _ in range(300):
            with zone.engine._path_lock(path):
                with zone.engine._path_lock(path):  # re-entrant
                    seen = counts[path]
                    time.sleep(0)
                    counts[path] = seen + 1

    threads = [threading.Thread(target=bump, args=(path,))
               for path in ("/a", "/b") * 3]
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
    assert counts == {"/a": 900, "/b": 900}
    assert len(zone.engine._path_locks) == 0


def test_path_lock_entry_goes_only_while_its_lock_is_dead(zone):
    engine = zone.engine
    lock = engine._path_lock("/x")
    ref = engine._path_locks["/x"]
    ref.__callback__(ref)  # as if an older lock's callback ran late
    assert engine._path_locks["/x"]() is lock  # the live lock stays

    def drop_under_guard():
        nonlocal lock
        with engine._path_locks_guard:
            lock = None  # the lock dies, and its callback runs, right here

    dropper = threading.Thread(target=drop_under_guard, daemon=True)
    dropper.start()
    dropper.join(timeout=10)
    assert not dropper.is_alive()
    assert engine._path_locks == {}


def test_all_replicas_suspect(zone):
    add_user(zone, "u")
    zone.engine.put("u", "/home/u/f", b"payload")
    corrupt_replica(zone, "/home/u/f", "main")
    with pytest.raises(AllReplicasSuspect):
        zone.engine.get("u", "/home/u/f")


def test_verify_object_repairs_both_directions(zone):
    add_user(zone, "u")
    zone.engine.put("u", "/home/u/f", b"payload")
    replica = corrupt_replica(zone, "/home/u/f", "main")
    assert zone.engine.verify_object("u", "/home/u/f") == \
        [("main", "suspect")]
    # Restore the bytes out of band; verify flips the replica back.
    driver = zone.drivers.get("mem")
    driver.blobs[replica.physical_ref] = bytearray(b"payload")
    assert zone.engine.verify_object("u", "/home/u/f") == [("main", "good")]


# ---------------------------------------------------------------------------
# Remote fetch caching
# ---------------------------------------------------------------------------

class StubResponse(io.BytesIO):
    status = 200

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def test_fetch_hits_network_once(zone):
    hits = []

    def opener(url, timeout=0):
        hits.append(url)
        return StubResponse(b"remote bytes")

    zone.engine.url_opener = opener
    p1, cached1 = zone.engine.fetch(ADMIN, "http://x/a", "/home/a")
    p2, cached2 = zone.engine.fetch(ADMIN, "http://x/a", "/home/a2")
    assert (p1, cached1) == ("/home/a", False)
    assert (p2, cached2) == ("/home/a", True)
    assert hits == ["http://x/a"]
    assert zone.engine.fetch_count == 1
    assert zone.engine.get(ADMIN, "/home/a") == b"remote bytes"


def test_fetch_cache_invalidated_when_object_changes(zone):
    def opener(url, timeout=0):
        return StubResponse(b"remote bytes")

    zone.engine.url_opener = opener
    zone.engine.fetch(ADMIN, "http://x/a", "/home/a")
    zone.engine.put(ADMIN, "/home/a", b"locally replaced")
    path, cached = zone.engine.fetch(ADMIN, "http://x/a", "/home/b")
    assert (path, cached) == ("/home/b", False)
    assert zone.engine.fetch_count == 2


def test_fetch_failure_maps_to_fetch_failed(zone):
    def opener(url, timeout=0):
        resp = StubResponse(b"gone")
        resp.status = 404
        return resp

    zone.engine.url_opener = opener
    with pytest.raises(FetchFailed):
        zone.engine.fetch(ADMIN, "http://x/missing", "/home/a")
    assert not zone.catalog.object_exists("/home/a")


# ---------------------------------------------------------------------------
# PEP fires before the effect
# ---------------------------------------------------------------------------

def test_pre_pep_fires_before_effect_in_journal(zone):
    add_user(zone, "u")
    zone.engine.put("u", "/home/u/f", b"hi")
    records = zone.catalog.records()
    pep_seq = next(r["seq"] for r in records
                   if r["op"] == "audit.append"
                   and "pep.data.put.pre" in r["args"]["detail"])
    put_seq = next(r["seq"] for r in records
                   if r["op"] == "object.put"
                   and r["args"]["path"] == "/home/u/f")
    assert pep_seq < put_seq


# ---------------------------------------------------------------------------
# The trap contract: exact audit and journal sequence of every trapped op
# ---------------------------------------------------------------------------

TRAP_WF = '''
procedure one($n) {
    put_int($n, "out.txt")
}
'''
TRAP_WF_ID = workflow_id_of(TRAP_WF)[0]


def trap_fixture(zone):
    """User u owning /home/u with one object, a second resource, a stream
    collection and a workflow collection with one procedure attached."""
    add_user(zone, "u")
    zone.engine.put("u", "/home/u/f", b"hi")
    zone.ensure_resource(SYSTEM, "second", "mem", "/blobs/second", "archive")
    zone.catalog.make_collection("u", "/home/u/s", kind="stream")
    zone.catalog.make_collection("u", "/home/u/wf", kind="workflow")
    zone.provenance.attach("u", "/home/u/wf", TRAP_WF)


# op -> (call, op audit entries after post, journal ops with no rules)
TRAP_OPS = {
    "data.put": (
        lambda z: z.engine.put("u", "/home/u/g", b"new"),
        [("data.put", "/home/u/g")],
        ["audit.append", "object.put", "audit.append", "audit.append"]),
    "data.get": (
        lambda z: z.engine.get("u", "/home/u/f"),
        [],
        ["audit.append", "audit.append"]),
    "data.remove": (
        lambda z: z.engine.remove("u", "/home/u/f"),
        [("data.remove", "/home/u/f")],
        ["audit.append", "object.remove", "audit.append", "audit.append"]),
    "data.replicate": (
        lambda z: z.engine.replicate("u", "/home/u/f", "second"),
        [("data.replicate", "/home/u/f -> second")],
        ["audit.append", "replica.add", "audit.append", "audit.append"]),
    "collection.create": (
        lambda z: z.engine.make_collection("u", "/home/u/c"),
        [],
        ["audit.append", "collection.create", "audit.append"]),
    "meta.add": (
        lambda z: z.engine.add_avu("u", "/home/u/f", "k", "v"),
        [],
        ["audit.append", "avu.add", "audit.append"]),
    "stream.ingest": (
        lambda z: z.streams.ingest(
            "u", "/home/u/s", pack_records([(1, b"a"), (2, b"b")])),
        [("stream.ingest", "/home/u/s seg=1 n=2")],
        ["audit.append", "stream.ingest", "audit.append", "audit.append"]),
    "workflow.run": (
        lambda z: z.provenance.run("u", TRAP_WF_ID, {"n": 7}),
        [("workflow.run", f"{TRAP_WF_ID[:12]} run=<id> status=ok")],
        ["audit.append", "object.put", "run.record", "audit.append",
         "audit.append", "collection.create", "object.put"]),
}

TRAP_RULES = {
    "deny": ('rule gate on {pep} do deny("closed")',
             Denied, "pep.deny", "closed"),
    "error": ("rule gate on {pep} when 1 + 1 do allow()",
              EngineError, "pep.error", "condition is not a boolean"),
}


@pytest.mark.parametrize("case", ["none", "deny", "error"])
@pytest.mark.parametrize("op", PEP_OPS)
def test_trap_contract_audit_and_journal(zone, op, case):
    trap_fixture(zone)
    call, op_audit, journal_ops = TRAP_OPS[op]
    pre, post = f"pep.{op}.pre", f"pep.{op}.post"
    if case != "none":
        rule, exc, event, detail = TRAP_RULES[case]
        zone.engine.add_rules(ADMIN, rule.format(pep=pre))
    audit_before = len(zone.catalog.audit_query(ADMIN))
    records_before = len(zone.catalog.records())
    digest_before = zone.catalog.data_state_digest()

    if case == "none":
        call(zone)
        want_audit = [("pep.allow", f"{pre} rule=-"),
                      ("pep.allow", f"{post} rule=-")] + op_audit
        want_journal = journal_ops
    else:
        with pytest.raises(exc):
            call(zone)
        want_audit = [(event, f"{pre} rule=gate {detail}")]
        want_journal = ["audit.append"]

    got_audit = [(e.event, re.sub(r"run=[0-9a-f]{32}", "run=<id>", e.detail))
                 for e in zone.catalog.audit_query(ADMIN)[audit_before:]]
    got_journal = [r["op"] for r in zone.catalog.records()[records_before:]]
    assert got_audit == want_audit
    assert got_journal == want_journal
    if case != "none":
        assert zone.catalog.data_state_digest() == digest_before
