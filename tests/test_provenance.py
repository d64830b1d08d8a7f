import json

import pytest

from pgzone.errors import (
    BadBindings,
    NoSuchObject,
    NotAWorkflowCollection,
    PermissionDenied,
    StaleInputs,
)
import pgzone.provenance
from pgzone.provenance import Provenance, static_input_paths, workflow_id_of
from pgzone.ruledsl import parse_procedure

from conftest import ADMIN, add_user, make_zone

STAMP = '''
procedure stamp($src, $dst, $n) {
    $c = checksum($src);
    set_avu($src, "seen.checksum", $c);
    put_int($n, $dst)
}
'''

STAMP_REFORMATTED = (
    'procedure   stamp ( $src,$dst , $n )  {checksum($src);'
    '}'  # different body, used only in the negative id test below
)


def make_wf_coll(zone, coll="/home/wf"):
    zone.catalog.make_collection(ADMIN, coll, kind="workflow")
    return coll


def attach_stamp(zone, coll=None):
    coll = coll or make_wf_coll(zone)
    wf = zone.provenance.attach(ADMIN, coll, STAMP)
    return coll, wf["id"]


def put_input(zone, path=b"/home/wf/in.dat", data=b"input bytes"):
    path = path.decode() if isinstance(path, bytes) else path
    zone.engine.put(ADMIN, path, data)
    return path


# ---------------------------------------------------------------------------
# Content addressing and attachment
# ---------------------------------------------------------------------------

def test_id_ignores_formatting():
    spaced = STAMP.replace("\n", " \n ").replace("    ", "\t")
    assert workflow_id_of(STAMP)[0] == workflow_id_of(spaced)[0]


def test_id_changes_with_body():
    other = STAMP.replace('"seen.checksum"', '"other.key"')
    assert workflow_id_of(STAMP)[0] != workflow_id_of(other)[0]


def test_attach_dedups_and_audits_once(zone):
    coll = make_wf_coll(zone)
    wf1 = zone.provenance.attach(ADMIN, coll, STAMP)
    wf2 = zone.provenance.attach(ADMIN, coll, "  " + STAMP)
    assert wf1["id"] == wf2["id"]
    events = zone.catalog.audit_query(ADMIN, event="workflow.attach")
    assert len(events) == 1


def test_attach_requires_workflow_collection(zone):
    zone.catalog.make_collection(ADMIN, "/home/plain")
    with pytest.raises(NotAWorkflowCollection):
        zone.provenance.attach(ADMIN, "/home/plain", STAMP)


def test_attach_requires_write(zone):
    coll = make_wf_coll(zone)
    add_user(zone, "u")
    with pytest.raises(PermissionDenied):
        zone.provenance.attach("u", coll, STAMP)


def test_static_inputs_found_in_literals():
    _, _, ast = workflow_id_of('''
        procedure p($x) {
            checksum("in/a.dat");
            replicate_to("/abs/b.dat", "vault");
            checksum($x)
        }
    ''')
    assert static_input_paths(ast, "/wf") == ["/abs/b.dat", "/wf/in/a.dat"]


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------

def run_stamp(zone, coll, wf_id, n=41, dst="/home/wf/out.txt"):
    return zone.provenance.run(ADMIN, wf_id, {
        "src": "/home/wf/in.dat", "dst": dst, "n": n})


def test_run_records_inputs_outputs_and_status(zone):
    coll, wf_id = attach_stamp(zone)
    src = put_input(zone)
    rec = run_stamp(zone, coll, wf_id)
    assert rec["status"] == "ok"
    assert rec["workflow_id"] == wf_id
    assert rec["user"] == ADMIN
    assert rec["coll"] == coll
    assert rec["bindings"] == {"src": src, "dst": "/home/wf/out.txt",
                               "n": 41}
    src_checksum = zone.catalog.get_object(src).checksum
    assert rec["inputs"] == {src: src_checksum}
    out_checksum = zone.catalog.get_object("/home/wf/out.txt").checksum
    assert rec["outputs"] == {"/home/wf/out.txt": out_checksum}
    assert rec["t_start"] <= rec["t_end"]
    assert zone.engine.get(ADMIN, "/home/wf/out.txt") == b"41"


def test_run_exported_as_json_object(zone):
    coll, wf_id = attach_stamp(zone)
    put_input(zone)
    rec = run_stamp(zone, coll, wf_id)
    blob = zone.engine.get(ADMIN, f"{coll}/runs/{rec['run_id']}.json")
    assert json.loads(blob) == rec
    assert zone.provenance.run_record(rec["run_id"]) == rec


def test_a_returned_run_record_is_the_callers_to_change(zone):
    """Provenance.run and Catalog.run hand out copies: changing one, to
    its nested dicts and lists, changes neither the stored record nor
    the state's digest."""
    coll, wf_id = attach_stamp(zone)
    put_input(zone)
    rec = run_stamp(zone, coll, wf_id)
    stored = json.loads(json.dumps(zone.catalog.run(rec["run_id"])))
    digest = zone.catalog.data_state_digest()
    for copy in (rec, zone.catalog.run(rec["run_id"]),
                 zone.provenance.run_record(rec["run_id"])):
        copy["status"] = "changed"
        copy["bindings"]["n"] = -1
        copy["inputs"].clear()
        copy["outputs"]["/elsewhere"] = "0" * 64
        assert zone.catalog.run(rec["run_id"]) == stored
        assert zone.catalog.data_state_digest() == digest
    orphans = zone.catalog.orphans()
    orphans.append({"path": "/x"})
    assert zone.catalog.orphans() == []


def test_relative_paths_resolve_against_collection(zone):
    coll = make_wf_coll(zone)
    wf = zone.provenance.attach(ADMIN, coll, '''
        procedure rel($n) { put_int($n, "result.txt") }
    ''')
    rec = zone.provenance.run(ADMIN, wf["id"], {"n": 7})
    assert rec["outputs"].keys() == {f"{coll}/result.txt"}
    assert zone.engine.get(ADMIN, f"{coll}/result.txt") == b"7"


def test_missing_static_input_refuses_to_start(zone):
    coll = make_wf_coll(zone)
    wf = zone.provenance.attach(ADMIN, coll, '''
        procedure probe() { $c = checksum("missing.dat"); audit_msg($c) }
    ''')
    with pytest.raises(NoSuchObject):
        zone.provenance.run(ADMIN, wf["id"], {})
    # Nothing was executed, so nothing was audited by the body.
    assert zone.catalog.audit_query(ADMIN, event="user.message") == []


@pytest.mark.parametrize("bindings", [
    {},                                        # all missing
    {"src": "/x", "dst": "/y"},                # one missing
    {"src": "/x", "dst": "/y", "n": 1, "zz": 2},  # extra
    {"src": "/x", "dst": "/y", "n": 1.5},      # bad type
    {"src": b"/x", "dst": "/y", "n": 1},       # bad type
])
def test_bad_bindings_rejected(zone, bindings):
    coll, wf_id = attach_stamp(zone)
    with pytest.raises(BadBindings):
        zone.provenance.run(ADMIN, wf_id, bindings)


def test_failed_run_taints_outputs(zone):
    coll = make_wf_coll(zone)
    wf = zone.provenance.attach(ADMIN, coll, '''
        procedure boom($dst) { put_int(1, $dst); deny("abort run") }
    ''')
    rec = zone.provenance.run(ADMIN, wf["id"], {"dst": "/home/wf/part.txt"})
    assert rec["status"] == "failed"
    assert "abort run" in rec["detail"]
    assert rec["outputs"] == {}
    replicas = zone.catalog.get_object("/home/wf/part.txt").replicas
    assert all(r.status == "suspect" for r in replicas)


def test_run_requires_write_on_collection(zone):
    coll, wf_id = attach_stamp(zone)
    put_input(zone)
    add_user(zone, "u")
    with pytest.raises(PermissionDenied):
        zone.provenance.run("u", wf_id, {
            "src": "/home/wf/in.dat", "dst": "/home/wf/o", "n": 1})


# ---------------------------------------------------------------------------
# Rerun
# ---------------------------------------------------------------------------

def test_rerun_reproduces_outputs(zone):
    coll, wf_id = attach_stamp(zone)
    put_input(zone)
    first = run_stamp(zone, coll, wf_id)
    second = zone.provenance.rerun(ADMIN, first["run_id"])
    assert second["run_id"] != first["run_id"]
    assert second["outputs"] == first["outputs"]
    diff = zone.provenance.diff_runs(first["run_id"], second["run_id"])
    assert diff["outputs"]["identical"] == ["/home/wf/out.txt"]
    assert diff["outputs"]["differing"] == []
    assert diff["bindings"] == {}
    assert diff["workflow_mismatch"] is False


def test_rerun_refuses_stale_inputs(zone):
    coll, wf_id = attach_stamp(zone)
    src = put_input(zone)
    first = run_stamp(zone, coll, wf_id)
    zone.engine.put(ADMIN, src, b"mutated after the run")
    with pytest.raises(StaleInputs) as exc:
        zone.provenance.rerun(ADMIN, first["run_id"])
    assert src in str(exc.value)


def test_rerun_refuses_removed_inputs(zone):
    coll, wf_id = attach_stamp(zone)
    src = put_input(zone)
    first = run_stamp(zone, coll, wf_id)
    zone.engine.remove(ADMIN, src)
    with pytest.raises(StaleInputs):
        zone.provenance.rerun(ADMIN, first["run_id"])


def test_rerun_override_validation(zone):
    coll, wf_id = attach_stamp(zone)
    put_input(zone)
    first = run_stamp(zone, coll, wf_id)
    with pytest.raises(BadBindings, match="nope"):
        zone.provenance.rerun(ADMIN, first["run_id"], {"nope": 1})


def test_rerun_with_override_diffs_cleanly(zone):
    coll, wf_id = attach_stamp(zone)
    put_input(zone)
    first = run_stamp(zone, coll, wf_id, n=1)
    second = zone.provenance.rerun(ADMIN, first["run_id"], {"n": 2})
    diff = zone.provenance.diff_runs(first["run_id"], second["run_id"])
    assert diff["outputs"]["differing"] == ["/home/wf/out.txt"]
    assert diff["outputs"]["identical"] == []
    assert diff["bindings"] == {"n": {"a": 1, "b": 2}}


def test_diff_flags_workflow_mismatch(zone):
    coll, wf_id = attach_stamp(zone)
    put_input(zone)
    first = run_stamp(zone, coll, wf_id)
    other = zone.provenance.attach(ADMIN, coll, '''
        procedure solo($dst) { put_int(9, $dst) }
    ''')
    second = zone.provenance.run(ADMIN, other["id"],
                                 {"dst": "/home/wf/other.txt"})
    diff = zone.provenance.diff_runs(first["run_id"], second["run_id"])
    assert diff["workflow_mismatch"] is True
    assert diff["outputs"]["only_in_a"] == ["/home/wf/out.txt"]
    assert diff["outputs"]["only_in_b"] == ["/home/wf/other.txt"]


# ---------------------------------------------------------------------------
# The parsed procedure of each workflow id, kept per process
# ---------------------------------------------------------------------------

def count_parses(monkeypatch) -> list[str]:
    """Every source pgzone.provenance parses from here on."""
    parsed: list[str] = []

    def counting(source):
        parsed.append(source)
        return parse_procedure(source)

    monkeypatch.setattr(pgzone.provenance, "parse_procedure", counting)
    return parsed


def test_runs_and_rerun_parse_the_procedure_once(zone, monkeypatch):
    coll, wf_id = attach_stamp(zone)
    put_input(zone)
    parsed = count_parses(monkeypatch)
    runs = [run_stamp(zone, coll, wf_id, n=n) for n in range(5)]
    zone.provenance.rerun(ADMIN, runs[0]["run_id"], {"n": 9})
    assert parsed == [zone.provenance.workflow(wf_id)["source"]]


def test_reopened_zone_parses_on_its_first_run(tmp_path, monkeypatch):
    zone = make_zone(str(tmp_path))
    coll, wf_id = attach_stamp(zone)
    put_input(zone)
    run_stamp(zone, coll, wf_id)
    zone.close()
    parsed = count_parses(monkeypatch)
    zone = make_zone(str(tmp_path))
    try:
        run_stamp(zone, coll, wf_id, n=1)
        assert len(parsed) == 1
        run_stamp(zone, coll, wf_id, n=2)
        assert len(parsed) == 1
    finally:
        zone.close()


def test_denied_run_leaves_the_cached_tree_as_parsed(zone):
    coll = make_wf_coll(zone)
    source = '''
        procedure halt($dsts) {
            foreach $d in $dsts {
                put_int(1, $d);
                if $d == "/home/wf/b.txt" { deny("stop at b") }
                else { $last = $d }
            }
        }
    '''
    wf_id = zone.provenance.attach(ADMIN, coll, source)["id"]
    for _ in range(2):
        rec = zone.provenance.run(ADMIN, wf_id, {"dsts": [
            "/home/wf/a.txt", "/home/wf/b.txt", "/home/wf/c.txt"]})
        assert rec["status"] == "failed" and "stop at b" in rec["detail"]
        assert zone.provenance._procedures[wf_id] == parse_procedure(source)
    assert not zone.catalog.object_exists("/home/wf/c.txt")


def test_cached_runs_match_a_fresh_provenance(zone):
    coll, wf_id = attach_stamp(zone)
    put_input(zone)
    fields = ("status", "detail", "inputs", "outputs")
    for n in (3, 4, 3):
        cached = run_stamp(zone, coll, wf_id, n=n)
        fresh = Provenance(zone.engine).run(ADMIN, wf_id, {
            "src": "/home/wf/in.dat", "dst": "/home/wf/out.txt", "n": n})
        assert [cached[f] for f in fields] == [fresh[f] for f in fields]
    assert len(zone.provenance._procedures) == 1
