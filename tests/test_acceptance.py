"""End-to-end acceptance checks.

Each test covers one advertised guarantee, times itself against the
stated budget, and prints a single verdict line. Run with `pytest -rP`
(the repo default) or `-s` to see the lines.
"""

import fnmatch
import hashlib
import json
import random
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

from pgzone.catalog import Catalog
from pgzone.common import SYSTEM, sha256_hex
from pgzone.drivers import MemDriver
from pgzone.errors import Denied, ParseError, StaleInputs
from pgzone.gateway.client import ZoneClient
from pgzone.gateway.server import GatewayServer
from pgzone.ruledsl import parse_rules, print_rule
from pgzone.streams import pack_records
from pgzone.testing import free_port

from conftest import ADMIN, ADMIN_SECRET, add_user, make_zone


@contextmanager
def criterion(n: int, label: str, limit_s: float):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {n} {label}: FAIL")
        raise
    dt = time.perf_counter() - t0
    if dt >= limit_s:
        print(f"ACCEPTANCE {n} {label}: FAIL "
              f"(took {dt:.2f}s, budget {limit_s}s)")
        raise AssertionError(
            f"criterion {n} blew its {limit_s}s budget: {dt:.2f}s")
    print(f"ACCEPTANCE {n} {label}: PASS ({dt:.2f}s)")


# ---------------------------------------------------------------------------
# 1. Deletion-policy matrix
# ---------------------------------------------------------------------------

def test_deletion_policy_matrix():
    with criterion(1, "deletion-policy matrix", 1.0):
        zone = make_zone()
        try:
            add_user(zone, "owner")
            add_user(zone, "other")
            for coll in ("/archive", "/curated", "/keep"):
                zone.catalog.make_collection(ADMIN, coll)
                zone.catalog.set_acl(ADMIN, coll, "owner", "write")
                zone.catalog.set_acl(ADMIN, coll, "other", "write")
            zone.engine.add_rules(ADMIN, '''
                rule archive_permanent on pep.data.remove.pre
                    when $obj.path matches "/archive/*"
                    do deny("archived data is permanent")
                rule curated_admin_only on pep.data.remove.pre
                    when $obj.path matches "/curated/*"
                        && $user.role != "admin"
                    do deny("curation is admin-managed")
                rule keep_owner_only on pep.data.remove.pre
                    when $obj.path matches "/keep/*"
                        && $user.name != $obj.owner
                    do deny("only the owner may drop this")
            ''')

            expected = {
                ("/archive", ADMIN): False,
                ("/archive", "owner"): False,
                ("/archive", "other"): False,
                ("/curated", ADMIN): True,
                ("/curated", "owner"): False,
                ("/curated", "other"): False,
                ("/keep", ADMIN): False,
                ("/keep", "owner"): True,
                ("/keep", "other"): False,
            }
            # One object per matrix cell, all owned by "owner".
            for i, (coll, actor) in enumerate(expected):
                zone.engine.put("owner", f"{coll}/cell{i}", b"payload")

            got = {}
            for i, (coll, actor) in enumerate(expected):
                path = f"{coll}/cell{i}"
                before = zone.catalog.data_state_digest()
                try:
                    zone.engine.remove(actor, path)
                    got[(coll, actor)] = True
                except Denied:
                    got[(coll, actor)] = False
                    # A denied remove must not change any state.
                    assert zone.catalog.data_state_digest() == before, \
                        (coll, actor)
                    assert zone.catalog.object_exists(path)
            assert got == expected
        finally:
            zone.close()


# ---------------------------------------------------------------------------
# 2. Live policy change over the network
# ---------------------------------------------------------------------------

def test_live_policy_flip_over_network():
    zone = make_zone()
    server = GatewayServer(zone, host="127.0.0.1", port=free_port()).start()
    try:
        admin = ZoneClient(server.url)
        admin.login(ADMIN, ADMIN_SECRET)
        admin.put("/home/live.txt", b"watch me")
        with criterion(2, "live policy change, no restart", 1.0):
            admin.add_rules('rule lockdown on pep.data.get.pre '
                            'do deny("read freeze")')
            from pgzone.gateway.client import ClientError
            with pytest.raises(ClientError) as exc:
                admin.get("/home/live.txt")
            assert exc.value.status == 403

            admin.remove_rule("lockdown")
            assert admin.get("/home/live.txt") == b"watch me"

            events = [e["event"] for e in admin.audit()
                      if "pep.data.get.pre" in e["detail"]]
            assert "pep.deny" in events and "pep.allow" in events
    finally:
        server.shutdown()
        zone.close()


# ---------------------------------------------------------------------------
# 3. Stream reads against a brute-force oracle
# ---------------------------------------------------------------------------

def test_stream_reads_match_bruteforce_oracle():
    with criterion(3, "stream interval oracle", 10.0):
        rng = random.Random(0x5EED)
        zone = make_zone()
        try:
            coll = "/feed"
            zone.catalog.make_collection(ADMIN, coll, kind="stream")

            oracle = []  # (t, seg_id, idx, payload) in global order key
            total = 0
            for _ in range(100):
                n = min(rng.randint(1, 10), 1000 - total)
                if n <= 0:
                    break
                t = rng.randint(0, 500)
                records = []
                for idx in range(n):
                    t += rng.randint(0, 20)
                    records.append((t, rng.randbytes(rng.randint(0, 32))))
                entry = zone.streams.ingest(ADMIN, coll,
                                            pack_records(records))
                for idx, (ts, payload) in enumerate(records):
                    oracle.append((ts, entry.segment_id, idx, payload))
                total += n
            assert total <= 1000
            oracle.sort(key=lambda r: r[:3])
            t_max = max(r[0] for r in oracle)

            def oracle_bytes(lo, hi):
                hits = [(t, p) for t, _s, _i, p in oracle if lo <= t < hi]
                return pack_records(hits) if hits else b""

            for _ in range(200):
                lo = rng.randint(0, t_max + 10)
                hi = rng.randint(lo, t_max + 10)
                got = zone.streams.read_framed(ADMIN, coll, lo, hi)
                assert got == oracle_bytes(lo, hi), (lo, hi)

            # Adjacent intervals concatenate exactly.
            for _ in range(50):
                cuts = sorted(rng.randint(0, t_max + 10) for _ in range(3))
                a, b, c = cuts
                left = zone.streams.read_framed(ADMIN, coll, a, b)
                right = zone.streams.read_framed(ADMIN, coll, b, c)
                whole = zone.streams.read_framed(ADMIN, coll, a, c)
                assert left + right == whole, (a, b, c)
        finally:
            zone.close()


# ---------------------------------------------------------------------------
# 4. Metadata queries against a linear-scan oracle
# ---------------------------------------------------------------------------

def test_avu_queries_match_linear_scan():
    with criterion(4, "metadata query oracle", 10.0):
        rng = random.Random(0xAE0)
        zone = make_zone()
        try:
            zone.catalog.make_collection(ADMIN, "/m")
            names = ["exp.run", "exp.site", "color", "size", "lab/unit",
                     "s?mple", "st*r"]
            values = ["a", "b", "ab", "a/b", "x1", "x22", "", "deep/er/v",
                      "UPPER", "mixedCase"]

            paths = [f"/m/o{i:04d}" for i in range(500)]
            for p in paths:
                zone.catalog.put_object(p, ADMIN, "main", f"ref{p}",
                                        sha256_hex(p.encode()), 1)
            triples: dict[str, set[tuple[str, str, str]]] = {
                p: set() for p in paths}
            added = 0
            while added < 10_000:
                p = rng.choice(paths)
                t = (rng.choice(names), rng.choice(values),
                     rng.choice(["", "c1"]))
                if t in triples[p]:
                    continue
                zone.catalog.add_avu(ADMIN, p, *t)
                triples[p].add(t)
                added += 1

            literals = values + names + ["exp.*", "*", "?", "a*", "*b",
                                         "x?", "*/*", "a?b", "*er*"]

            def clause_hit(triple, field, op, lit):
                actual = triple[0] if field == "name" else triple[1]
                if op == "=":
                    return actual == lit
                if op == "!=":
                    return actual != lit
                return fnmatch.fnmatchcase(actual, lit)

            for _ in range(100):
                clauses = [(rng.choice(["name", "value"]),
                            rng.choice(["=", "!=", "like"]),
                            rng.choice(literals))
                           for _ in range(rng.randint(1, 3))]
                text = " and ".join(f'{f} {op} "{lit}"'
                                    for f, op, lit in clauses)
                want = sorted(
                    p for p, ts in triples.items()
                    if any(all(clause_hit(t, *cl) for cl in clauses)
                           for t in ts))
                assert zone.catalog.query_avu(text) == want, text
        finally:
            zone.close()


# ---------------------------------------------------------------------------
# 5. Workflow provenance: rerun, stale inputs, diffs
# ---------------------------------------------------------------------------

WORKFLOWS = {
    "/wfa": ('''
        procedure stamp($n) {
            $c = checksum("in.dat");
            set_avu("in.dat", "seen", $c);
            put_int($n, "out.txt")
        }''', {"n": 41}),
    "/wfb": ('''
        procedure pair($a, $b) {
            put_int($a, "o1");
            put_int($b, "o2")
        }''', {"a": 1, "b": 2}),
    "/wfc": ('''
        procedure gate($flag) {
            if $flag { put_int(1, "flag.txt") }
            else { put_int(0, "flag.txt") }
        }''', {"flag": True}),
    "/wfd": ('''
        procedure tagged($tags, $n) {
            foreach $t in $tags { set_avu("src.dat", "tag", $t) };
            $c = checksum("src.dat");
            put_int($n, "sum.txt")
        }''', {"tags": ["red", "blue"], "n": 9}),
    "/wfe": ('''
        procedure scale($n) {
            $v = $n * 3 + 1;
            put_int($v, "scaled.txt")
        }''', {"n": -13}),
}


def test_provenance_rerun_stale_and_diff():
    with criterion(5, "provenance rerun/stale/diff", 5.0):
        zone = make_zone()
        try:
            first_runs = {}
            for coll, (source, bindings) in WORKFLOWS.items():
                zone.catalog.make_collection(ADMIN, coll, kind="workflow")
                for input_name in ("in.dat", "src.dat"):
                    if f'"{input_name}"' in source:
                        zone.engine.put(ADMIN, f"{coll}/{input_name}",
                                        f"input of {coll}".encode())
                wf = zone.provenance.attach(ADMIN, coll, source)
                first_runs[coll] = zone.provenance.run(ADMIN, wf["id"],
                                                       bindings)
                assert first_runs[coll]["status"] == "ok"

            # Reruns reproduce every output checksum exactly.
            for coll, first in first_runs.items():
                again = zone.provenance.rerun(ADMIN, first["run_id"])
                assert again["status"] == "ok", coll
                assert again["outputs"] == first["outputs"], coll
                diff = zone.provenance.diff_runs(first["run_id"],
                                                 again["run_id"])
                assert diff["outputs"]["differing"] == [], coll
                assert diff["outputs"]["only_in_a"] == [], coll

            # Mutating one recorded input blocks the rerun.
            zone.engine.put(ADMIN, "/wfa/in.dat", b"changed afterwards")
            with pytest.raises(StaleInputs):
                zone.provenance.rerun(ADMIN, first_runs["/wfa"]["run_id"])

            # Overriding one binding shows up as exactly one changed output.
            base = first_runs["/wfb"]
            varied = zone.provenance.rerun(ADMIN, base["run_id"], {"b": 3})
            diff = zone.provenance.diff_runs(base["run_id"],
                                             varied["run_id"])
            assert diff["outputs"]["differing"] == ["/wfb/o2"]
            assert diff["outputs"]["identical"] == ["/wfb/o1"]
            assert diff["bindings"] == {"b": {"a": 2, "b": 3}}
        finally:
            zone.close()


# ---------------------------------------------------------------------------
# 6. Hot pluggability under load
# ---------------------------------------------------------------------------

def test_hot_plug_under_concurrent_load():
    with criterion(6, "hot plug under load", 30.0):
        zone = make_zone()
        switch_interval = sys.getswitchinterval()
        try:
            zone.catalog.make_collection(ADMIN, "/hot")
            n_threads, n_iters = 10, 400
            barrier = threading.Barrier(n_threads + 1)
            failures: list[Exception] = []
            done_counts = [0] * n_threads

            def worker(k: int):
                try:
                    zone.catalog.make_collection(ADMIN, f"/hot/t{k}")
                    barrier.wait()
                    payload = bytes([k]) * 1024
                    for j in range(n_iters):
                        path = f"/hot/t{k}/f{j % 7}"
                        zone.engine.put(ADMIN, path, payload + str(j).encode())
                        assert zone.engine.get(ADMIN, path).startswith(payload)
                        done_counts[k] = j + 1
                except Exception as e:  # noqa: BLE001 - report to the main thread
                    failures.append(e)

            threads = [threading.Thread(target=worker, args=(k,))
                       for k in range(n_threads)]
            # Each step of the main thread waits for the interpreter lock
            # behind ten busy workers; at the default 5 ms switch interval
            # its registrations could outlast the load.
            sys.setswitchinterval(0.0005)
            for t in threads:
                t.start()
            barrier.wait()
            time.sleep(0.05)  # let the loops get going

            # Register everything while traffic is in flight.
            def hot_tag(ctx, *args):
                ctx.engine.catalog.add_avu(ctx.actor, ctx.resolve(args[0]),
                                           "hot.plugged", "yes")
                return ""

            zone.register_driver(ADMIN, "hotmem", MemDriver())
            zone.ensure_resource(SYSTEM, "hotres", "hotmem",
                                 "/blobs/hot", "cache")
            zone.engine.register_microservice(ADMIN, "hot_tag", hot_tag, 1, 1)
            zone.engine.add_rules(ADMIN, '''
                rule tag_plugged on pep.data.put.post
                    when $obj.path matches "/hot/plug/*"
                    do hot_tag($obj.path)
            ''')
            assert any(t.is_alive() for t in threads), \
                "load finished before the hot plug; raise n_iters"

            # All four new pieces are usable immediately.
            zone.catalog.make_collection(ADMIN, "/hot/plug")
            view = zone.engine.put(ADMIN, "/hot/plug/first", b"fresh",
                                   resource="hotres")
            assert view.replicas[0].resource == "hotres"
            avus = {a.attr_name: a.attr_value
                    for a in zone.catalog.avus("/hot/plug/first")}
            assert avus.get("hot.plugged") == "yes"
            assert zone.engine.get(ADMIN, "/hot/plug/first") == b"fresh"

            for t in threads:
                t.join(timeout=25)
            assert failures == []
            assert done_counts == [n_iters] * n_threads
        finally:
            sys.setswitchinterval(switch_interval)
            zone.close()


# ---------------------------------------------------------------------------
# 7. Replica corruption is detected and isolated
# ---------------------------------------------------------------------------

def test_replica_fault_detected_and_survived():
    with criterion(7, "replica fault isolation", 5.0):
        zone = make_zone()
        try:
            for name in ("r2", "r3"):
                zone.register_driver(ADMIN, f"mem-{name}", MemDriver())
                zone.ensure_resource(SYSTEM, name, f"mem-{name}",
                                     f"/blobs/{name}", "cache")
            zone.catalog.make_collection(ADMIN, "/d")
            body = b"three copies of me"
            zone.engine.put(ADMIN, "/d/f", body)  # main
            zone.engine.replicate(ADMIN, "/d/f", "r2")
            zone.engine.replicate(ADMIN, "/d/f", "r3")

            # Corrupt the first replica in read order, out of band.
            obj = zone.catalog.get_object("/d/f")
            victim = next(r for r in obj.replicas if r.resource == "main")
            driver = zone.drivers.get("mem")
            blob = driver.read_all(victim.physical_ref)
            driver.blobs[victim.physical_ref] = bytearray(
                bytes([blob[0] ^ 0x01]) + blob[1:])

            assert zone.engine.verify_object(ADMIN, "/d/f") == [
                ("main", "suspect"), ("r2", "good"), ("r3", "good")]
            statuses = {r.resource: r.status
                        for r in zone.catalog.get_object("/d/f").replicas}
            assert statuses == {"main": "suspect", "r2": "good",
                                "r3": "good"}
            assert zone.engine.get(ADMIN, "/d/f") == body
        finally:
            zone.close()


# ---------------------------------------------------------------------------
# 8. Remote fetches are cached
# ---------------------------------------------------------------------------

def test_fetch_caching_against_counting_server():
    with criterion(8, "fetch caching", 2.0):
        hits = {"n": 0}
        payload = b"one download ought to be enough"

        class CountingHandler(BaseHTTPRequestHandler):
            def do_GET(self):
                hits["n"] += 1
                self.send_response(200)
                self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                self.wfile.write(payload)

            def log_message(self, fmt, *args):
                pass

        httpd = ThreadingHTTPServer(("127.0.0.1", 0), CountingHandler)
        threading.Thread(target=httpd.serve_forever, daemon=True).start()
        url = f"http://127.0.0.1:{httpd.server_port}/data.bin"
        zone = make_zone()
        try:
            zone.catalog.make_collection(ADMIN, "/wf", kind="workflow")
            wf = zone.provenance.attach(ADMIN, "/wf", f'''
                procedure pull() {{
                    $p = http_fetch("{url}", "mirror.bin");
                    set_avu($p, "fetched.from", "{url}")
                }}''')
            rec1 = zone.provenance.run(ADMIN, wf["id"], {})
            rec2 = zone.provenance.run(ADMIN, wf["id"], {})
            assert rec1["status"] == "ok" and rec2["status"] == "ok"
            assert hits["n"] == 1, "second fetch must come from the cache"
            want = hashlib.sha256(payload).hexdigest()
            assert zone.catalog.get_object("/wf/mirror.bin").checksum == want
            # The cached call reports the same bytes it stored.
            assert rec2["inputs"] == {"/wf/mirror.bin": want}
            assert zone.engine.get(ADMIN, "/wf/mirror.bin") == payload
        finally:
            zone.close()
            httpd.shutdown()
            httpd.server_close()


# ---------------------------------------------------------------------------
# 9. Parser round trip and fuzzing
# ---------------------------------------------------------------------------

RULE_CORPUS = '''
rule plain on pep.data.put.pre do allow()
rule reasoned on pep.data.put.pre do deny("spelled out")
rule prio priority 42 on pep.data.get.pre do allow()
rule negprio priority -3 on pep.data.get.post do allow()
rule guarded on pep.data.remove.pre when $user.role != "admin" do deny("no")
rule globbed on pep.data.remove.pre when $obj.path matches "/a/*/b?" do allow()
rule arith on pep.data.put.pre when ($x + 2) * 3 - -4 / 2 == 10 do allow()
rule modded on pep.data.put.pre when $x / 5 * 5 == $x do deny("fifth")
rule boolean on pep.data.put.pre when true && !false || $f do allow()
rule compare on pep.data.put.pre when 1 < 2 && 2 <= 2 && 3 > 2 && 2 >= 2 do allow()
rule unequal on pep.data.put.pre when $a != "b" do allow()
rule escaped on pep.meta.add.pre when $v == "line\\nquote\\"end\\\\tail" do deny("esc")
rule chained on pep.data.put.post do set_avu($obj.path, "k", "v"); audit_msg("two")
rule assigned on pep.data.put.post do $c = checksum($obj.path); set_avu($obj.path, "sum", $c)
rule branching on pep.data.put.pre do if $user.name == "root" { allow() } else { deny("not root") }
rule nested_if on pep.data.put.pre do if $a { if $b { allow() } } else { deny("outer") }
rule looped on pep.data.replicate.post do foreach $t in $targets { replicate_to($obj.path, $t) }
rule loop_body on pep.data.replicate.post do foreach $t in $targets { audit_msg($t); audit_msg("next") }
rule minint on pep.data.put.pre when $x == -9223372036854775808 do allow()
rule maxint on pep.data.put.pre when $x == 9223372036854775807 do deny("big")
rule collpep on pep.collection.create.pre when $coll.path matches "/tmp/*" do deny("no tmp")
rule metapep on pep.meta.add.post do audit_msg("meta changed")
rule streampep on pep.stream.ingest.pre when $user.role == "user" do deny("staff only")
rule wfpep on pep.workflow.run.pre do allow()
'''

FUZZ_VOCAB = [
    "rule", "on", "do", "when", "priority", "procedure", "foreach", "in",
    "if", "else", "allow()", "deny(", "matches", "&&", "||", "!", "==",
    "!=", "<=", ">=", "<", ">", "+", "-", "*", "/", "(", ")", "{",
    "}", ";", ",", "=", "$x", "$user.name", "$obj.path", "pep.data.put.pre",
    '"str"', '"a\\"b"', "0", "1", "-1", "9223372036854775807", "name",
    "set_avu", "true", "false", '"', "\\", "$", "#", "# comment", "\n",
]


def test_parser_round_trip_and_fuzz():
    with criterion(9, "parser round trip + fuzz", 60.0):
        rules1 = parse_rules(RULE_CORPUS)
        assert len(rules1) >= 20
        printed1 = "\n".join(print_rule(r) for r in rules1)
        rules2 = parse_rules(printed1)
        printed2 = "\n".join(print_rule(r) for r in rules2)
        assert rules1 == rules2
        assert printed1 == printed2

        rng = random.Random(0xF022)
        corpus_lines = [ln for ln in RULE_CORPUS.splitlines() if ln.strip()]
        survived = 0
        for i in range(100_000):
            roll = rng.random()
            if roll < 0.70:
                text = " ".join(rng.choice(FUZZ_VOCAB)
                                for _ in range(rng.randint(1, 12)))
            elif roll < 0.90:
                chars = list(rng.choice(corpus_lines))
                for _ in range(rng.randint(1, 4)):
                    op = rng.random()
                    pos = rng.randrange(len(chars)) if chars else 0
                    if op < 0.4 and chars:
                        del chars[pos]
                    elif op < 0.8:
                        chars.insert(pos, chr(rng.randint(32, 126)))
                    elif chars:
                        chars[pos] = chr(rng.randint(1, 0x2FF))
                text = "".join(chars)
            elif roll < 0.99:
                text = "".join(chr(rng.randint(1, 0x2FF))
                               for _ in range(rng.randint(0, 30)))
            else:
                depth = rng.randint(50, 500)
                text = ("rule d on pep.data.put.pre when "
                        + "(" * depth + "1" + ")" * depth + " == 1 do allow()")
            try:
                parse_rules(text)
                survived += 1
            except ParseError:
                pass
            # Anything else escapes and fails the test.
        assert survived > 0  # sanity: some fuzz inputs are valid rules


# ---------------------------------------------------------------------------
# 10. Crash recovery replays to the oracle state
# ---------------------------------------------------------------------------

def test_crash_recovery_matches_shadow_state(tmp_path):
    with criterion(10, "crash recovery replay", 10.0):
        journal_dir = tmp_path / "journal"
        journal_dir.mkdir()
        shadow = tmp_path / "shadow.json"
        helper = Path(__file__).with_name("_crash_session.py")
        proc = subprocess.run(
            [sys.executable, str(helper), str(journal_dir), str(shadow),
             "20260814", "500"],
            capture_output=True, text=True, timeout=30)
        assert proc.returncode == 3, proc.stderr

        recovered = Catalog(journal_dir)
        try:
            assert recovered.state_dict() == json.loads(shadow.read_text())
        finally:
            recovered.close()
