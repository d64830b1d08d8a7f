"""Subprocess half of the crash-recovery test.

Runs a random catalog session, dumps the expected state to a shadow
file, appends a torn half-record to the journal and to the audit
trail's file, and dies with os._exit so no close/flush hooks run. The
parent reopens the journal directory and compares.

Usage: python _crash_session.py JOURNAL_DIR SHADOW_FILE SEED [N_OPS]
"""

import json
import os
import random
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

from pgzone.catalog import Catalog
from pgzone.common import SYSTEM, sha256_hex


def run_session(cat: Catalog, rng: random.Random, n_ops: int) -> None:
    cat.create_user(SYSTEM, "admin", "admin", "pw")
    cat.make_collection(SYSTEM, "/", owner="admin")
    cat.create_user("admin", "u1", "user", "pw")
    cat.register_resource("admin", "r1", "mem", "/blobs/r1", "cache")
    cat.register_resource("admin", "tape", "archive", "/blobs/t", "archive")
    cat.make_collection("admin", "/data")
    cat.make_collection("admin", "/feed", kind="stream")

    paths: list[str] = []
    rules: list[str] = []
    colls = ["/data"]

    def body(i: int) -> bytes:
        return f"blob-{i}-{rng.randint(0, 1 << 30)}".encode()

    for i in range(n_ops):
        roll = rng.random()
        if roll < 0.30:
            path = f"{rng.choice(colls)}/f{rng.randint(0, 40):02d}"
            data = body(i)
            cat.put_object(path, "admin", "r1", f"ref-{i}",
                           sha256_hex(data), len(data))
            if path not in paths:
                paths.append(path)
        elif roll < 0.45 and paths:
            cat.add_avu("admin", rng.choice(paths),
                        f"k{rng.randint(0, 9)}", f"v{rng.randint(0, 9)}",
                        rng.choice(["", "note"]))
        elif roll < 0.52 and paths:
            target = rng.choice(paths)
            cat.remove_object(target)
            paths.remove(target)
        elif roll < 0.60:  # a state record that changes nothing
            cat.set_acl("admin", "/data", "admin", "own")
        elif roll < 0.65:
            cat.set_acl("admin", rng.choice(colls), "u1",
                        rng.choice(["read", "write", "own"]))
        elif roll < 0.70:
            name = f"c{i}"
            cat.make_collection("admin", f"/data/{name}")
            colls.append(f"/data/{name}")
        elif roll < 0.76:
            name = f"rule{i}"
            cat.add_rule_records([(name, "pep.data.get.pre",
                                   rng.randint(-5, 5), f"rule {name} ...")])
            rules.append(name)
        elif roll < 0.80 and rules:
            cat.remove_rule_record(rules.pop(rng.randrange(len(rules))))
        elif roll < 0.86 and paths:
            target = rng.choice(paths)
            obj = cat.get_object(target)
            replica = obj.replicas[0]
            if not any(r.resource == "tape" for r in obj.replicas):
                cat.add_replica(target, "tape", f"tref-{i}",
                                replica.checksum, replica.size)
            else:
                cat.set_replica_status(
                    target, replica.physical_ref,
                    rng.choice(["good", "suspect", "stale"]))
        elif roll < 0.90:
            seg_id = cat.next_segment_id("/feed")
            data = body(i)
            t0 = rng.randint(0, 1000)
            cat.ingest_segment("/feed", seg_id,
                               f"/feed/seg-{seg_id:08d}.tsz", "admin",
                               "r1", f"sref-{i}", sha256_hex(data),
                               len(data), t0, t0 + rng.randint(0, 50),
                               rng.randint(1, 5))
        elif roll < 0.95:
            cat.attach_workflow_record(
                sha256_hex(f"wf-{i}".encode()), "/data",
                f"procedure p{i}() {{ allow() }}")
        else:
            cat.add_orphan(f"/gone/f{i}", "tape", f"oref-{i}",
                           sha256_hex(body(i)))


def main() -> None:
    journal_dir, shadow_file, seed = sys.argv[1], sys.argv[2], int(sys.argv[3])
    n_ops = int(sys.argv[4]) if len(sys.argv) > 4 else 500
    rng = random.Random(seed)
    cat = Catalog(journal_dir)
    run_session(cat, rng, n_ops)

    with open(shadow_file, "w") as fh:
        json.dump(cat.state_dict(), fh)
        fh.flush()
        os.fsync(fh.fileno())

    # Writes torn mid-record: no trailing newline, not valid JSON.
    for name, torn in (
            ("journal.log", b'{"seq": 999999, "op": "object.put", "args": '
                            b'{"pa'),
            ("audit.log", b'{"args":{"actor":"admin","detail":"torn')):
        with open(os.path.join(journal_dir, name), "ab") as fh:
            fh.write(torn)
            fh.flush()
            os.fsync(fh.fileno())

    os._exit(3)  # hard kill: no close(), no atexit


if __name__ == "__main__":
    main()
