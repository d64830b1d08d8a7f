"""Time of one enforcement-point firing, of the first firing after a rule
change, of one procedure run, and of parsing rules, a procedure and a
metadata query.

  python3 bench/policy.py --src change=src --src parent=../old/src \
      --out BENCH_policy.json

For each --src, REPEATS fresh processes each build a zone with an
in-memory journal and the `mem` driver, and time these, each call on
its own:

- fire: `Engine.fire_pep` of `pep.data.get.pre` when 3, 100 or 1000
  rules sit on that point and none matches, so every condition is
  evaluated; --calls firings at each size.
- first firing after a rule change: with 10, 100 or 1000 rules stored
  on another point, add one rule on `pep.data.get.pre`, time the next
  firing, remove the rule, and time the next firing again; --changes
  pairs at each size. The added rule allows, so each firing checks that
  the change took effect.
- run: `Provenance.run` of a 3-step procedure like perfbench's
  `stamp_procedure` (checksum, set_avu, put_int), after one untimed
  run; --calls runs.
- parse: `parse_rules` of perfbench's 3-rule base, `parse_procedure`
  of the 3-step procedure above, and `AvuPredicate.parse` of a 2-clause
  query like the benchmark's; --calls parses of each.

A process reports the median per call of each, scaled to the
reference speed (bench/common.py). The sources' processes of a repeat
run back to back; the result holds each row's median and runs, and for
each source after the first its per-repeat ratio to the first.
"""

from __future__ import annotations

from common import arg_parser, compare, machine, sources, write

REPEATS = 10

MEASURE = """
import sys
from pgzone.catalog import AvuPredicate
from pgzone.ruledsl import parse_procedure, parse_rules
from pgzone.zone import Zone

calls, changes = int(sys.argv[1]), int(sys.argv[2])
ADMIN = "admin"
GET = {"user.name": ADMIN, "user.role": "admin", "op": "data.get",
       "obj.path": "/home/o", "obj.owner": ADMIN}
CHURN = ('rule churn on pep.data.get.pre when $obj.path matches "/home/*" '
         'do allow()')

def rules(pep, names):
    return "\\n".join(f'rule {n} on {pep} when $obj.path matches "/{n}/*" '
                      f'do deny("{n}")' for n in names)

BASE_RULES = '''
rule tag_raw on pep.data.put.post when $obj.path matches "*/raw/*"
    do set_avu($obj.path, "tier", "raw")
rule no_tmp on pep.data.put.pre when $obj.path matches "/tmp/*"
    do deny("no writes under /tmp")
rule guests_read_only on pep.meta.add.pre when $user.role == "guest"
    do deny("guests may not tag")
'''
STAMP = '''
procedure stamp($src, $dst, $n) {
    $c = checksum($src);
    set_avu($src, "seen.checksum", $c);
    put_int($n, $dst)
}'''

def fire(engine, expect):
    verdict = engine.fire_pep("pep.data.get.pre", ADMIN, GET)
    if (verdict.kind, verdict.rule) != ("allow", expect):
        sys.exit(f"firing decided {verdict} where {expect} should")

def churn(engine):
    # Each firing right after adding, then right after removing, the rule.
    for _ in range(changes):
        engine.add_rules(ADMIN, CHURN)
        yield lambda: fire(engine, "churn")
        engine.remove_rule(ADMIN, "churn")
        yield lambda: fire(engine, None)

def run_ok(n):
    record = zone.provenance.run(ADMIN, wf["id"], {
        "src": "/home/wf/in.dat", "dst": f"/home/wf/out-{n}.txt", "n": n})
    if record["status"] != "ok":
        sys.exit(f"run failed: {record['detail']}")

us = {}
with Zone(admin_secret="pw", default_resource="main") as zone:
    zone.ensure_resource(ADMIN, "main", "mem", "/blobs/main", "cache")
    engine = zone.engine
    have = 0
    for size in (3, 100, 1000):
        engine.add_rules(ADMIN, rules("pep.data.get.pre",
                                      [f"f{i}" for i in range(have, size)]))
        have = size
        us[f"fire.{size}"] = median_us(
            [lambda: fire(engine, None)] * calls)
    for i in range(have):
        engine.remove_rule(ADMIN, f"f{i}")
    have = 0
    for size in (10, 100, 1000):
        engine.add_rules(ADMIN, rules("pep.meta.add.pre",
                                      [f"s{i}" for i in range(have, size)]))
        have = size
        fire(engine, None)
        took = timed_us(churn(engine))
        us[f"after_add.{size}"] = median(took[0::2])
        us[f"after_remove.{size}"] = median(took[1::2])
    zone.catalog.make_collection(ADMIN, "/home/wf", kind="workflow")
    wf = zone.provenance.attach(ADMIN, "/home/wf", STAMP)
    engine.put(ADMIN, "/home/wf/in.dat", b"x" * 100)
    run_ok(0)
    us["run"] = median_us([lambda n=n: run_ok(n)
                           for n in range(1, calls + 1)])
for row, parse, text in (
        ("parse_rules", parse_rules, BASE_RULES),
        ("parse_procedure", parse_procedure, STAMP),
        ("parse_query", AvuPredicate.parse,
         'name = "exp.site" and value like "ab*"')):
    us[row] = median_us([lambda: parse(text)] * calls)
report(us)
"""


def main() -> None:
    ap = arg_parser(__doc__)
    ap.add_argument("--calls", type=int, default=500)
    ap.add_argument("--changes", type=int, default=30)
    args = ap.parse_args()
    srcs = sources(args)
    times, _ = compare(srcs, MEASURE, REPEATS,
                       argv=lambda *_: [str(args.calls), str(args.changes)])
    write({
        "what": "microseconds per call at the reference speed, median per "
                f"call in a fresh process, over {REPEATS} paired repeats. "
                "fire.N: fire_pep with N rules on the point, none "
                "matching. after_add.N / after_remove.N: the first "
                "fire_pep after adding / removing one rule, with N "
                "rules stored on another point. run: Provenance.run of "
                "a 3-step procedure. parse_rules: the 3-rule base; "
                "parse_procedure: that procedure; parse_query: "
                "AvuPredicate.parse of a 2-clause query. Journal in "
                "memory, mem driver. ratio_to_first: per repeat, a "
                "source's time over the first source's, their median, "
                "and the repeats in which it was faster",
        **machine(srcs, args.note),
        "calls": args.calls,
        "changes": args.changes,
        **times,
    }, args.out)


if __name__ == "__main__":
    main()
