"""Time of one enforcement-point firing, of the first firing after a rule
change, of one procedure run, and of parsing rules, a procedure and a
metadata query.

  python3 bench/policy.py --src change=src --src parent=../old/src \
      --out BENCH_policy.json

For each --src, REPEATS fresh processes each build a zone with an
in-memory journal and the `mem` driver, and time three things, each
call on its own:

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

A process reports the median per call of each; the result is the
median over processes, with the sources run in a different order on
each repeat. Writes the medians, each run, and for each source after
the first its per-repeat ratio to the first, as JSON.
"""

from __future__ import annotations

import json
import statistics

from common import arg_parser, machine, paired, rotated, run, sources, write

REPEATS = 5

MEASURE = """
import json, sys, time
from pgzone.catalog import AvuPredicate
from pgzone.ruledsl import parse_procedure, parse_rules
from pgzone.zone import Zone

calls, changes = int(sys.argv[1]), int(sys.argv[2])
clock = time.perf_counter_ns
ADMIN = "admin"
GET = {"user.name": ADMIN, "user.role": "admin", "op": "data.get",
       "obj.path": "/home/o", "obj.owner": ADMIN}

def median_us(took):
    return sorted(took)[len(took) // 2] / 1000

def rules(pep, names):
    return "\\n".join(f'rule {n} on {pep} when $obj.path matches "/{n}/*" '
                      f'do deny("{n}")' for n in names)

def parse_us(parse, text):
    took = []
    for _ in range(calls):
        start = clock()
        parse(text)
        took.append(clock() - start)
    return median_us(took)

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
    start = clock()
    verdict = engine.fire_pep("pep.data.get.pre", ADMIN, GET)
    took = clock() - start
    if (verdict.kind, verdict.rule) != ("allow", expect):
        sys.exit(f"firing decided {verdict} where {expect} should")
    return took

result = {}
with Zone(admin_secret="pw", default_resource="main") as zone:
    zone.ensure_resource(ADMIN, "main", "mem", "/blobs/main", "cache")
    engine = zone.engine
    have = 0
    for size in (3, 100, 1000):
        engine.add_rules(ADMIN, rules("pep.data.get.pre",
                                      [f"f{i}" for i in range(have, size)]))
        have = size
        result[f"fire.{size}"] = median_us(
            [fire(engine, None) for _ in range(calls)])
    for i in range(have):
        engine.remove_rule(ADMIN, f"f{i}")
    have = 0
    for size in (10, 100, 1000):
        engine.add_rules(ADMIN, rules("pep.meta.add.pre",
                                      [f"s{i}" for i in range(have, size)]))
        have = size
        fire(engine, None)
        added, removed = [], []
        for _ in range(changes):
            engine.add_rules(ADMIN, 'rule churn on pep.data.get.pre '
                             'when $obj.path matches "/home/*" do allow()')
            added.append(fire(engine, "churn"))
            engine.remove_rule(ADMIN, "churn")
            removed.append(fire(engine, None))
        result[f"after_add.{size}"] = median_us(added)
        result[f"after_remove.{size}"] = median_us(removed)
    zone.catalog.make_collection(ADMIN, "/home/wf", kind="workflow")
    wf = zone.provenance.attach(ADMIN, "/home/wf", STAMP)
    engine.put(ADMIN, "/home/wf/in.dat", b"x" * 100)
    took = []
    for n in range(calls + 1):
        start = clock()
        record = zone.provenance.run(ADMIN, wf["id"], {
            "src": "/home/wf/in.dat", "dst": f"/home/wf/out-{n}.txt",
            "n": n})
        took.append(clock() - start)
        if record["status"] != "ok":
            sys.exit(f"run failed: {record['detail']}")
    result["run"] = median_us(took[1:])
result["parse_rules"] = parse_us(parse_rules, BASE_RULES)
result["parse_procedure"] = parse_us(parse_procedure, STAMP)
result["parse_query"] = parse_us(
    AvuPredicate.parse, 'name = "exp.site" and value like "ab*"')
print(json.dumps(result))
"""


def main() -> None:
    ap = arg_parser(__doc__)
    ap.add_argument("--calls", type=int, default=500)
    ap.add_argument("--changes", type=int, default=30)
    args = ap.parse_args()
    srcs = sources(args)
    runs: dict[str, dict[str, list[float]]] = {name: {} for name in srcs}
    for rep in range(REPEATS):  # interleaved, each source first in turn
        for name, src in rotated(list(srcs.items()), rep):
            got = json.loads(
                run(src, MEASURE, str(args.calls), str(args.changes)))
            for key, us in got.items():
                runs[name].setdefault(key, []).append(us)
    result = {
        "what": "microseconds per call, median per call in a fresh "
                f"process, then the median of {REPEATS} processes. "
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
        "us_median": {name: {k: round(statistics.median(v), 2)
                             for k, v in per.items()}
                      for name, per in runs.items()},
        "us_runs": {name: {k: [round(x, 2) for x in v]
                           for k, v in per.items()}
                    for name, per in runs.items()},
        "ratio_to_first": paired(runs),
    }
    write(result, args.out)


if __name__ == "__main__":
    main()
