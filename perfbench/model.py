"""Seeded inputs and the benchmark's own model of a zone.

Everything a workload sends is generated here from the seed: the objects
a zone is preloaded with and the operation list of one round. The model
holds what the zone should contain, so each operation's output can be
checked against it: a sha256 per object, the children per collection,
the metadata triples per path (queried by linear scan), and every stream
record (filtered by brute force). Nothing here imports pgzone.
"""

from __future__ import annotations

import fnmatch
import hashlib
import re
import struct
from dataclasses import dataclass, field

OP_KINDS = ("put", "get", "meta_add", "ls", "query", "stream_ingest",
            "stream_read", "wf_run")



def stamp_procedure(user: str) -> str:
    """The workflow each user runs. Procedures are content-addressed, so
    the user's name keeps each user's workflow (and its collection) apart."""
    return f'''
procedure stamp_{user}($src, $dst, $n) {{
    $c = checksum($src);
    set_avu($src, "seen.checksum", $c);
    put_int($n, $dst)
}}
'''

# The 3-rule base of the journaled workloads; tag_raw is a post-put
# set_avu chain on the subset of paths under a raw/ collection.
BASE_RULES = '''
rule tag_raw on pep.data.put.post when $obj.path matches "*/raw/*"
    do set_avu($obj.path, "tier", "raw")
rule no_tmp on pep.data.put.pre when $obj.path matches "/tmp/*"
    do deny("no writes under /tmp")
rule guests_read_only on pep.meta.add.pre when $user.role == "guest"
    do deny("guests may not tag")
'''

_FRAME = struct.Struct(">QI")
RECORDS_PER_SEGMENT = 100
OBJECT_SIZE = 4096
BIG_SIZE = 1 << 20   # the large puts of a mix with big_share
OVERWRITE_SHARE = 0.1  # share of puts that version an object


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def pack(records: list[tuple[int, bytes]]) -> bytes:
    return b"".join(_FRAME.pack(t, len(p)) + p for t, p in records)


def unpack(data: bytes) -> list[tuple[int, bytes]]:
    out, pos = [], 0
    while pos < len(data):
        t, n = _FRAME.unpack_from(data, pos)
        pos += _FRAME.size
        out.append((t, data[pos:pos + n]))
        pos += n
    return out


def parent(path: str) -> str:
    return path.rsplit("/", 1)[0] or "/"


@dataclass
class Layout:
    """Where one user's workload lives in the zone."""
    user: str
    data_colls: list[str]
    stream_colls: list[str]
    wf_coll: str
    raw_coll: str
    locked_coll: str | None = None

    @property
    def wf_input(self) -> str:
        return f"{self.wf_coll}/in.dat"

    def all_colls(self) -> list[tuple[str, str]]:
        """(path, kind) of every collection, parents first."""
        colls = [(c, "plain") for c in self.data_colls]
        colls += [(c, "stream") for c in self.stream_colls]
        colls += [(self.wf_coll, "workflow"), (self.raw_coll, "plain")]
        if self.locked_coll is not None:
            colls.append((self.locked_coll, "plain"))
        return colls


@dataclass
class Mix:
    """Operation shares in percent, and the shares of put and get
    variants."""
    shares: dict[str, float]
    big_share: float = 0.0       # share of puts that send BIG_SIZE bytes
    denied_share: float = 0.0    # share of gets aimed at the locked coll


@dataclass
class Model:
    objects: dict[str, str] = field(default_factory=dict)
    children: dict[str, set[str]] = field(default_factory=dict)
    avus: dict[str, set[tuple[str, str]]] = field(default_factory=dict)
    rows: list[tuple[str, str, str]] = field(default_factory=list)
    records: dict[str, list[tuple[int, int, int, bytes]]] = \
        field(default_factory=dict)
    segments: dict[str, int] = field(default_factory=dict)
    user_bytes: int = 0

    def add_coll(self, coll: str) -> None:
        self.children.setdefault(coll, set())

    def put(self, path: str, data: bytes) -> None:
        if path not in self.objects:
            self.children.setdefault(parent(path), set()).add(path)
        self.objects[path] = sha(data)
        self.user_bytes += len(data)
        if "/raw/" in path:
            self.add_avu(path, "tier", "raw")

    def add_avu(self, path: str, name: str, value: str) -> None:
        triples = self.avus.setdefault(path, set())
        if (name, value) not in triples:
            triples.add((name, value))
            self.rows.append((name, value, path))

    def ingest(self, coll: str, records: list[tuple[int, bytes]],
               size: int) -> tuple[int, str]:
        seg = self.segments.get(coll, 0) + 1
        self.segments[coll] = seg
        path = f"{coll}/seg-{seg:08d}.tsz"
        self.children.setdefault(coll, set()).add(path)
        rows = self.records.setdefault(coll, [])
        rows.extend((t, seg, i, p) for i, (t, p) in enumerate(records))
        self.add_avu(path, "stream.t_min", str(records[0][0]))
        self.add_avu(path, "stream.t_max", str(records[-1][0]))
        self.user_bytes += size
        return seg, path

    def listing(self, coll: str) -> tuple[list[str], list[str]]:
        subs = sorted(c for c in self.children
                      if c != coll and parent(c) == coll)
        return subs, sorted(self.children.get(coll, ()))

    def query(self, clauses: list[tuple[str, str, str]]) -> list[str]:
        """Linear scan over every triple: the paths with a triple that
        meets every clause."""
        rows = self.rows
        for fld, op, lit in clauses:
            i = 0 if fld == "name" else 1
            if op == "like":
                match = re.compile(fnmatch.translate(lit), re.S).match
                rows = [r for r in rows if match(r[i])]
            elif op == "=":
                rows = [r for r in rows if r[i] == lit]
            else:
                rows = [r for r in rows if r[i] != lit]
        return sorted({r[2] for r in rows})

    def window(self, coll: str, lo: int, hi: int) -> list[tuple[int, bytes]]:
        """Brute force: every record with lo <= t < hi, in global order."""
        hits = sorted(r for r in self.records.get(coll, ())
                      if lo <= r[0] < hi)
        return [(t, p) for t, _seg, _i, p in hits]


class Generator:
    """Simulates one user's zone while emitting operations, so that each
    read names something that exists when it runs."""

    def __init__(self, rng, layout: Layout, mix: Mix):
        self.rng, self.layout, self.mix = rng, layout, mix
        self.objects: dict[str, list[str]] = {c: [] for c in
                                              layout.data_colls}
        self.locked: list[str] = []
        self.clock: dict[str, int] = {c: 1_000_000 for c in
                                      layout.stream_colls}
        self.spans: dict[str, list[tuple[int, int]]] = {
            c: [] for c in layout.stream_colls}
        self.serial = 0

    def _payload(self, size: int) -> bytes:
        return self.rng.randbytes(size)

    def _name(self, prefix: str) -> str:
        self.serial += 1
        return f"{prefix}{self.serial:06d}"

    def segment(self, coll: str) -> tuple:
        rng, t = self.rng, self.clock[coll] + self.rng.randint(1, 500)
        records = []
        for _ in range(RECORDS_PER_SEGMENT):
            t += rng.randint(0, 50)
            records.append((t, self._payload(rng.randint(8, 32))))
        self.clock[coll] = t
        self.spans[coll].append((records[0][0], t))
        return ("stream_ingest", coll, pack(records), records)

    def preload_put(self, coll: str) -> tuple:
        path = f"{coll}/{self._name('o')}"
        (self.locked if coll == self.layout.locked_coll
         else self.objects[coll]).append(path)
        return ("put", path, self._payload(OBJECT_SIZE))

    def _existing(self) -> str:
        colls = [c for c, objs in self.objects.items() if objs]
        return self.rng.choice(self.objects[self.rng.choice(colls)])

    def _attr(self) -> str:
        return f"{self.layout.user}.{self.rng.choice(('batch', 'site'))}"

    def meta_value(self, attr: str) -> str:
        if attr.endswith("batch"):
            return f"v{self.rng.randrange(50)}"
        return f"s{self.rng.randrange(7)}"

    def preload(self, per_coll: int, locked: int,
                segments: int) -> list[tuple]:
        """Objects with a metadata triple each, locked objects, and
        stream segments: the zone a round starts from."""
        ops = []
        attrs = (f"{self.layout.user}.batch", f"{self.layout.user}.site")
        for coll in self.layout.data_colls:
            for i in range(per_coll):
                op = self.preload_put(coll)
                ops.append(op)
                attr = attrs[i % 2]
                ops.append(("meta_add", op[1], attr, self.meta_value(attr)))
        for _ in range(locked):
            ops.append(self.preload_put(self.layout.locked_coll))
        for coll in self.layout.stream_colls:
            ops.extend(self.segment(coll) for _ in range(segments))
        return ops

    def op(self, kind: str, index: int, variant: str) -> tuple:
        rng, lay = self.rng, self.layout
        if kind == "put":
            size = BIG_SIZE if variant.startswith("big") else OBJECT_SIZE
            if variant.endswith("over"):
                return ("put", self._existing(), self._payload(size))
            coll = lay.raw_coll if variant.endswith("raw") \
                else rng.choice(lay.data_colls)
            path = f"{coll}/{self._name('n')}"
            self.objects.setdefault(coll, []).append(path)
            return ("put", path, self._payload(size))
        if kind == "get":
            if variant == "denied":
                return ("get", rng.choice(self.locked), True)
            return ("get", self._existing(), False)
        if kind == "meta_add":
            attr = self._attr()
            return ("meta_add", self._existing(), attr,
                    self.meta_value(attr))
        if kind == "ls":
            return ("ls", rng.choice(lay.data_colls))
        if kind == "query":
            attr = self._attr()
            value = self.meta_value(attr)
            if variant == "eq":
                clauses = [("name", "=", attr), ("value", "=", value)]
            else:
                clauses = [("name", "=", attr),
                           ("value", "like", value[:2] + "*")]
            text = " and ".join(f'{f} {o} "{v}"' for f, o, v in clauses)
            return ("query", text, clauses)
        if kind == "stream_ingest":
            return self.segment(rng.choice(lay.stream_colls))
        if kind == "stream_read":
            coll = rng.choice(lay.stream_colls)
            first, last = self.spans[coll][0][0], self.spans[coll][-1][1]
            seg_width = (last - first) // len(self.spans[coll]) + 1
            lo = rng.randint(first, last)
            return ("stream_read", coll, lo,
                    lo + rng.randint(seg_width, 4 * seg_width))
        if kind == "wf_run":
            return ("wf_run", lay.wf_coll, index)
        raise ValueError(kind)

    def _deal(self, n: int, shares: dict[str, float]) -> list[str]:
        """n labels in exactly the given proportions, shuffled, so every
        seed gets the same amount of each kind of work."""
        total = sum(shares.values())
        labels = []
        for label, share in shares.items():
            labels += [label] * round(n * share / total)
        labels = (labels + [label] * n)[:n]
        self.rng.shuffle(labels)
        return labels

    def _spread(self, counts: dict[str, int]) -> list[str]:
        """Each kind's operations spread evenly over the list, each at a
        seeded offset within its stretch. In a growing zone a kind's cost
        depends on where its operations fall, so this keeps a kind's
        median from depending on the seed."""
        n = sum(counts.values())
        keyed = [((j + self.rng.random()) * n / c, kind)
                 for kind, c in counts.items() for j in range(c)]
        keyed.sort()
        return [kind for _, kind in keyed]

    def ops(self, count: int) -> list[tuple]:
        """`count` operations in the mix's exact shares, in seeded order;
        each kind at least once."""
        mix = self.mix
        kinds = list(mix.shares)
        dealt = kinds + self._deal(count - len(kinds), mix.shares)
        n = {k: dealt.count(k) for k in kinds}
        drawn = self._spread(n)
        size = {"big": mix.big_share, "": 1 - mix.big_share}
        place = {"over": OVERWRITE_SHARE, "raw": (1 - OVERWRITE_SHARE) / 2,
                 "": (1 - OVERWRITE_SHARE) / 2}
        variants = {
            "put": [a + "-" + b for a, b in zip(
                self._deal(n["put"], size), self._deal(n["put"], place))],
            "get": self._deal(n["get"], {"denied": mix.denied_share,
                                         "ok": 1 - mix.denied_share}),
            "query": self._deal(n["query"], {"eq": 1, "like": 1}),
        }
        return [self.op(k, i, variants[k].pop() if k in variants else "")
                for i, k in enumerate(drawn)]


def apply_preload(model: Model, layout: Layout, preload: list[tuple],
                  wf_input: bytes) -> None:
    """Model the zone a workload's set-up builds."""
    for coll, _kind in layout.all_colls():
        model.add_coll(coll)
    model.put(layout.wf_input, wf_input)
    for op in preload:
        if op[0] == "put":
            model.put(op[1], op[2])
        elif op[0] == "meta_add":
            model.add_avu(op[1], op[2], op[3])
        else:
            model.ingest(op[1], op[3], len(op[2]))


def check(model: Model, layout: Layout, op: tuple, result, error) -> bool:
    """Check one operation's normalised output against the model, then
    apply its effect. Returns True when the output was right."""
    kind = op[0]
    if kind == "get" and op[2]:
        return error is not None and type(error).__name__ in \
            ("Denied", "ClientError") and getattr(error, "status", 403) == 403
    if error is not None:
        return False
    if kind == "put":
        model.put(op[1], op[2])
        return result == model.objects[op[1]]
    if kind == "get":
        return sha(result) == model.objects[op[1]]
    if kind == "meta_add":
        model.add_avu(op[1], op[2], op[3])
        return True
    if kind == "ls":
        return tuple(result) == model.listing(op[1])
    if kind == "query":
        return result == model.query(op[2])
    if kind == "stream_ingest":
        seg, path = model.ingest(op[1], op[3], len(op[2]))
        return result == (seg, path, op[3][0][0], op[3][-1][0], len(op[3]))
    if kind == "stream_read":
        return result == model.window(op[1], op[2], op[3])
    if kind == "wf_run":
        out = f"{op[1]}/out-{op[2]:06d}.txt"
        data = str(op[2]).encode()
        model.add_avu(layout.wf_input, "seen.checksum",
                      model.objects[layout.wf_input])
        ok = (result["status"] == "ok"
              and result["inputs"] == {layout.wf_input:
                                       model.objects[layout.wf_input]}
              and result["outputs"] == {out: sha(data)})
        model.objects[out] = sha(data)
        return ok
    raise ValueError(kind)
