"""Procedure attachment, runs, rerun validation, and run comparison.

A procedure attached to a workflow collection is content-addressed: its
id is the SHA-256 of the canonical pretty-print, so the same text (up
to formatting) always yields the same id and attaching it twice is a
no-op.

A run binds the procedure's parameters, executes the body, and records
what it consumed and produced: inputs as {path: checksum at first
read}, outputs as {path: checksum after the run}. Rerun refuses to
start when any recorded input has changed or disappeared (StaleInputs),
because rerunning against different inputs silently produces an
incomparable result. Every finished run is journaled and additionally
exported as JSON under <collection>/runs/ so the record itself is an
object other tools can fetch.
"""

from __future__ import annotations

import json
import uuid
from typing import Iterable

from .common import SYSTEM, now_us, sha256_hex
from .engine import (
    Engine,
    READING_MICROSERVICES,
    RunRecorder,
    recording,
)
from .errors import (
    BadBindings,
    Denied,
    DriverError,
    EngineError,
    EvalError,
    NoSuchObject,
    NotAWorkflowCollection,
    StaleInputs,
    ZoneError,
)
from .ruledsl import (
    Assign,
    Call,
    Foreach,
    If,
    Lit,
    ProcedureAst,
    parse_procedure,
    print_procedure,
)


def workflow_id_of(source: str) -> tuple[str, str, ProcedureAst]:
    """Canonicalize procedure text: (id, canonical source, tree)."""
    ast = parse_procedure(source)
    canonical = print_procedure(ast)
    return sha256_hex(canonical.encode("utf-8")), canonical, ast


def _walk_calls(items: Iterable) -> Iterable[Call]:
    for item in items:
        if isinstance(item, Call):
            yield item
        elif isinstance(item, Assign):
            if isinstance(item.value, Call):
                yield item.value
        elif isinstance(item, If):
            yield from _walk_calls(item.then)
            if item.orelse is not None:
                yield from _walk_calls(item.orelse)
        elif isinstance(item, Foreach):
            yield from _walk_calls(item.body)


def static_input_paths(ast: ProcedureAst, coll: str) -> list[str]:
    """Literal paths the body is certain to only read: first argument of
    a reading micro-service when it is a string literal."""
    paths: set[str] = set()
    for call in _walk_calls(ast.body):
        if call.name not in READING_MICROSERVICES or not call.args:
            continue
        arg = call.args[0]
        if isinstance(arg, Lit) and isinstance(arg.value, str) and arg.value:
            path = arg.value
            if not path.startswith("/"):
                path = f"{coll.rstrip('/')}/{path}"
            paths.add(path)
    return sorted(paths)


class Provenance:
    def __init__(self, engine: Engine):
        self.engine = engine
        self.catalog = engine.catalog
        # workflow id -> its parsed procedure. An id is the hash of the
        # canonical text and an attached workflow never changes, so a
        # tree here is never stale.
        self._procedures: dict[str, ProcedureAst] = {}

    # -- attachment ----------------------------------------------------------

    def attach(self, actor: str, coll: str, source: str) -> dict:
        view = self.catalog.get_collection(coll)
        if view.kind != "workflow":
            raise NotAWorkflowCollection(coll)
        self.catalog.require_access(coll, actor, "write")
        workflow_id, canonical, _ast = workflow_id_of(source)
        created = self.catalog.attach_workflow_record(
            workflow_id, coll, canonical)
        if created:
            self.catalog.audit_append(actor, "workflow.attach", workflow_id)
        return self.catalog.workflow(workflow_id)

    def workflow(self, workflow_id: str) -> dict:
        return self.catalog.workflow(workflow_id)

    # -- running -------------------------------------------------------------

    def _check_bindings(self, params: list[str], bindings: dict) -> None:
        if not isinstance(bindings, dict):
            raise BadBindings("bindings must be a mapping")
        missing = sorted(set(params) - set(bindings))
        extra = sorted(set(bindings) - set(params))
        if missing or extra:
            raise BadBindings(
                f"missing={missing} unexpected={extra}")
        for key, value in bindings.items():
            if isinstance(value, (str, bool)) or (
                    isinstance(value, int) and not isinstance(value, bool)):
                continue
            if isinstance(value, list) and \
                    all(isinstance(e, str) for e in value):
                continue
            raise BadBindings(f"binding {key!r} has unsupported value "
                              f"{value!r}")

    def _procedure(self, workflow_id: str) -> tuple[dict, ProcedureAst]:
        """The workflow record and its procedure, parsed on the first
        call for the id in this process."""
        wf = self.catalog.workflow(workflow_id)
        ast = self._procedures.get(workflow_id)
        if ast is None:
            ast = self._procedures[workflow_id] = parse_procedure(
                wf["source"])
        return wf, ast

    def run(self, actor: str, workflow_id: str, bindings: dict) -> dict:
        """Run an attached workflow with the given bindings and return
        its run record. The procedure is parsed once per workflow id per
        process; later runs and reruns reuse that tree."""
        wf, ast = self._procedure(workflow_id)
        coll = wf["coll"]
        self._check_bindings(ast.params, bindings)
        self.catalog.require_access(coll, actor, "write")
        if self.engine.default_resource is None:
            raise EngineError(
                "procedure runs need a default resource for run export")
        static_inputs = static_input_paths(ast, coll)
        for path in static_inputs:
            if not self.catalog.object_exists(path):
                raise NoSuchObject(f"declared input missing: {path}")
        with self.engine.run_lock:
            with self.engine.trapped("workflow.run", actor, **{
                    "coll.path": coll}) as pep_bindings:
                recorder = RunRecorder()
                for path in static_inputs:
                    recorder.record_read(
                        path, self.catalog.get_object(path).checksum)
                run_id = uuid.uuid4().hex
                t_start = now_us()
                status, detail = "ok", ""
                scope = {**pep_bindings, **bindings}
                try:
                    with recording(recorder):
                        self.engine.run_procedure_body(
                            ast.body, scope, actor, base_coll=coll)
                except Denied as e:
                    status, detail = "failed", f"denied: {e}"
                except (EvalError, ZoneError, DriverError) as e:
                    status, detail = "failed", str(e)
                t_end = now_us()
                outputs: dict[str, str] = {}
                if status == "ok":
                    for path in sorted(recorder.writes):
                        if self.catalog.object_exists(path):
                            outputs[path] = \
                                self.catalog.get_object(path).checksum
                else:
                    # A failed run must not leave outputs that look
                    # trustworthy.
                    for path in sorted(recorder.writes):
                        if not self.catalog.object_exists(path):
                            continue
                        for replica in self.catalog.get_object(path).replicas:
                            self.catalog.set_replica_status(
                                path, replica.physical_ref, "suspect")
                record = {
                    "run_id": run_id,
                    "workflow_id": workflow_id,
                    "coll": coll,
                    "user": actor,
                    "bindings": dict(bindings),
                    "inputs": dict(recorder.reads),
                    "outputs": outputs,
                    "status": status,
                    "detail": detail,
                    "t_start": t_start,
                    "t_end": t_end,
                }
                self.catalog.record_run(record)
            self.catalog.audit_append(
                actor, "workflow.run",
                f"{workflow_id[:12]} run={run_id} status={status}")
            self._export(record)
        return record

    def _export(self, record: dict) -> None:
        """Drop the run record into <coll>/runs/<run_id>.json so it is
        itself an object in the zone."""
        coll = record["coll"]
        runs_coll = f"{coll.rstrip('/')}/runs"
        if not self.catalog.collection_exists(runs_coll):
            self.catalog.make_collection(SYSTEM, runs_coll,
                                         owner=self.catalog
                                         .get_collection(coll).owner)
        payload = json.dumps(record, indent=2, sort_keys=True).encode("utf-8")
        self.engine.put_internal(
            SYSTEM, f"{runs_coll}/{record['run_id']}.json", payload)

    def rerun(self, actor: str, run_id: str,
              overrides: dict | None = None) -> dict:
        old = self.catalog.run(run_id)
        _wf, ast = self._procedure(old["workflow_id"])
        overrides = overrides or {}
        if not set(overrides) <= set(ast.params):
            raise BadBindings(
                f"unknown override(s): "
                f"{sorted(set(overrides) - set(ast.params))}")
        stale = [
            path for path, checksum in sorted(old["inputs"].items())
            if not self.catalog.object_exists(path)
            or self.catalog.get_object(path).checksum != checksum
        ]
        if stale:
            raise StaleInputs(stale)
        bindings = dict(old["bindings"])
        bindings.update(overrides)
        return self.run(actor, old["workflow_id"], bindings)

    # -- comparison -----------------------------------------------------------

    def run_record(self, run_id: str) -> dict:
        return self.catalog.run(run_id)

    def diff_runs(self, a_id: str, b_id: str) -> dict:
        a = self.catalog.run(a_id)
        b = self.catalog.run(b_id)
        a_out, b_out = a["outputs"], b["outputs"]
        identical, differing = [], []
        for path in sorted(set(a_out) & set(b_out)):
            (identical if a_out[path] == b_out[path] else differing) \
                .append(path)
        binding_diffs = {}
        for key in sorted(set(a["bindings"]) | set(b["bindings"])):
            va = a["bindings"].get(key)
            vb = b["bindings"].get(key)
            if va != vb:
                binding_diffs[key] = {"a": va, "b": vb}
        return {
            "a": a_id,
            "b": b_id,
            "workflow_mismatch": a["workflow_id"] != b["workflow_id"],
            "bindings": binding_diffs,
            "outputs": {
                "identical": identical,
                "differing": differing,
                "only_in_a": sorted(set(a_out) - set(b_out)),
                "only_in_b": sorted(set(b_out) - set(a_out)),
            },
        }
