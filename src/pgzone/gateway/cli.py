"""The pg command-line tool.

Talks to a gateway over HTTP for everything except `pg serve`, which
runs the gateway itself. Exit codes: 0 success, 1 usage or request
error, 2 bad credentials (401) or denied (403), 3 server (5xx) or
transport failure.
"""

from __future__ import annotations

import argparse
import getpass
import json
import logging
import os
import sys
from pathlib import Path

from ..common import SYSTEM
from .client import ClientError, TransportError, ZoneClient
from .config import GatewayConfig

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_DENIED = 2
EXIT_SERVER = 3


def _read_input(arg: str | None) -> bytes:
    if arg is None or arg == "-":
        return sys.stdin.buffer.read()
    return Path(arg).read_bytes()


def _write_output(arg: str | None, data: bytes) -> None:
    if arg is None or arg == "-":
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()
    else:
        Path(arg).write_bytes(data)


def _emit(payload) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _parse_binding(raw: str) -> tuple[str, object]:
    if "=" not in raw:
        raise SystemExit(f"binding must look like name=value: {raw!r}")
    key, _, value = raw.partition("=")
    try:
        decoded = json.loads(value)
        if isinstance(decoded, (str, bool, int, list)):
            return key, decoded
    except json.JSONDecodeError:
        pass
    return key, value


def _bindings(pairs: list[str] | None) -> dict:
    return dict(_parse_binding(p) for p in (pairs or []))


def _secret_from(args, prompt: str) -> str:
    if getattr(args, "secret", None):
        return args.secret
    if not sys.stdin.isatty():
        return sys.stdin.readline().rstrip("\n")
    return getpass.getpass(prompt)


# ---------------------------------------------------------------------------
# Command implementations: each takes (client, args) and returns a payload
# to print (or None when it already produced output).
# ---------------------------------------------------------------------------

def _cmd_ping(client, args):
    return client.ping()


def _cmd_put(client, args):
    return client.put(args.path, _read_input(args.file), args.resource)


def _cmd_get(client, args):
    _write_output(args.file, client.get(args.path))
    return None


def _cmd_rm(client, args):
    return client.remove(args.path)


def _cmd_mkdir(client, args):
    return client.make_collection(args.path, args.kind)


def _cmd_ls(client, args):
    return client.list_collection(args.path)


def _cmd_stat(client, args):
    return client.stat(args.path)


def _cmd_copy(client, args):
    # The command is the client method: replicate, stage or archive.
    return getattr(client, args.command)(args.path, args.resource)


def _cmd_verify(client, args):
    return client.verify(args.path)


def _cmd_meta_add(client, args):
    return client.meta_add(args.path, args.name, args.value,
                           args.comment or "")


def _cmd_meta_ls(client, args):
    return client.meta_list(args.path)


def _cmd_meta_query(client, args):
    return {"paths": client.meta_query(args.query)}


def _cmd_rule_add(client, args):
    return client.add_rules(_read_input(args.file).decode("utf-8"))


def _cmd_rule_list(client, args):
    return client.rules()


def _cmd_rule_rm(client, args):
    return client.remove_rule(args.name)


def _cmd_wf_attach(client, args):
    return client.attach_workflow(args.coll,
                                  _read_input(args.file).decode("utf-8"))


def _cmd_wf_show(client, args):
    return client.workflow(args.workflow_id)


def _cmd_wf_run(client, args):
    return client.run(args.workflow_id, _bindings(args.bind))


def _cmd_wf_rerun(client, args):
    return client.rerun(args.run_id, _bindings(args.bind))


def _cmd_wf_record(client, args):
    return client.run_record(args.run_id)


def _cmd_wf_diff(client, args):
    return client.diff_runs(args.a, args.b)


def _cmd_stream_ingest(client, args):
    return client.stream_ingest(args.coll, _read_input(args.file),
                                args.resource)


def _cmd_stream_read(client, args):
    data = client.stream_read(args.coll, args.t_from, args.t_to)
    _write_output(args.output, data)
    return None


def _cmd_stream_stat(client, args):
    return client.stream_stat(args.coll)


def _cmd_adduser(client, args):
    return client.create_user(args.name, args.role,
                              _secret_from(args, "new user secret: "))


def _cmd_addgroup(client, args):
    return client.add_group(args.user, args.group)


def _cmd_mkresc(client, args):
    return client.register_resource(args.name, args.driver, args.root,
                                    args.kind)


def _cmd_lsresc(client, args):
    return {"resources": client.resources()}


def _cmd_acl(client, args):
    return client.set_acl(args.path, args.principal, args.perm)


def _cmd_audit(client, args):
    return {"entries": client.audit(
        event=args.event, actor=args.actor,
        **{"from": args.t_from, "to": args.t_to})}


def _cmd_orphans(client, args):
    return {"orphans": client.orphans()}


def _cmd_addms(client, args):
    return client.register_microservice(
        args.name, _read_input(args.file).decode("utf-8"),
        args.min_args, args.max_args)


def _cmd_adddriver(client, args):
    return client.register_driver(
        args.name, _read_input(args.file).decode("utf-8"))


# ---------------------------------------------------------------------------

def _exit_code(e: ClientError | TransportError) -> int:
    """The one mapping of a failed request to an exit code."""
    if isinstance(e, TransportError) or e.status >= 500:
        return EXIT_SERVER
    return EXIT_DENIED if e.status in (401, 403) else EXIT_ERROR


def _cmd_login(client: ZoneClient, token_path: Path, args) -> int:
    secret = _secret_from(args, f"secret for {args.user}: ")
    token = client.login(args.user, secret)
    token_path.parent.mkdir(parents=True, exist_ok=True)
    token_path.write_text(token + "\n")
    token_path.chmod(0o600)
    print(f"logged in as {args.user}; token stored in {token_path}")
    return EXIT_OK


def _cmd_serve(args) -> int:
    from ..zone import Zone
    from .server import GatewayServer

    config = GatewayConfig.load(args.config)
    if args.bind:
        host, _, port = args.bind.rpartition(":")
        config.bind_host = host or config.bind_host
        config.bind_port = int(port)
    if args.journal_dir:
        config.journal_dir = args.journal_dir
    if args.data_root:
        config.data_root = args.data_root
    if args.allow_dynamic_code:
        config.allow_dynamic_code = True

    journal_dir = Path(config.journal_dir or "pgzone-data/journal")
    data_root = Path(config.data_root or "pgzone-data/blobs")
    journal_dir.mkdir(parents=True, exist_ok=True)
    data_root.mkdir(parents=True, exist_ok=True)

    zone = Zone(journal_dir=journal_dir,
                admin_user=config.admin_user,
                admin_secret=config.admin_secret or None,
                default_resource=config.default_resource,
                allow_dynamic_code=config.allow_dynamic_code)
    zone.ensure_resource(SYSTEM, config.default_resource, "localfs",
                         str(data_root / config.default_resource), "cache")
    server = GatewayServer(zone, config)
    host, port = server.address
    print(f"zone {config.zone_name!r} listening on http://{host}:{port}",
          flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
        zone.close()
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pg", description="client for a pgzone data-management zone")
    parser.add_argument("--server", help="gateway URL")
    parser.add_argument("--token-file", help="where the login token lives")
    parser.add_argument("--config", help="key=value config file")
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("serve", help="run a gateway")
    p.add_argument("--bind", help="HOST:PORT")
    p.add_argument("--journal-dir")
    p.add_argument("--data-root")
    p.add_argument("--allow-dynamic-code", action="store_true")

    p = sub.add_parser("login", help="obtain a session token")
    p.add_argument("user")
    p.add_argument("--secret", help="secret (otherwise prompted)")

    sub.add_parser("ping", help="check the gateway").set_defaults(
        fn=_cmd_ping)

    p = sub.add_parser("put", help="upload a data object")
    p.add_argument("path")
    p.add_argument("file", nargs="?", help="local file, '-' for stdin")
    p.add_argument("--resource")
    p.set_defaults(fn=_cmd_put)

    p = sub.add_parser("get", help="download a data object")
    p.add_argument("path")
    p.add_argument("file", nargs="?", help="local file, '-' for stdout")
    p.set_defaults(fn=_cmd_get)

    p = sub.add_parser("rm", help="remove a data object")
    p.add_argument("path")
    p.set_defaults(fn=_cmd_rm)

    p = sub.add_parser("mkdir", help="create a collection")
    p.add_argument("path")
    p.add_argument("--kind", default="plain",
                   choices=["plain", "stream", "workflow"])
    p.set_defaults(fn=_cmd_mkdir)

    p = sub.add_parser("ls", help="list a collection")
    p.add_argument("path")
    p.set_defaults(fn=_cmd_ls)

    p = sub.add_parser("stat", help="show object record")
    p.add_argument("path")
    p.set_defaults(fn=_cmd_stat)

    for verb in ("replicate", "stage", "archive"):
        p = sub.add_parser(verb, help=f"{verb} an object onto a resource")
        p.add_argument("path")
        p.add_argument("resource")
        p.set_defaults(fn=_cmd_copy)

    p = sub.add_parser("verify", help="re-hash all replicas of an object")
    p.add_argument("path")
    p.set_defaults(fn=_cmd_verify)

    meta = sub.add_parser("meta", help="metadata").add_subparsers(
        dest="subcommand", required=True)
    p = meta.add_parser("add")
    p.add_argument("path")
    p.add_argument("name")
    p.add_argument("value")
    p.add_argument("comment", nargs="?")
    p.set_defaults(fn=_cmd_meta_add)
    p = meta.add_parser("ls")
    p.add_argument("path")
    p.set_defaults(fn=_cmd_meta_ls)
    p = meta.add_parser("query")
    p.add_argument("query")
    p.set_defaults(fn=_cmd_meta_query)

    rule = sub.add_parser("rule", help="policy rules").add_subparsers(
        dest="subcommand", required=True)
    p = rule.add_parser("add")
    p.add_argument("file", nargs="?", help="rule file, '-' for stdin")
    p.set_defaults(fn=_cmd_rule_add)
    p = rule.add_parser("list")
    p.set_defaults(fn=_cmd_rule_list)
    p = rule.add_parser("rm")
    p.add_argument("name")
    p.set_defaults(fn=_cmd_rule_rm)

    wf = sub.add_parser("wf", help="procedures and runs").add_subparsers(
        dest="subcommand", required=True)
    p = wf.add_parser("attach")
    p.add_argument("coll")
    p.add_argument("file", nargs="?")
    p.set_defaults(fn=_cmd_wf_attach)
    p = wf.add_parser("show")
    p.add_argument("workflow_id")
    p.set_defaults(fn=_cmd_wf_show)
    p = wf.add_parser("run")
    p.add_argument("workflow_id")
    p.add_argument("--bind", action="append", metavar="NAME=VALUE")
    p.set_defaults(fn=_cmd_wf_run)
    p = wf.add_parser("rerun")
    p.add_argument("run_id")
    p.add_argument("--bind", action="append", metavar="NAME=VALUE")
    p.set_defaults(fn=_cmd_wf_rerun)
    p = wf.add_parser("record")
    p.add_argument("run_id")
    p.set_defaults(fn=_cmd_wf_record)
    p = wf.add_parser("diff")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(fn=_cmd_wf_diff)

    stream = sub.add_parser("stream", help="time series").add_subparsers(
        dest="subcommand", required=True)
    p = stream.add_parser("ingest")
    p.add_argument("coll")
    p.add_argument("file", nargs="?")
    p.add_argument("--resource")
    p.set_defaults(fn=_cmd_stream_ingest)
    p = stream.add_parser("read")
    p.add_argument("coll")
    p.add_argument("t_from", type=int)
    p.add_argument("t_to", type=int)
    p.add_argument("-o", "--output")
    p.set_defaults(fn=_cmd_stream_read)
    p = stream.add_parser("stat")
    p.add_argument("coll")
    p.set_defaults(fn=_cmd_stream_stat)

    admin = sub.add_parser("admin", help="administration").add_subparsers(
        dest="subcommand", required=True)
    p = admin.add_parser("adduser")
    p.add_argument("name")
    p.add_argument("role", choices=["admin", "user"])
    p.add_argument("--secret")
    p.set_defaults(fn=_cmd_adduser)
    p = admin.add_parser("addgroup")
    p.add_argument("user")
    p.add_argument("group")
    p.set_defaults(fn=_cmd_addgroup)
    p = admin.add_parser("mkresc")
    p.add_argument("name")
    p.add_argument("driver")
    p.add_argument("root")
    p.add_argument("kind", choices=["cache", "archive"])
    p.set_defaults(fn=_cmd_mkresc)
    p = admin.add_parser("lsresc")
    p.set_defaults(fn=_cmd_lsresc)
    p = admin.add_parser("acl")
    p.add_argument("path")
    p.add_argument("principal")
    p.add_argument("perm", choices=["read", "write", "own"])
    p.set_defaults(fn=_cmd_acl)
    p = admin.add_parser("audit")
    p.add_argument("--event")
    p.add_argument("--actor")
    p.add_argument("--from", dest="t_from", type=int)
    p.add_argument("--to", dest="t_to", type=int)
    p.set_defaults(fn=_cmd_audit)
    p = admin.add_parser("orphans")
    p.set_defaults(fn=_cmd_orphans)
    p = admin.add_parser("addms")
    p.add_argument("name")
    p.add_argument("file")
    p.add_argument("--min-args", type=int, default=0)
    p.add_argument("--max-args", type=int)
    p.set_defaults(fn=_cmd_addms)
    p = admin.add_parser("adddriver")
    p.add_argument("name")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_adddriver)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.WARNING,
        format="%(asctime)s %(name)s %(levelname)s %(message)s")

    if args.command == "serve":
        return _cmd_serve(args)

    config = GatewayConfig.load(args.config)
    token_path = Path(args.token_file or config.token_file)
    token = None  # a login must work whatever the old token file holds
    if args.command != "login" and token_path.exists():
        token = token_path.read_text().strip()
    client = ZoneClient(args.server or config.server, token=token)
    try:
        if args.command == "login":
            return _cmd_login(client, token_path, args)
        payload = args.fn(client, args)
    except (ClientError, TransportError) as e:
        print(f"error: {e}", file=sys.stderr)
        return _exit_code(e)
    if payload is not None:
        _emit(payload)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
