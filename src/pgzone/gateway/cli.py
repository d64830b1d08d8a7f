"""The pg command-line tool.

Talks to a gateway over HTTP for everything except `pg serve`, which
runs the gateway itself. A client command is one row of COMMANDS: its
words, help, arguments and the one ZoneClient call it makes;
build_parser turns each row into a subcommand. `serve` and `login` are
not client calls and are built by hand.

Exit codes: 0 success, 1 usage or request error, 2 bad credentials
(401) or denied (403), 3 server (5xx) or transport failure.
"""

from __future__ import annotations

import argparse
import getpass
import json
import logging
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


def _text(arg: str | None) -> str:
    return _read_input(arg).decode("utf-8")


def _arg(*flags: str, **options) -> tuple:
    """One argument of a command: argparse's name or flags, and options."""
    return flags, options


_PATH = _arg("path")
_COLL = _arg("coll")
_RUN_ID = _arg("run_id")
_WORKFLOW_ID = _arg("workflow_id")
_RESOURCE = _arg("--resource")
_BIND = _arg("--bind", action="append", metavar="NAME=VALUE")

GROUP_HELP = {
    "meta": "metadata",
    "rule": "policy rules",
    "wf": "procedures and runs",
    "stream": "time series",
    "admin": "administration",
}

# The client commands: (words, help, arguments, call). `call(client,
# args)` makes the one ZoneClient call and returns the payload to print,
# or None when it wrote its own output.
COMMANDS = (
    ("ping", "check the gateway", (), lambda c, a: c.ping()),
    ("put", "upload a data object",
     (_PATH, _arg("file", nargs="?", help="local file, '-' for stdin"),
      _RESOURCE),
     lambda c, a: c.put(a.path, _read_input(a.file), a.resource)),
    ("get", "download a data object",
     (_PATH, _arg("file", nargs="?", help="local file, '-' for stdout")),
     lambda c, a: _write_output(a.file, c.get(a.path))),
    ("rm", "remove a data object", (_PATH,),
     lambda c, a: c.remove(a.path)),
    ("mkdir", "create a collection",
     (_PATH, _arg("--kind", default="plain",
                  choices=["plain", "stream", "workflow"])),
     lambda c, a: c.make_collection(a.path, a.kind)),
    ("ls", "list a collection", (_PATH,),
     lambda c, a: c.list_collection(a.path)),
    ("stat", "show object record", (_PATH,), lambda c, a: c.stat(a.path)),
    ("replicate", "replicate an object onto a resource",
     (_PATH, _arg("resource")),
     lambda c, a: c.replicate(a.path, a.resource)),
    ("stage", "stage an object onto a resource", (_PATH, _arg("resource")),
     lambda c, a: c.stage(a.path, a.resource)),
    ("archive", "archive an object onto a resource",
     (_PATH, _arg("resource")),
     lambda c, a: c.archive(a.path, a.resource)),
    ("verify", "re-hash all replicas of an object", (_PATH,),
     lambda c, a: c.verify(a.path)),
    ("meta add", "attach a name/value/comment triple",
     (_PATH, _arg("name"), _arg("value"), _arg("comment", nargs="?")),
     lambda c, a: c.meta_add(a.path, a.name, a.value, a.comment or "")),
    ("meta ls", "list an object's or collection's triples", (_PATH,),
     lambda c, a: c.meta_list(a.path)),
    ("meta query", "find the paths whose triples match a query",
     (_arg("query"),),
     lambda c, a: {"paths": c.meta_query(a.query)}),
    ("rule add", "add the rules of a file",
     (_arg("file", nargs="?", help="rule file, '-' for stdin"),),
     lambda c, a: c.add_rules(_text(a.file))),
    ("rule list", "list the rules", (), lambda c, a: c.rules()),
    ("rule rm", "remove a rule", (_arg("name"),),
     lambda c, a: c.remove_rule(a.name)),
    ("wf attach", "attach a procedure to a collection",
     (_COLL, _arg("file", nargs="?", help="procedure file, '-' for stdin")),
     lambda c, a: c.attach_workflow(a.coll, _text(a.file))),
    ("wf show", "show a procedure", (_WORKFLOW_ID,),
     lambda c, a: c.workflow(a.workflow_id)),
    ("wf run", "run a procedure", (_WORKFLOW_ID, _BIND),
     lambda c, a: c.run(a.workflow_id, _bindings(a.bind))),
    ("wf rerun", "run a recorded run again", (_RUN_ID, _BIND),
     lambda c, a: c.rerun(a.run_id, _bindings(a.bind))),
    ("wf record", "show a run's record", (_RUN_ID,),
     lambda c, a: c.run_record(a.run_id)),
    ("wf diff", "compare two runs", (_arg("a"), _arg("b")),
     lambda c, a: c.diff_runs(a.a, a.b)),
    ("stream ingest", "add a segment to a stream",
     (_COLL, _arg("file", nargs="?", help="segment file, '-' for stdin"),
      _RESOURCE),
     lambda c, a: c.stream_ingest(a.coll, _read_input(a.file), a.resource)),
    ("stream read", "read the records of a time interval",
     (_COLL, _arg("t_from", type=int), _arg("t_to", type=int),
      _arg("-o", "--output", help="local file, '-' for stdout")),
     lambda c, a: _write_output(
         a.output, c.stream_read(a.coll, a.t_from, a.t_to))),
    ("stream stat", "show a stream's segments and interval", (_COLL,),
     lambda c, a: c.stream_stat(a.coll)),
    ("admin adduser", "create a user",
     (_arg("name"), _arg("role", choices=["admin", "user"]),
      _arg("--secret", help="secret (otherwise prompted)")),
     lambda c, a: c.create_user(a.name, a.role,
                                _secret_from(a, "new user secret: "))),
    ("admin addgroup", "add a user to a group",
     (_arg("user"), _arg("group")),
     lambda c, a: c.add_group(a.user, a.group)),
    ("admin mkresc", "register a storage resource",
     (_arg("name"), _arg("driver"), _arg("root"),
      _arg("kind", choices=["cache", "archive"])),
     lambda c, a: c.register_resource(a.name, a.driver, a.root, a.kind)),
    ("admin lsresc", "list the storage resources", (),
     lambda c, a: {"resources": c.resources()}),
    ("admin acl", "grant a user or group access to a path",
     (_PATH, _arg("principal"),
      _arg("perm", choices=["read", "write", "own"])),
     lambda c, a: c.set_acl(a.path, a.principal, a.perm)),
    ("admin audit", "query the audit trail",
     (_arg("--event"), _arg("--actor"),
      _arg("--from", dest="t_from", type=int),
      _arg("--to", dest="t_to", type=int)),
     lambda c, a: {"entries": c.audit(
         event=a.event, actor=a.actor,
         **{"from": a.t_from, "to": a.t_to})}),
    ("admin orphans", "list replicas left in storage to reclaim", (),
     lambda c, a: {"orphans": c.orphans()}),
    ("admin addms", "upload a Python micro-service",
     (_arg("name"), _arg("file"), _arg("--min-args", type=int, default=0),
      _arg("--max-args", type=int)),
     lambda c, a: c.register_microservice(a.name, _text(a.file),
                                          a.min_args, a.max_args)),
    ("admin adddriver", "upload a Python storage driver",
     (_arg("name"), _arg("file")),
     lambda c, a: c.register_driver(a.name, _text(a.file))),
)


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

    groups = {}
    for words, help_text, arguments, call in COMMANDS:
        group, _, name = words.rpartition(" ")
        if group and group not in groups:
            groups[group] = sub.add_parser(
                group, help=GROUP_HELP[group]).add_subparsers(
                dest="subcommand", required=True)
        p = (groups[group] if group else sub).add_parser(name,
                                                         help=help_text)
        for flags, options in arguments:
            p.add_argument(*flags, **options)
        p.set_defaults(fn=call)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:  # argparse exits 2 on a usage error
        if e.code == 2:
            return EXIT_ERROR
        raise
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
    try:
        client = ZoneClient(args.server or config.server, token=token)
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
