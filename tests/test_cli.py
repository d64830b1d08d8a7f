"""Every `pg` client command, run against a fake ZoneClient.

Each case is one argv, the one client call it must make, and what it
prints. The cases are written out here by hand, not read from the CLI's
own command table, so a command whose arguments drift from its client
call fails here without a live server.
"""

import inspect
import json

import pytest

from pgzone.gateway import cli
from pgzone.gateway.client import ClientError, TransportError, ZoneClient

SERVER = "http://pg.invalid:1"
BLOB = b"\x00\xffnot utf-8\n"  # input for the commands that send bytes
TEXT = "rule r on pep.data.get.pre do allow() # café\n"  # UTF-8 text

# Canned replies: a method not named here returns REPLY.
REPLY = {"ok": True}
REPLIES = {
    "get": b"object bytes\n",
    "stream_read": b"framed segment\n",
    "login": "tok-123",
    "meta_query": ["/a", "/b"],
    "resources": [{"name": "vault"}],
    "audit": [{"event": "pep.deny"}],
    "orphans": [{"path": "/lost"}],
}

NO_TIME = {"from": None, "to": None}

# (argv, client method, args, kwargs, output): the output is the JSON
# printed, or for a command that writes the raw bytes the client
# returned, the file they go to, "-" for stdout. Files are relative to
# the test's tmp dir: in.bin holds BLOB and text.txt holds TEXT.
CASES = [
    (["ping"], "ping", (), {}, REPLY),
    (["put", "/d/f", "in.bin"], "put", ("/d/f", BLOB, None), {}, REPLY),
    (["put", "/d/f", "in.bin", "--resource", "vault"], "put",
     ("/d/f", BLOB, "vault"), {}, REPLY),
    (["get", "/d/f", "out.bin"], "get", ("/d/f",), {}, "out.bin"),
    (["get", "/d/f"], "get", ("/d/f",), {}, "-"),
    (["get", "/d/f", "-"], "get", ("/d/f",), {}, "-"),
    (["rm", "/d/f"], "remove", ("/d/f",), {}, REPLY),
    (["mkdir", "/d"], "make_collection", ("/d", "plain"), {}, REPLY),
    (["mkdir", "/s", "--kind", "stream"], "make_collection",
     ("/s", "stream"), {}, REPLY),
    (["ls", "/d"], "list_collection", ("/d", None, None), {}, REPLY),
    (["ls", "/d", "--marker", "/d/b", "--limit", "7"], "list_collection",
     ("/d", "/d/b", 7), {}, REPLY),
    (["stat", "/d/f"], "stat", ("/d/f",), {}, REPLY),
    (["replicate", "/d/f", "vault"], "replicate", ("/d/f", "vault"), {},
     REPLY),
    (["stage", "/d/f", "cache"], "stage", ("/d/f", "cache"), {}, REPLY),
    (["archive", "/d/f", "tape"], "archive", ("/d/f", "tape"), {}, REPLY),
    (["verify", "/d/f"], "verify", ("/d/f",), {}, REPLY),
    (["meta", "add", "/d/f", "color", "teal"], "meta_add",
     ("/d/f", "color", "teal", ""), {}, REPLY),
    (["meta", "add", "/d/f", "color", "teal", "why"], "meta_add",
     ("/d/f", "color", "teal", "why"), {}, REPLY),
    (["meta", "ls", "/d/f"], "meta_list", ("/d/f",), {}, REPLY),
    (["meta", "query", 'name = "color"'], "meta_query", ('name = "color"',),
     {}, {"paths": ["/a", "/b"]}),
    (["rule", "add", "text.txt"], "add_rules", (TEXT,), {}, REPLY),
    (["rule", "list"], "rules", (), {}, REPLY),
    (["rule", "rm", "wall"], "remove_rule", ("wall",), {}, REPLY),
    (["wf", "attach", "/proj", "text.txt"], "attach_workflow",
     ("/proj", TEXT), {}, REPLY),
    (["wf", "show", "w1"], "workflow", ("w1",), {}, REPLY),
    (["wf", "run", "w1"], "run", ("w1", {}), {}, REPLY),
    (["wf", "run", "w1", "--bind", "n=3", "--bind", "src=/in.dat",
      "--bind", "flag=true", "--bind", "xs=[1, 2]", "--bind", 's="q"',
      "--bind", "x=1.5", "--bind", 'o={"a": 1}', "--bind", "e=",
      "--bind", "eq=a=b"], "run",
     ("w1", {"n": 3, "src": "/in.dat", "flag": True, "xs": [1, 2],
             "s": "q", "x": "1.5", "o": '{"a": 1}', "e": "",
             "eq": "a=b"}), {}, REPLY),
    (["wf", "rerun", "r1"], "rerun", ("r1", {}), {}, REPLY),
    (["wf", "rerun", "r1", "--bind", "n=4"], "rerun", ("r1", {"n": 4}), {},
     REPLY),
    (["wf", "record", "r1"], "run_record", ("r1",), {}, REPLY),
    (["wf", "diff", "r1", "r2"], "diff_runs", ("r1", "r2"), {}, REPLY),
    (["stream", "ingest", "/s", "in.bin"], "stream_ingest",
     ("/s", BLOB, None), {}, REPLY),
    (["stream", "ingest", "/s", "in.bin", "--resource", "vault"],
     "stream_ingest", ("/s", BLOB, "vault"), {}, REPLY),
    (["stream", "read", "/s", "5", "100", "-o", "out.bin"], "stream_read",
     ("/s", 5, 100), {}, "out.bin"),
    (["stream", "read", "/s", "5", "100", "--output", "out.bin"],
     "stream_read", ("/s", 5, 100), {}, "out.bin"),
    (["stream", "read", "/s", "5", "100"], "stream_read", ("/s", 5, 100),
     {}, "-"),
    (["stream", "stat", "/s"], "stream_stat", ("/s",), {}, REPLY),
    (["admin", "adduser", "ada", "user", "--secret", "s3"], "create_user",
     ("ada", "user", "s3"), {}, REPLY),
    (["admin", "addgroup", "ada", "lab"], "add_group", ("ada", "lab"), {},
     REPLY),
    (["admin", "mkresc", "vault", "localfs", "/srv", "archive"],
     "register_resource", ("vault", "localfs", "/srv", "archive"), {},
     REPLY),
    (["admin", "lsresc"], "resources", (), {},
     {"resources": [{"name": "vault"}]}),
    (["admin", "acl", "/d", "ada", "read"], "set_acl",
     ("/d", "ada", "read"), {}, REPLY),
    (["admin", "audit"], "audit", (),
     {"event": None, "actor": None, **NO_TIME},
     {"entries": [{"event": "pep.deny"}]}),
    (["admin", "audit", "--event", "pep.deny", "--actor", "ada",
      "--from", "10", "--to", "20"], "audit", (),
     {"event": "pep.deny", "actor": "ada", "from": 10, "to": 20},
     {"entries": [{"event": "pep.deny"}]}),
    (["admin", "orphans"], "orphans", (), {},
     {"orphans": [{"path": "/lost"}]}),
    (["admin", "addms", "m", "text.txt"], "register_microservice",
     ("m", TEXT, 0, None), {}, REPLY),
    (["admin", "addms", "m", "text.txt", "--min-args", "1",
      "--max-args", "3"], "register_microservice", ("m", TEXT, 1, 3), {},
     REPLY),
    (["admin", "adddriver", "d", "text.txt"], "register_driver",
     ("d", TEXT), {}, REPLY),
]


@pytest.fixture
def pg(monkeypatch, tmp_path, capsys):
    """Run `pg` in tmp_path against a fake client; returns (exit code,
    [(method, args, kwargs)], stdout). `fail`, when set, is raised by
    every client method."""
    calls = []
    state = {"fail": None}

    class FakeClient:
        def __init__(self, server, token=None):
            assert server == SERVER and token is None

        def __getattr__(self, name):
            if name.startswith("_"):
                raise AttributeError(name)

            def method(*args, **kwargs):
                calls.append((name, args, kwargs))
                if state["fail"] is not None:
                    raise state["fail"]
                return REPLIES.get(name, REPLY)
            return method

    monkeypatch.setattr(cli, "ZoneClient", FakeClient)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "in.bin").write_bytes(BLOB)
    (tmp_path / "text.txt").write_bytes(TEXT.encode("utf-8"))

    def run(*argv, fail=None):
        state["fail"] = fail
        code = cli.main(["--server", SERVER,
                         "--token-file", str(tmp_path / "token"), *argv])
        return code, calls, capsys.readouterr().out
    return run


@pytest.mark.parametrize("argv,method,args,kwargs,output", CASES,
                         ids=[" ".join(case[0]) for case in CASES])
def test_command_makes_its_client_call(pg, tmp_path, argv, method, args,
                                       kwargs, output):
    code, calls, out = pg(*argv)
    assert code == cli.EXIT_OK
    assert calls == [(method, args, kwargs)]
    if output == "-":
        assert out == REPLIES[method].decode()
    elif isinstance(output, str):
        assert out == ""
        assert (tmp_path / output).read_bytes() == REPLIES[method]
    else:
        assert json.loads(out) == output


def test_login_stores_the_token(pg, tmp_path):
    code, calls, out = pg("login", "ada", "--secret", "pw")
    assert code == cli.EXIT_OK
    assert calls == [("login", ("ada", "pw"), {})]
    assert (tmp_path / "token").read_text() == "tok-123\n"
    assert "logged in as ada" in out


def test_cases_cover_every_client_method():
    public = {name for name, _ in inspect.getmembers(ZoneClient,
                                                     inspect.isfunction)
              if not name.startswith("_")}
    assert {case[1] for case in CASES} | {"login"} == public


@pytest.mark.parametrize("error,code", [
    (ClientError(400, "ValueError", "bad"), cli.EXIT_ERROR),
    (ClientError(404, "NoSuchPath", "/d"), cli.EXIT_ERROR),
    (ClientError(401, "BadCredentials", "token"), cli.EXIT_DENIED),
    (ClientError(403, "Denied", "no"), cli.EXIT_DENIED),
    (ClientError(500, "RuntimeError", "bug"), cli.EXIT_SERVER),
    (TransportError("refused"), cli.EXIT_SERVER),
])
def test_failed_call_exit_code(pg, error, code):
    assert pg("admin", "lsresc", fail=error)[0] == code
    assert pg("put", "/d/f", "in.bin", fail=error)[0] == code
