"""The process entry ``cli.run``: which way each run ends, and what it may skip.

``run`` ends the process by ``os._exit`` once ``main`` has returned and
both streams are flushed, skipping the interpreter's teardown. These
tests pin the cases that keep the normal shutdown, that the installed
script and ``python -m`` enter through ``run``, and that no command
leaves behind what teardown would act on: an ``atexit`` callback or a
thread.
"""

import ast
import atexit
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import import_guard
from kicaumine import cli

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"
DEMO = str(SRC / "kicaumine" / "data" / "demo_tweets.jsonl")

# A child that registers an atexit callback, then enters through ``run``;
# the callback's line shows that the normal shutdown ran.
_CHILD = """
import atexit, sys
atexit.register(sys.stderr.write, "teardown\\n")
{prelude}
from kicaumine.cli import run
run()
"""

COLLECT = ("collect", "--input", DEMO, "--out-labeled", "l.jsonl", "--out-unlabeled", "u.jsonl",
           "--format", "json")

# name: (interpreter options, code before run, command line, shell redirection,
#        exit status, whether the normal shutdown runs)
SHUTDOWNS = {
    "plain": ((), "", COLLECT, "", 0, False),
    "dev-mode": (("-X", "dev"), "", COLLECT, "", 0, True),
    "inspect": (("-i",), "", COLLECT, "", 0, True),
    "trace-hook": ((), "sys.settrace(lambda *args: None)", COLLECT, "", 0, True),
    "profile-hook": ((), "sys.setprofile(lambda *args: None)", COLLECT, "", 0, True),
    "usage-error": ((), "", ("collect", "--no-such-flag"), "", 2, True),
    "failed-flush": ((), "", COLLECT, ">/dev/full", 120, True),
}


@pytest.mark.parametrize("name", list(SHUTDOWNS))
def test_run_keeps_normal_shutdown_only_where_it_acts(name, tmp_path):
    options, prelude, argv, redirect, status, teardown = SHUTDOWNS[name]
    if redirect and not os.path.exists("/dev/full"):
        pytest.skip("needs /dev/full")
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    command = [sys.executable, *options, "-c", _CHILD.format(prelude=prelude), *argv]
    if redirect:
        command = ["sh", "-c", f'exec "$0" "$@" {redirect}', *command]
    child = subprocess.run(command, cwd=tmp_path, env=env, stdin=subprocess.DEVNULL,
                           capture_output=True)
    assert child.returncode == status, child.stderr
    assert (b"teardown\n" in child.stderr) is teardown, child.stderr
    if status == 0:
        assert child.stdout.startswith(b"{") and child.stdout.endswith(b"}\n")


def test_script_and_main_module_enter_through_run():
    tomllib = pytest.importorskip("tomllib")
    with open(REPO / "pyproject.toml", "rb") as handle:
        scripts = tomllib.load(handle)["project"]["scripts"]
    module, _, function = scripts["kicaumine"].partition(":")
    assert module == cli.__name__
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    blocks = [
        node for node in tree.body
        if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"
    ]
    assert len(blocks) == 1
    calls = [ast.unparse(node) for node in blocks[0].body]
    assert calls == [f"{function}()"]
    assert getattr(cli, function) is cli.run


def test_commands_leave_no_atexit_callback_or_thread(tmp_path, monkeypatch):
    # What os._exit skips: atexit callbacks and the join of other threads.
    monkeypatch.chdir(tmp_path)
    Path("gold.csv").write_text("id,label\nt1,positive\nt2,positive\nt3,negative\n",
                                encoding="utf-8")
    callbacks = atexit._ncallbacks()
    for argv in import_guard.COMMANDS:
        assert cli.main(list(argv)) == 0, argv
        assert atexit._ncallbacks() == callbacks, argv
        assert threading.enumerate() == [threading.main_thread()], argv
