"""Check that importing the CLI, the package or a command loads only what it runs.

Each check starts a fresh interpreter without ``site`` (``-S``), records
``sys.modules``, imports the module or runs the command, and lists what
that added. A ``site`` may import modules such as ``pathlib`` or
``importlib.resources`` before the package does, and the check could
then not see the package load them. Neither ``kicaumine.cli`` nor
``kicaumine`` may load a module in ``FORBIDDEN``, which names every
command module. Each command, run on the bundled demo corpus, loads its
own command module (``kicaumine._collect`` for ``collect``) and none of
the other four, and may not load a module that
``COMMAND_FORBIDDEN`` names for it: no command loads ``logging``,
``typing``, ``pathlib``, ``importlib.resources``, ``zipfile`` or
argparse with the ``gettext`` and ``locale`` it loads, only ``collect``
loads ``tempfile`` or ``shutil``, ``collect`` and ``report`` load no
model, preprocessing, stemming or evaluation code, and ``train`` and
``classify`` load no evaluation code. Each command is also run as
``python -m kicaumine.cli`` runs it, through ``runpy``, and the same
rules hold; afterwards ``kicaumine.cli`` must not be in
``sys.modules``, since a package module that imported it would compile
and run the CLI a second time. ``train``, ``classify`` and ``eval`` load
``kicaumine.stemming`` by default and not with ``--disable-stemming``.
``eval --help`` exits 0 and loads argparse, which prints the help: so
argparse left the commands' runs and not the CLI.
The package's lazy re-exports must all resolve, bind under ``from
kicaumine import *`` and show in ``dir()``. Nothing is timed.

``tests/test_imports.py`` runs these checks.
"""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
DEMO = SRC / "kicaumine" / "data" / "demo_tweets.jsonl"

_MODEL_CODE = ("kicaumine.model", "kicaumine.preprocess", "kicaumine.stemming")

# Standard-library modules that no command needs: argparse, and the two
# it loads, print only help and usage errors.
_UNUSED = (
    "logging", "typing", "pathlib", "importlib.resources", "zipfile", "argparse", "gettext",
    "locale",
)

COMMAND_FORBIDDEN = {
    "collect": (*_UNUSED, "kicaumine.evaluation", *_MODEL_CODE),
    "train": (*_UNUSED, "tempfile", "shutil", "kicaumine.evaluation"),
    "classify": (*_UNUSED, "tempfile", "shutil", "kicaumine.evaluation"),
    "report": (*_UNUSED, "tempfile", "shutil", "kicaumine.evaluation", *_MODEL_CODE),
    "eval": (*_UNUSED, "tempfile", "shutil"),
}

# Each command's own module.
COMMAND_MODULES = {command: f"kicaumine._{command}" for command in COMMAND_FORBIDDEN}

FORBIDDEN = (
    "dataclasses", "inspect", "csv", "tempfile", *_UNUSED, "kicaumine.evaluation", *_MODEL_CODE,
    *COMMAND_MODULES.values(),
)

# The commands that preprocess: each stems unless given --disable-stemming.
STEMMING_COMMANDS = ("train", "classify", "eval")

# Each command's arguments, in an order where each reads what the earlier
# ones wrote. Every command writes to a file, so stdout holds only the
# child's report.
COMMANDS = (
    ("collect", "--input", str(DEMO), "--out-labeled", "labeled.jsonl",
     "--out-unlabeled", "unlabeled.jsonl", "--out", "stats.txt"),
    ("train", "--input", "labeled.jsonl", "--model", "model.json"),
    ("classify", "--input", str(DEMO), "--model", "model.json", "--out", "predictions.jsonl"),
    ("report", "--input", str(DEMO), "--predictions", "predictions.jsonl", "--out", "report.txt"),
    ("eval", "--input", str(DEMO), "--gold", "gold.csv", "--model", "model.json",
     "--out", "eval.txt"),
)

_NEWLY_LOADED = """
import json, sys
before = set(sys.modules)
import {module}
print(json.dumps(sorted(set(sys.modules) - before)))
"""

# A run that prints help ends by argparse's SystemExit, whose code is its
# status; what a run prints is kept off stdout, which holds the report.
_COMMAND_LOADS = """
import io, json, sys
before = set(sys.modules)
from kicaumine.cli import main
sys.stdout = io.StringIO()
try:
    status = main(sys.argv[1:])
except SystemExit as exc:
    status = exc.code
sys.stdout = sys.__stdout__
print(json.dumps([status, sorted(set(sys.modules) - before)]))
"""

# The CLI ends its process by ``os._exit``, which would end this child
# before it reports; here it raises ``SystemExit`` with the status instead.
_RUN_AS_MAIN = """
import json, os, runpy, sys
def _exit(status):
    raise SystemExit(status)
os._exit = _exit
before = set(sys.modules)
try:
    runpy.run_module("kicaumine.cli", run_name="__main__", alter_sys=True)
    status = 0
except SystemExit as exc:
    status = exc.code
print(json.dumps([status, sorted(set(sys.modules) - before), "kicaumine.cli" in sys.modules]))
"""

_EXPORTS = """
import json
import kicaumine
problems = [f"dir(kicaumine) lacks {name}" for name in kicaumine.__all__
            if name not in dir(kicaumine)]
namespace = {}
exec("from kicaumine import *", namespace)
problems += [f"from kicaumine import * does not bind {name}" for name in kicaumine.__all__
             if name not in namespace]
for name in kicaumine.__all__:
    try:
        getattr(kicaumine, name)
    except AttributeError as exc:
        problems.append(f"kicaumine.{name} does not resolve: {exc}")
try:
    kicaumine.no_such_name
    problems.append("kicaumine.no_such_name resolved")
except AttributeError:
    pass
print(json.dumps(problems))
"""


def _run(code: str, *args: str, cwd=None):
    """Run ``code`` with ``args`` in a fresh interpreter with ``src`` on the path; its JSON output.

    The interpreter runs without ``site``, so that only the package and
    the check's own code load modules.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-S", "-c", code, *args],
        env=env,
        cwd=cwd,
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(result.stdout)


def newly_loaded(module: str) -> list[str]:
    """Names of the modules that importing ``module`` adds to a fresh interpreter."""
    return _run(_NEWLY_LOADED.format(module=module))


def _run_commands(code: str, disable_stemming: bool = False) -> dict:
    """``code``'s JSON output for each command's arguments, the commands run in order.

    With ``disable_stemming``, each of ``STEMMING_COMMANDS`` also runs with
    ``--disable-stemming`` first, its output kept under ``"<command>
    --disable-stemming"``.
    """
    outputs = {}
    with tempfile.TemporaryDirectory() as work:
        Path(work, "gold.csv").write_text(
            "id,label\nt1,positive\nt2,positive\nt3,negative\n", encoding="utf-8"
        )
        for argv in COMMANDS:
            if disable_stemming and argv[0] in STEMMING_COMMANDS:
                flag = "--disable-stemming"
                outputs[f"{argv[0]} {flag}"] = _run(code, *argv, flag, cwd=work)
            outputs[argv[0]] = _run(code, *argv, cwd=work)
    return outputs


def command_loads() -> dict:
    """Each command's exit status and the modules it adds to a fresh interpreter."""
    return _run_commands(_COMMAND_LOADS)


def run_as_main() -> dict:
    """Each command's exit status when run as ``python -m kicaumine.cli`` runs it,
    the modules it adds, and whether ``kicaumine.cli`` was imported besides."""
    return _run_commands(_RUN_AS_MAIN)


def help_loads() -> list:
    """``eval --help``'s exit status and the modules it adds to a fresh interpreter."""
    return _run(_COMMAND_LOADS, "eval", "--help")


def stemming_loads() -> dict:
    """Whether each of ``STEMMING_COMMANDS`` loads ``kicaumine.stemming``, by default
    and with ``--disable-stemming``, as [exit status, loaded] pairs under
    ``"<command>"`` and ``"<command> --disable-stemming"``."""
    loads = _run_commands(_COMMAND_LOADS, disable_stemming=True)
    return {
        run: [status, "kicaumine.stemming" in loaded]
        for run, (status, loaded) in loads.items()
        if run.split()[0] in STEMMING_COMMANDS
    }


def export_problems() -> list[str]:
    """What is wrong with the package's lazy re-exports; empty when nothing is."""
    return _run(_EXPORTS)


def command_problems(loads: dict) -> list[str]:
    """What is wrong with the ``command_loads()`` result ``loads``."""
    found = []
    for command, (status, loaded) in loads.items():
        if status != 0:
            found.append(f"{command} exits {status} on the demo corpus")
        own = COMMAND_MODULES[command]
        if own not in loaded:
            found.append(f"{command} does not load {own}")
        forbidden = [*COMMAND_FORBIDDEN[command], *COMMAND_MODULES.values()]
        found += [f"{command} loads {name}" for name in forbidden if name in loaded and name != own]
    return found


def run_as_main_problems(runs: dict) -> list[str]:
    """What is wrong with the ``run_as_main()`` result ``runs``."""
    loads = {command: [status, loaded] for command, (status, loaded, _) in runs.items()}
    found = [f"{problem} run as __main__" for problem in command_problems(loads)]
    found += [
        f"{command} run as __main__ also imports kicaumine.cli"
        for command, (_, _, imported) in runs.items()
        if imported
    ]
    return found


def help_problems(loads: list) -> list[str]:
    """What is wrong with the ``help_loads()`` result ``loads``."""
    status, loaded = loads
    found = [] if status == 0 else [f"eval --help exits {status}"]
    if "argparse" not in loaded:
        found.append("eval --help does not load argparse")
    return found


def stemming_problems(loads: dict) -> list[str]:
    """What is wrong with the ``stemming_loads()`` result ``loads``."""
    found = []
    for command in STEMMING_COMMANDS:
        for run, want in ((command, True), (f"{command} --disable-stemming", False)):
            status, loaded = loads.get(run, [None, None])
            if status != 0:
                found.append(f"{run} exits {status} on the demo corpus")
            if loaded is not want:
                found.append(f"{run} {'does not load' if want else 'loads'} kicaumine.stemming")
    return found

