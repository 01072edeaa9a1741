"""Check that importing the CLI, the package or a command loads only what it runs.

Each check starts a fresh interpreter without ``site`` (``-S``), records
``sys.modules``, imports the module or runs the command, and lists what
that added. A ``site`` may import modules such as ``pathlib`` or
``importlib.resources`` before the package does, and the check could
then not see the package load them. Neither ``kicaumine.cli`` nor
``kicaumine`` may load a module in ``FORBIDDEN``. Each command, run on
the bundled demo corpus, may not load a module that
``COMMAND_FORBIDDEN`` names for it: no command loads ``logging``,
``typing``, ``pathlib``, ``importlib.resources`` or ``zipfile``, only
``collect`` loads ``tempfile``, ``collect`` and ``report`` load no
model, preprocessing, stemming or evaluation code, and ``train`` and
``classify`` load no evaluation code.
The package's lazy re-exports must all resolve, bind under ``from
kicaumine import *`` and show in ``dir()``. Nothing is timed.

Runs without pytest: ``python tests/import_guard.py`` prints each problem
and exits 1 if there is one. ``tests/test_imports.py`` runs the same checks.
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

# Standard-library modules that no command needs.
_UNUSED = ("logging", "typing", "pathlib", "importlib.resources", "zipfile")

FORBIDDEN = (
    "dataclasses", "inspect", "csv", "tempfile", *_UNUSED, "kicaumine.evaluation", *_MODEL_CODE
)

COMMAND_FORBIDDEN = {
    "collect": (*_UNUSED, "kicaumine.evaluation", *_MODEL_CODE),
    "train": (*_UNUSED, "tempfile", "kicaumine.evaluation"),
    "classify": (*_UNUSED, "tempfile", "kicaumine.evaluation"),
    "report": (*_UNUSED, "tempfile", "kicaumine.evaluation", *_MODEL_CODE),
    "eval": (*_UNUSED, "tempfile"),
}

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

_COMMAND_LOADS = """
import json, sys
before = set(sys.modules)
from kicaumine.cli import main
status = main(sys.argv[1:])
print(json.dumps([status, sorted(set(sys.modules) - before)]))
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


def command_loads() -> dict:
    """Each command's exit status and the modules it adds to a fresh interpreter."""
    loads = {}
    with tempfile.TemporaryDirectory() as work:
        Path(work, "gold.csv").write_text(
            "id,label\nt1,positive\nt2,positive\nt3,negative\n", encoding="utf-8"
        )
        for argv in COMMANDS:
            loads[argv[0]] = _run(_COMMAND_LOADS, *argv, cwd=work)
    return loads


def export_problems() -> list[str]:
    """What is wrong with the package's lazy re-exports; empty when nothing is."""
    return _run(_EXPORTS)


def command_problems(loads: dict) -> list[str]:
    """What is wrong with the ``command_loads()`` result ``loads``."""
    found = []
    for command, (status, loaded) in loads.items():
        if status != 0:
            found.append(f"{command} exits {status} on the demo corpus")
        forbidden = COMMAND_FORBIDDEN[command]
        found += [f"{command} loads {name}" for name in forbidden if name in loaded]
    return found


def problems() -> list[str]:
    found = []
    for module in ("kicaumine.cli", "kicaumine"):
        loaded = newly_loaded(module)
        found += [f"import {module} loads {name}" for name in FORBIDDEN if name in loaded]
    return found + command_problems(command_loads()) + export_problems()


if __name__ == "__main__":
    found = problems()
    for problem in found:
        print(problem, file=sys.stderr)
    sys.exit(1 if found else 0)
