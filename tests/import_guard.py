"""Check that importing the CLI or the package loads only what a command runs.

Each check starts a fresh interpreter, records ``sys.modules``, imports
the module and lists what the import added. Neither ``kicaumine.cli`` nor
``kicaumine`` may load a module in ``FORBIDDEN``; ``eval`` and ``report``
import those when they run. The package's lazy re-exports must all
resolve, bind under ``from kicaumine import *`` and show in ``dir()``.
Nothing is timed.

Runs without pytest: ``python tests/import_guard.py`` prints each problem
and exits 1 if there is one. ``tests/test_imports.py`` runs the same checks.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

FORBIDDEN = ("dataclasses", "inspect", "csv", "kicaumine.evaluation")

_NEWLY_LOADED = """
import json, sys
before = set(sys.modules)
import {module}
print(json.dumps(sorted(set(sys.modules) - before)))
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


def _run(code: str):
    """Run ``code`` in a fresh interpreter with ``src`` on the path; its JSON output."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return json.loads(result.stdout)


def newly_loaded(module: str) -> list[str]:
    """Names of the modules that importing ``module`` adds to a fresh interpreter."""
    return _run(_NEWLY_LOADED.format(module=module))


def export_problems() -> list[str]:
    """What is wrong with the package's lazy re-exports; empty when nothing is."""
    return _run(_EXPORTS)


def problems() -> list[str]:
    found = []
    for module in ("kicaumine.cli", "kicaumine"):
        loaded = newly_loaded(module)
        found += [f"import {module} loads {name}" for name in FORBIDDEN if name in loaded]
    return found + export_problems()


if __name__ == "__main__":
    found = problems()
    for problem in found:
        print(problem, file=sys.stderr)
    sys.exit(1 if found else 0)
