"""Importing the CLI or the package, or running a command, loads only what it runs."""

import pytest

import import_guard


@pytest.mark.parametrize("module", ["kicaumine.cli", "kicaumine"])
def test_import_loads_no_forbidden_module(module):
    loaded = import_guard.newly_loaded(module)
    assert module in loaded
    assert [name for name in import_guard.FORBIDDEN if name in loaded] == []


def test_commands_load_no_forbidden_module():
    loads = import_guard.command_loads()
    assert list(loads) == list(import_guard.COMMAND_FORBIDDEN)
    # The check sees what a command loads: eval scores with the model.
    assert "kicaumine.model" in loads["eval"][1]
    assert import_guard.command_problems(loads) == []


def test_lazy_exports_resolve_bind_and_list():
    assert import_guard.export_problems() == []
