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


def test_commands_run_as_main_import_no_cli_module():
    runs = import_guard.run_as_main()
    assert list(runs) == list(import_guard.COMMAND_MODULES)
    assert "kicaumine.model" in runs["eval"][1]
    assert import_guard.run_as_main_problems(runs) == []


def test_help_still_loads_argparse():
    # The guard sees argparse where it is still used: --help and usage errors.
    assert import_guard.help_problems(import_guard.help_loads()) == []


def test_stemming_loads_only_when_enabled():
    loads = import_guard.stemming_loads()
    assert list(loads) == [
        run
        for command in import_guard.STEMMING_COMMANDS
        for run in (f"{command} --disable-stemming", command)
    ]
    assert import_guard.stemming_problems(loads) == []


def test_lazy_exports_resolve_bind_and_list():
    assert import_guard.export_problems() == []
