"""Importing the CLI or the package loads only what a command runs."""

import pytest

import import_guard


@pytest.mark.parametrize("module", ["kicaumine.cli", "kicaumine"])
def test_import_loads_no_forbidden_module(module):
    loaded = import_guard.newly_loaded(module)
    assert module in loaded
    assert [name for name in import_guard.FORBIDDEN if name in loaded] == []


def test_lazy_exports_resolve_bind_and_list():
    assert import_guard.export_problems() == []
