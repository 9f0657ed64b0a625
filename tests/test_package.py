"""The package surface: every exported name resolves."""

import importlib

import pytest

SUBMODULES = ("lattice", "polyring", "quasitoric", "classify", "oracle", "cli")


@pytest.mark.parametrize("module", ("qtoric",) + tuple("qtoric." + s for s in SUBMODULES))
def test_exported_names_resolve(module):
    mod = importlib.import_module(module)
    assert mod.__all__
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []

