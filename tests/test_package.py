"""The package surface: every exported name resolves, and each is declared
in exactly one layer module."""

import importlib
import itertools

import pytest

import qtoric

SUBMODULES = ("lattice", "polyring", "quasitoric", "classify", "oracle", "cli")
LAYERS = SUBMODULES[:-1]


@pytest.mark.parametrize("module", ("qtoric",) + tuple("qtoric." + s for s in SUBMODULES))
def test_exported_names_resolve(module):
    mod = importlib.import_module(module)
    assert mod.__all__
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []


def test_layer_exports_are_disjoint_and_unique():
    # the package star-imports the layers, so a name declared twice would
    # silently shadow the earlier one
    exports = {s: set(importlib.import_module("qtoric." + s).__all__) for s in LAYERS}
    for (s1, e1), (s2, e2) in itertools.combinations(exports.items(), 2):
        assert e1.isdisjoint(e2), (s1, s2, e1 & e2)
    assert len(qtoric.__all__) == len(set(qtoric.__all__))
    assert set(qtoric.__all__) == set().union(*exports.values()) | {"__version__"}
