"""The package surface: every exported name resolves, each is declared in
exactly one layer module, and no module imports a name it does not use."""

import ast
import importlib
import itertools
from pathlib import Path

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


def _unused_imports(path):
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_no_unused_imports():
    # the package's own star imports are its exports, so it is left out
    paths = sorted(Path(qtoric.__file__).parent.glob("*.py"))
    unused = {p.name: _unused_imports(p) for p in paths if p.name != "__init__.py"}
    assert {name: names for name, names in unused.items() if names} == {}
