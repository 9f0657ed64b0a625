"""The package surface: every exported name resolves, each is declared in
exactly one layer module, no module imports a name it does not use, the
value types are immutable, and the command front end starts without the
heavy standard-library modules."""

import ast
import importlib
import itertools
import os
import subprocess
import sys
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
    root = Path(__file__).resolve().parents[1]
    paths = [p for p in Path(qtoric.__file__).parent.glob("*.py") if p.name != "__init__.py"]
    paths += list(root.glob("tests/*.py")) + list(root.glob("demos/*.py"))
    unused = {f"{p.parent.name}/{p.name}": _unused_imports(p) for p in paths}
    assert {name: names for name, names in unused.items() if names} == {}


_IDENTITY = qtoric.IntMatrix(2, 2, (1, 0, 0, 1))
_PAIR = qtoric.CharPair(1, 1, (0,), (0,))
_VALUES = [
    (qtoric.IntMatrix(1, 1, (1,)), "entries"),
    (qtoric.LatticeBasis(1, ((1,),)), "basis"),
    (qtoric.HomogPoly((1, 0)), "coeffs"),
    (_PAIR, "a"),
    (qtoric.Presentation(qtoric.HomogPoly((1, 0)), qtoric.HomogPoly((0, 1))), "gen1"),
    (qtoric.GradedRanks((1,), ((),)), "ranks"),
    (qtoric.HomeoClass("product", _PAIR), "family"),
    (qtoric.IsoVerdict(_IDENTITY), "matrix"),
    (qtoric.MonomialWitness(_IDENTITY, _IDENTITY), "t"),
]


@pytest.mark.parametrize("value, field", _VALUES, ids=[type(v).__name__ for v, _ in _VALUES])
def test_value_types_are_immutable(value, field):
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(value, field))
    with pytest.raises(AttributeError):
        value.extra = 0


def test_cli_startup_skips_dataclasses():
    # -S leaves out the site hooks, which may import anything themselves;
    # the package's own imports decide what is loaded
    src = str(Path(qtoric.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = "import qtoric.cli, sys; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    result = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, env=env
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"
