"""The package surface: every exported name resolves, the package's table
of exports names exactly the public functions and classes each layer
defines, each export is used outside the tests, no module imports a name
it does not use, the value types are immutable, and each command starts
without the layers it does not run or the heavy standard-library
modules."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qtoric

SUBMODULES = ("lattice", "polyring", "quasitoric", "classify", "oracle", "cli")
LAYERS = SUBMODULES[:-1]


@pytest.mark.parametrize("module", ("qtoric", "qtoric.cli"))
def test_exported_names_resolve(module):
    mod = importlib.import_module(module)
    assert mod.__all__
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []


@pytest.mark.parametrize("module", ["qtoric." + s for s in LAYERS])
def test_table_names_each_public_definition(module):
    # the static table is the package's one list of exports: a public
    # function or class a layer defines must be in it under that layer,
    # and a name defined in two layers fails in one of them
    mod = importlib.import_module(module)
    defined = {
        name for name, value in vars(mod).items()
        if not name.startswith("_") and getattr(value, "__module__", None) == module
    }
    listed = {name for name, layer in qtoric._LAYER_OF.items() if "qtoric." + layer == module}
    assert defined == listed


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
    root = Path(__file__).resolve().parents[1]
    paths = list(Path(qtoric.__file__).parent.glob("*.py"))
    paths += [p for d in ("tests", "demos", "bench") for p in root.glob(d + "/*.py")]
    unused = {f"{p.parent.name}/{p.name}": _unused_imports(p) for p in paths}
    assert {name: names for name, names in unused.items() if names} == {}


def _uses_outside_definitions(tree, names):
    """The names among ``names`` that ``tree`` reads, as a name or an
    attribute, other than inside the function or class defining that same
    name."""
    used = set()
    stack = [(tree, frozenset())]
    while stack:
        node, inside = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            inside = inside | {node.name}
        read = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
        if read in names and read not in inside and isinstance(node.ctx, ast.Load):
            used.add(read)
        stack.extend((child, inside) for child in ast.iter_child_nodes(node))
    return used


def test_every_export_is_used_outside_the_tests():
    # a public name that only tests call is test code compiled by every
    # process; it belongs in the tests
    root = Path(__file__).resolve().parents[1]
    names = set(qtoric.__all__)
    used = set()
    for folder in ("src", "bench", "demos"):
        for path in (root / folder).rglob("*.py"):
            used |= _uses_outside_definitions(ast.parse(path.read_text()), names)
    assert sorted(names - used) == []


_IDENTITY = qtoric.IntMatrix(((1, 0), (0, 1)))
_PAIR = qtoric.CharPair(1, 1, (0,), (0,))
_VALUES = [
    (qtoric.IntMatrix(((1,),)), "rows"),
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


def _int_rows(rows):
    return type(rows) is tuple and all(
        type(r) is tuple and all(type(x) is int for x in r) for r in rows
    )


def test_matrix_api_the_benchmark_reads():
    # the benchmark's tracer rewraps the classmethod it finds in the class
    # dict, and its workloads and checks read certificates through to_rows()
    assert isinstance(qtoric.IntMatrix.__dict__["from_rows"], classmethod)
    p = qtoric.cohomology_presentation(qtoric.CharPair(2, 1, (2,), (1, 0)))
    verdict = qtoric.ring_iso_search(p, p)
    _, _, w = qtoric.builtin_witness("fold-r", n=2, m=2, s=1, r=1)
    assert all(_int_rows(x) for x in (verdict.matrix.to_rows(), w.s.to_rows(), w.t.to_rows()))


# what a fresh interpreter loads: -S leaves out the site hooks, which may
# import anything themselves, so the package's own imports decide
_STARTUP = """
import io, runpy, sys
sys.argv = ["qtoric"] + sys.argv[1:]
sys.stdin = io.StringIO('{"n": 2, "m": 1, "a": [2], "b": [1, 0]}')
sys.stdout = io.StringIO()
try:
    runpy.run_module("qtoric", run_name="__main__")
except SystemExit as exc:
    assert exc.code == 0, exc.code
sys.stdout = sys.__stdout__
print(" ".join(sorted(m for m in sys.modules if m.startswith("qtoric"))))
"""


def _loaded(code, *argv):
    src = str(Path(qtoric.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run(
        [sys.executable, "-S", "-c", code, *argv], capture_output=True, text=True, env=env
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_cli_startup_skips_dataclasses():
    code = "import qtoric.cli, sys; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    assert _loaded(code) == "[]\n"


def test_package_import_loads_no_layer():
    # the exports are listed before any is loaded, and a layer module
    # resolves on first access too
    code = (
        "import qtoric, sys; print(sorted(m for m in sys.modules if 'qtoric' in m)); "
        "print(set(qtoric.__all__) <= set(dir(qtoric)), qtoric.oracle.__name__)"
    )
    assert _loaded(code) == "['qtoric']\nTrue qtoric.oracle\n"


@pytest.mark.parametrize(
    "argv, absent",
    [
        (["count", "--n", "3", "--m", "3"], "qtoric.oracle"),
        (["validate"], "qtoric.classify"),
        (["kernel"], "qtoric.classify"),
        (["cohomology"], "qtoric.classify"),
        (["enumerate", "--n", "2", "--m", "2", "--bound", "2"], "qtoric.oracle"),
        (["witness-check", "--family", "fold-r", "--n", "2", "--m", "1", "--s", "1", "--r", "1"],
         "qtoric.classify"),
    ],
    ids=lambda v: v[0] if isinstance(v, list) else v,
)
def test_command_loads_only_its_layers(argv, absent):
    loaded = _loaded(_STARTUP, *argv).split()
    assert "qtoric.cli" in loaded and absent not in loaded


def _call_graph():
    """Each definition of the package, as "layer.name", mapped to the
    package definitions it reads by name.  A name a module imports from a
    sibling is a definition that reads the imported one, so reach follows
    names across modules.  Annotations count: a method called on a value is
    reached through the class its annotated type names."""
    graph = {}
    for path in Path(qtoric.__file__).parent.glob("*.py"):
        module, tree = path.stem, ast.parse(path.read_text())
        scope = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                # the package imports names, never sibling modules, which
                # the graph would not follow
                assert node.module, (module, [a.name for a in node.names])
                for alias in node.names:
                    local = alias.asname or alias.name
                    scope[local] = module + "." + local
                    graph[module + "." + local] = {node.module + "." + alias.name}
        bodies = {}
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            else:
                names = [t.id for t in getattr(node, "targets", ()) if isinstance(t, ast.Name)]
            for name in names:
                scope[name] = module + "." + name
                bodies[name] = node
        for name, node in bodies.items():
            graph[module + "." + name] = {
                scope[n.id] for n in ast.walk(node) if isinstance(n, ast.Name) and n.id in scope
            }
    return graph


def _reach(graph, start):
    seen, todo = set(), [start]
    while todo:
        for name in graph.get(todo.pop(), ()):
            if name not in seen:
                seen.add(name)
                todo.append(name)
    return seen


# each oracle, and what it must never reach: an oracle that leans on the
# closed form it checks agrees with it by construction.  A name ending in
# "." stands for every definition of that layer.
_ORACLES = {
    "quasitoric.validate_bruteforce": ("quasitoric.validate", "quasitoric.normalize"),
    "oracle.ring_iso_search": ("classify.", "quasitoric.normalize", "quasitoric.validate"),
    "oracle.witness_check": ("classify.", "quasitoric.normalize", "quasitoric.validate"),
    "quasitoric.kernel_lattice": ("quasitoric.kernel_span_vectors",),
}


@pytest.mark.parametrize("oracle", sorted(_ORACLES))
def test_oracle_reaches_no_closed_form_it_checks(oracle):
    graph = _call_graph()
    reached = _reach(graph, oracle)
    # the graph follows imports: each oracle reaches the lattice layer
    assert any(name.startswith("lattice.") for name in reached)
    banned = _ORACLES[oracle]
    assert sorted(
        name for name in reached
        if name in banned or any(b.endswith(".") and name.startswith(b) for b in banned)
    ) == []


def test_unknown_name_is_rejected_without_loading_a_layer():
    code = (
        "import qtoric, sys\n"
        "try:\n    qtoric.no_such_name\n"
        "except AttributeError as exc:\n    print(repr(exc))\n"
        "try:\n    from qtoric import no_such_name\n"
        "except ImportError as exc:\n    print(type(exc).__name__)\n"
        "print(sorted(m for m in sys.modules if m.startswith('qtoric')))"
    )
    assert _loaded(code) == (
        "AttributeError(\"module 'qtoric' has no attribute 'no_such_name'\")\n"
        "ImportError\n['qtoric']\n"
    )


def test_first_access_caches_the_name():
    code = (
        "import qtoric; assert 'validate' not in vars(qtoric); v = qtoric.validate; "
        "print(vars(qtoric)['validate'] is v is qtoric.quasitoric.validate)"
    )
    assert _loaded(code) == "True\n"
