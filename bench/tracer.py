"""Span tracing of qtoric's six layers, installed from outside the package.

``Tracer.install`` replaces each public function of ``qtoric.lattice``,
``polyring``, ``quasitoric``, ``classify``, ``oracle`` and ``cli`` with a
wrapper, in every qtoric module namespace that holds it, so calls between
layers (``qtoric.quasitoric.is_basis_extendable``,
``qtoric.oracle.substitute_linear``, ...) are seen as well as calls from the
benchmark.  A wrapper records a span (id, parent, operation, name, start,
end) and adds the call to per-name counts, total time and self time, self
time being the span's duration minus the durations of its direct children.
A few tiny, very hot functions are counted without a span.

Spans stay in memory until the benchmark writes them out with
``write_spans`` at the end of a run.  Run as a script, this
module is the traced stand-in for ``python -m qtoric``:

    python3 bench/tracer.py OUT.json -- enumerate --n 2 --m 2
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import json
import sys
import time
import types
from array import array
from collections import Counter
from pathlib import Path

LAYERS = ("lattice", "polyring", "quasitoric", "classify", "oracle", "cli")

# called far more often than they take time: counted, no span
COUNT_ONLY = frozenset(
    {
        "lattice.lattice_equal",
        "polyring.homog_mul",
        "polyring.homog_add",
        "polyring.homog_scale",
    }
)

SEARCH = "oracle.ring_iso_search"


class Tracer:
    def __init__(self) -> None:
        self.names: list = []
        self._codes: dict = {}
        # one aggregate [calls, total_ns, self_ns] per span name code
        self.totals: list = []
        self.counts: Counter = Counter()
        self.op = -1  # the benchmark operation spans belong to
        self._ids = array("q")
        self._parents = array("q")
        self._ops = array("q")
        self._codes_arr = array("H")
        self._starts = array("q")
        self._ends = array("q")
        self._stack: list = []
        self._next_id = [0]
        self._patched: list = []
        self.origin = time.perf_counter_ns()

    # -- wrappers ------------------------------------------------------------

    def _code(self, name: str) -> int:
        if name not in self._codes:
            self._codes[name] = len(self.names)
            self.names.append(name)
            self.totals.append([0, 0, 0])
        return self._codes[name]

    def _span(self, name, fn, hook=None):
        code = self._code(name)
        agg = self.totals[code]
        stack = self._stack
        next_id = self._next_id
        perf = time.perf_counter_ns
        ids, parents, ops = self._ids, self._parents, self._ops
        codes, starts, ends = self._codes_arr, self._starts, self._ends
        tracer = self

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            sid = next_id[0]
            next_id[0] = sid + 1
            frame = [sid, 0, code]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                dur = t1 - t0
                agg[0] += 1
                agg[1] += dur
                agg[2] += dur - frame[1]
                if parent is not None:
                    parent[1] += dur
                ids.append(sid)
                parents.append(parent[0] if parent is not None else -1)
                ops.append(tracer.op)
                codes.append(code)
                starts.append(t0)
                ends.append(t1)
            if hook is not None:
                hook(args, result, dur, parent[2] if parent is not None else -1)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted_generator(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                counts[name] += 1
                yield item

        wrapper.__wrapped__ = fn
        return wrapper

    # -- hooks for the oracle's per-candidate counts --------------------------

    def _search_hook(self, args, result, dur, parent):
        self.counts["oracle.search_hit_ns" if result.found else "oracle.search_miss_ns"] += dur

    def _substitute_hook(self, args, result, dur, parent):
        # ring_iso_search substitutes both generators of every candidate
        if parent == self._codes[SEARCH]:
            self.counts["oracle.substitutions"] += 1

    def _ideal_hook(self, args, result, dur, parent):
        # inside a search, a degree-1 piece is built once for the target and
        # once for every candidate that passed the membership prefilter
        if parent == self._codes[SEARCH] and args[1] == 1:
            self.counts["oracle.degree1_pieces"] += 1

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer's public functions wherever qtoric holds them."""
        hooks = {
            SEARCH: self._search_hook,
            "polyring.substitute_linear": self._substitute_hook,
            "polyring.ideal_degree_lattice": self._ideal_hook,
        }
        self._code(SEARCH)
        replace = {}
        for layer in LAYERS:
            mod = importlib.import_module("qtoric." + layer)
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not isinstance(fn, types.FunctionType) or fn.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                if name in COUNT_ONLY:
                    replace[fn] = self._counted(name, fn)
                elif inspect.isgeneratorfunction(fn):
                    replace[fn] = self._counted_generator(name, fn)
                else:
                    replace[fn] = self._span(name, fn, hooks.get(name))
        for modname, mod in list(sys.modules.items()):
            if modname != "qtoric" and not modname.startswith("qtoric."):
                continue
            for attr, value in list(vars(mod).items()):
                if isinstance(value, types.FunctionType) and value in replace:
                    setattr(mod, attr, replace[value])
                    self._patched.append((mod, attr, value))
        lattice = importlib.import_module("qtoric.lattice")
        from_rows = lattice.IntMatrix.__dict__["from_rows"]
        lattice.IntMatrix.from_rows = classmethod(
            self._counted("lattice.matrix_builds", from_rows.__func__)
        )
        self._patched.append((lattice.IntMatrix, "from_rows", from_rows))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patched):
            setattr(owner, attr, value)
        self._patched.clear()

    # -- results ---------------------------------------------------------------

    def aggregates(self) -> dict:
        """Per-name [calls, total_ns, self_ns] and the plain counters."""
        return {
            "spans": {n: list(t) for n, t in zip(self.names, self.totals) if t[0]},
            "counts": dict(self.counts),
        }

    def span_rows(self):
        for i in range(len(self._ids)):
            yield (
                self._ids[i],
                self._parents[i],
                self._ops[i],
                self.names[self._codes_arr[i]],
                self._starts[i] - self.origin,
                self._ends[i] - self.origin,
            )


def merge(into: dict, other: dict) -> None:
    """Add one aggregates() result into another."""
    for name, (calls, total, own) in other["spans"].items():
        agg = into["spans"].setdefault(name, [0, 0, 0])
        agg[0] += calls
        agg[1] += total
        agg[2] += own
    for name, value in other["counts"].items():
        into["counts"][name] = into["counts"].get(name, 0) + value


def write_spans(path: Path, rows) -> int:
    """Write spans as gzipped tab-separated lines; returns the line count."""
    count = 0
    with gzip.open(path, "wt", compresslevel=1) as out:
        out.write("id\tparent\top\tname\tstart_ns\tend_ns\n")
        for row in rows:
            out.write("\t".join(map(str, row)) + "\n")
            count += 1
    return count


def _run_cli(out_path: str, argv: list) -> int:
    """Run the qtoric command line under a tracer and save what it saw."""
    root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root / "src"))
    tracer = Tracer()
    tracer.install()
    cli = importlib.import_module("qtoric.cli")
    tracer.op = 0
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse reports usage errors this way
        code = exc.code if isinstance(exc.code, int) else 2
    finally:
        tracer.uninstall()
    sys.stdout.flush()
    record = tracer.aggregates()
    record["rows"] = list(tracer.span_rows())
    Path(out_path).write_text(json.dumps(record))
    return code


if __name__ == "__main__":
    if len(sys.argv) < 3 or sys.argv[2] != "--":
        sys.exit("usage: tracer.py OUT.json -- QTORIC-ARGS...")
    sys.exit(_run_cli(sys.argv[1], sys.argv[3:]))
