"""The four benchmark workloads.

A workload builds its inputs from the seed, names one fixed warm-up
operation, and hands out rounds: lists of operations of one fixed make-up,
drawn from ``(seed, round index)``, so a round's operations never depend on
timing.  ``run`` performs one operation against qtoric (timed by the
caller); ``check`` compares its output with ``reference`` (not timed).
"""

from __future__ import annotations

import itertools
import json
import os
import random
import subprocess
import sys
from pathlib import Path
from typing import List

import reference as ref

# qtoric is importable once run.py has put the checkout's src/ on sys.path
import qtoric


def _rng(seed: int, index: int) -> random.Random:
    return random.Random(f"{seed}:{index}")


def _signed(a, b, sign):
    return tuple(sign * x for x in a), tuple(sign * x for x in b)


def _shuffled(rng, v):
    v = list(v)
    rng.shuffle(v)
    return tuple(v)


class Workload:
    name = ""
    tail_pct = 90  # latency_tail_ms is this percentile
    trace_rounds = 1  # rounds in a traced run (fixed, so counts repeat)

    def __init__(self, root: Path, seed: int) -> None:
        self.root = root
        self.seed = seed

    def slot(self, op, position):
        """What an operation repeats across rounds, for workloads whose
        rounds repeat the same operations or the same kinds of command."""
        return None

    def input_errors(self) -> List[str]:
        """Checks of the inputs built in set-up."""
        return []

    def round_errors(self, ops, outs) -> List[str]:
        """Checks of a round as a whole."""
        return []

    def peak_rss_mb(self) -> float:
        import resource

        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class EnumerateGrid(Workload):
    """One operation: ``enumerate_classes(n, m, bound)`` for one grid cell.
    A round is the whole grid, 1 <= m <= n <= 5 at bounds 2 and 3, in
    seeded order."""

    name = "enumerate-grid"
    tail_pct = 90
    min_ops = 180  # six rounds, so each cell's median has six samples

    CELLS = [(n, m, b) for b in (2, 3) for n in range(1, 6) for m in range(1, n + 1)]

    def slot(self, op, position):
        return op

    def warmup(self):
        qtoric.enumerate_classes(2, 2, 2)

    def round(self, index: int):
        cells = list(self.CELLS)
        _rng(self.seed, index).shuffle(cells)
        return cells

    def run(self, op):
        return qtoric.enumerate_classes(*op)

    def check(self, op, out):
        return ref.check_enumeration(*op, [c.to_json_dict() for c in out])


class IsoSearch(Workload):
    """One operation: ``ring_iso_search`` on a pair of presentations of
    non-Bott representatives over (n, m) in {2, 3, 4}^2.

    Hits pair a class with a proper fold of itself; misses pair the two
    orientations over n != m.  Either side may carry a global sign flip,
    which moves the witness away from the identity.  A round is 20 searches:
    14 hits at bound 3, 2 hits at bound 5, 2 misses at bound 3 and 2 at
    bound 5, so 80% are hits and the median falls among bound-3 hits.
    """

    name = "iso-search"
    tail_pct = 99
    min_ops = 1000
    trace_rounds = 25
    MAKE_UP = [("hit", 3)] * 14 + [("hit", 5)] * 2 + [("miss", 3)] * 2 + [("miss", 5)] * 2

    def __init__(self, root, seed):
        super().__init__(root, seed)
        classes = []
        for n in (2, 3, 4):
            for m in (2, 3, 4):
                for orientation in ("a2", "b2") if n != m else ("a2",):
                    s_slots, r_slots = ref.fold_slots(n, m, orientation)
                    for s in range(1, s_slots + 1):
                        for r in range(1, r_slots + 1):
                            classes.append((n, m, orientation, s, r))
        self.pres = {}
        for c in classes:
            for sign in (1, -1):
                a, b = _signed(*ref.nonbott_pair(*c), sign)
                self.pres[c + (sign,)] = qtoric.cohomology_presentation(
                    qtoric.CharPair(c[0], c[1], a, b)
                )
        self.pairs = {"hit": [], "miss": []}
        for left, right in itertools.product(classes, repeat=2):
            if left[:2] != right[:2] or left == right:
                continue
            kind = "hit" if ref.fold_related(left[0], left[1], left[2:], right[2:]) else None
            if kind is None and left[2] != right[2]:
                kind = "miss"
            if kind:
                self.pairs[kind].append((left, right))
        self._verified = {}

    def input_errors(self):
        errors = []
        for key, p in self.pres.items():
            a, b = _signed(*ref.nonbott_pair(*key[:5]), key[5])
            if (p.gen1.coeffs, p.gen2.coeffs) != ref.presentation_gens(a, b):
                errors.append(f"presentation of {key} is wrong")
        return errors

    def warmup(self):
        qtoric.ring_iso_search(
            self.pres[(3, 2, "a2", 1, 1, 1)], self.pres[(3, 2, "a2", 1, 3, 1)], 3
        )

    def round(self, index):
        rng = _rng(self.seed, index)
        ops = []
        for kind, bound in self.MAKE_UP:
            left, right = rng.choice(self.pairs[kind])
            ops.append((left + (rng.choice((1, -1)),), right + (rng.choice((1, -1)),), bound))
        rng.shuffle(ops)
        return ops

    def run(self, op):
        left, right, bound = op
        return qtoric.ring_iso_search(self.pres[left], self.pres[right], bound)

    def check(self, op, out):
        left, right, bound = op
        rows = out.matrix.to_rows() if out.found else None
        key = (left, right, bound, out.found, rows)
        if key not in self._verified:
            gens = [ref.presentation_gens(*_signed(*ref.nonbott_pair(*k[:5]), k[5])) for k in (left, right)]
            expected = ref.fold_related(left[0], left[1], left[2:5], right[2:5])
            errors = ref.check_iso(gens[0], gens[1], bound, expected, out.found, rows)
            self._verified[key] = [f"{left} vs {right} at bound {bound}: {e}" for e in errors]
        return self._verified[key]


class PairAudit(Workload):
    """One operation audits one characteristic pair with entries in
    [-3, 3] and n, m <= 3: ``validate`` and ``validate_bruteforce`` on every
    pair, then ``cohomology_presentation``, ``graded_ranks`` and
    ``kernel_lattice`` on admissible ones.

    The exhaustive set has 159,201 pairs, 2,869 of them admissible (1.8%).
    A round of 2,000 pairs keeps those proportions for each (n, m) and for
    admissibility, by largest remainders; the pairs themselves are drawn
    uniformly within each stratum.
    """

    name = "pair-audit"
    tail_pct = 99
    min_ops = 1000
    trace_rounds = 10
    ROUND = 2000
    VALUES = range(-3, 4)

    def __init__(self, root, seed):
        super().__init__(root, seed)
        # for each (n, m): the a-vectors weighted by how many b complete them
        self.a_weights = {}
        strata = {}
        for n, m in itertools.product((1, 2, 3), repeat=2):
            avecs = list(itertools.product(self.VALUES, repeat=m))
            allowed = [[y for y in self.VALUES if ref.admissible(a, (y,))] for a in avecs]
            weights = [len(al) ** n for al in allowed]
            self.a_weights[(n, m)] = (avecs, allowed, weights)
            good = sum(weights)
            strata[(n, m, True)] = good
            strata[(n, m, False)] = len(self.VALUES) ** (n + m) - good
        total = sum(strata.values())
        self.admissible_total = sum(v for k, v in strata.items() if k[2])
        quotas = {k: self.ROUND * v / total for k, v in strata.items()}
        self.make_up = {k: int(q) for k, q in quotas.items()}
        spare = self.ROUND - sum(self.make_up.values())
        for k in sorted(quotas, key=lambda k: int(quotas[k]) - quotas[k])[:spare]:
            self.make_up[k] += 1

    def input_errors(self):
        """The sampler's weights against a count over the exhaustive set."""
        direct = sum(
            ref.admissible(a, b)
            for n, m in itertools.product((1, 2, 3), repeat=2)
            for a in itertools.product(self.VALUES, repeat=m)
            for b in itertools.product(self.VALUES, repeat=n)
        )
        if direct != self.admissible_total:
            return [f"{self.admissible_total} admissible pairs by weight, {direct} by count"]
        return []

    def _draw(self, rng, n, m, good):
        if good:
            avecs, allowed, weights = self.a_weights[(n, m)]
            i = rng.choices(range(len(avecs)), weights)[0]
            return avecs[i], tuple(rng.choice(allowed[i]) for _ in range(n))
        while True:
            a = tuple(rng.choice(self.VALUES) for _ in range(m))
            b = tuple(rng.choice(self.VALUES) for _ in range(n))
            if not ref.admissible(a, b):
                return a, b

    def warmup(self):
        self.run((3, 3, (2, 0, 0), (1, 1, 0)))

    def round(self, index):
        rng = _rng(self.seed, index)
        ops = []
        for (n, m, good), k in sorted(self.make_up.items()):
            ops += [(n, m) + self._draw(rng, n, m, good) for _ in range(k)]
        rng.shuffle(ops)
        return ops

    def run(self, op):
        cp = qtoric.CharPair(*op)
        valid = qtoric.validate(cp)
        oracle_valid = qtoric.validate_bruteforce(cp)
        if not valid:
            return valid, oracle_valid, None
        pres = qtoric.cohomology_presentation(cp)
        return valid, oracle_valid, (pres, qtoric.graded_ranks(pres), qtoric.kernel_lattice(cp))

    def check(self, op, out):
        valid, oracle_valid, extra = out
        if extra is None:
            return ref.check_audit(*op, valid, oracle_valid)
        pres, ranks, kernel = extra
        return ref.check_audit(
            *op,
            valid,
            oracle_valid,
            gens=(pres.gen1.coeffs, pres.gen2.coeffs),
            ranks=ranks.ranks,
            torsion=ranks.torsion,
            kernel=kernel.basis,
        )

    def round_errors(self, ops, outs):
        """The admissible count of a round against the planned make-up."""
        planned = sum(k for key, k in self.make_up.items() if key[2])
        said = sum(1 for out in outs if out is not None and out[0])
        direct = sum(1 for op in ops if ref.admissible(op[2], op[3]))
        if not planned == said == direct:
            return [f"admissible pairs: planned {planned}, validate {said}, direct count {direct}"]
        return []


class CliSession(Workload):
    """One operation is one ``python -m qtoric ...`` process, run to its end
    before the next starts.  A round is a fixed script of 24 commands: every
    subcommand in JSON and in TSV on seeded valid inputs, three inadmissible
    inputs (exit 3) and two malformed documents (exit 2).  Inputs go in on
    standard input."""

    name = "cli-session"
    tail_pct = 90
    min_ops = 192  # eight rounds: each process's time is noisy on a shared host

    def __init__(self, root, seed):
        super().__init__(root, seed)
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
        self.trace_dir = None  # set by a traced run: commands run under tracer.py
        self.max_rss_kb = 0
        self._spawned = 0

    # -- inputs ------------------------------------------------------------

    @staticmethod
    def _nonbott(rng, n, m, orientation=None):
        if orientation is None:
            orientation = rng.choice(("a2", "b2")) if n != m else "a2"
        s_slots, r_slots = ref.fold_slots(n, m, orientation)
        return (orientation, rng.randint(1, s_slots), rng.randint(1, r_slots))

    @staticmethod
    def _doc(rng, n, m, cls):
        a, b = _signed(*ref.nonbott_pair(n, m, *cls), rng.choice((1, -1)))
        return {"n": n, "m": m, "a": list(_shuffled(rng, a)), "b": list(_shuffled(rng, b))}

    @staticmethod
    def _inadmissible(rng):
        while True:
            n, m = rng.randint(1, 4), rng.randint(1, 4)
            a = [rng.randint(-3, 3) for _ in range(m)]
            b = [rng.randint(-3, 3) for _ in range(n)]
            if not ref.admissible(a, b):
                return {"n": n, "m": m, "a": a, "b": b}

    def _dims(self, rng, distinct=False):
        while True:
            n, m = rng.randint(2, 4), rng.randint(2, 4)
            if n >= m and (n != m or not distinct):
                return n, m

    def _fold_partner(self, rng, n, m, cls):
        orientation, s, r = cls
        s_slots, r_slots = ref.fold_slots(n, m, orientation)
        return (orientation, rng.choice((s, s_slots + 1 - s)), rng.choice((r, r_slots + 1 - r)))

    def _mirror(self, rng, n, m, cls):
        return self._nonbott(rng, n, m, "b2" if cls[0] == "a2" else "a2")

    def round(self, index):
        """Each command is (argv, stdin text, expectation)."""
        rng = _rng(self.seed, index)
        script = []

        def add(argv, doc, kind, **info):
            text = doc if isinstance(doc, str) else json.dumps(doc)
            script.append((argv, text, dict(info, kind=kind, doc=doc)))

        def one(kind, argv, fmt):
            n, m = self._dims(rng)
            cls = self._nonbott(rng, n, m)
            add(argv + ["-", "--format", fmt], self._doc(rng, n, m, cls), kind, n=n, m=m, cls=cls, fmt=fmt)

        def two(kind, argv, fmt, partner, bound=None):
            n, m = self._dims(rng, distinct=partner == "mirror")
            left = self._nonbott(rng, n, m)
            right = self._fold_partner(rng, n, m, left) if partner == "fold" else self._mirror(rng, n, m, left)
            docs = [self._doc(rng, n, m, left), self._doc(rng, n, m, right)]
            if rng.random() < 0.5:
                docs.reverse()
                left, right = right, left
            extra = ["--bound", str(bound)] if bound else []
            add(argv + ["-", "--format", fmt] + extra, docs, kind, n=n, m=m, left=left, right=right, fmt=fmt, bound=bound)

        one("validate", ["validate"], "json")
        bad = self._inadmissible(rng)
        add(["validate", "-", "--format", "tsv"], bad, "validate-invalid", fmt="tsv")
        one("classify", ["classify"], "json")
        one("classify", ["classify"], "tsv")
        two("compare", ["compare"], "json", "fold")
        two("compare", ["compare"], "tsv", "mirror")
        for fmt in ("json", "tsv"):
            n = rng.randint(1, 3)
            m = rng.randint(1, n)
            add(["enumerate", "--n", str(n), "--m", str(m), "--bound", "2", "--format", fmt], "", "enumerate", n=n, m=m, bound=2, fmt=fmt)
        for fmt in ("json", "tsv"):
            n = rng.randint(1, 6)
            m = rng.randint(1, n)
            add(["count", "--n", str(n), "--m", str(m), "--format", fmt], "", "count", n=n, m=m, fmt=fmt)
        one("cohomology", ["cohomology"], "json")
        one("cohomology", ["cohomology"], "tsv")
        one("kernel", ["kernel"], "json")
        one("kernel", ["kernel"], "tsv")
        two("oracle-iso", ["oracle-iso"], "json", "fold", bound=3)
        two("oracle-iso", ["oracle-iso"], "tsv", "mirror", bound=3)
        for family, fmt in (("fold-r", "json"), ("fold-s", "tsv")):
            n, m = rng.randint(1, 4), rng.randint(1, 4)
            s, r = rng.randint(1, m), rng.randint(1, n)
            argv = ["witness-check", "--family", family, "--n", str(n), "--m", str(m), "--s", str(s), "--r", str(r), "--format", fmt]
            add(argv, "", "witness", family=family, n=n, m=m, s=s, r=r, a=None, b=None, fmt=fmt)
        n = rng.randint(1, 4)
        a, b = rng.choice(((1, 2), (2, 1), (-1, -2), (-2, -1)))
        argv = ["witness-check", "--family", "repeat-fill", "--n", str(n), "--a", str(a), "--b", str(b)]
        add(argv, "", "witness", family="repeat-fill", n=n, m=1, s=None, r=None, a=a, b=b, fmt="json")
        for cmd in ("classify", "cohomology"):
            add([cmd, "-"], self._inadmissible(rng), "exit3")
        n, m = self._dims(rng)
        add(["compare", "-"], [self._doc(rng, n, m, self._nonbott(rng, n, m)), self._inadmissible(rng)], "exit3")
        text = json.dumps(self._doc(rng, n, m, self._nonbott(rng, n, m)))
        add(["kernel", "-"], text[: rng.randint(1, len(text) - 1)], "exit2")
        add(["compare", "-"], "[" + text + "]", "exit2")
        return script

    # -- running -----------------------------------------------------------

    def _argv(self, argv):
        if self.trace_dir is None:
            return [sys.executable, "-m", "qtoric"] + argv
        self._spawned += 1
        record = self.trace_dir / f"cli-{os.getpid()}-{self._spawned}.json"
        return [sys.executable, str(self.root / "bench" / "tracer.py"), str(record), "--"] + argv

    def _spawn(self, argv, text):
        proc = subprocess.Popen(
            self._argv(argv),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            cwd=self.root,
            env=self.env,
        )
        try:
            proc.stdin.write(text.encode())
            proc.stdin.close()
            out = proc.stdout.read()
            err = proc.stderr.read()
        finally:
            # wait4 instead of communicate(): it also returns the child's peak RSS
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            proc.stdout.close()
            proc.stderr.close()
        self.max_rss_kb = max(self.max_rss_kb, usage.ru_maxrss)
        return proc.returncode, out.decode(), err.decode()

    def slot(self, op, position):
        return position  # the script's commands come in a fixed order

    def warmup(self):
        self._spawn(["count", "--n", "3", "--m", "3"], "")

    def run(self, op):
        argv, text, _ = op
        return self._spawn(argv, text)

    def peak_rss_mb(self):
        return self.max_rss_kb / 1024.0

    # -- checking ----------------------------------------------------------

    def check(self, op, out):
        argv, _, info = op
        code, stdout, stderr = out
        kind = info["kind"]
        where = " ".join(argv)
        want = {"exit2": 2, "exit3": 3}.get(kind, 0)
        if code != want:
            return [f"{where}: exit {code}, expected {want}: {stderr.strip()[-200:]}"]
        if want:
            if stdout or not stderr.startswith("error:"):
                return [f"{where}: expected only an error message"]
            return []
        try:
            if info["fmt"] == "json":
                doc = json.loads(stdout)
            else:
                doc = [line.split("\t") for line in stdout.splitlines()]
        except ValueError as exc:
            return [f"{where}: unparsable output: {exc}"]
        try:
            errors = getattr(self, "_check_" + kind.replace("-", "_"))(info, doc)
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            errors = [f"unexpected output shape: {exc!r}"]
        return [f"{where}: {e}" for e in errors]

    def _check_validate(self, info, doc):
        if doc != {"valid": True, "oracle_valid": True, "agreement": True}:
            return [f"validate said {doc}"]
        return []

    def _check_validate_invalid(self, info, doc):
        if doc != [["valid", "oracle_valid", "agreement"], ["False", "False", "True"]]:
            return [f"validate said {doc}"]
        return []

    def _check_classify(self, info, doc):
        n, m = info["n"], info["m"]
        orientation, s, r = info["cls"]
        s_slots, r_slots = ref.fold_slots(n, m, orientation)
        want = ["nonbott", n, m, ref.folded(s, s_slots), ref.folded(r, r_slots), orientation]
        if info["fmt"] == "json":
            p = doc["params"]
            got = [doc["family"], doc["n"], doc["m"], p["s"], p["r"], p["orientation"]]
            rep = doc["representative"]
            rep_a, rep_b = rep["a"], rep["b"]
        else:
            row = doc[1]
            got = [row[0], int(row[1]), int(row[2]), int(row[3]), int(row[4]), row[5]]
            rep_a, rep_b = ([int(x) for x in v.split(",")] for v in row[7:9])
        errors = [] if got == want else [f"label {got}, expected {want}"]
        if not ref.admissible(rep_a, rep_b):
            errors.append(f"inadmissible representative {rep_a} {rep_b}")
        return errors

    def _verdict(self, info):
        return ref.fold_related(info["n"], info["m"], info["left"], info["right"])

    def _check_compare(self, info, doc):
        expected = self._verdict(info)
        if info["fmt"] == "json":
            verdict, rule = doc["homeomorphic"], doc["rule"]
        else:
            verdict, rule = doc[1][0] == "True", doc[1][1]
        errors = [] if verdict == expected else [f"homeomorphic={verdict}, expected {expected}"]
        if rule not in ref.COMPARE_RULES:
            errors.append(f"undocumented rule {rule!r}")
        return errors

    def _check_enumerate(self, info, doc):
        n, m, bound = info["n"], info["m"], info["bound"]
        if info["fmt"] == "json":
            if doc["count"] != len(doc["classes"]):
                return ["count disagrees with the class list"]
            classes = doc["classes"]
        else:
            classes = []
            for row in doc[1:]:
                rep = {"n": int(row[1]), "m": int(row[2]), "a": [int(x) for x in row[7].split(",")], "b": [int(x) for x in row[8].split(",")]}
                classes.append({"family": row[0], "n": int(row[1]), "m": int(row[2]), "representative": rep})
        return ref.check_enumeration(n, m, bound, classes)

    def _check_count(self, info, doc):
        got = doc["count"] if info["fmt"] == "json" else int(doc[1][2])
        want = ref.nonbott_count(info["n"], info["m"])
        return [] if got == want else [f"count {got}, expected {want}"]

    def _check_cohomology(self, info, doc):
        n, m = info["n"], info["m"]
        want = list(ref.expected_ranks(n, m))
        if info["fmt"] == "json":
            ranks = doc["graded_ranks"]
            errors = [] if doc["torsion_free"] else ["torsion reported"]
            degrees = [doc["presentation"]["gen1"]["degree"], doc["presentation"]["gen2"]["degree"]]
        else:
            ranks = [int(x) for x in doc[2][2].split(",")]
            errors = []
            degrees = [int(doc[0][1]), int(doc[1][1])]
        if ranks != want:
            errors.append(f"graded ranks {ranks}, expected {want}")
        if degrees != [n + 1, m + 1]:
            errors.append(f"generator degrees {degrees}")
        return errors

    def _check_kernel(self, info, doc):
        n, m = info["n"], info["m"]
        rows = doc["basis"] if info["fmt"] == "json" else [[int(x) for x in r] for r in doc]
        # the input was permuted and sign-flipped; the kernel is checked
        # against the matrix of exactly that input
        return ref.check_kernel(n, m, info["doc"]["a"], info["doc"]["b"], rows)

    def _check_oracle_iso(self, info, doc):
        expected = self._verdict(info)
        if info["fmt"] == "tsv":
            found = doc[1][0] == "True"
            return [] if found == expected and doc[1][3] == "True" else [f"row {doc[1]}, expected found={expected}"]
        if not doc["agreement"]:
            return ["oracle and classifier disagree"]
        gens = [ref.presentation_gens(d["a"], d["b"]) for d in info["doc"]]
        return ref.check_iso(gens[0], gens[1], info["bound"], expected, doc["found"], doc.get("matrix"))

    def _check_witness(self, info, doc):
        if info["fmt"] == "tsv":
            return [] if doc == [["family", "ok"], [info["family"], "True"]] else [f"witness said {doc}"]
        if not doc["ok"]:
            return ["witness reported not ok"]
        w = doc["witness"]
        return ref.check_witness(info["family"], info["n"], info["m"], info["s"], info["r"], info["a"], info["b"], w["s"], w["t"])
