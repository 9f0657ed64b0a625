"""The benchmark's reference checks accept right answers and reject wrong ones.

    python3 -m pytest bench -q

Right answers come from qtoric itself; each test then breaks one thing and
expects the check to object.  The polynomial substitution is compared with
sympy, which shares no code with either side.
"""

import copy
import json
import random
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import pytest
import sympy

import qtoric
import reference as ref
import workloads
from tracer import Tracer

# -- closed forms ------------------------------------------------------------


def test_nonbott_count_matches_the_paper_table():
    assert [ref.nonbott_count(n, 1) for n in range(1, 6)] == [1, 0, 2, 0, 2]
    assert [ref.nonbott_count(n, n) for n in range(2, 6)] == [1, 4, 4, 9]
    assert ref.nonbott_count(3, 2) == 4 and ref.nonbott_count(5, 4) == 12


def test_fold_rule():
    assert ref.fold_related(3, 2, ("a2", 1, 1), ("a2", 2, 3))
    assert not ref.fold_related(3, 2, ("a2", 1, 1), ("a2", 1, 2))
    assert not ref.fold_related(3, 2, ("a2", 1, 1), ("b2", 1, 1))


# -- polynomials and lattices -----------------------------------------------


def test_substitution_agrees_with_sympy():
    x1, x2, y1, y2 = sympy.symbols("x1 x2 y1 y2")
    rng = random.Random(5)
    for _ in range(30):
        d = rng.randint(0, 5)
        p = tuple(rng.randint(-3, 3) for _ in range(d + 1))
        g = [[rng.randint(-3, 3) for _ in range(2)] for _ in range(2)]
        expr = sum(c * x1 ** (d - i) * x2**i for i, c in enumerate(p))
        sub = sympy.Poly(
            expr.subs({x1: g[0][0] * y1 + g[0][1] * y2, x2: g[1][0] * y1 + g[1][1] * y2}, simultaneous=True),
            y1,
            y2,
        )
        want = tuple(int(sub.coeff_monomial(y1 ** (d - i) * y2**i)) for i in range(d + 1))
        assert ref.substitute(p, g) == want


def test_same_lattice_sees_an_index_two_sublattice():
    assert ref.same_lattice([[1, 0], [0, 1]], [[1, 1], [0, 1]])
    assert not ref.same_lattice([[1, 0], [0, 1]], [[2, 0], [0, 1]])
    assert not ref.same_lattice([[1, 0, 0]], [[1, 0, 0], [0, 1, 0]])


# -- enumerate-grid ----------------------------------------------------------


def labels(n, m, bound):
    return [c.to_json_dict() for c in qtoric.enumerate_classes(n, m, bound)]


def test_enumeration_check_accepts_the_program():
    for n, m in ((1, 1), (3, 1), (3, 2), (4, 4)):
        assert ref.check_enumeration(n, m, 2, labels(n, m, 2)) == []


def test_enumeration_check_rejects_a_missing_class():
    classes = labels(3, 2, 2)
    nonbott = next(i for i, c in enumerate(classes) if c["family"] == "nonbott")
    del classes[nonbott]
    assert ref.check_enumeration(3, 2, 2, classes)


def test_enumeration_check_rejects_an_inadmissible_representative():
    classes = labels(3, 2, 2)
    classes[-1]["representative"]["a"][0] = 3
    assert ref.check_enumeration(3, 2, 2, classes)


def test_square_check_rejects_a_wrong_class_list():
    classes = labels(1, 1, 2)
    even = copy.deepcopy(classes[0])
    even["representative"].update(a=[2], b=[0])
    assert ref.check_enumeration(1, 1, 2, [even] + classes[1:]) != []


# -- iso-search --------------------------------------------------------------


def iso_case():
    left = ref.nonbott_pair(3, 2, "a2", 1, 1)
    right = tuple(-x for x in ref.nonbott_pair(3, 2, "a2", 2, 3)[0]), tuple(
        -x for x in ref.nonbott_pair(3, 2, "a2", 2, 3)[1]
    )
    pres = [qtoric.cohomology_presentation(qtoric.CharPair(3, 2, *v)) for v in (left, right)]
    verdict = qtoric.ring_iso_search(pres[0], pres[1], 3)
    gens = [ref.presentation_gens(*v) for v in (left, right)]
    return gens, [list(r) for r in verdict.matrix.to_rows()]


def test_iso_check_accepts_the_program():
    gens, g = iso_case()
    assert ref.check_iso(gens[0], gens[1], 3, True, True, g) == []


def test_iso_check_rejects_a_wrong_verdict():
    gens, g = iso_case()
    assert ref.check_iso(gens[0], gens[1], 3, False, True, g)
    assert ref.check_iso(gens[0], gens[1], 3, True, False, None)


def test_iso_check_rejects_a_bad_matrix():
    gens, g = iso_case()
    assert ref.check_iso(gens[0], gens[1], 3, True, True, [[2, 0], [0, 1]])  # det 2
    assert ref.check_iso(gens[0], gens[1], 3, True, True, [[1, 4], [0, 1]])  # outside bound
    assert ref.check_iso(gens[0], gens[1], 3, True, True, [[1, 0], [0, 1]])  # not a witness


# -- pair-audit --------------------------------------------------------------


def audit(n, m, a, b):
    wl = workloads.PairAudit(BENCH.parent, 1)
    op = (n, m, a, b)
    return wl, op, wl.run(op)


def test_audit_check_accepts_the_program():
    wl, op, out = audit(3, 2, (2, 0), (1, 1, 0))
    assert wl.check(op, out) == []
    wl, op, out = audit(2, 2, (3, 1), (1, 0))
    assert wl.check(op, out) == []


def test_audit_check_rejects_a_wrong_verdict():
    wl, op, out = audit(2, 2, (3, 1), (1, 0))
    assert wl.check(op, (True, out[1], None))
    assert wl.check(op, (out[0], True, None))


def test_audit_check_rejects_wrong_invariants():
    n, m, a, b = 3, 2, (2, 0), (1, 1, 0)
    wl, op, (valid, oracle_valid, (pres, ranks, kernel)) = audit(n, m, a, b)
    good = dict(gens=(pres.gen1.coeffs, pres.gen2.coeffs), ranks=ranks.ranks, torsion=ranks.torsion, kernel=kernel.basis)
    bad = [
        dict(good, ranks=(1, 2, 3, 3, 2, 2)),
        dict(good, torsion=((), (2,)) + ((),) * 4),
        dict(good, kernel=(kernel.basis[0], tuple(2 * x for x in kernel.basis[0]))),
        dict(good, kernel=(kernel.basis[0], (1,) + (0,) * 6)),
        dict(good, gens=(pres.gen2.coeffs, pres.gen1.coeffs)),
    ]
    assert ref.check_audit(n, m, a, b, True, True, **good) == []
    for fields in bad:
        assert ref.check_audit(n, m, a, b, True, True, **fields)


def test_round_check_rejects_a_wrong_admissible_count():
    wl = workloads.PairAudit(BENCH.parent, 1)
    ops = wl.round(0)
    outs = [wl.run(op) for op in ops]
    assert wl.round_errors(ops, outs) == []
    flip = next(i for i, out in enumerate(outs) if not out[0])
    outs[flip] = (True,) + outs[flip][1:]
    assert wl.round_errors(ops, outs)


# -- cli-session -------------------------------------------------------------


@pytest.fixture(scope="module")
def session():
    wl = workloads.CliSession(BENCH.parent, 3)
    script = wl.round(0)
    return wl, [(op, wl.run(op)) for op in script]


def test_cli_checks_accept_the_program(session):
    wl, results = session
    assert [e for op, out in results for e in wl.check(op, out)] == []


def test_cli_checks_reject_a_wrong_exit_code(session):
    wl, results = session
    for op, (code, out, err) in results:
        assert wl.check(op, (5, out, err))


def test_cli_checks_reject_wrong_answers(session):
    wl, results = session
    rejected = 0
    for op, (code, out, err) in results:
        if code != 0:
            continue
        info = op[2]
        if info["fmt"] == "json":
            doc = json.loads(out)
            for key in ("valid", "count", "found", "homeomorphic", "ok", "graded_ranks", "basis", "family"):
                if key in doc:
                    value = doc[key]
                    doc[key] = (not value) if isinstance(value, bool) else (
                        value + 1 if isinstance(value, int) else
                        [value[0]] if isinstance(value, list) else value + "x"
                    )
                    break
            wrong = json.dumps(doc)
        else:
            lines = out.splitlines()
            row = lines[-1].split("\t")
            row[-1] = {"True": "False", "False": "True"}.get(row[-1], row[-1] + "9")
            wrong = "\n".join(lines[:-1] + ["\t".join(row)]) + "\n"
        assert wl.check(op, (0, wrong, err)), op[0]
        assert wl.check(op, (0, out[: len(out) // 2] + "}{", err)) or info["fmt"] == "tsv", op[0]
        rejected += 1
    assert rejected == 19


def test_witness_check_rejects_a_broken_certificate():
    u, u2, w = qtoric.builtin_witness("fold-r", 3, 2, 1, 1)
    s = [list(r) for r in w.s.to_rows()]
    t = [list(r) for r in w.t.to_rows()]
    assert ref.check_witness("fold-r", 3, 2, 1, 1, None, None, s, t) == []
    assert ref.check_witness("fold-r", 3, 2, 1, 1, None, None, s[1:] + s[:1], t)
    assert ref.check_witness("fold-r", 3, 2, 1, 1, None, None, s, [[1, 0], [0, 1]])


# -- tracing -----------------------------------------------------------------


def test_tracer_counts_repeat_and_self_time_adds_up():
    def run():
        tracer = Tracer()
        tracer.install()
        try:
            qtoric.enumerate_classes(3, 2, 2)
            p = qtoric.cohomology_presentation(qtoric.CharPair(3, 2, (2, 0), (1, 0, 0)))
            q = qtoric.cohomology_presentation(qtoric.CharPair(3, 2, (2, 0), (1, 1, 1)))
            qtoric.ring_iso_search(p, q, 3)
        finally:
            tracer.uninstall()
        return tracer

    first, second = run(), run()
    calls = lambda t: {k: v[0] for k, v in t.aggregates()["spans"].items()}
    counts = lambda t: {k: v for k, v in t.aggregates()["counts"].items() if not k.endswith("_ns")}
    assert calls(first) == calls(second) and counts(first) == counts(second)
    spans = first.aggregates()["spans"]
    # layers reached through another layer's namespace are seen
    assert spans["quasitoric.validate"][0] > 0 and spans["polyring.substitute_linear"][0] > 0
    # self time never exceeds total time, and the roots' totals cover all self time
    assert all(own <= total for _, total, own in spans.values())
    rows = list(first.span_rows())
    roots = sum(end - start for _, parent, _, _, start, end in rows if parent == -1)
    assert sum(own for _, _, own in spans.values()) == roots
    # uninstall restores the originals
    assert qtoric.quasitoric.validate.__name__ == "validate" and not hasattr(qtoric.quasitoric.validate, "__wrapped__")
