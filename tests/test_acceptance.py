"""End-to-end acceptance checks.

Each test is one numbered criterion; the conftest hook prints a one-line
pass/fail summary per criterion at the end of the run.  Time budgets are
asserted inside the tests that carry one.
"""

import itertools
import random
import time

from qtoric.classify import (
    count_nonbott,
    enumerate_classes,
    homeomorphic,
    is_nonbott_class,
)
from qtoric.lattice import is_basis_extendable, lattice_from_generators
from qtoric.oracle import builtin_witness, ring_iso_search, witness_check
from qtoric.quasitoric import (
    CharPair,
    cohomology_presentation,
    graded_ranks,
    h_vector,
    kernel_lattice,
    kernel_span_vectors,
    validate,
    validate_bruteforce,
)


def _nonbott_rep(n, m, s, r):
    """The normalized class with s twist-2 entries and r twist-1 entries."""
    return CharPair(n, m, (2,) * s + (0,) * (m - s), (1,) * r + (0,) * (n - r))


def _mirror_rep(n, m, s, r):
    """Same counts with the roles of the two vectors swapped."""
    return CharPair(n, m, (1,) * r + (0,) * (m - r), (2,) * s + (0,) * (n - s))


def test_criterion_01_counts_and_enumeration():
    start = time.monotonic()
    expected = {
        (2, 2): 1,
        (3, 3): 4,
        (4, 4): 4,
        (3, 2): 4,
        (5, 2): 6,
        (3, 1): 2,
        (4, 1): 0,
        (5, 1): 2,
    }
    for (n, m), value in expected.items():
        assert count_nonbott(n, m) == value
    for n in range(1, 6):
        for m in range(1, n + 1):
            classes = enumerate_classes(n, m, 2)
            found = sum(1 for c in classes if is_nonbott_class(c))
            assert found == count_nonbott(n, m), (n, m)
    assert time.monotonic() - start < 10.0


def test_criterion_02_square_of_segments():
    classes = enumerate_classes(1, 1, 3)
    assert len(classes) == 3
    reps = [(c.family, c.representative.a, c.representative.b) for c in classes]
    assert reps == [
        ("product", (0,), (0,)),
        ("bott-base-n", (1,), (0,)),
        ("connsum-plus", (2,), (1,)),
    ]


def test_criterion_03_parity_rule():
    # bundles over the square of segments, twisted by a on the a side
    for a in range(-10, 11):
        for a2 in range(-10, 11):
            verdict, _ = homeomorphic(
                CharPair(1, 1, (a,), (0,)), CharPair(1, 1, (a2,), (0,))
            )
            assert verdict == ((a - a2) % 2 == 0)


def test_criterion_04_singleton_and_congruence_rules():
    # a singleton twist over the ell-simplex, truncation order ell
    for ell in (2, 3, 4):
        zero = (0,) * ell
        for a in range(-6, 7):
            for a2 in range(-6, 7):
                verdict, _ = homeomorphic(
                    CharPair(ell, 1, (a,), zero), CharPair(ell, 1, (a2,), zero)
                )
                assert verdict == (abs(a) == abs(a2))
    # a length-n twist on the b side, truncation order 1
    rng = random.Random(947)
    for _ in range(200):
        n = rng.randint(1, 4)
        b = tuple(rng.randint(-3, 3) for _ in range(n))
        b2 = tuple(rng.randint(-3, 3) for _ in range(n))
        sb, sb2 = sum(b), sum(b2)
        expected = (sb - sb2) % (n + 1) == 0 or (sb + sb2) % (n + 1) == 0
        verdict, _ = homeomorphic(CharPair(n, 1, (0,), b), CharPair(n, 1, (0,), b2))
        assert verdict == expected


def test_criterion_05_fold_equivalence_cross_validated():
    start = time.monotonic()
    for n, m in itertools.product((2, 3, 4), repeat=2):
        params = [(s, r) for s in range(1, m + 1) for r in range(1, n + 1)]
        pres = {p: cohomology_presentation(_nonbott_rep(n, m, *p)) for p in params}
        # unordered pairs suffice: homeomorphism is symmetric, and the
        # inverse of a 2x2 unimodular matrix has the same entry magnitudes,
        # so search success at a fixed bound is symmetric too
        for i, (s, r) in enumerate(params):
            for s2, r2 in params[i:]:
                expected = (s == s2 or s + s2 == m + 1) and (
                    r == r2 or r + r2 == n + 1
                )
                verdict, _ = homeomorphic(
                    _nonbott_rep(n, m, s, r), _nonbott_rep(n, m, s2, r2)
                )
                assert verdict == expected, (n, m, s, r, s2, r2)
                search = ring_iso_search(pres[(s, r)], pres[(s2, r2)], bound=3)
                assert search.found == expected, (n, m, s, r, s2, r2)
    assert time.monotonic() - start < 60.0


def test_criterion_06_orientation_distinct():
    for n, m in ((3, 2), (4, 2), (4, 3)):
        for s in range(1, m + 1):
            for r in range(1, n + 1):
                for s2 in range(1, n + 1):
                    for r2 in range(1, m + 1):
                        cp1 = _nonbott_rep(n, m, s, r)
                        cp2 = _mirror_rep(n, m, s2, r2)
                        verdict, rule = homeomorphic(cp1, cp2)
                        assert not verdict
                        assert rule == "orientation-swap"
                        search = ring_iso_search(
                            cohomology_presentation(cp1),
                            cohomology_presentation(cp2),
                            bound=3,
                        )
                        assert not search.found and search.bound == 3


def test_criterion_07_segment_factor_distinctness():
    for n in (3, 5):
        zeros = (0,) * n
        quads = [
            CharPair(n, 1, (1,), zeros),
            CharPair(n, 1, (2,), zeros),
            CharPair(n, 1, (1,), (2,) + (0,) * (n - 1)),
            CharPair(n, 1, (2,), (1,) + (0,) * (n - 1)),
        ]
        for cp1, cp2 in itertools.combinations(quads, 2):
            assert not homeomorphic(cp1, cp2)[0], (n, cp1, cp2)
            search = ring_iso_search(
                cohomology_presentation(cp1),
                cohomology_presentation(cp2),
                bound=3,
            )
            assert not search.found, (n, cp1, cp2)


def test_criterion_08_validity_oracle_exhaustive():
    start = time.monotonic()
    entries = range(-3, 4)
    for n in range(1, 4):
        for m in range(1, 4):
            for a in itertools.product(entries, repeat=m):
                for b in itertools.product(entries, repeat=n):
                    cp = CharPair(n, m, a, b)
                    assert validate(cp) == validate_bruteforce(cp), cp
    assert time.monotonic() - start < 120.0


def _random_valid_pair(rng):
    n = rng.randint(1, 5)
    m = rng.randint(1, 5)
    mode = rng.choice(("zero", "bott-a", "bott-b", "twisted"))
    if mode == "zero":
        return CharPair(n, m, (0,) * m, (0,) * n)
    if mode == "bott-a":
        return CharPair(
            n, m, tuple(rng.randint(-3, 3) for _ in range(m)), (0,) * n
        )
    if mode == "bott-b":
        return CharPair(
            n, m, (0,) * m, tuple(rng.randint(-3, 3) for _ in range(n))
        )
    alpha, beta = rng.choice(((1, 2), (2, 1), (-1, -2), (-2, -1)))
    a = tuple(rng.choice((0, alpha)) for _ in range(m))
    b = tuple(rng.choice((0, beta)) for _ in range(n))
    return CharPair(n, m, a, b)


def test_criterion_09_structural_invariants():
    rng = random.Random(20240817)
    for _ in range(500):
        cp = _random_valid_pair(rng)
        assert validate(cp)
        pres = cohomology_presentation(cp)
        ranks = graded_ranks(pres)
        assert ranks.ranks == h_vector(cp.n, cp.m)
        assert ranks.torsion_free
        u, v = kernel_span_vectors(cp)
        span = lattice_from_generators(cp.n + cp.m + 2, [u, v])
        assert kernel_lattice(cp) == span
        assert is_basis_extendable([u, v])


def test_criterion_10_witness_suite():
    for n in range(1, 6):
        for a, b in ((1, 2), (2, 1), (-1, -2), (-2, -1)):
            assert witness_check(*builtin_witness("repeat-fill", n=n, a=a, b=b)), (n, a, b)
    for family in ("fold-r", "fold-s"):
        for n in range(1, 5):
            for m in range(1, 5):
                for s in range(1, m + 1):
                    for r in range(1, n + 1):
                        certificate = builtin_witness(family, n=n, m=m, s=s, r=r)
                        assert witness_check(*certificate), (family, n, m, s, r)
