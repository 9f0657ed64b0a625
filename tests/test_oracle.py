"""Tests for the brute-force isomorphism search and witness checking."""

import ast
import hashlib
import itertools
import json
import types
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from qtoric import oracle, quasitoric
from qtoric.lattice import IntMatrix
from qtoric.oracle import (
    IsoVerdict,
    _candidate_matrices,
    MonomialWitness,
    builtin_witness,
    ring_iso_search,
    weight_matrix,
    witness_check,
)
from qtoric.polyring import ideal_degree_lattice, substitute_linear
from qtoric.quasitoric import CharPair, cohomology_presentation, kernel_span_vectors

from pair_reference import filtered_admissible_pairs


def _identity(k):
    return IntMatrix.from_rows([[int(i == j) for j in range(k)] for i in range(k)])


def _presentation(n, m, a, b):
    return cohomology_presentation(CharPair(n, m, a, b))


def _ideals_match_through(p, q, g, dmax):
    image = [substitute_linear(gen, g) for gen in p]
    return all(
        ideal_degree_lattice(image, d) == ideal_degree_lattice(q, d)
        for d in range(1, dmax + 1)
    )


def _contain_each_other_through(p, q, g):
    # each generator of either ideal lies in the other ideal's piece of its
    # degree: membership alone, no comparison of canonical bases
    image = [substitute_linear(gen, g) for gen in p]
    return all(
        ideal_degree_lattice(ideal, gen.degree).contains(gen.coeffs)
        for ideal, gens in ((q, image), (image, q))
        for gen in gens
    )


class TestRingIsoSearch:
    def test_identity_on_equal_presentations(self):
        p = _presentation(2, 2, (2, 0), (1, 0))
        verdict = ring_iso_search(p, p, bound=2)
        assert verdict.found
        assert verdict.matrix == _identity(2)

    def test_fold_pair_found(self):
        p = _presentation(2, 2, (2, 0), (1, 0))
        q = _presentation(2, 2, (2, 2), (1, 0))
        verdict = ring_iso_search(p, q, bound=3)
        assert verdict.found

    def test_documented_substitution_works_for_s_fold(self):
        # the substitution y1 -> -Y1, y2 -> 2*Y1 + Y2 matches the two
        # s-complementary presentations
        p = _presentation(2, 2, (2, 0), (1, 0))
        q = _presentation(2, 2, (2, 2), (1, 0))
        g = ((-1, 0), (2, 1))
        assert _ideals_match_through(p, q, g, dmax=3)

    def test_soundness_beyond_decision_degrees(self):
        p = _presentation(3, 2, (2, 0), (1, 0, 0))
        q = _presentation(3, 2, (2, 2), (1, 0, 0))
        verdict = ring_iso_search(p, q, bound=3)
        assert verdict.found
        assert _ideals_match_through(p, q, verdict.matrix.to_rows(), dmax=p.n + p.m)

    def test_segment_families_not_isomorphic(self):
        p = _presentation(3, 1, (1,), (2, 0, 0))
        q = _presentation(3, 1, (2,), (1, 0, 0))
        verdict = ring_iso_search(p, q, bound=3)
        assert not verdict.found
        assert verdict.bound == 3

    def test_deterministic(self):
        p = _presentation(2, 2, (2, 0), (1, 0))
        q = _presentation(2, 2, (2, 2), (1, 0))
        first = ring_iso_search(p, q, bound=3)
        second = ring_iso_search(p, q, bound=3)
        assert first == second

    def test_degree_mismatch_rejected(self):
        p = _presentation(2, 1, (0,), (0, 0))
        q = _presentation(3, 1, (0,), (0, 0, 0))
        with pytest.raises(ValueError):
            ring_iso_search(p, q)

    def test_negative_bound_rejected(self):
        p = _presentation(1, 1, (0,), (0,))
        with pytest.raises(ValueError, match="bound must be nonnegative"):
            ring_iso_search(p, p, bound=-1)

    def test_bound_zero_finds_nothing(self):
        p = _presentation(1, 1, (0,), (0,))
        verdict = ring_iso_search(p, p, bound=0)
        assert verdict == IsoVerdict(bound=0)

    def test_candidate_list_cached_in_fixed_order(self):
        for bound in (0, 1, 3, 5):
            first = _candidate_matrices(bound)
            assert _candidate_matrices(bound) is first
            assert _candidate_matrices.__wrapped__(bound) == first
        candidates = _candidate_matrices(3)
        assert candidates[0] == ((1, 0), (0, 1))
        assert len(candidates) == len(set(candidates))

    def test_json_round_shapes(self):
        found = IsoVerdict(matrix=_identity(2))
        assert found.to_json_dict() == {"found": True, "matrix": [[1, 0], [0, 1]]}
        missed = IsoVerdict(bound=3)
        assert missed.to_json_dict() == {"found": False, "bound": 3}
        # a verdict the search found hands out a matrix value, whose rows
        # are the JSON matrix
        p = _presentation(3, 2, (2, 0), (1, 0, 0))
        q = _presentation(3, 2, (2, 2), (1, 0, 0))
        searched = ring_iso_search(p, q, bound=3)
        assert isinstance(searched.matrix, IntMatrix)
        assert [list(r) for r in searched.matrix.to_rows()] == searched.to_json_dict()["matrix"]

    def test_verdicts_pinned(self):
        # every ordered pair of equal generator degrees among the distinct
        # presentations with n, m <= 2 and entries in [-2, 2]: a digest of
        # each verdict and its witness pins the candidate order and the
        # substitution kernel's exact results
        presentations = sorted(
            {
                cohomology_presentation(cp)
                for n, m in itertools.product((1, 2), repeat=2)
                for a in itertools.product(range(-2, 3), repeat=m)
                for b in itertools.product(range(-2, 3), repeat=n)
                for cp in [CharPair(n, m, a, b)]
                if quasitoric.validate(cp)
            }
        )
        assert len(presentations) == 112
        searched = [
            (p, q, ring_iso_search(p, q, bound=2))
            for p in presentations
            for q in presentations
            if (p.gen1.degree, p.gen2.degree) == (q.gen1.degree, q.gen2.degree)
        ]
        doc = [
            [[g.coeffs for g in p], [g.coeffs for g in q], verdict.to_json_dict()]
            for p, q, verdict in searched
        ]
        assert (len(doc), sum(v["found"] for _, _, v in doc)) == (3652, 892)
        digest = hashlib.sha256(json.dumps(doc).encode()).hexdigest()
        assert digest == (
            "d5538db916a33ca25c10322b1c6990bb5473afa73947674cdaa7315d0c834b99"
        )
        # every witness, rechecked by containment both ways
        for p, q, verdict in searched:
            if verdict.found:
                assert _contain_each_other_through(p, q, verdict.matrix.to_rows()), (p, q)


# every valid pair with n, m <= 3 and entries in [-3, 3], sorted entries
_SMALL_PAIRS = [
    cp
    for n, m in itertools.product(range(1, 4), repeat=2)
    for cp in filtered_admissible_pairs(n, m, 3)
]


class TestRingSymmetries:
    """The symmetries the classification ignores are ring isomorphisms,
    derived by hand.  With gen1 = x1 prod(x1 + b_i x2) and gen2 = x2
    prod(a_j x1 + x2): the global sign flip (a, b) -> (-a, -b) is
    x2 -> -x2, which sends gen1 to gen1' and gen2 to (-1)^(m+1) gen2'; the
    factor swap is x1 <-> x2, which sends gen1 to gen2' and gen2 to gen1';
    a permutation of a or of b permutes the linear factors and leaves the
    presentation as it was."""

    FLIP = ((1, 0), (0, -1))
    SWAP = ((0, 1), (1, 0))

    def test_sign_flip_and_swap_found(self):
        for cp in _SMALL_PAIRS:
            p = cohomology_presentation(cp)
            negated = CharPair.make(cp.n, cp.m, [-x for x in cp.a], [-x for x in cp.b])
            dmax = max(cp.n, cp.m) + 1
            for other, g in ((negated, self.FLIP), (cp.swapped(), self.SWAP)):
                q = cohomology_presentation(other)
                assert _ideals_match_through(p, q, g, dmax), (cp, other)
                verdict = ring_iso_search(p, q, bound=1)
                assert verdict.found, (cp, other)
                assert _ideals_match_through(p, q, verdict.matrix.to_rows(), dmax), (cp, other)

    @given(st.sampled_from(_SMALL_PAIRS), st.randoms(use_true_random=False))
    def test_permutation_gives_identical_presentation(self, cp, rng):
        a, b = list(cp.a), list(cp.b)
        rng.shuffle(a)
        rng.shuffle(b)
        permuted = CharPair.make(cp.n, cp.m, a, b)
        assert cohomology_presentation(permuted) == cohomology_presentation(cp)


def _certifies(s_rows, t_rows):
    """``witness_check`` on a certificate whose identity s*u = u'*t holds by
    construction (u = t, u' = s), so only its conditions on s and t decide."""
    s, t = IntMatrix.from_rows(s_rows), IntMatrix.from_rows(t_rows)
    return witness_check(t, s, MonomialWitness(s, t))


class TestMonomialWitness:
    def test_rejects_non_permutation_rows(self):
        assert _certifies([[1, 1], [0, 1]], [[1, 0], [0, 1]]) is False

    def test_rejects_duplicate_columns(self):
        assert _certifies([[1, 0], [1, 0]], [[1, 0], [0, 1]]) is False

    def test_rejects_entry_magnitude(self):
        assert _certifies([[2, 0], [0, 1]], [[1, 0], [0, 1]]) is False

    def test_rejects_singular_reparametrization(self):
        assert _certifies([[1, 0], [0, 1]], [[1, 1], [1, 1]]) is False

    def test_conjugation_allowed(self):
        assert _certifies([[0, -1], [1, 0]], [[1, 1], [0, -1]]) is True


class TestWitnessCheck:
    def test_identity_witness(self):
        u = weight_matrix(CharPair(2, 1, (1,), (2, 0)))
        w = MonomialWitness(_identity(5), _identity(2))
        assert witness_check(u, u, w)

    def test_dimension_mismatch(self):
        u = weight_matrix(CharPair(2, 1, (1,), (2, 0)))
        v = weight_matrix(CharPair(3, 1, (1,), (2, 0, 0)))
        w = MonomialWitness(_identity(5), _identity(2))
        with pytest.raises(ValueError):
            witness_check(u, v, w)
        with pytest.raises(ValueError):
            witness_check(v, v, w)
        with pytest.raises(ValueError):
            witness_check(u, u, MonomialWitness(_identity(5), _identity(3)))

    def test_non_square_signed_permutation(self):
        u = weight_matrix(CharPair(2, 1, (1,), (2, 0)))
        s = IntMatrix.from_rows([row[:4] for row in _identity(5).to_rows()])
        with pytest.raises(ValueError):
            witness_check(u, u, MonomialWitness(s, _identity(2)))

    def test_wrong_witness_fails(self):
        u = weight_matrix(CharPair(2, 1, (1,), (2, 0)))
        v = weight_matrix(CharPair(2, 1, (1,), (2, 2)))
        w = MonomialWitness(_identity(5), _identity(2))
        assert not witness_check(u, v, w)


class TestWeightMatrix:
    def test_rows_follow_twist_entries(self):
        u = weight_matrix(CharPair(2, 1, (1,), (2, 0)))
        assert u.to_rows() == ((1, 2), (1, 0), (1, 0), (1, 1), (0, 1))

    def test_columns_span_kernel(self):
        cp = CharPair(3, 2, (2, 0), (1, 1, 0))
        u, v = kernel_span_vectors(cp)
        mat = weight_matrix(cp)
        assert tuple(row[0] for row in mat.to_rows()) == u
        assert tuple(row[1] for row in mat.to_rows()) == v


class TestBuiltinWitness:
    def test_repeat_fill_documented_case(self):
        u, u2, w = builtin_witness("repeat-fill", n=2, a=1, b=2)
        assert u.to_rows() == ((1, 2), (1, 0), (1, 0), (1, 1), (0, 1))
        assert witness_check(u, u2, w)

    def test_repeat_fill_other_orientation(self):
        u, u2, w = builtin_witness("repeat-fill", n=2, a=2, b=1)
        assert witness_check(u, u2, w)

    def test_fold_r_documented_case(self):
        u, u2, w = builtin_witness("fold-r", n=3, m=2, s=1, r=1)
        assert witness_check(u, u2, w)
        assert w.t == IntMatrix.from_rows([[1, 1], [0, -1]])
        # callers read every part of a certificate through to_rows()
        assert all(isinstance(x, IntMatrix) for x in (u, u2, w.s, w.t))

    def test_fold_s_documented_case(self):
        u, u2, w = builtin_witness("fold-s", n=2, m=3, s=1, r=1)
        assert witness_check(u, u2, w)
        assert w.t == IntMatrix.from_rows([[-1, 0], [2, 1]])

    def test_repeat_fill_grid(self):
        for n in range(1, 6):
            for a, b in ((1, 2), (2, 1), (-1, -2), (-2, -1)):
                u, u2, w = builtin_witness("repeat-fill", n=n, a=a, b=b)
                assert witness_check(u, u2, w)

    def test_fold_grids(self):
        for family in ("fold-r", "fold-s"):
            for n in range(1, 5):
                for m in range(1, 5):
                    for s in range(1, m + 1):
                        for r in range(1, n + 1):
                            u, u2, w = builtin_witness(family, n=n, m=m, s=s, r=r)
                            assert witness_check(u, u2, w)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            builtin_witness("repeat-fill", n=2, a=1, b=3)
        with pytest.raises(ValueError):
            builtin_witness("fold-r", n=2, m=2, s=3, r=1)
        with pytest.raises(ValueError):
            builtin_witness("fold-s", n=2, m=2, s=1, r=0)
        with pytest.raises(ValueError):
            builtin_witness("no-such-family", n=2, m=2, s=1, r=1)
        with pytest.raises(ValueError):
            builtin_witness("fold-r", n=2)


@settings(max_examples=60)
@given(
    n=st.integers(1, 3),
    m=st.integers(1, 3),
    g11=st.integers(-2, 2),
    g12=st.integers(-2, 2),
)
def test_search_agrees_with_direct_check(n, m, g11, g12):
    # whatever the search returns must itself verify; spot-check with
    # randomized presentations built from valid twists
    p = _presentation(n, m, (0,) * m, (0,) * n)
    q = _presentation(n, m, (0,) * m, (0,) * n)
    verdict = ring_iso_search(p, q, bound=1)
    assert verdict.found
    dmax = max(n, m) + 1
    assert _ideals_match_through(p, q, verdict.matrix.to_rows(), dmax)


def _global_names(code):
    """Names a code object and the code nested in it look up."""
    names = set(code.co_names)
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            names |= _global_names(const)
    return names


def test_oracles_stay_independent_of_the_closed_form():
    # an oracle that leans on the closed form it checks would agree with it
    # by construction
    imported = set()
    for node in ast.walk(ast.parse(Path(oracle.__file__).read_text())):
        if isinstance(node, ast.ImportFrom) and node.module:
            imported.add(node.module)
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update(alias.name for alias in node.names)
    assert not any("classify" in name.split(".") for name in imported)
    assert "validate" not in _global_names(quasitoric.validate_bruteforce.__code__)
