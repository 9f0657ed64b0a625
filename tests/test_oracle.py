"""Tests for the brute-force isomorphism search and witness checking."""

import ast
import hashlib
import itertools
import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from qtoric import oracle, quasitoric
from qtoric.classify import homeomorphic
from qtoric.lattice import IntMatrix
from qtoric.oracle import (
    IsoVerdict,
    _candidate_matrices,
    MonomialWitness,
    builtin_witness,
    ring_iso_search,
    witness_check,
)
from qtoric.polyring import ideal_degree_lattice, substitute_linear
from qtoric.quasitoric import CharPair, cohomology_presentation, kernel_span_vectors

from pair_reference import filtered_admissible_pairs, swapped


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
            for other, g in ((negated, self.FLIP), (swapped(cp), self.SWAP)):
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


def _weights(cp):
    """Rows of the weight matrix of ``cp``: row i holds the two circle
    weights on moment-angle coordinate i."""
    return tuple(zip(*kernel_span_vectors(cp)))


def _times(x, y):
    cols = list(zip(*y))
    return [[sum(a * b for a, b in zip(row, col)) for col in cols] for row in x]


# the product of two segments: weight rows (1, 0), (1, 0), (0, 1), (0, 1)
_SQUARE = CharPair(1, 1, (0,), (0,))


def _certifies(s_rows, t_rows, cp=_SQUARE):
    """``witness_check`` on a certificate from ``cp`` to itself whose
    identity s*u = u*t holds, so only its conditions on s and t decide."""
    u = _weights(cp)
    assert _times(s_rows, u) == _times(u, t_rows)
    s, t = IntMatrix.from_rows(s_rows), IntMatrix.from_rows(t_rows)
    return witness_check(cp, cp, MonomialWitness(s, t))


class TestMonomialWitness:
    def test_rejects_non_permutation_rows(self):
        s = [[1, 0, 1, -1], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
        assert _certifies(s, [[1, 0], [0, 1]]) is False

    def test_rejects_duplicate_columns(self):
        s = [[1, 0, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
        assert _certifies(s, [[1, 0], [0, 1]]) is False

    def test_rejects_entry_magnitude(self):
        s = [[2, -1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
        assert _certifies(s, [[1, 0], [0, 1]]) is False

    def test_rejects_singular_reparametrization(self):
        # the weight columns are independent, so no signed permutation
        # meets the identity through a singular t
        w = MonomialWitness(_identity(4), IntMatrix.from_rows([[1, 1], [1, 1]]))
        assert witness_check(_SQUARE, _SQUARE, w) is False

    def test_conjugation_allowed(self):
        # the segment bundle (1, 1, (1,), (2,)) onto itself: swap the first
        # block and conjugate the last coordinate
        s = [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, -1]]
        assert _certifies(s, [[1, 2], [0, -1]], CharPair(1, 1, (1,), (2,))) is True


class TestWitnessCheck:
    def test_identity_witness(self):
        cp = CharPair(2, 1, (1,), (2, 0))
        w = MonomialWitness(_identity(5), _identity(2))
        assert witness_check(cp, cp, w)

    def test_dimension_mismatch(self):
        p = CharPair(2, 1, (1,), (2, 0))
        w = MonomialWitness(_identity(5), _identity(2))
        for other in (CharPair(3, 1, (1,), (2, 0, 0)), CharPair(1, 2, (1, 0), (2,))):
            # pairs over different bases, even of one coordinate count
            with pytest.raises(ValueError, match="same"):
                witness_check(p, other, w)
        with pytest.raises(ValueError):
            witness_check(p, p, MonomialWitness(_identity(5), _identity(3)))
        with pytest.raises(ValueError):
            witness_check(p, p, MonomialWitness(_identity(4), _identity(2)))

    def test_non_square_signed_permutation(self):
        cp = CharPair(2, 1, (1,), (2, 0))
        s = IntMatrix.from_rows([row[:4] for row in _identity(5).to_rows()])
        with pytest.raises(ValueError):
            witness_check(cp, cp, MonomialWitness(s, _identity(2)))

    def test_ragged_certificate_rejected(self):
        # a ragged s once passed, since only its first row's length was
        # read: this one reads coordinate 2 twice, and its identity holds
        # between two pairs of different classes
        p = CharPair(1, 1, (-2,), (-1,))
        q = CharPair(1, 1, (-1,), (0,))
        assert homeomorphic(p, q) == (False, "bott-vs-nonbott-ring")
        s = IntMatrix(((0, 0, 1, 0), (0, 0, 1, 0), (0, 1, 0, 0), (-1,)))
        t = IntMatrix(((-2, 1), (-1, 1)))
        with pytest.raises(ValueError, match="square of the coordinate count"):
            witness_check(p, q, MonomialWitness(s, t))
        long_row = IntMatrix(_identity(4).rows[:3] + ((0, 0, 0, 1, 0),))
        with pytest.raises(ValueError, match="square of the coordinate count"):
            witness_check(p, p, MonomialWitness(long_row, _identity(2)))
        for ragged_t in (((1, 0), (0,)), ((1, 0), (0, 1, 0))):
            with pytest.raises(ValueError, match="2x2"):
                witness_check(p, p, MonomialWitness(_identity(4), IntMatrix(ragged_t)))

    def test_wrong_witness_fails(self):
        p, q = CharPair(2, 1, (1,), (2, 0)), CharPair(2, 1, (1,), (2, 2))
        w = MonomialWitness(_identity(5), _identity(2))
        assert not witness_check(p, q, w)

    def test_rejects_certificate_mixing_the_factors(self):
        # not homeomorphic, yet s is a signed permutation, det t = 1 and
        # s*u = u'*t: only the blocks reject it, as s moves coordinates
        # between the two factors
        p = CharPair(1, 2, (-2, -1), (0,))
        q = CharPair(1, 2, (-1, -1), (-2,))
        assert homeomorphic(p, q) == (False, "bott-cross-base")
        rows = [[0] * 5 for _ in range(5)]
        for i, (j, sign) in enumerate(zip((2, 4, 0, 1, 3), (1, -1, 1, 1, -1))):
            rows[i][j] = sign
        t_rows = [[0, -1], [1, -1]]
        assert _times(rows, _weights(p)) == _times(_weights(q), t_rows)
        w = MonomialWitness(IntMatrix.from_rows(rows), IntMatrix.from_rows(t_rows))
        assert not witness_check(p, q, w)

    def test_blocks_of_one_size_may_swap_whole(self):
        cp = CharPair(2, 2, (1, 0), (2, 0))
        swap = IntMatrix.from_rows([[int(j == (i + 3) % 6) for j in range(6)] for i in range(6)])
        w = MonomialWitness(swap, IntMatrix.from_rows([[0, 1], [1, 0]]))
        assert witness_check(cp, swapped(cp), w)
        # over a square base, moving one coordinate to the other block is no
        # swap, even where the identity holds: rows 0 and 2 are equal here
        square = CharPair(1, 1, (1,), (1,))
        s = IntMatrix.from_rows([[0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1]])
        assert _weights(square)[0] == _weights(square)[2]
        assert not witness_check(square, square, MonomialWitness(s, _identity(2)))


class TestBuiltinWitness:
    def test_repeat_fill_documented_case(self):
        source, target, w = builtin_witness("repeat-fill", n=2, a=1, b=2)
        assert (source, target) == (CharPair(2, 1, (1,), (2, 0)), CharPair(2, 1, (1,), (2, 2)))
        assert _weights(source) == ((1, 2), (1, 0), (1, 0), (1, 1), (0, 1))
        assert witness_check(source, target, w)

    def test_repeat_fill_other_orientation(self):
        assert witness_check(*builtin_witness("repeat-fill", n=2, a=2, b=1))

    def test_fold_r_documented_case(self):
        source, target, w = builtin_witness("fold-r", n=3, m=2, s=1, r=1)
        assert target == CharPair(3, 2, (2, 0), (1, 1, 1))
        assert witness_check(source, target, w)
        assert w.t == IntMatrix.from_rows([[1, 1], [0, -1]])
        # callers read every part of a certificate through to_rows()
        assert all(isinstance(x, IntMatrix) for x in (w.s, w.t))

    def test_fold_s_documented_case(self):
        source, target, w = builtin_witness("fold-s", n=2, m=3, s=1, r=1)
        assert target == CharPair(2, 3, (2, 2, 2), (1, 0))
        assert witness_check(source, target, w)
        assert w.t == IntMatrix.from_rows([[-1, 0], [2, 1]])

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


def test_oracles_stay_independent_of_the_closed_form():
    # an oracle that leans on the closed form it checks would agree with it
    # by construction; tests/test_package.py follows each oracle's calls
    imported = set()
    for node in ast.walk(ast.parse(Path(oracle.__file__).read_text())):
        if isinstance(node, ast.ImportFrom) and node.module:
            imported.add(node.module)
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update(alias.name for alias in node.names)
    assert not any("classify" in name.split(".") for name in imported)
