from itertools import combinations
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import Matrix
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

from qtoric.lattice import (
    IntMatrix,
    is_basis_extendable,
    kernel_basis,
    lattice_from_generators,
    smith_normal_form,
)


small_matrices = st.integers(1, 5).flatmap(
    lambda r: st.integers(1, 5).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(-5, 5), min_size=c, max_size=c),
            min_size=r,
            max_size=r,
        )
    )
)


@st.composite
def vector_sets(draw):
    """k vectors of length d, k <= d + 1: random ones (mostly not
    extendable), rows of a unimodular matrix mixed by multi-digit row
    operations (extendable), or such rows with the last replaced by 0, 2, 3
    or 10 times itself plus a combination of the others (singular, or of
    index above 1)."""
    d = draw(st.integers(1, 5))
    k = draw(st.integers(1, d + 1))
    kind = draw(st.sampled_from(["random", "unimodular", "singular"]))
    big = st.integers(-(10**9), 10**9)
    if kind == "random":
        entries = st.integers(-4, 4) | big
        return draw(st.lists(st.lists(entries, min_size=d, max_size=d), min_size=k, max_size=k))
    rows = [[int(i == j) for j in range(d)] for i in range(d)]
    for _ in range(draw(st.integers(0, 3 * d))):
        i, j = draw(st.integers(0, d - 1)), draw(st.integers(0, d - 1))
        if i != j:
            c = draw(big)
            rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
    rows = draw(st.permutations(rows))[: min(k, d)]
    if kind == "singular":
        coeffs = draw(st.lists(st.integers(-9, 9), min_size=len(rows), max_size=len(rows)))
        scale = draw(st.sampled_from([0, 2, 3, 10]))
        combo = [scale * x for x in rows[-1]]
        for c, r in zip(coeffs[:-1], rows[:-1]):
            combo = [x + c * y for x, y in zip(combo, r)]
        rows[-1] = combo
    return rows


def canonical_rows(rows):
    """The row-style HNF basis of ``rows``, as built by lattice_from_generators."""
    return lattice_from_generators(len(rows[0]), rows).basis


def determinantal_divisors(rows):
    """gcd of all k x k minors, for k = 1 .. min(rows, cols), via sympy."""
    m = Matrix(rows)
    out = []
    for k in range(1, min(m.rows, m.cols) + 1):
        g = 0
        for ri in combinations(range(m.rows), k):
            for ci in combinations(range(m.cols), k):
                g = gcd(g, int(m.extract(list(ri), list(ci)).det()))
        out.append(g)
    return out


class TestHermite:
    def test_canonical_form_of_small_matrix(self):
        # [[2,4],[1,3]] row-reduces to pivots 1 and 2; the entry above the
        # second pivot is reduced into [0, 2), giving (1,1) not (1,3).
        assert canonical_rows([[2, 4], [1, 3]]) == ((1, 1), (0, 2))

    def test_identity_fixed(self):
        rows = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
        assert canonical_rows(rows) == rows

    def test_zero_matrix(self):
        assert canonical_rows([[0, 0], [0, 0]]) == ()

    @given(small_matrices)
    def test_idempotent(self, rows):
        h = canonical_rows(rows)
        if h:
            assert canonical_rows(h) == h

    @given(small_matrices)
    def test_row_lattice_preserved(self, rows):
        # checked without a second HNF: the basis spans every input row,
        # and input and basis share rank and nonzero Smith invariants
        cols = len(rows[0])
        lat = lattice_from_generators(cols, rows)
        assert all(lat.contains(r) for r in rows)
        assert lat.rank == Matrix(rows).rank()
        if lat.basis:
            def invariants(m):
                s = sympy_snf(Matrix(m))
                return sorted(abs(s[i, i]) for i in range(min(s.shape)) if s[i, i] != 0)

            assert invariants(rows) == invariants(lat.basis)


class TestSmith:
    @pytest.mark.parametrize(
        "rows,diag",
        [
            ([[2, 0], [0, 3]], (1, 6)),
            ([[1, 0], [0, 1]], (1, 1)),
            ([[2, 4], [4, 8]], (2, 0)),
        ],
    )
    def test_frozen_diagonals(self, rows, diag):
        assert smith_normal_form(rows) == diag

    @given(small_matrices)
    @settings(max_examples=60)
    def test_exact_diagonalization(self, rows):
        # the diagonal is pinned by the determinantal divisors: the product
        # of its first k entries is the gcd of the k x k minors
        d = smith_normal_form(rows)
        assert len(d) == min(len(rows), len(rows[0]))
        prefix = 1
        for x, dk in zip(d, determinantal_divisors(rows)):
            prefix *= x
            assert prefix == dk

    @given(small_matrices)
    @settings(max_examples=60)
    def test_divisibility_chain_and_oracle(self, rows):
        d = smith_normal_form(rows)
        for x, y in zip(d, d[1:]):
            if x == 0:
                assert y == 0
            else:
                assert y % x == 0
        # independent route through sympy
        s = sympy_snf(Matrix(rows))
        assert list(d) == [abs(s[i, i]) for i in range(len(d))]


class TestKernel:
    def test_reordered_characteristic_matrix_kernel(self):
        # the 3x5 matrix with columns e1, e2, (-1,-1,-a), e3, (-b1,-b2,-1)
        # for a=(2), b=(1,0); its kernel is spanned by (1,1,1,2,0) and
        # (1,0,0,1,1), whose canonical form is frozen below.
        m = [
            [1, 0, -1, 0, -1],
            [0, 1, -1, 0, 0],
            [0, 0, -2, 1, -1],
        ]
        k = kernel_basis(m)
        assert k.basis == ((1, 0, 0, 1, 1), (0, 1, 1, 1, -1))
        assert k == lattice_from_generators(5, [(1, 1, 1, 2, 0), (1, 0, 0, 1, 1)])
        # near miss: agrees with a true kernel vector in four of five slots
        assert not k.contains((1, 0, 0, 0, 1))

    def test_injective_map_has_empty_kernel(self):
        assert kernel_basis([[int(i == j) for j in range(4)] for i in range(4)]).basis == ()

    def test_rank_one_projection(self):
        assert kernel_basis([[1, 1]]).basis == ((1, -1),)

    @given(small_matrices)
    @settings(max_examples=60)
    def test_basis_is_canonical(self, rows):
        # the kernel rows come out of the reduction already in Hermite form
        k = kernel_basis(rows)
        assert k == lattice_from_generators(len(rows[0]), k.basis)

    @given(small_matrices)
    @settings(max_examples=60)
    def test_kernel_annihilates_and_is_primitive(self, rows):
        k = kernel_basis(rows)
        for v in k.basis:
            image = [sum(x * y for x, y in zip(row, v)) for row in rows]
            assert all(x == 0 for x in image)
        assert is_basis_extendable(k.basis)
        assert k.rank == len(rows[0]) - Matrix(rows).rank()


class TestLatticeEqual:
    def test_distinct_index_sublattices(self):
        a = lattice_from_generators(2, [(2, 0), (0, 2)])
        b = lattice_from_generators(2, [(2, 2), (2, -2)])
        assert a != b

    def test_same_lattice_different_generators(self):
        a = lattice_from_generators(2, [(1, 0), (0, 1)])
        b = lattice_from_generators(2, [(1, 1), (0, 1)])
        assert a == b

    def test_reflexive(self):
        a = lattice_from_generators(3, [(1, 2, 3)])
        assert a == a

    @given(
        st.lists(st.lists(st.integers(-4, 4), min_size=3, max_size=3), min_size=1, max_size=3),
        st.integers(-3, 3),
        st.integers(0, 2),
        st.integers(0, 2),
    )
    def test_invariant_under_row_operations(self, gens, c, i, j):
        base = lattice_from_generators(3, gens)
        mixed = [list(g) for g in gens]
        i %= len(mixed)
        j %= len(mixed)
        if i != j:
            mixed[i] = [x + c * y for x, y in zip(mixed[i], mixed[j])]
        mixed.append([0, 0, 0])
        assert base == lattice_from_generators(3, mixed)

    def test_membership(self):
        lat = lattice_from_generators(3, [(2, 0, 1), (0, 3, 0)])
        assert lat.contains((2, 3, 1))
        assert lat.contains((0, 0, 0))
        assert not lat.contains((1, 0, 0))
        assert not lat.contains((2, 1, 1))


class TestExtendable:
    @pytest.mark.parametrize(
        "vectors,expected",
        [
            ([(1, 0, 0), (0, 1, 0)], True),
            ([(2, 0)], False),
            ([(1, 2), (3, 7)], True),
            ([], True),
            ([(0, 0)], False),
            ([(1, 0), (0, 1), (1, 1)], False),  # too many vectors
        ],
    )
    def test_examples(self, vectors, expected):
        assert is_basis_extendable(vectors) is expected

    @given(vector_sets())
    @settings(max_examples=150)
    def test_agrees_with_sympy_smith_form(self, vectors):
        # k vectors in Z^d extend to a basis exactly when k <= d and the
        # Smith diagonal of the k x d matrix they form is k units
        k, d = len(vectors), len(vectors[0])
        s = sympy_snf(Matrix(vectors))
        expected = k <= d and all(abs(s[i, i]) == 1 for i in range(k))
        assert is_basis_extendable(vectors) is expected

    @given(st.lists(st.integers(-6, 6), min_size=2, max_size=5))
    def test_single_vector_iff_gcd_one(self, v):
        import math

        expected = math.gcd(*v) == 1 if any(v) else False
        assert is_basis_extendable([v]) is expected


def test_matrix_shape_validation():
    # the checked constructors and the row-taking routines; the raw
    # constructors check nothing
    for check in (IntMatrix.from_rows, smith_normal_form, kernel_basis):
        with pytest.raises(ValueError, match="rows have unequal lengths"):
            check([[1, 2], [3]])
    # no rows leave the kernel's ambient dimension unknown
    with pytest.raises(ValueError, match="kernel needs at least one row"):
        kernel_basis([])
    assert smith_normal_form([]) == ()
    # a matrix has at least one row, which fixes its width
    with pytest.raises(ValueError, match="matrix needs at least one row"):
        IntMatrix.from_rows([])
    with pytest.raises(ValueError, match="generator length differs from ambient dimension"):
        lattice_from_generators(2, [(1, 2, 3)])
    with pytest.raises(ValueError, match="ambient dimension must be nonnegative"):
        lattice_from_generators(-1, [])
