import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from qtoric.lattice import lattice_from_generators
from qtoric.polyring import (
    HomogPoly,
    ideal_degree_lattice,
    linear_product,
    substitute_linear,
)

from pair_reference import from_coeffs

X1, X2 = sp.symbols("x1 x2")


def as_sympy(p: HomogPoly):
    return sum(c * X1 ** (p.degree - i) * X2**i for i, c in enumerate(p.coeffs))


homog_polys = st.integers(0, 5).flatmap(
    lambda d: st.lists(st.integers(-4, 4), min_size=d + 1, max_size=d + 1).map(
        from_coeffs
    )
)

linear_forms = st.tuples(st.integers(-4, 4), st.integers(-4, 4))

two_by_two = st.tuples(
    st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
    st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
)

# the kernels' reach in the CLI: oracle-iso substitutes generators of degree
# up to 14 (its n + m cap), whose coefficients have no digit cap, by g with
# entries up to 10 (its --bound cap); singular g are drawn too
big_ints = st.integers(-(10**30) + 1, 10**30 - 1)

wide_polys = st.integers(0, 14).flatmap(
    lambda d: st.lists(big_ints, min_size=d + 1, max_size=d + 1).map(from_coeffs)
)

wide_linear_forms = st.tuples(big_ints, big_ints)

wide_two_by_two = st.tuples(
    st.tuples(st.integers(-10, 10), st.integers(-10, 10)),
    st.tuples(st.integers(-10, 10), st.integers(-10, 10)),
)

# the identity, two singular matrices (one of them zero) and a unimodular one
EDGE_MATRICES = [((1, 0), (0, 1)), ((2, 4), (1, 2)), ((0, 0), (0, 0)), ((-10, 3), (7, -2))]


def sympy_product(lead, factors) -> HomogPoly:
    direct = sp.Poly(sp.prod([c * X1 + d * X2 for c, d in [lead] + factors]), X1, X2)
    degree = 1 + len(factors)
    return HomogPoly(
        tuple(int(direct.coeff_monomial(X1 ** (degree - i) * X2**i)) for i in range(degree + 1))
    )


def sympy_substitution(p: HomogPoly, g) -> HomogPoly:
    y1, y2 = sp.symbols("y1 y2")
    direct = as_sympy(p).subs(
        {X1: g[0][0] * y1 + g[0][1] * y2, X2: g[1][0] * y1 + g[1][1] * y2},
        simultaneous=True,
    )
    image = sp.Poly(direct, y1, y2)
    d = p.degree
    return HomogPoly(
        tuple(int(image.coeff_monomial(y1 ** (d - i) * y2**i)) for i in range(d + 1))
    )


class TestLinearProduct:
    def test_first_generator_pattern(self):
        # x1 * (x1 + 1*x2) * (x1 + 0*x2) for a length-2 coefficient vector
        assert linear_product((1, 0), [(1, 1), (1, 0)]).coeffs == (1, 1, 0, 0)

    def test_bare_lead(self):
        assert linear_product((0, 1), []).coeffs == (0, 1)

    def test_cubic_expansion(self):
        # x2 * (2x1 + x2) * x2 = 2*x1*x2^2 + x2^3; the x2-exponent indexing
        # puts those coefficients at positions 2 and 3.
        assert linear_product((0, 1), [(2, 1), (0, 1)]).coeffs == (0, 0, 2, 1)

    def test_zero_factor_gives_zero(self):
        assert linear_product((3, -2), [(1, 1), (0, 0), (5, 7)]).coeffs == (0,) * 5

    @given(linear_forms, st.lists(linear_forms, max_size=5))
    @settings(max_examples=60)
    def test_matches_sympy_expansion(self, lead, factors):
        p = linear_product(lead, factors)
        assert p.degree == 1 + len(factors)
        direct = sp.prod([c * X1 + d * X2 for c, d in [lead] + factors])
        assert sp.expand(direct - as_sympy(p)) == 0

    @given(wide_linear_forms, st.lists(wide_linear_forms, max_size=14))
    @settings(max_examples=40, deadline=None)
    def test_matches_sympy_at_cli_reach(self, lead, factors):
        assert linear_product(lead, factors) == sympy_product(lead, factors)


class TestSubstitute:
    def test_variable_swap(self):
        g = ((0, 1), (1, 0))
        x1 = from_coeffs((1, 0))
        assert substitute_linear(x1, g).coeffs == (0, 1)

    def test_identity_fixes_power(self):
        p = from_coeffs((1, 0, 0, 0))
        assert substitute_linear(p, ((1, 0), (0, 1))) == p

    def test_negation_shear_fixes_generator(self):
        # x1 -> -y1, x2 -> 2y1 + y2 maps x2(2x1 + x2) to y2(2y1 + y2)
        g = ((-1, 0), (2, 1))
        p = from_coeffs((0, 2, 1))
        assert substitute_linear(p, g).coeffs == (0, 2, 1)

    @pytest.mark.parametrize(
        "g", [((1, 0),), ((1, 0, 0), (0, 1, 0)), ((1, 0), (0, 1), (0, 0))]
    )
    def test_rejects_non_square_matrix(self, g):
        with pytest.raises(ValueError, match="substitution matrix must be 2x2"):
            substitute_linear(from_coeffs((1, 0)), g)

    @given(homog_polys, two_by_two, two_by_two)
    @settings(max_examples=60)
    def test_functorial(self, p, g, h):
        gh = [[sum(x * y for x, y in zip(row, col)) for col in zip(*h)] for row in g]
        assert substitute_linear(p, gh) == substitute_linear(
            substitute_linear(p, g), h
        )

    @given(homog_polys, two_by_two)
    @settings(max_examples=60)
    def test_matches_sympy_substitution(self, p, g):
        assert substitute_linear(p, g) == sympy_substitution(p, g)

    @given(wide_polys, wide_two_by_two)
    @settings(max_examples=40, deadline=None)
    def test_matches_sympy_at_cli_reach(self, p, g):
        assert substitute_linear(p, g) == sympy_substitution(p, g)

    @pytest.mark.parametrize("g", EDGE_MATRICES)
    def test_degree_zero_is_fixed(self, g):
        p = from_coeffs((-(10**29),))
        assert substitute_linear(p, g) == p

    @pytest.mark.parametrize("g", EDGE_MATRICES)
    def test_zero_polynomial_stays_zero(self, g):
        for d in (0, 1, 14):
            p = from_coeffs((0,) * (d + 1))
            assert substitute_linear(p, g) == p

    def test_singular_substitution(self):
        # x1 -> y1 + 2y2 and x2 -> 2(y1 + 2y2) send x1^2 + x1*x2 to 3(y1 + 2y2)^2
        p = from_coeffs((1, 1, 0))
        assert substitute_linear(p, ((1, 2), (2, 4))).coeffs == (3, 12, 12)


class TestIdealDegreeLattice:
    def test_below_generator_degree(self):
        assert ideal_degree_lattice([from_coeffs((1, 0, 0))], 1).basis == ()
        with pytest.raises(ValueError, match="degree must be nonnegative"):
            ideal_degree_lattice([from_coeffs((1, 0, 0))], -1)

    def test_monomial_shifts(self):
        lat = ideal_degree_lattice([from_coeffs((1, 0, 0))], 3)
        assert lat.basis == ((1, 0, 0, 0), (0, 1, 0, 0))

    def test_two_generator_rank(self):
        # x1^3 and x2(x1 + x2) at degree 4: four shift vectors in Z^5
        g1 = from_coeffs((1, 0, 0, 0))
        g2 = from_coeffs((0, 1, 1))
        lat = ideal_degree_lattice([g1, g2], 4)
        shifts = [
            (1, 0, 0, 0, 0),
            (0, 1, 0, 0, 0),
            (0, 1, 1, 0, 0),
            (0, 0, 1, 1, 0),
            (0, 0, 0, 1, 1),
        ]
        assert lat.basis == lattice_from_generators(5, shifts).basis
        assert lat.rank == 5

    @given(
        st.lists(homog_polys, min_size=1, max_size=3),
        homog_polys,
        st.integers(0, 7),
    )
    @settings(max_examples=60)
    def test_monotone_under_extra_generator(self, gens, extra, d):
        small = ideal_degree_lattice(gens, d)
        big = ideal_degree_lattice(list(gens) + [extra], d)
        for v in small.basis:
            assert big.contains(v)
