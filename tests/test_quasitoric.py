import itertools
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import Matrix
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

from qtoric.lattice import is_basis_extendable, lattice_from_generators
from qtoric.polyring import HomogPoly, ideal_degree_lattice
from qtoric.quasitoric import (
    CharPair,
    Presentation,
    admissible_normal_forms,
    characteristic_matrix_grouped,
    cohomology_presentation,
    graded_ranks,
    h_vector,
    kernel_lattice,
    kernel_span_vectors,
    normalize,
    validate,
    validate_bruteforce,
)

from pair_reference import filtered_admissible_pairs


def cp(n, m, a, b):
    return CharPair.make(n, m, a, b)


# entries of a valid pair with both sides nonzero: one side draws from
# {0, alpha}, the other from {0, 2/alpha}
valid_pairs = st.integers(1, 4).flatmap(
    lambda n: st.integers(1, 4).flatmap(
        lambda m: st.tuples(
            st.sampled_from([(1, 2), (2, 1), (-1, -2), (-2, -1)]),
            st.lists(st.booleans(), min_size=m, max_size=m),
            st.lists(st.booleans(), min_size=n, max_size=n),
            st.sampled_from(["both", "bott-a", "bott-b"]),
            st.lists(st.integers(-6, 6), min_size=max(n, m), max_size=max(n, m)),
        ).map(
            lambda t: cp(
                n,
                m,
                [t[0][0] if f else 0 for f in t[1]]
                if t[3] == "both"
                else ([0] * m if t[3] == "bott-a" else t[4][:m]),
                [t[0][1] if f else 0 for f in t[2]]
                if t[3] == "both"
                else (t[4][:n] if t[3] == "bott-a" else [0] * n),
            )
        )
    )
)

# arbitrary generators, not only the ones a characteristic pair gives, so
# the quotient can carry torsion
random_presentations = st.integers(1, 3).flatmap(
    lambda n: st.integers(1, 3).flatmap(
        lambda m: st.tuples(
            st.lists(st.integers(-4, 4), min_size=n + 2, max_size=n + 2),
            st.lists(st.integers(-4, 4), min_size=m + 2, max_size=m + 2),
        ).map(lambda t: Presentation(HomogPoly.from_coeffs(t[0]), HomogPoly.from_coeffs(t[1])))
    )
)

arbitrary_pairs = st.integers(1, 3).flatmap(
    lambda n: st.integers(1, 3).flatmap(
        lambda m: st.tuples(
            st.lists(st.integers(-3, 3), min_size=m, max_size=m),
            st.lists(st.integers(-3, 3), min_size=n, max_size=n),
        ).map(lambda t: cp(n, m, t[0], t[1]))
    )
)


class TestValidate:
    def test_known_valid(self):
        assert validate(cp(2, 1, [2], [1, 0]))

    def test_product_three_fails(self):
        assert not validate(cp(1, 1, [3], [1]))

    def test_zero_side_always_valid(self):
        assert validate(cp(2, 3, [0, 0, 0], [17, -4]))

    def test_product_one_fails(self):
        # 1 - 1*1 = 0 is not a unit, so the vertex omitting the first facet
        # of each factor degenerates
        assert not validate(cp(1, 1, [1], [1]))
        assert not validate_bruteforce(cp(1, 1, [1], [1]))

    def test_identity_block_vertices_always_pass(self):
        # the vertex using only initial facets selects the identity block:
        # grouped columns 0, 1 (first factor) and 3, 4 (second factor)
        mat = characteristic_matrix_grouped(cp(2, 2, [2, 0], [1, 1]))
        cols = [tuple(mat.at(i, j) for i in range(4)) for j in (0, 1, 3, 4)]
        assert is_basis_extendable(cols)

    @given(arbitrary_pairs)
    @settings(max_examples=150, deadline=None)
    def test_closed_form_matches_vertex_oracle(self, pair):
        assert validate(pair) == validate_bruteforce(pair)

    def test_exhaustive_small_window(self):
        for a in itertools.product(range(-2, 3), repeat=1):
            for b in itertools.product(range(-2, 3), repeat=2):
                pair = CharPair(2, 1, a, b)
                assert validate(pair) == validate_bruteforce(pair)


class TestNormalize:
    def test_sign_flip_and_sort(self):
        nf = normalize(cp(3, 1, [-2], [-1, 0, -1]))
        assert (nf.a, nf.b) == ((2,), (1, 1, 0))
        assert nf.orientation == "a2"
        assert (nf.n, nf.m) == (3, 1)

    def test_factor_swap(self):
        nf = normalize(cp(1, 2, [0, 2], [1]))
        assert (nf.n, nf.m) == (2, 1)
        assert (nf.a, nf.b) == ((1,), (2, 0))
        assert nf.orientation == "b2"

    def test_bott_branch_keeps_vector(self):
        # over a square base the twisting vector moves to the a side
        nf = normalize(cp(2, 2, [0, 0], [3, -1]))
        assert nf.orientation == "bott"
        assert (nf.a, nf.b) == ((3, -1), (0, 0))

    def test_bott_sign_choice_is_lexicographic(self):
        assert normalize(cp(2, 2, [0, 0], [-3, 1])).a == (3, -1)
        assert normalize(cp(2, 1, [0], [0, -2])).b == (2, 0)

    def test_invalid_input_rejected(self):
        with pytest.raises(ValueError):
            normalize(cp(1, 1, [3], [1]))

    @given(valid_pairs)
    @settings(max_examples=120)
    def test_idempotent(self, pair):
        nf = normalize(pair)
        assert normalize(nf) == nf

    @given(valid_pairs, st.randoms(use_true_random=False))
    @settings(max_examples=120)
    def test_invariant_under_symmetries(self, pair, rng):
        nf = normalize(pair)
        a = list(pair.a)
        b = list(pair.b)
        rng.shuffle(a)
        rng.shuffle(b)
        flipped = cp(pair.n, pair.m, [-x for x in a], [-x for x in b])
        assert normalize(flipped) == nf

    @given(valid_pairs)
    @settings(max_examples=120)
    def test_factor_swap_behavior(self, pair):
        # both reads have one normal form; over a square base the side with
        # the twist or the value-2 entries goes first
        assert normalize(pair.swapped()) == normalize(pair)


class TestBottDetection:
    def test_known_non_bott(self):
        assert normalize(cp(2, 1, [2], [1, 0])).orientation == "a2"

    def test_projective_bundle(self):
        assert normalize(cp(3, 2, [5, -1], [0, 0, 0])).orientation == "bott"

    def test_product_of_projective_spaces(self):
        assert normalize(cp(2, 2, [0, 0], [0, 0])).orientation == "bott"

    @given(valid_pairs, st.randoms(use_true_random=False))
    @settings(max_examples=120)
    def test_orientation_under_symmetries(self, pair, rng):
        a = list(pair.a)
        b = list(pair.b)
        rng.shuffle(a)
        rng.shuffle(b)
        flipped = cp(pair.n, pair.m, [-x for x in a], [-x for x in b])
        assert flipped.orientation == pair.orientation
        mirror = {"a2": "b2", "b2": "a2", "bott": "bott"}[pair.orientation]
        assert pair.swapped().orientation == mirror
        assert normalize(pair).orientation in (pair.orientation, mirror)


class TestPresentation:
    def test_product_of_lines(self):
        p = cohomology_presentation(cp(1, 1, [0], [0]))
        assert p.gen1.coeffs == (1, 0, 0)
        assert p.gen2.coeffs == (0, 0, 1)

    def test_normalized_sr_form(self):
        # n=3, m=2, s=1, r=2: <x1^2 (x1+x2)^2, x2^2 (2x1+x2)>
        p = cohomology_presentation(cp(3, 2, [2, 0], [1, 1, 0]))
        assert p.gen1.coeffs == (1, 2, 1, 0, 0)
        assert p.gen2.coeffs == (0, 0, 2, 1)

    def test_mixed_example(self):
        p = cohomology_presentation(cp(3, 1, [1], [2, 0, 0]))
        assert p.gen1.coeffs == (1, 2, 0, 0, 0)  # x1^3 (x1 + 2 x2)
        assert p.gen2.coeffs == (0, 1, 1)  # x2 (x1 + x2)

    def test_invalid_input_rejected(self):
        with pytest.raises(ValueError):
            cohomology_presentation(cp(1, 1, [3], [1]))


class TestGradedRanks:
    def test_square_base(self):
        gr = graded_ranks(cohomology_presentation(cp(1, 1, [2], [1])))
        assert gr.ranks == (1, 2, 1)
        assert gr.torsion_free

    def test_degree_zero_is_constants(self):
        gr = graded_ranks(cohomology_presentation(cp(3, 2, [2, 2], [1, 0, 0])))
        assert gr.ranks[0] == 1

    def test_equal_entry_bott_pair_stays_fast(self):
        # inside the cohomology command's caps; Smith reduction by pivoting
        # in place lets this pair's entries grow for minutes
        start = time.perf_counter()
        gr = graded_ranks(cohomology_presentation(cp(11, 3, [8, 8, 8], [0] * 11)))
        assert time.perf_counter() - start < 5
        assert gr.ranks == h_vector(11, 3)
        assert gr.torsion_free

    @given(valid_pairs)
    @settings(max_examples=60, deadline=None)
    def test_h_vector_and_freeness(self, pair):
        gr = graded_ranks(cohomology_presentation(pair))
        assert gr.ranks == h_vector(pair.n, pair.m)
        assert gr.torsion_free
        assert sum(gr.ranks) == (pair.n + 1) * (pair.m + 1)

    @pytest.mark.parametrize(
        "pres,ranks,torsion",
        [
            (
                Presentation(HomogPoly((2, 0, 0)), HomogPoly((0, 0, 1))),
                (1, 2, 1),
                ((), (), (2,)),
            ),
            (
                Presentation(HomogPoly((1, 0, 0, 0)), HomogPoly((0, 3, 3))),
                (1, 2, 2, 1),
                ((), (), (3,), (3, 3)),
            ),
        ],
    )
    def test_frozen_torsion(self, pres, ranks, torsion):
        gr = graded_ranks(pres)
        assert gr.ranks == ranks
        assert gr.torsion == torsion
        assert not gr.torsion_free

    @given(random_presentations)
    @settings(max_examples=60, deadline=None)
    def test_torsion_matches_sympy(self, pres):
        gr = graded_ranks(pres)
        for d in range(pres.n + pres.m + 1):
            lat = ideal_degree_lattice([pres.gen1, pres.gen2], d)
            assert gr.ranks[d] == d + 1 - lat.rank
            expected = ()
            if lat.basis:
                s = sympy_snf(Matrix(lat.basis))
                expected = tuple(
                    sorted(abs(int(s[i, i])) for i in range(lat.rank) if abs(s[i, i]) > 1)
                )
            assert gr.torsion[d] == expected


class TestKernelLattice:
    def test_frozen_example(self):
        k = kernel_lattice(cp(2, 1, [2], [1, 0]))
        assert k.basis == ((1, 0, 0, 1, 1), (0, 1, 1, 1, -1))

    def test_product_block_pattern(self):
        k = kernel_lattice(cp(2, 2, [0, 0], [0, 0]))
        assert k == lattice_from_generators(6, [(1, 1, 1, 0, 0, 0), (0, 0, 0, 1, 1, 1)])

    @given(valid_pairs)
    @settings(max_examples=80, deadline=None)
    def test_matches_explicit_span_and_primitive(self, pair):
        k = kernel_lattice(pair)
        u, v = kernel_span_vectors(pair)
        assert k == lattice_from_generators(pair.n + pair.m + 2, [u, v])
        assert k.rank == 2
        assert is_basis_extendable(k.basis)

    def test_grouped_matrix_column_permutation(self):
        grouped = characteristic_matrix_grouped(cp(2, 1, [2], [1, 0]))
        # the grouped column order is F1 F2 F3 G1 G2; picking columns
        # 0,1,3,2,4 gives the identity-first order F1 F2 G1 F3 G2: an
        # identity block, then the extra facets (-1, -1, -a) and (-b, -1)
        perm = [0, 1, 3, 2, 4]
        permuted = tuple(tuple(r[j] for j in perm) for r in grouped.to_rows())
        assert permuted == ((1, 0, 0, -1, -1), (0, 1, 0, -1, 0), (0, 0, 1, -2, -1))


class TestJson:
    def test_round_trip(self):
        pair = cp(2, 1, [2], [1, 0])
        assert CharPair.from_json_dict(pair.to_json_dict()) == pair

    @pytest.mark.parametrize(
        "obj",
        [
            [],
            {"n": 1, "m": 1, "a": [0]},
            {"n": "1", "m": 1, "a": [0], "b": [0]},
            {"n": 1, "m": 1, "a": [0.5], "b": [0]},
            {"n": 1, "m": 1, "a": [True], "b": [0]},
            {"n": 1, "m": 2, "a": [0], "b": [0, 0]},
            {"n": True, "m": 1, "a": [2], "b": [1]},
            {"n": 1, "m": True, "a": [2], "b": [1]},
        ],
    )
    def test_malformed_rejected(self, obj):
        with pytest.raises(ValueError):
            CharPair.from_json_dict(obj)

    def test_shape_validation(self):
        # make is the checked constructor, and from_json_dict reads through
        # it; the raw constructor checks nothing
        for (n, m, a, b), message in (
            ((1, 1, (0, 0), (0,)), "a must have length m=1"),
            ((1, 1, (0,), (0, 0)), "b must have length n=1"),
            ((0, 1, (0,), ()), "simplex dimensions must be at least 1"),
            ((1, 0, (), (0,)), "simplex dimensions must be at least 1"),
        ):
            with pytest.raises(ValueError, match=message):
                CharPair.make(n, m, a, b)
            with pytest.raises(ValueError, match=message):
                CharPair.from_json_dict({"n": n, "m": m, "a": list(a), "b": list(b)})


class TestAdmissiblePairs:
    def test_matches_filtered_enumeration(self):
        for n, m, bound in itertools.product(range(1, 6), range(1, 6), range(4)):
            if n < m:
                continue
            got = list(admissible_normal_forms(n, m, bound))
            expected = {normalize(cp) for cp in filtered_admissible_pairs(n, m, bound)}
            assert set(got) == expected, (n, m, bound)
            assert len(set(got)) == len(got)
            if n == m:
                # a square base carries the twist in a
                assert all(any(nf.a) or not any(nf.b) for nf in got)
                assert all(nf.orientation != "b2" for nf in got)

    def test_argument_validation(self):
        for args in ((1, 2, 2), (2, 0, 2), (2, 2, -1)):
            with pytest.raises(ValueError):
                list(admissible_normal_forms(*args))

    def test_bott_vectors_match_full_sign_filter(self):
        # a square base lists each a-side vector once, in generation order;
        # the sign choice is checked against the sort of the negated vector,
        # spelled out here in full for every multiset
        def canonical(v):
            return tuple(sorted(v, key=lambda x: (x == 0, -x)))

        for length, bound in itertools.product(range(1, 9), range(5)):
            values = canonical(range(-bound, bound + 1))
            expected = [
                v
                for v in itertools.combinations_with_replacement(values, length)
                if v[0] and v >= canonical(-x for x in v)
            ]
            got = [
                nf.a
                for nf in admissible_normal_forms(length, length, bound)
                if not any(nf.b) and any(nf.a)
            ]
            assert got == expected, (length, bound)
