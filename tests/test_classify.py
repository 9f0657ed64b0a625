"""Tests for the homeomorphism classification layer."""

import hashlib
import itertools
import json

import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st

from qtoric.classify import (
    HomeoClass,
    canonical_class,
    count_nonbott,
    enumerate_classes,
    homeomorphic,
    is_nonbott_class,
    same_class,
    tilde_canonical,
)
from qtoric.quasitoric import CharPair, admissible_normal_forms, validate

from pair_reference import filtered_admissible_pairs, tilde_equiv, trunc_product_identity
from pair_reference import tilde_canonical as reference_canonical


@st.composite
def valid_pairs(draw, max_dim=4, max_entry=3):
    n = draw(st.integers(min_value=1, max_value=max_dim))
    m = draw(st.integers(min_value=1, max_value=max_dim))
    mode = draw(st.sampled_from(["zero", "bott-a", "bott-b", "twisted"]))
    if mode == "zero":
        a = (0,) * m
        b = (0,) * n
    elif mode == "bott-a":
        a = tuple(
            draw(st.integers(min_value=-max_entry, max_value=max_entry))
            for _ in range(m)
        )
        b = (0,) * n
    elif mode == "bott-b":
        a = (0,) * m
        b = tuple(
            draw(st.integers(min_value=-max_entry, max_value=max_entry))
            for _ in range(n)
        )
    else:
        alpha, beta = draw(st.sampled_from([(1, 2), (2, 1), (-1, -2), (-2, -1)]))
        a = tuple(draw(st.sampled_from([0, alpha])) for _ in range(m))
        b = tuple(draw(st.sampled_from([0, beta])) for _ in range(n))
    return CharPair(n, m, a, b)


X = sp.Symbol("x")


class TestTruncIdentity:
    def test_identical_sides(self):
        for ell in (1, 2, 5):
            assert trunc_product_identity((7,), (7,), 1, 0, ell)

    def test_mod_two_collapse(self):
        # 1 + x and (1 - x)(1 + 2x) agree below the x^2 term
        assert trunc_product_identity((1,), (3,), 1, -1, 1)

    def test_failure_at_quadratic_term(self):
        assert not trunc_product_identity((4,), (2,), 1, 1, 2)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            trunc_product_identity((1,), (1, 2), 1, 0, 2)
        with pytest.raises(ValueError):
            trunc_product_identity((1,), (1,), 2, 0, 2)
        with pytest.raises(ValueError):
            trunc_product_identity((1,), (1,), 1, 0, 0)

    @given(
        st.lists(st.integers(-4, 4), min_size=1, max_size=4),
        st.lists(st.integers(-4, 4), min_size=1, max_size=4),
        st.sampled_from([1, -1]),
        st.integers(-3, 3),
        st.integers(1, 5),
    )
    @settings(max_examples=80)
    def test_matches_sympy_series(self, u, v, eps, w, ell):
        if len(v) != len(u):
            v = (v + u)[: len(u)]
        lhs = sp.prod([1 + ui * X for ui in u])
        rhs = (1 + eps * w * X) * sp.prod([1 + eps * (vi + w) * X for vi in v])
        diff = sp.expand(lhs - rhs).as_poly(X).all_coeffs()[::-1]
        expected = all(c == 0 for c in diff[: ell + 1])
        assert trunc_product_identity(u, v, eps, w, ell) is expected

    @given(st.lists(st.integers(-5, 5), min_size=1, max_size=5), st.integers(1, 4))
    def test_reflexivity_witness(self, u, ell):
        assert trunc_product_identity(u, u, 1, 0, ell)


class TestTildeEquiv:
    def test_parity_pair(self):
        assert tilde_equiv((1,), (3,), 1)
        assert not tilde_equiv((1,), (2,), 1)

    def test_sign_flip_any_order(self):
        for a in range(-4, 5):
            for ell in range(1, 5):
                assert tilde_equiv((a,), (-a,), ell)

    def test_higher_order_rejects(self):
        assert not tilde_equiv((4,), (2,), 2)

    def test_singleton_absolute_value_rule(self):
        # for truncation order above 1 a singleton only matches its
        # absolute value
        for ell in (2, 3, 4):
            for a in range(-6, 7):
                for a2 in range(-6, 7):
                    assert tilde_equiv((a,), (a2,), ell) == (abs(a) == abs(a2))

    @given(
        u=st.lists(st.integers(-5, 5), min_size=1, max_size=4).map(tuple),
        uprime=st.lists(st.integers(-5, 5), min_size=1, max_size=4).map(tuple),
    )
    def test_order_one_is_congruence(self, u, uprime):
        if len(u) != len(uprime):
            uprime = uprime[: len(u)] + (0,) * (len(u) - len(uprime))
        k = len(u)
        su, sv = sum(u), sum(uprime)
        expected = (su - sv) % (k + 1) == 0 or (su + sv) % (k + 1) == 0
        assert tilde_equiv(u, uprime, 1) == expected

    @given(
        u=st.lists(st.integers(-4, 4), min_size=1, max_size=4).map(tuple),
        ell=st.integers(1, 4),
    )
    def test_reflexive(self, u, ell):
        assert tilde_equiv(u, u, ell)

    @given(
        u=st.lists(st.integers(-3, 3), min_size=1, max_size=3).map(tuple),
        v=st.lists(st.integers(-3, 3), min_size=1, max_size=3).map(tuple),
        ell=st.integers(1, 4),
    )
    def test_symmetric(self, u, v, ell):
        if len(u) != len(v):
            v = v[: len(u)] + (0,) * (len(u) - len(v))
        assert tilde_equiv(u, v, ell) == tilde_equiv(v, u, ell)

    def test_transitive_singletons_exhaustive(self):
        values = range(-3, 4)
        for ell in range(1, 5):
            for x, y, z in itertools.product(values, repeat=3):
                if tilde_equiv((x,), (y,), ell) and tilde_equiv((y,), (z,), ell):
                    assert tilde_equiv((x,), (z,), ell)

    @settings(max_examples=300)
    @given(
        vecs=st.integers(1, 3).flatmap(
            lambda k: st.tuples(
                *(
                    st.lists(st.integers(-3, 3), min_size=k, max_size=k).map(tuple)
                    for _ in range(3)
                )
            )
        ),
        ell=st.integers(1, 4),
    )
    def test_transitive_sampled(self, vecs, ell):
        u, v, w = vecs
        if tilde_equiv(u, v, ell) and tilde_equiv(v, w, ell):
            assert tilde_equiv(u, w, ell)

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            tilde_equiv((), (), 1)
        with pytest.raises(ValueError):
            tilde_equiv((1,), (1, 2), 1)
        with pytest.raises(ValueError):
            tilde_equiv((1,), (1,), 0)


class TestTildeCanonical:
    def test_agrees_with_tilde_equiv_exhaustive(self):
        checked = 0
        for k in range(1, 4):
            vectors = list(itertools.product(range(-3, 4), repeat=k))
            for ell in range(1, 5):
                keys = {u: tilde_canonical(u, ell) for u in vectors}
                for u, v in itertools.product(vectors, repeat=2):
                    assert (keys[u] == keys[v]) == tilde_equiv(u, v, ell), (u, v, ell)
                    checked += 1
        assert checked == 480396

    @settings(max_examples=300)
    @given(
        vecs=st.integers(1, 5).flatmap(
            lambda k: st.tuples(
                *(
                    st.lists(st.integers(-12, 12), min_size=k, max_size=k).map(tuple)
                    for _ in range(2)
                )
            )
        ),
        ell=st.integers(1, 6),
    )
    def test_agrees_with_tilde_equiv_sampled(self, vecs, ell):
        u, v = vecs
        same = tilde_canonical(u, ell) == tilde_canonical(v, ell)
        assert same == tilde_equiv(u, v, ell)

    @given(
        u=st.lists(st.integers(-12, 12), min_size=1, max_size=5),
        ell=st.integers(1, 6),
        data=st.data(),
    )
    def test_invariant_under_flip_and_permutation(self, u, ell, data):
        eps = data.draw(st.sampled_from([1, -1]))
        moved = tuple(eps * x for x in data.draw(st.permutations(u)))
        assert tilde_canonical(moved, ell) == tilde_canonical(tuple(u), ell)

    @settings(max_examples=300)
    @given(
        u=st.lists(
            st.one_of(
                st.just(0),
                st.integers(-3, 3),
                st.integers(-(10**30) + 1, 10**30 - 1),
            ),
            min_size=1,
            max_size=6,
        ),
        ell=st.integers(1, 7),
    )
    def test_series_equals_reference(self, u, ell):
        # equality tests alone would pass a kernel that changed every
        # series the same way; this pins the coefficients themselves
        u = tuple(u)
        assert tilde_canonical(u, ell) == reference_canonical(u, ell)

    def test_zero_vector_series_is_one(self):
        for k in range(1, 4):
            for ell in range(1, 5):
                assert tilde_canonical((0,) * k, ell) == (1,) + (0,) * ell

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            tilde_canonical((), 1)
        with pytest.raises(ValueError):
            tilde_canonical((1,), 0)


class TestCanonicalClass:
    def test_square_connected_sum(self):
        c = canonical_class(CharPair(1, 1, (2,), (1,)))
        assert c.family == "connsum-plus"
        assert (c.n, c.m) == (1, 1)

    def test_even_twist_count_collapses(self):
        c = canonical_class(CharPair(3, 1, (2,), (1, 1, 0)))
        assert c.family == "bott-base-n"
        assert c.vec == (2,)

    def test_fold_applies(self):
        c = canonical_class(CharPair(2, 2, (2, 2), (1, 0)))
        assert c.family == "nonbott"
        assert (c.s, c.r) == (1, 1)

    def test_product(self):
        c = canonical_class(CharPair(2, 1, (0,), (0, 0)))
        assert c.family == "product"

    def test_bott_sides(self):
        c = canonical_class(CharPair(2, 1, (3,), (0, 0)))
        assert c.family == "bott-base-n" and c.vec == (3,)
        c = canonical_class(CharPair(3, 2, (0, 0), (0, 0, 2)))
        assert c.family == "bott-base-m" and c.vec == (2, 0, 0)

    def test_square_base_moves_vector_to_a_side(self):
        c = canonical_class(CharPair(2, 2, (0, 0), (3, -1)))
        assert c.family == "bott-base-n"
        assert c.representative == CharPair(2, 2, (3, -1), (0, 0))

    def test_segment_factor_parity_branches(self):
        assert canonical_class(CharPair(3, 1, (1,), (2, 0, 0))).family == "connsum-plus"
        assert canonical_class(CharPair(3, 1, (2,), (1, 0, 0))).family == "special-m21"
        assert canonical_class(CharPair(3, 1, (1,), (2, 2, 0))).family == "connsum-minus"
        assert canonical_class(CharPair(4, 1, (1,), (2, 0, 0, 0))).family == "connsum-minus"
        assert canonical_class(CharPair(4, 1, (2,), (1, 0, 0, 0))).family == "bott-base-n"
        assert canonical_class(CharPair(2, 1, (2,), (1, 1))).family == "bott-base-n"

    def test_nonbott_stores_folded_counts(self):
        c = canonical_class(CharPair(4, 3, (2, 2, 2), (1, 1, 1, 1)))
        assert c.family == "nonbott"
        # s=3 folds to 1 within 3 slots, r=4 folds to 1 within 4 slots
        assert (c.s, c.r) == (1, 1)
        assert c.orientation == "a2"
        # the label stores the family and the folded representative only
        assert HomeoClass._fields == ("family", "representative")
        assert tuple(c) == ("nonbott", CharPair(4, 3, (2, 0, 0), (1, 0, 0, 0)))

    def test_mirror_orientation_kept_for_distinct_dims(self):
        c = canonical_class(CharPair(3, 2, (1, 0), (2, 0, 0)))
        assert c.family == "nonbott"
        assert c.orientation == "b2"
        assert (c.s, c.r) == (1, 1)

    def test_invalid_input_rejected(self):
        with pytest.raises(ValueError):
            canonical_class(CharPair(1, 1, (1,), (1,)))

    @given(cp=valid_pairs(), rng=st.randoms(use_true_random=False))
    def test_invariant_under_entry_permutation(self, cp, rng):
        # a and b are shuffled independently, so either may stay as it was
        a, b = list(cp.a), list(cp.b)
        rng.shuffle(a)
        rng.shuffle(b)
        assert canonical_class(cp) == canonical_class(CharPair.make(cp.n, cp.m, a, b))

    @given(cp=valid_pairs())
    def test_invariant_under_global_sign_flip(self, cp):
        negated = CharPair(
            cp.n,
            cp.m,
            tuple(-x for x in cp.a),
            tuple(-x for x in cp.b),
        )
        assert canonical_class(cp) == canonical_class(negated)

    @given(cp=valid_pairs())
    def test_invariant_under_factor_swap(self, cp):
        assert canonical_class(cp) == canonical_class(cp.swapped())


class TestSameClass:
    def test_connsum_minus_equals_unit_twist_bundle(self):
        minus = canonical_class(CharPair(3, 1, (1,), (2, 2, 0)))
        bundle = canonical_class(CharPair(3, 1, (1,), (0, 0, 0)))
        assert minus.family == "connsum-minus"
        assert bundle.family == "bott-base-n"
        equal, rule = same_class(minus, bundle)
        assert equal and rule == "bott-vector-equivalence"

    def test_bott_vectors_distinguished_above_order_one(self):
        c1 = canonical_class(CharPair(3, 1, (1,), (0, 0, 0)))
        c2 = canonical_class(CharPair(3, 1, (3,), (0, 0, 0)))
        assert not same_class(c1, c2)[0]

    def test_trivial_bundle_is_product(self):
        bundle = canonical_class(CharPair(2, 1, (0,), (3, 0)))
        prod = canonical_class(CharPair(2, 1, (0,), (0, 0)))
        assert bundle.family == "bott-base-m"
        equal, rule = same_class(bundle, prod)
        assert equal and rule == "bott-vector-equivalence"

    def test_cross_base_rule(self):
        c1 = canonical_class(CharPair(3, 2, (1, 0), (0, 0, 0)))
        c2 = canonical_class(CharPair(3, 2, (0, 0), (1, 0, 0)))
        equal, rule = same_class(c1, c2)
        assert rule == "bott-cross-base"
        assert not equal

    def test_equal_labels_hash_equal(self):
        # the trivial segment bundle and the product: equal labels with
        # different fields
        bundle = canonical_class(CharPair(2, 1, (0,), (3, 0)))
        prod = canonical_class(CharPair(2, 1, (0,), (0, 0)))
        other = canonical_class(CharPair(2, 1, (2,), (1, 0)))
        assert bundle.family != prod.family
        assert bundle == prod and hash(bundle) == hash(prod)
        assert len({bundle, prod, other}) == 2

    def test_ne_is_the_negation_of_eq(self):
        # the a = (1) bundle and its connected-sum label share a key and a
        # representative but not their fields; labels of different keys
        # differ both ways
        bundle = canonical_class(CharPair(2, 1, (1,), (0, 0)))
        minus = canonical_class(CharPair(2, 1, (1,), (2, 0)))
        assert (bundle.family, minus.family) == ("bott-base-n", "connsum-minus")
        assert bundle.representative == minus.representative
        assert bundle == minus and not bundle != minus
        assert hash(bundle) == hash(minus)
        other = canonical_class(CharPair(2, 1, (2,), (1, 0)))
        assert bundle != other and not bundle == other

    def test_comparison_with_other_types(self):
        c = canonical_class(CharPair(1, 1, (0,), (0,)))
        assert (c == 5) is False
        assert (c != 5) is True

    def test_json_shape(self):
        c = canonical_class(CharPair(2, 2, (2, 2), (1, 0)))
        d = c.to_json_dict()
        assert set(d) == {"family", "n", "m", "params", "representative"}
        assert d["params"] == {"s": 1, "r": 1, "orientation": "a2"}
        assert d["representative"]["a"] == [2, 0]


class TestHomeomorphic:
    def test_reflexive(self):
        cp = CharPair(3, 2, (2, 0), (1, 0, 0))
        assert homeomorphic(cp, cp) == (True, "reflexive")

    def test_fold_pair(self):
        cp1 = CharPair(3, 2, (2, 0), (1, 0, 0))
        cp2 = CharPair(3, 2, (2, 2), (1, 1, 1))
        verdict, rule = homeomorphic(cp1, cp2)
        assert verdict and rule == "sr-fold"

    def test_segment_families_distinct(self):
        cp1 = CharPair(3, 1, (1,), (2, 0, 0))
        cp2 = CharPair(3, 1, (2,), (1, 0, 0))
        verdict, rule = homeomorphic(cp1, cp2)
        assert not verdict
        assert rule == "connected-sum-family"

    def test_base_mismatch(self):
        verdict, rule = homeomorphic(
            CharPair(2, 1, (0,), (0, 0)), CharPair(3, 1, (0,), (0, 0, 0))
        )
        assert not verdict and rule == "base-polytope-mismatch"

    def test_orientation_swap_distinct_dims(self):
        cp1 = CharPair(3, 2, (2, 0), (1, 0, 0))
        cp2 = CharPair(3, 2, (1, 0), (2, 0, 0))
        verdict, rule = homeomorphic(cp1, cp2)
        assert not verdict and rule == "orientation-swap"

    def test_orientation_merges_on_square(self):
        cp1 = CharPair(2, 2, (2, 0), (1, 0))
        cp2 = CharPair(2, 2, (1, 0), (2, 0))
        assert homeomorphic(cp1, cp2)[0]

    def test_bott_never_matches_nonbott(self):
        cp1 = CharPair(2, 2, (2, 0), (1, 0))
        cp2 = CharPair(2, 2, (0, 0), (0, 0))
        verdict, rule = homeomorphic(cp1, cp2)
        assert not verdict and rule == "bott-vs-nonbott-ring"

    def test_invalid_input_rejected(self):
        with pytest.raises(ValueError):
            homeomorphic(CharPair(1, 1, (1,), (1,)), CharPair(1, 1, (0,), (0,)))

    @given(cp1=valid_pairs(max_dim=3), cp2=valid_pairs(max_dim=3))
    def test_matches_label_equality(self, cp1, cp2):
        verdict, _ = homeomorphic(cp1, cp2)
        assert verdict == (canonical_class(cp1) == canonical_class(cp2))

    @given(cp1=valid_pairs(max_dim=3), cp2=valid_pairs(max_dim=3))
    def test_symmetric(self, cp1, cp2):
        assert homeomorphic(cp1, cp2)[0] == homeomorphic(cp2, cp1)[0]


class TestEnumerate:
    def test_square_of_segments_has_three_classes(self):
        classes = enumerate_classes(1, 1, 2)
        assert len(classes) == 3
        families = [c.family for c in classes]
        assert families == ["product", "bott-base-n", "connsum-plus"]
        hirzebruch = classes[1]
        assert hirzebruch.vec == (1,)

    def test_larger_bound_same_classes(self):
        assert len(enumerate_classes(1, 1, 3)) == 3

    def test_bound_zero(self):
        classes = enumerate_classes(1, 1, 0)
        assert len(classes) == 1
        assert classes[0].family == "product"

    def test_deterministic(self):
        first = enumerate_classes(2, 2, 2)
        second = enumerate_classes(2, 2, 2)
        assert [c.sort_key() for c in first] == [c.sort_key() for c in second]

    @pytest.mark.parametrize(
        "n,m",
        [(1, 1), (2, 1), (3, 1), (2, 2), (3, 2), (3, 3)],
    )
    def test_nonbott_portion_matches_closed_form(self, n, m):
        classes = enumerate_classes(n, m, 2)
        nonbott = [c for c in classes if is_nonbott_class(c)]
        assert len(nonbott) == count_nonbott(n, m)

    def test_every_class_has_valid_representative(self):
        # each representative is a fixed point of the labelling, field for
        # field, which the non-Bott key (family, representative) relies on
        for n in range(1, 6):
            for m in range(1, n + 1):
                for c in enumerate_classes(n, m, 3):
                    assert validate(c.representative)
                    assert tuple(canonical_class(c.representative)) == tuple(c)

    def test_matches_pairwise_reference(self):
        for n, m, bound in itertools.product(range(1, 5), range(1, 5), range(4)):
            if n < m:
                continue
            got = [c.to_json_dict() for c in enumerate_classes(n, m, bound)]
            expected = [c.to_json_dict() for c in _pairwise_classes(n, m, bound)]
            assert got == expected, (n, m, bound)

    def test_enumeration_bytes_pinned(self):
        # the pairwise reference above labels through canonical_class too,
        # so it cannot see a label that changes on both sides; this digest
        # of the listing's JSON can
        doc = [
            [c.to_json_dict() for c in enumerate_classes(n, m, bound)]
            for n in range(1, 6)
            for m in range(1, n + 1)
            for bound in range(4)
        ]
        digest = hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()
        assert digest == (
            "a7e075705426db01e02b79c0ab0418b8d9bae0b8ca7fcba698e160fb7976bc99"
        )

    def test_enumeration_bytes_pinned_at_cli_caps(self):
        # the longest b-side vectors and the deepest truncation below the
        # vector length (ell = m < k = n) at the enumerate command's caps
        doc = [
            [c.to_json_dict() for c in enumerate_classes(n, m, 4)]
            for n in (6, 7, 8)
            for m in (1, 2, n - 1, n)
        ]
        digest = hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()
        assert digest == (
            "5f3dbb305d535c581fcad3d642405441c26c090e65a9fa9d8a298cac7f154dc8"
        )

    def test_matches_smallest_form_per_key(self):
        # every normal form keyed by its full label, independently of the
        # per-side walk, so a mismatch names its cell
        cells = [
            (n, m, bound)
            for n in range(1, 7)
            for m in range(1, n + 1)
            for bound in range(4)
        ] + [(n, m, 2) for n in (7, 8) for m in range(1, n + 1)]
        for n, m, bound in cells:
            best = {}
            for cp in admissible_normal_forms(n, m, bound):
                key = canonical_class(cp).key
                if key not in best or cp < best[key]:
                    best[key] = cp
            expected = sorted(map(canonical_class, best.values()), key=HomeoClass.sort_key)
            got = enumerate_classes(n, m, bound)
            assert [tuple(c) for c in got] == [tuple(c) for c in expected], (n, m, bound)

    def test_class_key_is_exact(self):
        labels = {}
        for n, m in itertools.product(range(1, 4), repeat=2):
            for cp in filtered_admissible_pairs(n, m, 3):
                c = canonical_class(cp)
                labels[c.sort_key()] = c
        for c1, c2 in itertools.product(labels.values(), repeat=2):
            expected = _reference_same_class(c1, c2)
            assert same_class(c1, c2) == expected, (c1, c2)
            assert (c1 == c2) == expected[0]
            if expected[0]:
                assert hash(c1) == hash(c2)

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            enumerate_classes(1, 2, 2)
        with pytest.raises(ValueError):
            enumerate_classes(2, 2, -1)


def _pairwise_classes(n, m, bound):
    """enumerate_classes spelled out with pairwise ``_reference_same_class``
    scans over every pair that passes ``validate``, keeping the smallest sort
    key."""
    kept = []
    for cp in filtered_admissible_pairs(n, m, bound):
        c = canonical_class(cp)
        for i, other in enumerate(kept):
            if _reference_same_class(other, c)[0]:
                if c.sort_key() < other.sort_key():
                    kept[i] = c
                break
        else:
            kept.append(c)
    return sorted(kept, key=HomeoClass.sort_key)


def _n_side_vector(c):
    """The label as a bundle twisted by an a-side vector, when readable that
    way: the length-m vector, or None."""
    if c.family == "product":
        return (0,) * c.m
    if c.family == "bott-base-n":
        return c.vec
    if c.family == "connsum-minus":
        return (1,)
    if c.family == "bott-base-m" and c.n == c.m:
        # over a square base the mirror is the same manifold
        return c.vec
    return None


def _m_side_vector(c):
    if c.family == "product":
        return (0,) * c.n
    if c.family == "bott-base-m":
        return c.vec
    if c.family == "bott-base-n" and c.n == c.m:
        return c.vec
    if c.family == "connsum-minus" and c.n == c.m:
        return (1,)
    return None


def _reference_same_class(c1, c2):
    """Pairwise label comparison, independent of ``HomeoClass.key``: Bott
    labels are read as bundles on a common side and compared through
    ``tilde_equiv``.  Returns (equal, rule) as ``same_class`` does."""
    if (c1.n, c1.m) != (c2.n, c2.m):
        return False, "base-polytope-mismatch"
    nb1 = is_nonbott_class(c1)
    nb2 = is_nonbott_class(c2)
    if nb1 != nb2:
        return False, "bott-vs-nonbott-ring"
    if nb1:
        if c1.family != c2.family:
            return False, "connected-sum-family"
        if c1.family == "nonbott":
            if c1.orientation != c2.orientation:
                return False, "orientation-swap"
            return (c1.s, c1.r) == (c2.s, c2.r), "sr-fold"
        return True, "connected-sum-family"
    a1 = _n_side_vector(c1)
    a2 = _n_side_vector(c2)
    if a1 is not None and a2 is not None:
        return tilde_equiv(a1, a2, c1.n), "bott-vector-equivalence"
    b1 = _m_side_vector(c1)
    b2 = _m_side_vector(c2)
    if b1 is not None and b2 is not None:
        return tilde_equiv(b1, b2, c1.m), "bott-vector-equivalence"
    # opposite sides with n != m: both must be the trivial product
    vn = a1 if a1 is not None else a2
    vm = b1 if b1 is not None else b2
    equal = tilde_equiv(vn, (0,) * c1.m, c1.n) and tilde_equiv(
        vm, (0,) * c1.n, c1.m
    )
    return equal, "bott-cross-base"


class TestCountNonbott:
    @pytest.mark.parametrize(
        "n,m,expected",
        [
            (1, 1, 1),
            (2, 1, 0),
            (3, 1, 2),
            (4, 1, 0),
            (5, 1, 2),
            (2, 2, 1),
            (3, 3, 4),
            (4, 4, 4),
            (3, 2, 4),
            (5, 2, 6),
            (4, 3, 8),
        ],
    )
    def test_closed_form(self, n, m, expected):
        assert count_nonbott(n, m) == expected

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            count_nonbott(1, 2)
        with pytest.raises(ValueError):
            count_nonbott(2, 0)


class TestTransitivityOfEquality:
    def test_label_equality_transitive_on_sample(self):
        pairs = [
            CharPair(3, 1, (1,), (2, 2, 0)),
            CharPair(3, 1, (1,), (0, 0, 0)),
            CharPair(3, 1, (-1,), (0, 0, 0)),
            CharPair(3, 1, (1,), (2, 0, 0)),
            CharPair(3, 1, (2,), (1, 0, 0)),
            CharPair(3, 1, (0,), (0, 0, 0)),
            CharPair(3, 1, (2,), (1, 1, 0)),
            CharPair(3, 1, (2,), (0, 0, 0)),
        ]
        labels = [canonical_class(cp) for cp in pairs]
        for x, y, z in itertools.product(labels, repeat=3):
            if same_class(x, y)[0] and same_class(y, z)[0]:
                assert same_class(x, z)[0]
