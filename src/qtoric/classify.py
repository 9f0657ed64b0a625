"""Homeomorphism classification over a product of two simplices.

The decision layer sits on three mechanisms:

* the truncated-product equivalence on integer vectors, which decides when
  two projective-bundle (generalized Bott) classes coincide: u and u' are
  equivalent at order ell when some eps in {+1, -1} and integer w give
  prod(1 + u_i x) = (1 + eps*w*x) * prod(1 + eps*(u'_i + w)*x) modulo
  x^(ell+1).  ``tilde_canonical`` is its complete invariant: a canonical
  representative of the orbit, so equal invariants mean equivalent vectors
  and vice versa.  The truncated series are expanded here and nowhere else
  in the package.
* the (s, r) fold: a non-Bott normalized pair is determined by the count s of
  value-2 entries and the count r of value-1 entries; a class and its fold
  (s -> len+1-s, r -> len+1-r) are homeomorphic, everything else with the
  same orientation is not, and for distinct simplex dimensions the mirrored
  orientation is a genuinely different class.  Each fold comes with an
  equivariance certificate, which ``oracle.builtin_witness`` rebuilds and
  ``oracle.witness_check`` checks whole.
* parity collapse over a segment factor (m = 1): only the parity of the
  number of nonzero entries of b survives, and for even n everything
  collapses onto the corresponding projective bundle; the two odd-parity
  families are a connected sum of two copies of complex projective space and
  the class of a = (2), b = (1, 0, ..., 0).

A class label is its family and its representative, a normal form of the
class.  ``HomeoClass.key`` is equal for two labels exactly when the
manifolds are homeomorphic, and labels compare and hash by it: a non-Bott
label by its family and representative, a Bott label by ``_bott_key`` of
its representative, the ``tilde_canonical`` series of its twisting vector.
``same_class`` is key equality plus the name of the rule that decides it.

A label depends on the normal form alone: ``canonical_class`` is
``normalize`` followed by ``_label``.  A normal form is itself a
``CharPair``: ``normalize`` settles facet relabeling, the global sign and
the factor swap, square base included, and the pair's ``orientation`` names
the side of its value-2 entries, so ``_label`` reads each normal form as it
stands and handles no mirrors.  So ``enumerate_classes`` builds normal
forms without checking or normalizing them again: the smallest twist
vector of each side per ``tilde_canonical`` series, filed under its
``_bott_key``, and the run forms with folded counts, each labelled once.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Tuple

from .quasitoric import CharPair, _bott_vectors, _check_grid, _run_forms, normalize

__all__ = [
    "HomeoClass",
    "tilde_canonical",
    "canonical_class",
    "same_class",
    "homeomorphic",
    "enumerate_classes",
    "count_nonbott",
    "is_nonbott_class",
]

_FAMILY_ORDER = {
    "product": 0,
    "bott-base-n": 1,
    "bott-base-m": 2,
    "nonbott": 3,
    "connsum-plus": 4,
    "connsum-minus": 5,
    "special-m21": 6,
}

# families whose members are not generalized Bott manifolds
_NONBOTT_FAMILIES = frozenset({"nonbott", "connsum-plus", "special-m21"})

# Bott label families on opposite sides (connsum-minus is the a = (1) bundle)
_CROSS_BASE = ({"bott-base-m", "bott-base-n"}, {"bott-base-m", "connsum-minus"})


def _trunc_shifted_product(u: Tuple[int, ...], ell: int, w: int, sign: int) -> Tuple[int, ...]:
    """Coefficients of (1 + w*x) * prod_i (1 + (w + sign*u_i)*x) in
    Z[x]/x^(ell+1), for ell >= 1."""
    coeffs = [1, w] + [0] * (ell - 1)
    # after j nonzero factors the coefficients above x^j are still 0
    top = 1 if w else 0
    for x in u:
        c = w + sign * x
        if c:
            if top < ell:
                top += 1
            i = top
            while i:  # cheaper than a range for these few steps
                coeffs[i] += c * coeffs[i - 1]
                i -= 1
    return tuple(coeffs)


def tilde_canonical(u: Tuple[int, ...], ell: int) -> Tuple[int, ...]:
    """Complete invariant of the truncated-product equivalence: equal for u
    and u' exactly when there exist eps in {+1, -1} and an integer w with
    prod(1 + u_i x) = (1 + eps*w*x) * prod(1 + eps*(u'_i + w)*x) modulo
    x^(ell+1).

    The equivalence is the orbit relation of the infinite dihedral group on
    truncated series S(x) = prod(1 + u_i x) mod x^(ell+1): the shift w sends
    S(x) to (1 + wx)^(k+1) * S(x / (1 + wx)), which for S = P_v is
    (1 + wx) * prod(1 + (v_i + w)x), and the flip sends S(x) to S(-x).  A
    shift adds (k+1)*w to the x-coefficient, so for each flip v = eps*u one
    shift w = -floor(sum(v) / (k+1)) puts it in [0, k]; the smaller of the
    two resulting coefficient tuples is the orbit's representative.  Those
    x-coefficients are sum(u) mod (k+1) and -sum(u) mod (k+1), so a flip's
    series is expanded (``_trunc_shifted_product``) only when its
    x-coefficient is not the larger one.
    """
    k = len(u)
    if k < 1:
        raise ValueError("vector must have positive length")
    if ell < 1:
        raise ValueError("truncation order must be at least 1")
    s = sum(u)
    r = s % (k + 1)  # the plus flip's x-coefficient; the minus flip's is k+1-r or 0
    if 0 < 2 * r < k + 1:
        return _trunc_shifted_product(u, ell, -(s // (k + 1)), 1)
    if 2 * r > k + 1:
        return _trunc_shifted_product(u, ell, -(-s // (k + 1)), -1)
    # equal x-coefficients: both flips are expanded
    plus = _trunc_shifted_product(u, ell, -(s // (k + 1)), 1)
    return min(plus, _trunc_shifted_product(u, ell, -(-s // (k + 1)), -1))


def _bott_key(cp: CharPair) -> Tuple:
    """The class key of a pair with a or b zero: the ``tilde_canonical``
    series of its twisting vector, tagged with the vector's side, or the
    product key when that vector is equivalent to zero (the zero pair
    included), which both sides share."""
    n, m, a, b = cp
    side, v, ell = ("n", a, n) if any(a) else ("m", b, m)
    series = tilde_canonical(v, ell)
    if any(series[1:]):
        return (n, m, "bott", side, series)
    return (n, m, "bott-product")


class HomeoClass(NamedTuple):
    """A homeomorphism-class label.

    family is one of:
      product        trivial bundle, both vectors equivalent to zero
      bott-base-n    projective bundle with the twisting vector on the a side
      bott-base-m    projective bundle with the twisting vector on the b side
                     (n != m only: over a square base it sits on the a side)
      nonbott        normalized (s, r) class, both dimensions at least 2
      connsum-plus   connected sum of two standard projective spaces
      connsum-minus  connected sum with reversed orientation on one summand
                     (the same manifold as the a=(1) bundle; kept as its own
                     label and bridged through equality)
      special-m21    the odd-n class of a=(2), b=(1, 0, ..., 0)

    The tuple is (family, representative), a normal form of the class, and
    every other attribute is read off the representative: ``n`` and ``m``;
    for ``nonbott`` its ``orientation`` and its counts ``s`` of 2s and
    ``r`` of 1s; for ``bott-base-n`` and ``bott-base-m`` its a or b vector
    as ``vec``; None otherwise.  Labels are equal exactly when the classes
    are homeomorphic: they compare and hash by ``key``, which is coarser
    than the field tuple, and a label equals no other type.  ``sort_key``
    is the label order.
    """

    family: str
    representative: CharPair

    @property
    def n(self) -> int:
        return self.representative.n

    @property
    def m(self) -> int:
        return self.representative.m

    @property
    def orientation(self) -> Optional[str]:
        return self.representative.orientation if self.family == "nonbott" else None

    @property
    def s(self) -> Optional[int]:
        if self.family != "nonbott":
            return None
        return (self.representative.a + self.representative.b).count(2)

    @property
    def r(self) -> Optional[int]:
        if self.family != "nonbott":
            return None
        return (self.representative.a + self.representative.b).count(1)

    @property
    def vec(self) -> Optional[Tuple[int, ...]]:
        if self.family == "bott-base-n":
            return self.representative.a
        if self.family == "bott-base-m":
            return self.representative.b
        return None

    @property
    def key(self) -> Tuple:
        """The complete invariant: equal exactly when the classes are
        homeomorphic.

        A non-Bott class has one representative, so (family,
        representative) is its key.  A Bott label (``connsum-minus``
        included: its representative is the a = (1) bundle) is keyed by
        ``_bott_key`` of its representative.
        """
        if is_nonbott_class(self):
            return (self.family, self.representative)
        return _bott_key(self.representative)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, HomeoClass) and self.key == other.key

    def __ne__(self, other: object) -> bool:
        return not self == other

    def __hash__(self) -> int:
        return hash(self.key)

    def sort_key(self) -> Tuple:
        rep = self.representative
        if self.family == "nonbott":
            counts = (self.s, self.r, rep.orientation)
        else:
            counts = (-1, -1, "")
        return (rep.n, rep.m, _FAMILY_ORDER[self.family]) + counts + (rep,)

    def params_dict(self) -> Dict[str, object]:
        if self.family == "nonbott":
            return {"s": self.s, "r": self.r, "orientation": self.orientation}
        if self.family == "bott-base-n":
            return {"a": list(self.vec)}
        if self.family == "bott-base-m":
            return {"b": list(self.vec)}
        return {}

    def to_json_dict(self) -> Dict[str, object]:
        return {
            "family": self.family,
            "n": self.n,
            "m": self.m,
            "params": self.params_dict(),
            "representative": self.representative.to_json_dict(),
        }


def is_nonbott_class(c: HomeoClass) -> bool:
    return c.family in _NONBOTT_FAMILIES


def same_class(c1: HomeoClass, c2: HomeoClass) -> Tuple[bool, str]:
    """Compare two labels and name the rule that decides the verdict.

    Returns (equal, rule): equal is ``c1.key == c2.key``, and rule names the
    deciding principle:
      base-polytope-mismatch   distinct (n, m): distinct rings over distinct
                               products of simplices
      bott-vector-equivalence  same-side bundles, equal when their twisting
                               vectors have the same ``tilde_canonical``
                               series
      bott-cross-base          opposite-side bundles; equal only if both are
                               the trivial product
      bott-vs-nonbott-ring     a Bott class never matches a non-Bott class
      sr-fold                  (s, r) equality after folding
      orientation-swap         mirrored orientation with n != m
      connected-sum-family     the m=1 special families compare by identity
    """
    if (c1.n, c1.m) != (c2.n, c2.m):
        rule = "base-polytope-mismatch"
    elif is_nonbott_class(c1) != is_nonbott_class(c2):
        rule = "bott-vs-nonbott-ring"
    elif c1.family == c2.family == "nonbott":
        rule = "orientation-swap" if c1.orientation != c2.orientation else "sr-fold"
    elif is_nonbott_class(c1):
        rule = "connected-sum-family"
    elif {c1.family, c2.family} in _CROSS_BASE:
        rule = "bott-cross-base"
    else:
        rule = "bott-vector-equivalence"
    return c1.key == c2.key, rule


def _fold(v: Tuple[int, ...]) -> Tuple[int, ...]:
    """A side of a non-Bott normal form, its nonzero entries all equal and
    first, with their count c folded to len(v) + 1 - c above half of len(v)."""
    slots, count = len(v), len(v) - v.count(0)
    if count > (slots + 1) // 2:
        count = slots + 1 - count
    return v[:1] * count + (0,) * (slots - count)


def canonical_class(cp: CharPair) -> HomeoClass:
    """Map a valid characteristic pair to its homeomorphism-class label.

    Raises:
        ValueError: when the pair is not valid.
    """
    return _label(normalize(cp))


def _label(cp: CharPair) -> HomeoClass:
    """The homeomorphism-class label of a normal form, the pair that
    ``normalize`` returns; the label reads nothing but that pair, and a Bott
    normal form is its own representative."""
    n, m = cp.n, cp.m
    if cp.orientation == "bott":
        if any(cp.a):
            return HomeoClass("bott-base-n", cp)
        if any(cp.b):
            return HomeoClass("bott-base-m", cp)
        return HomeoClass("product", cp)
    if m == 1:
        if n == 1:
            # over the square the two odd families meet in the single
            # connected-sum class
            return HomeoClass("connsum-plus", CharPair(1, 1, (2,), (1,)))
        # non-Bott with m = 1: the single a-entry is 1 or 2 and only the
        # parity of the nonzero b-entries matters
        aval = cp.a[0]
        k = sum(1 for x in cp.b if x)
        if n % 2 == 0 or k % 2 == 0:
            # collapses onto the a-twisted bundle
            if aval == 1:
                return HomeoClass("connsum-minus", CharPair(n, 1, (1,), (0,) * n))
            return HomeoClass("bott-base-n", CharPair(n, 1, (2,), (0,) * n))
        if aval == 1:
            rep = CharPair(n, 1, (1,), (2,) + (0,) * (n - 1))
            return HomeoClass("connsum-plus", rep)
        rep = CharPair(n, 1, (2,), (1,) + (0,) * (n - 1))
        return HomeoClass("special-m21", rep)
    # both dimensions at least 2: the 2s sit on the side the orientation
    # names and the 1s on the other, and each side's count folds
    return HomeoClass("nonbott", CharPair(n, m, _fold(cp.a), _fold(cp.b)))


def homeomorphic(cp1: CharPair, cp2: CharPair) -> Tuple[bool, str]:
    """Decide homeomorphism of the manifolds behind two valid pairs.

    Returns (verdict, rule); the rule names the deciding principle (see
    ``same_class``), or "reflexive" for identical inputs.

    Raises:
        ValueError: when either pair is not valid.
    """
    return _homeomorphic_labelled(cp1, canonical_class(cp1), cp2, canonical_class(cp2))


def _homeomorphic_labelled(
    cp1: CharPair, c1: HomeoClass, cp2: CharPair, c2: HomeoClass
) -> Tuple[bool, str]:
    """``homeomorphic`` for two pairs whose labels are already known."""
    if cp1 == cp2:
        return True, "reflexive"
    return same_class(c1, c2)


def enumerate_classes(n: int, m: int, bound: int) -> List[HomeoClass]:
    """All homeomorphism classes realized by pairs with entries in
    [-bound, bound].

    Keeps the smallest twist vector of each side per ``tilde_canonical``
    series and makes a Bott form of each winner only, then adds the run
    forms with folded counts.  The non-Bott portion is complete and
    bound-independent once bound >= 2 (normalized entries are 0, 1, 2); the
    Bott portion is exhaustive only within the bound, since projective
    bundles form infinite families.  Output order and chosen labels are
    deterministic and independent of generation order: each class gets the
    label with the smallest sort key.

    Raises:
        ValueError: when n < m, m < 1 or bound < 0.
    """
    _check_grid(n, m, bound)
    zero_a, zero_b = (0,) * m, (0,) * n
    found = {(n, m, "bott-product"): _label(CharPair(n, m, zero_a, zero_b))}
    for side, length, ell in (("n", m, n), ("m", n, m))[: 1 + (n > m)]:
        won: Dict[Tuple[int, ...], Tuple[int, ...]] = {}
        for v in _bott_vectors(length, bound):
            series = tilde_canonical(v, ell)
            if v < won.setdefault(series, v):
                won[series] = v
        for series, v in won.items():
            if any(series[1:]):  # the zero pair wins the product key
                cp = CharPair(n, m, v, zero_b) if side == "n" else CharPair(n, m, zero_a, v)
                found[(n, m, "bott", side, series)] = HomeoClass("bott-base-" + side, cp)
    # the smallest vector's label sorts first in its family; a folded run form
    # is its class's representative, or for m = 1 collapses onto the kept
    # bundle (n, 1, (1,)) or (n, 1, (2,)), whose "bott-base-n" sorts first
    for cp in _run_forms(n, m, bound, (m + 1) // 2, (n + 1) // 2):
        c = _label(cp)
        found.setdefault(c.key, c)
    return sorted(found.values(), key=HomeoClass.sort_key)


def count_nonbott(n: int, m: int) -> int:
    """Closed-form count of non-Bott classes.

    Square base of segments: 1.  Segment second factor: 0 for even n, 2 for
    odd n >= 3.  Equal dimensions above 1: floor((n+1)/2)^2.  Distinct
    dimensions above 1: twice the product of the two floors (the mirrored
    orientations are distinct).
    """
    _check_grid(n, m, 0)
    if m == 1:
        if n == 1:
            return 1
        return 0 if n % 2 == 0 else 2
    # the run forms with folded counts that enumerate_classes lists
    return (1 if n == m else 2) * ((n + 1) // 2) * ((m + 1) // 2)
