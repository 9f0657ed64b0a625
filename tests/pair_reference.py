"""References shared by the tests: the normal forms of every valid pair
within a bound, built from their shapes, and the filtered listing they must
reproduce; the two-branch decision of the truncated-product equivalence
that ``tilde_canonical`` must agree with, and a two-product
``tilde_canonical``, whose series the package's must equal; and two small
constructors the package does not need.  The truncated-product references
run on this module's own full-length series kernel, so they share no code
with the package's."""

import itertools
from typing import Iterable, Sequence, Tuple

from qtoric.classify import _check_grid
from qtoric.polyring import HomogPoly
from qtoric.quasitoric import CharPair, _bott_vectors, validate


def from_coeffs(coeffs: Sequence[int]) -> HomogPoly:
    """A ``HomogPoly`` from any integer sequence, checked to be nonempty."""
    c = tuple(int(x) for x in coeffs)
    if not c:
        raise ValueError("degree must be nonnegative")
    return HomogPoly(c)


def swapped(cp: CharPair) -> CharPair:
    """The same data read over the factor-swapped polytope."""
    return CharPair(cp.m, cp.n, cp.b, cp.a)


def admissible_normal_forms(n: int, m: int, bound: int) -> Iterable[CharPair]:
    """The normal form of every valid pair with entries in [-bound, bound],
    each exactly once, as the pair ``normalize`` returns.  Needs n >= m, the
    order every normal form has.

    Since every a_j * b_i lies in {0, 2}, a normal form has one of three
    shapes: the zero pair; one vector zero and the other a nonzero multiset
    at its chosen sign; or the runs alpha^q 0^(m-q) and beta^p 0^(n-p) with
    (alpha, beta) in {(1, 2), (2, 1)}, which ``normalize`` reaches by the
    forced global flip.  Over a square base the nonzero vector of a Bott
    form and the value-2 run sit in ``a``, so the b-side shapes are absent.

    Raises:
        ValueError: when n < m, m < 1 or bound < 0 (on first iteration).
    """
    _check_grid(n, m, bound)
    zero_a, zero_b = (0,) * m, (0,) * n
    yield CharPair(n, m, zero_a, zero_b)
    for a in _bott_vectors(m, bound):
        yield CharPair(n, m, a, zero_b)
    if n > m:
        for b in _bott_vectors(n, bound):
            yield CharPair(n, m, zero_a, b)
    if bound < 2:
        return
    for alpha, beta in ((2, 1), (1, 2)) if n > m else ((2, 1),):
        for q in range(1, m + 1):
            a = (alpha,) * q + (0,) * (m - q)
            for p in range(1, n + 1):
                yield CharPair(n, m, a, (beta,) * p + (0,) * (n - p))


def filtered_admissible_pairs(n, m, bound):
    """Every pair with entries in [-bound, bound] that passes ``validate``,
    one per entry multiset with a and b each sorted descending, listed by a
    and then b in descending lexicographic order, found by filtering all
    pairs.  Their normal forms are what ``admissible_normal_forms`` builds
    directly."""
    values = sorted(range(-bound, bound + 1), reverse=True)
    for a in itertools.combinations_with_replacement(values, m):
        for b in itertools.combinations_with_replacement(values, n):
            cp = CharPair(n, m, a, b)
            if validate(cp):
                yield cp


def _trunc_linear_product(factors, ell):
    """Coefficients of prod_c (1 + c*x) over ``factors`` in Z[x]/x^(ell+1),
    every pass running over all ell coefficients."""
    coeffs = [1] + [0] * ell
    for c in factors:
        if c:
            for i in range(ell, 0, -1):
                coeffs[i] += c * coeffs[i - 1]
    return tuple(coeffs)


def trunc_product_identity(
    u: Sequence[int], u_prime: Sequence[int], eps: int, w: int, ell: int
) -> bool:
    """Check prod_i (1 + u_i x) = (1 + eps*w*x) * prod_i (1 + eps*(u'_i + w)*x)
    in Z[x]/x^(ell+1).

    Args:
        u, u_prime: integer vectors of one common length k >= 1.
        eps: +1 or -1.
        w: the integer shift.
        ell: truncation order, >= 1.
    """
    if len(u) != len(u_prime) or len(u) < 1:
        raise ValueError("vectors must share a positive length")
    if eps not in (1, -1):
        raise ValueError("eps must be +1 or -1")
    if ell < 1:
        raise ValueError("truncation order must be at least 1")
    lhs = _trunc_linear_product([int(ui) for ui in u], ell)
    rhs = _trunc_linear_product([eps * w] + [eps * (int(vi) + w) for vi in u_prime], ell)
    return lhs == rhs


def tilde_equiv(u: Tuple[int, ...], u_prime: Tuple[int, ...], ell: int) -> bool:
    """Decide the truncated-product equivalence of two integer vectors.

    True iff there exist eps in {+1, -1} and an integer w with
    prod(1 + u_i x) = (1 + eps*w*x) * prod(1 + eps*(u'_i + w)*x) modulo
    x^(ell+1).  Comparing degree-1 coefficients forces
    (k+1)*w = eps*sum(u) - sum(u'), so each sign branch either fails the
    divisibility or pins w; no search is involved.
    """
    k = len(u)
    if k < 1 or len(u_prime) != k:
        raise ValueError("vectors must share a positive length")
    if ell < 1:
        raise ValueError("truncation order must be at least 1")
    su = sum(u)
    sv = sum(u_prime)
    for eps in (1, -1):
        numerator = eps * su - sv
        if numerator % (k + 1) == 0:
            w = numerator // (k + 1)
            if trunc_product_identity(u, u_prime, eps, w, ell):
                return True
    return False


def tilde_canonical(u: Tuple[int, ...], ell: int) -> Tuple[int, ...]:
    """``qtoric.classify.tilde_canonical`` spelled out: for each flip eps
    the shifted product (1 + w*x) * prod(1 + (eps*u_i + w)*x) with
    w = -floor(eps*sum(u) / (k+1)), and the smaller of the two series."""
    k = len(u)
    if k < 1:
        raise ValueError("vector must have positive length")
    if ell < 1:
        raise ValueError("truncation order must be at least 1")
    candidates = []
    for eps in (1, -1):
        w = -((eps * sum(u)) // (k + 1))
        candidates.append(
            _trunc_linear_product([w] + [eps * x + w for x in u], ell)
        )
    return min(candidates)
