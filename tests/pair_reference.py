"""References shared by the tests: the filtered listing that
``admissible_normal_forms`` must reproduce, the two-branch decision of the
truncated-product equivalence that ``tilde_canonical`` must agree with, and
a two-product ``tilde_canonical``, whose series the package's must equal.
The last two run on this module's own full-length series kernel, so they
share no code with the package's."""

import itertools
from typing import Sequence, Tuple

from qtoric.quasitoric import CharPair, validate


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
