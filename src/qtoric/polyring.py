"""Homogeneous bivariate integer polynomials and truncated univariate
products.

A homogeneous polynomial of degree d in x1, x2 is stored as the vector of its
d+1 coefficients indexed by the x2-exponent: index i holds the coefficient of
x1^(d-i) * x2^i.  This convention is fixed once here and used everywhere; the
two ring generators produced elsewhere are symmetric in the variables and
would otherwise be easy to transpose.

The multiplication kernels work on plain coefficient lists; each public
function builds its :class:`HomogPoly` once, from the finished list, through
the raw constructor: the degree is read off the list's length.

Truncated products of linear factors prod(1 + c_i x) are expanded in
Z[x]/x^(ell+1) as tuples of exactly ell+1 coefficients, index i holding the
x^i coefficient.
"""

from __future__ import annotations

from typing import Iterable, List, NamedTuple, Sequence, Tuple

from .lattice import IntMatrix, LatticeBasis, lattice_from_generators

__all__ = [
    "HomogPoly",
    "linear_product",
    "substitute_linear",
    "trunc_product_identity",
    "ideal_degree_lattice",
]


class HomogPoly(NamedTuple):
    """Homogeneous polynomial in Z[x1, x2].

    The coefficient vector alone is the value, and its length fixes the
    degree: the zero polynomial is representable at any degree (all-zero
    coefficient vector), so degree-piece bookkeeping stays total.

    :meth:`from_coeffs` is the checked constructor; the raw constructor does
    not check that ``coeffs`` is a nonempty tuple of integers.
    """

    coeffs: Tuple[int, ...]

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @classmethod
    def from_coeffs(cls, coeffs: Sequence[int]) -> "HomogPoly":
        c = tuple(int(x) for x in coeffs)
        if not c:
            raise ValueError("degree must be nonnegative")
        return cls(c)


def _convolve(p: Sequence[int], q: Sequence[int]) -> List[int]:
    """Coefficients of the product of two coefficient sequences."""
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            if b:
                out[i + j] += a * b
    return out


def linear_product(lead: Tuple[int, int], factors: Sequence[Tuple[int, int]]) -> HomogPoly:
    """Expand (c*x1 + d*x2) * prod_i (c_i*x1 + d_i*x2).

    Args:
        lead: coefficient pair (c, d) of the leading linear form.
        factors: coefficient pairs of the remaining linear forms.

    Returns:
        HomogPoly of degree 1 + len(factors).
    """
    acc = [int(lead[0]), int(lead[1])]
    for c, d in factors:
        acc = _convolve(acc, (int(c), int(d)))
    return HomogPoly(tuple(acc))


def substitute_linear(p: HomogPoly, g: IntMatrix) -> HomogPoly:
    """Apply the linear substitution x1 -> g11*y1 + g12*y2, x2 -> g21*y1 + g22*y2.

    The result is homogeneous of the same degree in y1, y2 and is returned in
    the same coefficient convention.
    """
    if g.rows != 2 or g.cols != 2:
        raise ValueError("substitution matrix must be 2x2")
    d = p.degree
    row1, row2 = g.row(0), g.row(1)
    # powers of the two substituted variables, degree 0..d each
    pow1 = [[1]]
    pow2 = [[1]]
    for _ in range(d):
        pow1.append(_convolve(pow1[-1], row1))
        pow2.append(_convolve(pow2[-1], row2))
    out = [0] * (d + 1)
    for i, a in enumerate(p.coeffs):
        if a == 0:
            continue
        for k, c in enumerate(_convolve(pow1[d - i], pow2[i])):
            out[k] += a * c
    return HomogPoly(tuple(out))


def _trunc_linear_product(factors: Iterable[int], ell: int) -> Tuple[int, ...]:
    """Coefficients of prod_c (1 + c*x) over ``factors`` in Z[x]/x^(ell+1)."""
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
    rhs = _trunc_linear_product(
        [eps * w] + [eps * (int(vi) + w) for vi in u_prime], ell
    )
    return lhs == rhs


def ideal_degree_lattice(gens: Sequence[HomogPoly], d: int) -> LatticeBasis:
    """Degree-d piece of the homogeneous ideal generated by ``gens``, as a
    sublattice of the coefficient space Z^(d+1).

    The piece is spanned by the monomial shifts x1^alpha x2^beta * g over all
    generators g with alpha + beta + deg(g) = d.  Multiplying by x1^alpha
    x2^beta moves the coefficient of x1^(deg-i) x2^i to index i + beta, so a
    shift is just the generator's vector embedded at offset beta.
    """
    if d < 0:
        raise ValueError("degree must be nonnegative")
    vectors = []
    for g in gens:
        gap = d - g.degree
        if gap < 0:
            continue
        for beta in range(gap + 1):
            vec = [0] * (d + 1)
            vec[beta : beta + g.degree + 1] = g.coeffs
            vectors.append(vec)
    return lattice_from_generators(d + 1, vectors)
