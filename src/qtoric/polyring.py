"""Homogeneous bivariate integer polynomials.

A homogeneous polynomial of degree d in x1, x2 is stored as the vector of its
d+1 coefficients indexed by the x2-exponent: index i holds the coefficient of
x1^(d-i) * x2^i.  This convention is fixed once here and used everywhere; the
two ring generators produced elsewhere are symmetric in the variables and
would otherwise be easy to transpose.

Both public kernels run on one step, multiplying a coefficient list by a
linear form c*x1 + d*x2: index i of the product is c*acc[i] + d*acc[i-1].
``linear_product`` takes that step once per factor; ``substitute_linear``
takes it twice per term, by Horner's rule over the x2-exponent.  Each builds
its :class:`HomogPoly` once, from the finished list, through the raw
constructor: the degree is read off the list's length.

The truncated univariate series that separate the Bott families are not
kept here: ``classify`` expands them, next to ``tilde_canonical``, their
one caller.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence, Tuple

from .lattice import LatticeBasis, lattice_from_generators


class HomogPoly(NamedTuple):
    """Homogeneous polynomial in Z[x1, x2].

    The coefficient vector alone is the value, and its length fixes the
    degree: the zero polynomial is representable at any degree (all-zero
    coefficient vector), so degree-piece bookkeeping stays total.

    The constructor does not check that ``coeffs`` is a nonempty tuple of
    integers: the package builds every value from coefficients it computed.
    """

    coeffs: Tuple[int, ...]

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1


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
        c, d = int(c), int(d)
        acc = [x * c + y * d for x, y in zip(acc + [0], [0] + acc)]
    return HomogPoly(tuple(acc))


def substitute_linear(p: HomogPoly, g: Sequence[Sequence[int]]) -> HomogPoly:
    """Apply the substitution x1 -> g11*y1 + g12*y2, x2 -> g21*y1 + g22*y2,
    for g given by its rows ((g11, g12), (g21, g22)).

    The result is homogeneous of the same degree in y1, y2 and is returned in
    the same coefficient convention.  By Horner's rule, the image of the
    terms up to x2-exponent i is the image up to i-1 times L1 = g11*y1 +
    g12*y2, plus coeffs[i] * L2^i, with L2^i carried one step at a time.
    """
    if len(g) != 2 or any(len(row) != 2 for row in g):
        raise ValueError("substitution matrix must be 2x2")
    (g11, g12), (g21, g22) = g
    acc = [p.coeffs[0]]
    power = [1]
    for a in p.coeffs[1:]:
        power = [x * g21 + y * g22 for x, y in zip(power + [0], [0] + power)]
        acc = [x * g11 + y * g12 + a * z for x, y, z in zip(acc + [0], [0] + acc, power)]
    return HomogPoly(tuple(acc))


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
