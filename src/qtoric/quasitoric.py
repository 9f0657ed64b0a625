"""Characteristic data for quasitoric manifolds over a product of two
simplices, with validity checking, normalization, cohomology presentations,
and the kernel lattice of the associated torus embedding.

The model: a manifold over the product of an n-simplex and an m-simplex is
encoded by a pair of integer vectors, ``a`` of length m and ``b`` of length
n.  The facets of the product are the n+1 facets coming from the first factor
and the m+1 facets from the second.  The characteristic matrix assigns a
column to each facet, grouped by factor: the n standard vectors for the first
factor's initial facets and its extra facet (-1, ..., -1, -a_1, ..., -a_m),
then the m standard vectors for the second factor's initial facets and its
extra facet (-b_1, ..., -b_n, -1, ..., -1).  Both the brute-force validity
check and the kernel lattice read this one matrix.

Validity in closed form: a_j * b_i must lie in {0, 2} for every pair, i.e.
1 - a_j*b_i = +-1.  The brute-force route checks, at every vertex of the
product polytope, that the columns of the facets through that vertex extend
to a Z-basis; it exists so the closed form never has to be trusted alone.
"""

from __future__ import annotations

import itertools
from operator import neg
from typing import Dict, Iterable, List, NamedTuple, Sequence, Tuple

from .lattice import (
    IntMatrix,
    LatticeBasis,
    is_basis_extendable,
    kernel_basis,
    smith_normal_form,
)
from .polyring import HomogPoly, ideal_degree_lattice, linear_product


class CharPair(NamedTuple):
    """Characteristic pair (n, m, a, b); a has length m and b has length n.

    :meth:`make` is the checked constructor, and :meth:`from_json_dict`
    reads JSON through it; the raw constructor does not check its arguments.
    """

    n: int
    m: int
    a: Tuple[int, ...]
    b: Tuple[int, ...]

    @classmethod
    def make(cls, n: int, m: int, a: Sequence[int], b: Sequence[int]) -> "CharPair":
        a, b = tuple(int(x) for x in a), tuple(int(x) for x in b)
        if n < 1 or m < 1:
            raise ValueError("simplex dimensions must be at least 1")
        if len(a) != m:
            raise ValueError(f"a must have length m={m}")
        if len(b) != n:
            raise ValueError(f"b must have length n={n}")
        return cls(n, m, a, b)

    def to_json_dict(self) -> Dict[str, object]:
        return {"n": self.n, "m": self.m, "a": list(self.a), "b": list(self.b)}

    @classmethod
    def from_json_dict(cls, obj: object) -> "CharPair":
        if not isinstance(obj, dict):
            raise ValueError("characteristic pair must be a JSON object")
        missing = {"n", "m", "a", "b"} - set(obj)
        if missing:
            raise ValueError(f"missing keys: {sorted(missing)}")
        n, m, a, b = obj["n"], obj["m"], obj["a"], obj["b"]
        if not all(isinstance(x, int) and not isinstance(x, bool) for x in (n, m)):
            raise ValueError("n and m must be integers")
        if not isinstance(a, list) or not isinstance(b, list):
            raise ValueError("a and b must be arrays")
        if not all(isinstance(x, int) and not isinstance(x, bool) for x in a + b):
            raise ValueError("a and b must contain integers")
        return cls.make(n, m, a, b)

    @property
    def orientation(self) -> str:
        """Which side carries the value-2 entries: "bott" when a or b
        vanishes (a two-stage generalized Bott tower), otherwise "a2" if
        some |a_j| = 2, else "b2".

        Well defined for every valid pair: each nonzero product a_j * b_i
        equals 2, so when both vectors are nonzero one side holds only
        entries of absolute value 1 and the other the value-2 entries.  The
        factor swap exchanges "a2" and "b2"; a normal form over a square
        base is never "b2".
        """
        if not any(self.a) or not any(self.b):
            return "bott"
        return "a2" if 2 in map(abs, self.a) else "b2"


class Presentation(NamedTuple):
    """The graded ring Z[x1, x2] / <gen1, gen2> over the product of an
    n-simplex and an m-simplex, read off the generator degrees:
    deg gen1 = n+1 and deg gen2 = m+1.  The value is its own generator
    pair, to iterate or to pass where generators are expected."""

    gen1: HomogPoly
    gen2: HomogPoly

    @property
    def n(self) -> int:
        return self.gen1.degree - 1

    @property
    def m(self) -> int:
        return self.gen2.degree - 1

    def to_json_dict(self) -> Dict[str, object]:
        return {
            "n": self.n,
            "m": self.m,
            "gen1": {"degree": self.gen1.degree, "coeffs": list(self.gen1.coeffs)},
            "gen2": {"degree": self.gen2.degree, "coeffs": list(self.gen2.coeffs)},
        }


class GradedRanks(NamedTuple):
    """Degreewise ranks of the quotient ring plus any torsion found.

    ``torsion[d]`` lists the invariant factors bigger than 1 in degree d; all
    empty means the additive structure is free, which is what every valid
    characteristic pair must produce.
    """

    ranks: Tuple[int, ...]
    torsion: Tuple[Tuple[int, ...], ...]

    @property
    def torsion_free(self) -> bool:
        return all(not t for t in self.torsion)


def validate(cp: CharPair) -> bool:
    """Closed-form validity: every product a_j * b_i lies in {0, 2}."""
    return all(aj * bi in (0, 2) for aj in cp.a for bi in cp.b)


def characteristic_matrix_grouped(cp: CharPair) -> IntMatrix:
    """The (n+m) x (n+m+2) characteristic matrix with columns grouped by
    factor: the n+1 first-factor facets, then the m+1 second-factor facets,
    each factor's extra facet last."""
    n, m = cp.n, cp.m
    rows: List[List[int]] = []
    for i in range(n + m):
        row = [1 if j == i else 0 for j in range(n)]
        row.append(-1 if i < n else -cp.a[i - n])
        row += [1 if j == i - n else 0 for j in range(m)]
        row.append(-cp.b[i] if i < n else -1)
        rows.append(row)
    return IntMatrix.from_rows(rows)


def validate_bruteforce(cp: CharPair) -> bool:
    """Vertex-by-vertex unimodularity oracle.

    Builds the full characteristic matrix and, for every vertex of the
    product polytope (one omitted facet per factor), requires the remaining
    n+m facet columns to extend to a Z-basis.  Deliberately independent of
    the closed-form product condition.
    """
    n, m = cp.n, cp.m
    mat = characteristic_matrix_grouped(cp)
    cols = [tuple(mat.at(i, j) for i in range(n + m)) for j in range(n + m + 2)]
    for omit1 in range(n + 1):
        for omit2 in range(n + 1, n + m + 2):
            selected = [c for k, c in enumerate(cols) if k != omit1 and k != omit2]
            if not is_basis_extendable(selected):
                return False
    return True


def _canonical_sort(v: Iterable[int]) -> Tuple[int, ...]:
    # nonzero entries first, each group descending; plain descending order
    # would let zeros jump ahead of negative entries
    return tuple(sorted(v, key=lambda x: (x == 0, -x)))


def _negated_sort(v: Tuple[int, ...]) -> Tuple[int, ...]:
    # ``_canonical_sort`` of -v for a canonically sorted v: the nonzero
    # prefix reversed and negated, the zeros still trailing
    k = len(v) - v.count(0)
    return tuple(map(neg, reversed(v[:k]))) + v[k:]


def _canonical_sign(v: Tuple[int, ...]) -> Tuple[int, ...]:
    plus = _canonical_sort(v)
    return max(plus, _negated_sort(plus))


def normalize(cp: CharPair) -> CharPair:
    """Canonical form under facet relabeling, global sign flip, and factor
    swap, as a pair: a pair and its factor swap have the same normal form.

    The normal form has n >= m, sign-normalized entries, and in each vector
    the nonzero entries first, each group descending.  The swap is decided
    first: the larger simplex comes first, and over a square base the side
    carrying the twist (Bott pairs) or the value-2 entries (non-Bott pairs)
    becomes ``a``, so a square normal form is never "b2" (see
    ``CharPair.orientation``).  Then the sign is fixed and the entries
    sorted.  The nonzero entries of a valid pair with both vectors
    nonzero all share one sign (each nonzero product equals 2), so the
    global flip is forced there; a vector facing a zero partner has no
    forced sign and the lexicographically larger of the two sign choices is
    kept.

    Raises:
        ValueError: when the pair is not valid.
    """
    if not validate(cp):
        raise ValueError("characteristic pair fails the validity condition")
    n, m, a, b = cp.n, cp.m, cp.a, cp.b
    if n < m or (n == m and (not any(a) or 2 in map(abs, b))):
        n, m, a, b = m, n, b, a
    nza = [x for x in a if x]
    if nza and any(b):
        if nza[0] < 0:  # all nonzero entries share this sign
            a = tuple(-x for x in a)
            b = tuple(-x for x in b)
        return CharPair(n, m, _canonical_sort(a), _canonical_sort(b))
    return CharPair(n, m, _canonical_sign(a), _canonical_sign(b))


def cohomology_presentation(cp: CharPair) -> Presentation:
    """Generators of the degree-2 cohomology relations:
    gen1 = x1 * prod_i (x1 + b_i x2), gen2 = x2 * prod_j (a_j x1 + x2).

    Raises:
        ValueError: when the pair is not valid.
    """
    if not validate(cp):
        raise ValueError("characteristic pair fails the validity condition")
    gen1 = linear_product((1, 0), [(1, bi) for bi in cp.b])
    gen2 = linear_product((0, 1), [(aj, 1) for aj in cp.a])
    return Presentation(gen1, gen2)


def h_vector(n: int, m: int) -> Tuple[int, ...]:
    """Expected degreewise ranks: the number of pairs (i, j) with i <= n,
    j <= m, i + j = d; this is the h-vector of the product of simplices."""
    return tuple(
        sum(1 for i in range(n + 1) if 0 <= d - i <= m) for d in range(n + m + 1)
    )


def graded_ranks(p: Presentation) -> GradedRanks:
    """Rank and torsion of each graded piece of the quotient ring.

    Degree d contributes (d+1) minus the rank of the ideal's degree-d
    lattice; torsion is read off the Smith diagonal of that lattice's basis.
    """
    ranks: List[int] = []
    torsion: List[Tuple[int, ...]] = []
    for d in range(p.n + p.m + 1):
        lat = ideal_degree_lattice(p, d)
        ranks.append(d + 1 - lat.rank)
        torsion.append(tuple(x for x in smith_normal_form(lat.basis) if x > 1))
    return GradedRanks(tuple(ranks), tuple(torsion))


def kernel_span_vectors(cp: CharPair) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """The two explicit kernel generators of the factor-grouped matrix, in
    coordinates (w_1..w_{n+1}, z_1..z_{m+1}):
    (1, ..., 1, a_1, ..., a_m, 0) and (b_1, ..., b_n, 0, 1, ..., 1)."""
    u = (1,) * (cp.n + 1) + cp.a + (0,)
    v = cp.b + (0,) + (1,) * (cp.m + 1)
    return u, v


def kernel_lattice(cp: CharPair) -> LatticeBasis:
    """Kernel of the factor-grouped characteristic matrix, computed by the
    generic integer-kernel routine (not from the closed-form span).

    Raises:
        ValueError: when the pair is not valid.
    """
    if not validate(cp):
        raise ValueError("characteristic pair fails the validity condition")
    return kernel_basis(characteristic_matrix_grouped(cp).rows)


def _bott_vectors(length: int, bound: int) -> Iterable[Tuple[int, ...]]:
    """Every nonzero entry multiset with entries in [-bound, bound], sorted
    by ``_canonical_sort`` and kept only at the sign ``_canonical_sign``
    chooses, so a vector and its negative give one result."""
    # combinations of values listed in canonical order come out canonically
    # sorted, so zeros trail and v[0] is 0 only for the zero vector
    values = _canonical_sort(range(-bound, bound + 1))
    for v in itertools.combinations_with_replacement(values, length):
        # v >= _negated_sort(v) is settled by the two first entries unless they tie
        tie = v[0] + v[length - 1 - v.count(0)]
        if v[0] and (tie > 0 or tie == 0 and v >= _negated_sort(v)):
            yield v
