"""Independent verification machinery for the classifier.

Two oracles, both exact:

* ``ring_iso_search``: brute-force search for a graded ring isomorphism
  between two cohomology presentations.  It enumerates 2x2 integer matrices g
  with determinant +-1 and bounded entries, substitutes the generators, and
  compares the two ideals in the degrees of their generators, where each
  degree piece is a coefficient lattice held in canonical form.  Ideals
  that agree in those degrees contain each other's generators and so are
  equal, which makes this a complete equality test for a given g.
  A negative answer is only "within bound":
  the closed-form classifier stays authoritative and the search acts as a
  falsifier.
* ``witness_check``: verifies equivariance certificates, and is the one
  place a certificate is checked.  A homeomorphism candidate given by a
  signed permutation S of the moment-angle coordinates intertwines the two
  free torus actions exactly when S * U = U' * T, where U and U' hold the
  weight columns of the two subtorus inclusions and T, with |det T| = 1,
  reparametrizes the acting torus on exponents; the check tests all three
  conditions.  ``builtin_witness`` reconstructs the three families of
  certificates behind the classifier's equivalences (repeat-fill, fold-r,
  fold-s) so the identity can be rechecked by plain matrix multiplication.

The witness formalism covers monomial maps only.  Homeomorphisms that mix
coordinates instead of permuting them cannot be expressed as a
MonomialWitness; their classification consequences are carried by the
classify module, and no verification is faked for them here.
"""

from __future__ import annotations

import functools
from typing import Dict, List, NamedTuple, Optional, Tuple

from .lattice import IntMatrix, is_basis_extendable
from .polyring import ideal_degree_lattice, substitute_linear
from .quasitoric import CharPair, Presentation, kernel_span_vectors

__all__ = [
    "IsoVerdict",
    "MonomialWitness",
    "ring_iso_search",
    "weight_matrix",
    "witness_check",
    "builtin_witness",
    "WITNESS_FAMILIES",
    "WITNESS_PARAMS",
]

# the parameters besides n that each certificate family cannot do without
WITNESS_PARAMS = {
    "repeat-fill": ("a", "b"),
    "fold-r": ("m", "s", "r"),
    "fold-s": ("m", "s", "r"),
}
WITNESS_FAMILIES = tuple(WITNESS_PARAMS)


class IsoVerdict(NamedTuple):
    """Outcome of the bounded isomorphism search.

    Either ``matrix`` holds the witness found, or it is None and no
    candidate within ``bound`` worked: the negative case is explicitly
    bound-qualified.
    """

    matrix: Optional[IntMatrix] = None
    bound: Optional[int] = None

    @property
    def found(self) -> bool:
        return self.matrix is not None

    def to_json_dict(self) -> Dict[str, object]:
        if self.found:
            return {
                "found": True,
                "matrix": [list(row) for row in self.matrix.to_rows()],
            }
        return {"found": False, "bound": self.bound}


class MonomialWitness(NamedTuple):
    """An equivariance certificate: a signed permutation s of the
    moment-angle coordinates together with a 2x2 unimodular exponent matrix
    t reparametrizing the acting torus.

    The raw constructor checks nothing: ``witness_check`` checks the whole
    certificate, both of those conditions and the identity it certifies.
    """

    s: IntMatrix
    t: IntMatrix

    def to_json_dict(self) -> Dict[str, object]:
        return {
            "s": [list(row) for row in self.s.to_rows()],
            "t": [list(row) for row in self.t.to_rows()],
        }


@functools.lru_cache(maxsize=8)
def _candidate_matrices(bound: int) -> Tuple[Tuple[Tuple[int, int], Tuple[int, int]], ...]:
    """All 2x2 matrices, as row pairs, with |entries| <= bound and det +-1,
    identity first, then ascending by (max |entry|, flattened entries); g and
    -g are the same substitution up to sign, so only the copy whose first
    nonzero entry is positive is kept.  The list depends on the bound alone,
    so it is built once per bound and shared by every search."""
    if bound < 1:
        return ()
    rest = []
    values = range(-bound, bound + 1)
    for g11 in values:
        for g12 in values:
            for g21 in values:
                for g22 in values:
                    flat = (g11, g12, g21, g22)
                    if g11 * g22 - g12 * g21 in (1, -1) and next(x for x in flat if x) > 0:
                        rest.append(((g11, g12), (g21, g22)))
    identity = ((1, 0), (0, 1))
    # row pairs order as their flattened entries do
    rest.sort(key=lambda g: (max(abs(x) for x in g[0] + g[1]), g))
    return (identity,) + tuple(g for g in rest if g != identity)


def ring_iso_search(p: Presentation, q: Presentation, bound: int = 3) -> IsoVerdict:
    """Search for a degree-preserving ring isomorphism between two
    presentations, over substitutions with entries bounded by ``bound``.

    A candidate g works when the substituted ideal equals the target one,
    tested by equal canonical lattices in the degree of each generator: the
    pieces there are pinned by the generators, and ideals with equal pieces
    there contain each other's generators.  The first working candidate in
    the fixed total order is returned, so the result is deterministic.

    Raises:
        ValueError: when ``bound`` < 0 ("bound must be nonnegative"), or when
            the generator degree multisets disagree (no graded isomorphism
            can exist, and degreewise comparison would be meaningless).
    """
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    p_degrees = sorted((p.gen1.degree, p.gen2.degree))
    q_degrees = sorted((q.gen1.degree, q.gen2.degree))
    if p_degrees != q_degrees:
        raise ValueError("generator degree multisets differ")
    target = {d: ideal_degree_lattice(q, d) for d in q_degrees}
    low, high = sorted(p, key=lambda gen: gen.degree)
    for g in _candidate_matrices(bound):
        # a membership prefilter: the lowest-degree generator is the cheaper
        # one to substitute and meets the smallest piece, so the other is
        # substituted only when its image lies in the target
        first = substitute_linear(low, g)
        if target[first.degree].contains(first.coeffs):
            image = (first, substitute_linear(high, g))
            if all(ideal_degree_lattice(image, d) == piece for d, piece in target.items()):
                return IsoVerdict(matrix=IntMatrix(2, 2, g[0] + g[1]))
    return IsoVerdict(bound=bound)


def weight_matrix(cp: CharPair) -> IntMatrix:
    """The (n+m+2) x 2 exponent matrix of the free subtorus action: row i
    holds the weights of the two acting circle factors on moment-angle
    coordinate i."""
    u, v = kernel_span_vectors(cp)
    return IntMatrix.from_rows([[u[i], v[i]] for i in range(len(u))])


def _product(x: IntMatrix, y: IntMatrix) -> List[List[int]]:
    """Rows of the exact product x*y, for x.cols == y.rows."""
    y_cols = list(zip(*y.to_rows()))
    return [[sum(a * b for a, b in zip(row, col)) for col in y_cols] for row in x.to_rows()]


def witness_check(u: IntMatrix, u_prime: IntMatrix, witness: MonomialWitness) -> bool:
    """True iff the certificate holds whole: s is a signed permutation,
    |det t| = 1, and s*u = u'*t, so that s intertwines the two subtorus
    actions through the reparametrization t.

    Raises:
        ValueError: on dimension mismatch: weight matrices without two
            columns or of unequal heights, s not square of their height, or
            t not 2x2.
    """
    if u.cols != 2 or u_prime.cols != 2:
        raise ValueError("weight matrices must have two columns")
    if u.rows != u_prime.rows:
        raise ValueError("weight matrices must have equal height")
    s, t = witness
    if s.rows != u.rows or s.cols != u.rows:
        raise ValueError("signed permutation must be square of the coordinate count")
    if t.rows != 2 or t.cols != 2:
        raise ValueError("torus reparametrization must be 2x2")
    rows = s.to_rows()
    # an integer row or column of absolute sum 1 holds one entry +-1
    if any(sum(map(abs, line)) != 1 for line in rows + tuple(zip(*rows))):
        return False
    return is_basis_extendable(t.to_rows()) and _product(s, u) == _product(u_prime, t)


def _signed_permutation(size: int, mapping: Dict[int, Tuple[int, int]]) -> IntMatrix:
    """Build a signed permutation from {output index: (source index, sign)},
    identity on unmapped indices."""
    rows = [[0] * size for _ in range(size)]
    for i in range(size):
        j, sign = mapping.get(i, (i, 1))
        rows[i][j] = sign
    return IntMatrix.from_rows(rows)


def builtin_witness(
    family: str,
    n: int,
    m: Optional[int] = None,
    s: Optional[int] = None,
    r: Optional[int] = None,
    a: Optional[int] = None,
    b: Optional[int] = None,
) -> Tuple[IntMatrix, IntMatrix, MonomialWitness]:
    """Reconstruct one of the three certificate families as
    (source weights, target weights, witness).

    repeat-fill (m = 1): the segment-factor bundle with a single twist entry
        b maps onto the one with every entry equal to b.  Needs n, a, b with
        a*b = 2; swaps the first and last coordinates of the first block and
        conjugates the final coordinate.
    fold-r: the normalized class (s, r) maps onto (s, n+1-r).  Needs
        n, m >= 1, 1 <= s <= m, 1 <= r <= n; cycles the first block by r and
        conjugates the z-coordinates after position s.
    fold-s: the normalized class (s, r) maps onto (m+1-s, r).  Same parameter
        range; cycles the second block by s and conjugates the w-coordinates
        after position r.

    Every triple returned here passes ``witness_check``; the test suite
    reverifies that by direct matrix multiplication.

    Raises:
        ValueError: unknown family or parameters outside the stated range.
    """
    if family == "repeat-fill":
        if a is None or b is None or n < 1:
            raise ValueError("repeat-fill needs n >= 1 and entries a, b")
        if a * b != 2:
            raise ValueError("repeat-fill requires a*b = 2")
        source = CharPair(n, 1, (a,), (b,) + (0,) * (n - 1))
        target = CharPair(n, 1, (a,), (b,) * n)
        size = n + 3
        mapping = {0: (n, 1), n: (0, 1), n + 2: (n + 2, -1)}
        s_mat = _signed_permutation(size, mapping)
        t_mat = IntMatrix.from_rows([[1, b], [0, -1]])
        return (
            weight_matrix(source),
            weight_matrix(target),
            MonomialWitness(s_mat, t_mat),
        )
    if family not in ("fold-r", "fold-s"):
        raise ValueError("unknown witness family: %r" % (family,))
    if m is None or s is None or r is None:
        raise ValueError("fold witnesses need n, m, s, r")
    if not (1 <= s <= m and 1 <= r <= n):
        raise ValueError("fold parameters outside range")
    source = CharPair(n, m, (2,) * s + (0,) * (m - s), (1,) * r + (0,) * (n - r))
    size = n + m + 2
    if family == "fold-r":
        r2 = n + 1 - r
        target = CharPair(n, m, source.a, (1,) * r2 + (0,) * (n - r2))
        mapping = {}
        for i in range(n + 1):
            mapping[i] = ((i + r) % (n + 1), 1)
        for j in range(s, m + 1):
            mapping[n + 1 + j] = (n + 1 + j, -1)
        t_mat = IntMatrix.from_rows([[1, 1], [0, -1]])
    else:
        s2 = m + 1 - s
        target = CharPair(n, m, (2,) * s2 + (0,) * (m - s2), source.b)
        mapping = {}
        for i in range(r, n + 1):
            mapping[i] = (i, -1)
        for j in range(m + 1):
            mapping[n + 1 + j] = (n + 1 + (j + s) % (m + 1), 1)
        t_mat = IntMatrix.from_rows([[-1, 0], [2, 1]])
    s_mat = _signed_permutation(size, mapping)
    return (
        weight_matrix(source),
        weight_matrix(target),
        MonomialWitness(s_mat, t_mat),
    )
