"""Reference answers for the benchmark, derived without qtoric.

Nothing here imports the package under test.  Every rule is re-derived from
the paper's statements: the admissibility condition on twist vectors, the
closed-form count of non-Bott classes, the (s, r) fold, the graded ranks of
the cohomology ring, and the kernel of the characteristic matrix.  Lattice
equality is decided by ranks and gcds of maximal minors, a different method
from the Hermite normal forms the package uses.

Each ``check_*`` function returns a list of error strings; an empty list
means the answer passed.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb, gcd
from typing import List, Sequence, Tuple

Vec = Tuple[int, ...]
Poly = Tuple[int, ...]  # index i holds the coefficient of x1^(d-i) * x2^i

NONBOTT_FAMILIES = ("nonbott", "connsum-plus", "special-m21")
COMPARE_RULES = (
    "reflexive",
    "base-polytope-mismatch",
    "bott-vector-equivalence",
    "bott-cross-base",
    "bott-vs-nonbott-ring",
    "sr-fold",
    "orientation-swap",
    "connected-sum-family",
)


# -- characteristic data ---------------------------------------------------


def admissible(a: Sequence[int], b: Sequence[int]) -> bool:
    """Every product a_j * b_i is 0 or 2."""
    return all(x * y in (0, 2) for x in a for y in b)


def nonbott_count(n: int, m: int) -> int:
    """The paper's count of non-Bott classes over the n-simplex times the
    m-simplex, n >= m >= 1."""
    if m == 1:
        if n == 1:
            return 1
        return 2 if n % 2 else 0
    if n == m:
        return ((n + 1) // 2) ** 2
    return 2 * ((n + 1) // 2) * ((m + 1) // 2)


def nonbott_pair(n: int, m: int, orientation: str, s: int, r: int) -> Tuple[Vec, Vec]:
    """The normalized twist vectors (a, b) of the non-Bott class (s, r).

    ``a2``: a holds s entries 2 (slots m), b holds r entries 1 (slots n).
    ``b2``: b holds s entries 2 (slots n), a holds r entries 1 (slots m).
    """
    if orientation == "a2":
        return (2,) * s + (0,) * (m - s), (1,) * r + (0,) * (n - r)
    return (1,) * r + (0,) * (m - r), (2,) * s + (0,) * (n - s)


def fold_slots(n: int, m: int, orientation: str) -> Tuple[int, int]:
    """How many entries the s count and the r count range over."""
    return (m, n) if orientation == "a2" else (n, m)


def folded(count: int, slots: int) -> int:
    return min(count, slots + 1 - count)


def fold_related(n: int, m: int, left: tuple, right: tuple) -> bool:
    """Whether two non-Bott classes ``(orientation, s, r)`` coincide.

    Orientations must agree (the benchmark only pairs mirrored orientations
    when n != m, where they are never isomorphic); then s' is s or its
    fold, and r' is r or its fold.
    """
    if left[0] != right[0]:
        return False
    s_slots, r_slots = fold_slots(n, m, left[0])
    (_, s, r), (_, s2, r2) = left, right
    return s2 in (s, s_slots + 1 - s) and r2 in (r, r_slots + 1 - r)


# -- polynomials -----------------------------------------------------------


def poly_mul(p: Poly, q: Poly) -> Poly:
    out = [0] * (len(p) + len(q) - 1)
    for i, x in enumerate(p):
        for j, y in enumerate(q):
            out[i + j] += x * y
    return tuple(out)


def presentation_gens(a: Sequence[int], b: Sequence[int]) -> Tuple[Poly, Poly]:
    """gen1 = x1 * prod_i (x1 + b_i x2) and gen2 = x2 * prod_j (a_j x1 + x2)."""
    gen1: Poly = (1, 0)
    for bi in b:
        gen1 = poly_mul(gen1, (1, bi))
    gen2: Poly = (0, 1)
    for aj in a:
        gen2 = poly_mul(gen2, (aj, 1))
    return gen1, gen2


def substitute(p: Poly, g: Sequence[Sequence[int]]) -> Poly:
    """p(g11*y1 + g12*y2, g21*y1 + g22*y2), by binomial expansion."""
    d = len(p) - 1
    (g11, g12), (g21, g22) = g
    out = [0] * (d + 1)
    for i, c in enumerate(p):
        if not c:
            continue
        # c * (g11 y1 + g12 y2)^(d-i) * (g21 y1 + g22 y2)^i
        for k in range(d - i + 1):
            t1 = comb(d - i, k) * g11 ** (d - i - k) * g12**k
            for l in range(i + 1):
                out[k + l] += c * t1 * comb(i, l) * g21 ** (i - l) * g22**l
    return tuple(out)


def ideal_piece(gens: Sequence[Poly], d: int) -> List[List[int]]:
    """Generators of the degree-d piece of the ideal: every monomial shift
    of every generator of degree at most d."""
    rows = []
    for g in gens:
        e = len(g) - 1
        for beta in range(d - e + 1):
            row = [0] * (d + 1)
            row[beta : beta + e + 1] = g
            rows.append(row)
    return rows


# -- lattices by ranks and minors -------------------------------------------


def rank(rows: Sequence[Sequence[int]]) -> int:
    mat = [[Fraction(x) for x in r] for r in rows]
    rk = 0
    cols = len(mat[0]) if mat else 0
    for c in range(cols):
        piv = next((i for i in range(rk, len(mat)) if mat[i][c] != 0), None)
        if piv is None:
            continue
        mat[rk], mat[piv] = mat[piv], mat[rk]
        for i in range(rk + 1, len(mat)):
            f = mat[i][c] / mat[rk][c]
            if f:
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[rk])]
        rk += 1
    return rk


def det(rows: Sequence[Sequence[int]]) -> int:
    """Exact determinant by cofactor expansion along the first row."""
    k = len(rows)
    if k == 0:
        return 1
    if k == 1:
        return rows[0][0]
    total = 0
    for j, x in enumerate(rows[0]):
        if x:
            minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
            total += (-1) ** j * x * det(minor)
    return total


def minor_gcd(rows: Sequence[Sequence[int]], r: int) -> int:
    """gcd of all r x r minors of rows spanning a rank-r lattice.  For
    lattices L inside L' of equal rank, [L' : L] is the ratio of the two."""
    rows = [list(x) for x in rows]
    g = 0
    cols = len(rows[0])
    for ri in itertools.combinations(range(len(rows)), r):
        for ci in itertools.combinations(range(cols), r):
            g = gcd(g, det([[rows[i][j] for j in ci] for i in ri]))
            if g == 1:
                return 1
    return g


def same_lattice(xs: Sequence[Sequence[int]], ys: Sequence[Sequence[int]]) -> bool:
    """Whether two generating sets span the same sublattice of Z^k.

    L(xs) and L(ys) both sit in L(xs + ys); each equals it exactly when
    their ranks agree and their maximal-minor gcds agree (the index of a
    full-rank sublattice is the ratio of those gcds).
    """
    if not xs or not ys:
        return not any(any(v) for v in xs) and not any(any(v) for v in ys)
    both = list(xs) + list(ys)
    r = rank(both)
    if rank(xs) != r or rank(ys) != r:
        return False
    if r == 0:
        return True
    return minor_gcd(xs, r) == minor_gcd(both, r) == minor_gcd(ys, r)


def same_ideal(f: Sequence[Poly], g: Sequence[Poly]) -> bool:
    """Equality of two homogeneous ideals of Z[x1, x2].

    Each ideal is generated in the degrees of its generators, so the two
    are equal exactly when their pieces agree in those degrees.
    """
    degrees = sorted({len(p) - 1 for p in f} | {len(p) - 1 for p in g})
    return all(same_lattice(ideal_piece(f, d), ideal_piece(g, d)) for d in degrees)


# -- checks ----------------------------------------------------------------


def check_enumeration(n: int, m: int, bound: int, classes: Sequence[dict]) -> List[str]:
    """``classes`` are label dicts ``{family, n, m, params, representative}``."""
    errors = []
    where = f"enumerate({n}, {m}, {bound})"
    nonbott = [c for c in classes if c["family"] in NONBOTT_FAMILIES]
    if len(nonbott) != nonbott_count(n, m):
        errors.append(
            f"{where}: {len(nonbott)} non-Bott classes, expected {nonbott_count(n, m)}"
        )
    for c in classes:
        rep = c["representative"]
        if (c["n"], c["m"]) != (n, m) or (rep["n"], rep["m"]) != (n, m):
            errors.append(f"{where}: class over the wrong base: {c}")
        elif not admissible(rep["a"], rep["b"]):
            errors.append(f"{where}: inadmissible representative {rep}")
        elif any(abs(x) > bound for x in rep["a"] + rep["b"]):
            errors.append(f"{where}: representative outside the bound: {rep}")
    if (n, m) == (1, 1):
        errors += check_square_of_segments(classes)
    return errors


def check_square_of_segments(classes: Sequence[dict]) -> List[str]:
    """Over the square there are exactly three classes: the product S2 x S2,
    the odd Hirzebruch surface (twist of odd parity, a bundle, also written
    as the orientation-reversed connected sum), and the connected sum of two
    projective planes (a*b = 2, not a bundle)."""
    kinds = []
    for c in classes:
        rep = c["representative"]
        a, b = rep["a"][0], rep["b"][0]
        if a == 0 and b == 0:
            kinds.append("product")
        elif a * b == 0 and (a + b) % 2:
            kinds.append("odd-bundle")
        elif a * b == 2:
            kinds.append("connsum")
        else:
            kinds.append(f"unexpected {rep}")
    if sorted(kinds) != ["connsum", "odd-bundle", "product"]:
        return [f"enumerate(1, 1): classes {sorted(kinds)}, expected the three of the square"]
    return []


def check_iso(
    gens_p: Sequence[Poly],
    gens_q: Sequence[Poly],
    bound: int,
    expected: bool,
    found: bool,
    matrix,
) -> List[str]:
    """A ring-isomorphism verdict against the fold rule, and a found matrix
    against its three defining properties."""
    if found != expected:
        return [f"iso verdict {found}, expected {expected}"]
    if not found:
        return []
    g = [list(r) for r in matrix]
    errors = []
    if det(g) not in (1, -1):
        errors.append(f"matrix {g} is not unimodular")
    if any(abs(x) > bound for r in g for x in r):
        errors.append(f"matrix {g} exceeds the bound {bound}")
    if not errors and not same_ideal([substitute(p, g) for p in gens_p], gens_q):
        errors.append(f"matrix {g} does not carry one ideal onto the other")
    return errors


def expected_ranks(n: int, m: int) -> Vec:
    """Coefficients of (1 + t + ... + t^n)(1 + t + ... + t^m)."""
    return poly_mul((1,) * (n + 1), (1,) * (m + 1))


def grouped_char_matrix(n: int, m: int, a: Sequence[int], b: Sequence[int]) -> List[List[int]]:
    """The (n+m) x (n+m+2) characteristic matrix, columns grouped by factor:
    e_1..e_n, (-1,..,-1, -a), then e_{n+1}..e_{n+m}, (-b, -1,..,-1)."""
    cols = [[int(i == k) for i in range(n + m)] for k in range(n)]
    cols.append([-1] * n + [-x for x in a])
    cols += [[int(i == n + k) for i in range(n + m)] for k in range(m)]
    cols.append([-x for x in b] + [-1] * m)
    return [[c[i] for c in cols] for i in range(n + m)]


def check_audit(
    n: int,
    m: int,
    a: Sequence[int],
    b: Sequence[int],
    valid: bool,
    oracle_valid: bool,
    gens=None,
    ranks=None,
    torsion=None,
    kernel=None,
) -> List[str]:
    """One audited pair: both deciders against the product rule and, for an
    admissible pair, its ring presentation, ranks, torsion and kernel."""
    where = f"pair n={n} m={m} a={tuple(a)} b={tuple(b)}"
    truth = admissible(a, b)
    if valid != truth or oracle_valid != truth:
        return [f"{where}: validate={valid} bruteforce={oracle_valid}, expected {truth}"]
    if not truth:
        return []
    errors = []
    if tuple(map(tuple, gens)) != presentation_gens(a, b):
        errors.append(f"{where}: wrong presentation {gens}")
    if tuple(ranks) != expected_ranks(n, m):
        errors.append(f"{where}: graded ranks {tuple(ranks)}, expected {expected_ranks(n, m)}")
    if any(torsion):
        errors.append(f"{where}: torsion {torsion}")
    errors += check_kernel(n, m, a, b, kernel, where)
    return errors


def check_kernel(n, m, a, b, basis, where="") -> List[str]:
    mat = grouped_char_matrix(n, m, a, b)
    if any(len(v) != n + m + 2 for v in basis):
        return [f"{where}: kernel vectors of the wrong length"]
    if len(basis) != 2 or rank(basis) != 2:
        return [f"{where}: kernel basis {basis} does not have rank 2"]
    for v in basis:
        if any(sum(x * y for x, y in zip(row, v)) for row in mat):
            return [f"{where}: {v} is not in the kernel"]
    return []


def weight_matrix(n: int, m: int, a: Sequence[int], b: Sequence[int]) -> List[List[int]]:
    """Rows (u_i, v_i) with u = (1,..,1, a, 0) and v = (b, 0, 1,..,1)."""
    u = [1] * (n + 1) + list(a) + [0]
    v = list(b) + [0] + [1] * (m + 1)
    return [[x, y] for x, y in zip(u, v)]


def witness_pairs(family: str, n: int, m: int, s: int, r: int, a: int, b: int):
    """Source and target twist vectors of a built-in certificate family."""
    if family == "repeat-fill":
        return ((a,), (b,) + (0,) * (n - 1)), ((a,), (b,) * n)
    src = nonbott_pair(n, m, "a2", s, r)
    if family == "fold-r":
        return src, nonbott_pair(n, m, "a2", s, n + 1 - r)
    return src, nonbott_pair(n, m, "a2", m + 1 - s, r)


def check_witness(family, n, m, s, r, a, b, s_mat, t_mat) -> List[str]:
    """S * U = U' * T with S a signed permutation and T unimodular."""
    (sa, sb), (ta, tb) = witness_pairs(family, n, m, s, r, a, b)
    mm = 1 if family == "repeat-fill" else m
    u = weight_matrix(n, mm, sa, sb)
    u2 = weight_matrix(n, mm, ta, tb)
    errors = []
    for row in s_mat:
        if sorted(abs(x) for x in row) != [0] * (len(row) - 1) + [1]:
            errors.append(f"{family}: {row} is not a signed-permutation row")
    if det(t_mat) not in (1, -1):
        errors.append(f"{family}: T = {t_mat} is not unimodular")
    lhs = [[sum(s_mat[i][k] * u[k][j] for k in range(len(u))) for j in range(2)] for i in range(len(s_mat))]
    rhs = [[sum(u2[i][k] * t_mat[k][j] for k in range(2)) for j in range(2)] for i in range(len(u2))]
    if lhs != rhs:
        errors.append(f"{family}: S*U != U'*T")
    return errors
