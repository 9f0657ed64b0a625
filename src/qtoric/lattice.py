"""Exact integer linear algebra: Hermite and Smith normal forms, kernels,
canonical lattice bases, and unimodular-extendability tests.

One row Hermite reduction, ``_hnf_rows``, is the only elimination here.
The canonical bases, the kernel and the extendability test read its result
directly, and the Smith diagonal alternates it with transposition.

Everything here runs on arbitrary-precision Python integers; intermediate
entries in a normal-form computation can grow far beyond the input magnitude,
so no fixed-width arithmetic is ever used.

Conventions
-----------
* A matrix is a sequence of equal-length integer rows, and the routines
  that take rows check their shape themselves.  :class:`IntMatrix`, the
  matrix value handed out to callers, holds such rows as a tuple of
  tuples, so callers pass its ``rows`` on as they are.
* Other outside data enters through the checked constructors
  :meth:`IntMatrix.from_rows` and :func:`lattice_from_generators`; the raw
  constructors check nothing and are for data consistent by construction.
* Hermite normal form (HNF) is row-style, and its nonzero rows are the
  canonical basis of the row lattice: pivots are positive and move strictly
  right as you go down, and every entry above a pivot is reduced into
  ``[0, pivot)``.  Each sublattice of Z^d has exactly one such basis, so two
  sublattices are equal exactly when their canonical bases are identical
  tuples.
* Smith normal form is its diagonal alone: nonnegative entries, each
  dividing the next (zeros, which every integer divides, sit at the end).
"""

from __future__ import annotations

import math
from typing import Iterable, List, NamedTuple, Sequence, Tuple


class IntMatrix(NamedTuple):
    """A dense integer matrix, held as its rows.

    :meth:`from_rows` is the checked constructor; the raw constructor does
    not check its argument.

    Attributes:
        rows: a nonempty tuple of equal-length tuples of integers.
    """

    rows: Tuple[Tuple[int, ...], ...]

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence[int]]) -> "IntMatrix":
        """Build a matrix from a nonempty iterable of equal-length rows."""
        row_list = [tuple(int(x) for x in r) for r in rows]
        if not row_list:
            raise ValueError("matrix needs at least one row")
        width = len(row_list[0])
        if any(len(r) != width for r in row_list):
            raise ValueError("rows have unequal lengths")
        return cls(tuple(row_list))

    def at(self, i: int, j: int) -> int:
        return self.rows[i][j]

    def to_rows(self) -> Tuple[Tuple[int, ...], ...]:
        return self.rows


class LatticeBasis(NamedTuple):
    """A sublattice of Z^d held in canonical form.

    ``basis`` is the tuple of nonzero rows of the Hermite normal form of any
    generating set, so equal lattices always have identical representations
    and compare equal with ``==``.  An empty tuple is the zero lattice.

    :func:`lattice_from_generators` is the checked constructor; the raw
    constructor does not check its arguments.
    """

    ambient_dim: int
    basis: Tuple[Tuple[int, ...], ...]

    @property
    def rank(self) -> int:
        return len(self.basis)

    def contains(self, vec: Sequence[int]) -> bool:
        """Exact membership test against the canonical basis.

        Reduces ``vec`` greedily by the HNF rows (whose pivot columns strictly
        increase); membership holds iff the reduction reaches zero.
        """
        if len(vec) != self.ambient_dim:
            raise ValueError("vector length differs from ambient dimension")
        v = [int(x) for x in vec]
        for row in self.basis:
            p = _pivot_index(row)
            q, rem = divmod(v[p], row[p])
            if rem != 0:
                # a pivot position can only be cleared by a multiple of its row
                return False
            if q != 0:
                for j in range(p, self.ambient_dim):
                    v[j] -= q * row[j]
        return all(x == 0 for x in v)


def _pivot_index(row: Sequence[int]) -> int:
    for j, x in enumerate(row):
        if x != 0:
            return j
    raise ValueError("zero row has no pivot")


def _hnf_rows(rows: List[List[int]]) -> None:
    """In-place row Hermite reduction of ``rows``.

    Termination: within each column the minimum nonzero absolute value over
    the working rows strictly decreases under the remainder step, so each
    column stabilizes after finitely many sweeps.
    """
    nr = len(rows)
    nc = len(rows[0]) if nr else 0
    top = 0
    for col in range(nc):
        if top == nr:
            break
        # Euclidean sweep: shrink all entries in this column below `top`
        # against the current minimal one until a single nonzero survives.
        while True:
            piv = -1
            for i in range(top, nr):
                if rows[i][col] != 0 and (piv == -1 or abs(rows[i][col]) < abs(rows[piv][col])):
                    piv = i
            if piv == -1:
                break
            others = [i for i in range(top, nr) if i != piv and rows[i][col] != 0]
            if not others:
                if piv != top:
                    rows[top], rows[piv] = rows[piv], rows[top]
                break
            p = rows[piv][col]
            for i in others:
                q = rows[i][col] // p  # floor division keeps remainders small
                if q:
                    ri, rp = rows[i], rows[piv]
                    for j in range(nc):
                        ri[j] -= q * rp[j]
        if top < nr and rows[top][col] != 0:
            if rows[top][col] < 0:
                rows[top] = [-x for x in rows[top]]
            # reduce entries above the pivot into [0, pivot)
            p = rows[top][col]
            for i in range(top):
                q = rows[i][col] // p
                if q:
                    ri, rp = rows[i], rows[top]
                    for j in range(nc):
                        ri[j] -= q * rp[j]
            top += 1


def _row_lists(rows: Sequence[Sequence[int]]) -> List[List[int]]:
    """Copy equal-length rows to lists."""
    a = [list(r) for r in rows]
    if any(len(r) != len(a[0]) for r in a):
        raise ValueError("rows have unequal lengths")
    return a


def smith_normal_form(rows: Sequence[Sequence[int]]) -> Tuple[int, ...]:
    """Smith normal form diagonal of the matrix with the given rows:
    min(#rows, #columns) nonnegative entries, each dividing the next.

    Row Hermite reduction of the matrix and of its transpose alternate until
    a diagonal remains; each reduction keeps entries reduced against their
    pivots, so they stay small.  Termination: the leading pivot is the gcd
    of its column, then of its row, so it shrinks strictly until its row and
    column are clear, and then stays clear.  A gcd/lcm sweep over the
    diagonal gives the divisibility chain, since diag(x, y) is equivalent to
    diag(gcd(x, y), lcm(x, y)).
    """
    a = _row_lists(rows)
    size = min(len(a), len(a[0])) if a else 0
    while True:
        a = [r for r in a if any(r)]
        _hnf_rows(a)
        a = [list(col) for col in zip(*a) if any(col)]
        if all(x == 0 for i, r in enumerate(a) for j, x in enumerate(r) if i != j):
            break
    diag = [a[i][i] for i in range(len(a))]
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            g = math.gcd(diag[i], diag[j])
            diag[i], diag[j] = g, diag[i] * diag[j] // g
    return tuple(diag) + (0,) * (size - len(diag))


def lattice_from_generators(ambient_dim: int, vectors: Iterable[Sequence[int]]) -> LatticeBasis:
    """Canonicalize a generating set into a :class:`LatticeBasis`."""
    gens = [[int(x) for x in v] for v in vectors]
    for v in gens:
        if len(v) != ambient_dim:
            raise ValueError("generator length differs from ambient dimension")
    if ambient_dim < 0:
        raise ValueError("ambient dimension must be nonnegative")
    _hnf_rows(gens)
    return LatticeBasis(ambient_dim, tuple(tuple(r) for r in gens if any(r)))


def kernel_basis(rows: Sequence[Sequence[int]]) -> LatticeBasis:
    """Basis of the full integer kernel {v in Z^c : A v = 0}, where A has the
    given rows, of length c.  No rows leave c unknown and raise ValueError.

    The kernel of an integer matrix is automatically saturated (if k*v maps
    to zero for k != 0 then so does v), and the construction below preserves
    that: row-reduce the block matrix [A^T | I]; the rows whose left block
    vanishes carry, in the right block, a basis of the left kernel of A^T,
    which is the kernel of A.  Those rows sit inside a unimodular transform,
    so they span the kernel primitively.  They close the reduced matrix,
    below every row with a pivot in the left block, so their right blocks
    are already the canonical basis.
    """
    a = _row_lists(rows)
    if not a:
        raise ValueError("kernel needs at least one row")
    r, c = len(a), len(a[0])
    aug = [list(col) + [1 if j == i else 0 for j in range(c)] for i, col in enumerate(zip(*a))]
    _hnf_rows(aug)
    return LatticeBasis(c, tuple(tuple(row[r:]) for row in aug if not any(row[:r])))


def is_basis_extendable(vectors: Sequence[Sequence[int]]) -> bool:
    """Whether the given k vectors extend to a Z-basis of the ambient Z^d.

    True exactly when the Smith diagonal of the matrix they form is k ones,
    that is, when its d rows of length k generate Z^k.  One Hermite
    reduction of those rows, which are the vectors' columns, decides every
    shape: they generate Z^k exactly when the canonical basis is the k x k
    identity.  More vectors than coordinates leave too few rows.
    """
    k = len(vectors)
    if any(len(v) != len(vectors[0]) for v in vectors):
        raise ValueError("vectors have unequal lengths")
    # read as Python integers, so the reduction stays exact on any input
    rows = [[int(x) for x in col] for col in zip(*vectors)]
    _hnf_rows(rows)
    return rows[:k] == [[int(i == j) for j in range(k)] for i in range(k)]
