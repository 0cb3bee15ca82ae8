"""Exact integer linear algebra on the lattices N and M.

Vectors are tuples of Python ints and matrices are tuples of row tuples,
so every computation is arbitrary precision by construction; there is no
floating point anywhere in this package, and no rationals either: the one
exact solve is `scaled_inverse`, fraction-free elimination returning
A*R = d*I in integers, and every inverse or coordinate change is derived
from it.  All functions are pure and all values immutable, hence safe for
unrestricted concurrent use.
"""

from __future__ import annotations

import math
from operator import mul
from typing import Iterable, Optional, Sequence

Vec = tuple
Mat = tuple


def vec(values: Iterable) -> Vec:
    return tuple(int(x) for x in values)


def mat(rows: Iterable[Iterable]) -> Mat:
    out = tuple(vec(r) for r in rows)
    if len({len(r) for r in out}) > 1:
        raise ValueError("matrix rows have unequal lengths")
    return out


def vec_add(a: Vec, b: Vec) -> Vec:
    return tuple(x + y for x, y in zip(a, b))


def vec_neg(a: Vec) -> Vec:
    return tuple(-x for x in a)


def vec_scale(a: Vec, c: int) -> Vec:
    return tuple(c * x for x in a)


def pairing(p: Sequence[int], m: Sequence[int]) -> int:
    """Duality pairing <p, m> of a vector in N with a vector in M."""
    if len(p) != len(m):
        raise ValueError(f"rank mismatch: {len(p)} vs {len(m)}")
    return sum(a * b for a, b in zip(p, m))


def gcd_vec(v: Sequence[int]) -> int:
    """The gcd of the coordinates, non-negative; 0 for the zero vector."""
    return math.gcd(*v)


def primitive(v: Sequence[int]) -> Vec:
    """Divide a nonzero integer vector by the gcd of its coordinates."""
    v = vec(v)
    g = gcd_vec(v)
    if g == 0:
        raise ValueError("zero vector has no primitive representative")
    return tuple(x // g for x in v)


def is_primitive(v: Sequence[int]) -> bool:
    return gcd_vec(v) == 1


def identity_matrix(n: int) -> Mat:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def transpose(a: Mat, ncols: Optional[int] = None) -> Mat:
    if not a:
        return tuple(() for _ in range(ncols)) if ncols else ()
    return tuple(zip(*a))


def mat_mul(a: Mat, b: Mat) -> Mat:
    bt = transpose(b)
    return tuple(tuple(pairing(ra, cb) for cb in bt) for ra in a)


def vec_mat(v: Vec, a: Mat) -> Vec:
    """Row vector times matrix."""
    if len(v) != len(a):
        raise ValueError("dimension mismatch in vec_mat")
    return tuple([sum(map(mul, v, col)) for col in zip(*a)])


def det(a: Mat) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    n = len(a)
    if any(len(r) != n for r in a):
        raise ValueError("determinant of a non-square matrix")
    if n == 0:
        return 1
    m = [list(r) for r in a]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if piv is None:
                return 0
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def is_unimodular(a: Mat) -> bool:
    """Membership test for GL(n, Z)."""
    a = mat(a)
    if any(len(r) != len(a) for r in a):
        raise ValueError("unimodularity is defined for square matrices only")
    return abs(det(a)) == 1


def hermite_normal_form(a: Mat) -> tuple[Mat, Mat]:
    """Row-style Hermite normal form.

    Returns (H, U) with U unimodular and H = U*A, where H has positive
    pivots on strictly increasing columns, entries above each pivot reduced
    into [0, pivot), and zero rows last.  The convention is fixed so that
    golden outputs stay stable.
    """
    return _hermite(mat(a))


def _hermite(a: Mat) -> tuple[Mat, Mat]:
    """hermite_normal_form of rows already normalised by mat."""
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    h = [list(r) for r in a]
    u = [list(r) for r in identity_matrix(nrows)]
    row = 0
    for col in range(ncols):
        if row == nrows:
            break
        nz = [r for r in range(row, nrows) if h[r][col] != 0]
        if not nz:
            continue
        # Euclid on the rows at/below `row` until one nonzero entry remains.
        while len(nz) > 1 or nz[0] != row:
            r0 = min(nz, key=lambda r: (abs(h[r][col]), r))
            if r0 != row:
                h[row], h[r0] = h[r0], h[row]
                u[row], u[r0] = u[r0], u[row]
            for r in range(row + 1, nrows):
                if h[r][col] != 0:
                    q = h[r][col] // h[row][col]
                    h[r] = [x - q * y for x, y in zip(h[r], h[row])]
                    u[r] = [x - q * y for x, y in zip(u[r], u[row])]
            nz = [r for r in range(row, nrows) if h[r][col] != 0]
        if h[row][col] < 0:
            h[row] = [-x for x in h[row]]
            u[row] = [-x for x in u[row]]
        p = h[row][col]
        for r in range(row):
            q = h[r][col] // p
            if q:
                h[r] = [x - q * y for x, y in zip(h[r], h[row])]
                u[r] = [x - q * y for x, y in zip(u[r], u[row])]
        row += 1
    return tuple(map(tuple, h)), tuple(map(tuple, u))


def rank_of(rows: Sequence[Sequence[int]]) -> int:
    if not rows:
        return 0
    h, _ = _hermite(mat(rows))
    return sum(1 for r in h if any(r))


def _checked_rows(rows: Sequence[Sequence[int]], n: int) -> Mat:
    """The rows normalised by mat; raises unless each has length n."""
    rows = mat(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("row length does not match ambient rank")
    return rows


def _pivots_and_kernel(rows: Sequence[Vec], n: int) -> tuple[list, Mat]:
    """(pivots, kernel) from one Hermite normal form of the transposed rows,
    which must be integer tuples of length n (see _checked_rows).

    pivots are the pivot columns of the echelon form: the indices of the
    rows that lie outside the span of the rows before them, i.e. the rows
    a greedy scan in order keeps as linearly independent.  kernel is a
    basis of the saturated lattice of x in Z^n orthogonal to every row.
    """
    if not rows:
        return [], identity_matrix(n)
    h, u = _hermite(transpose(rows, n))
    pivots = [next(j for j, x in enumerate(r) if x) for r in h if any(r)]
    return pivots, tuple(u[i] for i in range(n) if not any(h[i]))


def right_kernel_basis(rows: Sequence[Sequence[int]], n: int) -> Mat:
    """Basis of the saturated lattice of x in Z^n orthogonal to every row."""
    return _pivots_and_kernel(_checked_rows(rows, n), n)[1]


def span_saturation_basis(rows: Sequence[Sequence[int]], n: int) -> Mat:
    """Basis of span(rows) intersected with Z^n (a saturated sublattice)."""
    orth = right_kernel_basis(rows, n)
    return right_kernel_basis(orth, n)


def scaled_inverse(a: Mat) -> tuple:
    """(R, d) with A*R = d*I and d = ±det A, all integers; (None, 0) if A
    is singular.

    Integer-preserving (Bareiss) Gauss-Jordan elimination on [A | I]: after
    step k every pivot equals the leading (k+1)-minor of the row-permuted
    A and each division by the previous pivot is exact, so R = d*A^-1 is
    the adjugate of A up to sign.
    """
    n = len(a)
    if any(len(r) != n for r in a):
        raise ValueError("scaled_inverse needs a square matrix")
    aug = [list(a[i]) + [1 if j == i else 0 for j in range(n)] for i in range(n)]
    prev = 1
    for k in range(n):
        piv = next((i for i in range(k, n) if aug[i][k] != 0), None)
        if piv is None:
            return None, 0
        aug[k], aug[piv] = aug[piv], aug[k]
        row_k = aug[k]
        p = row_k[k]
        for i in range(n):
            if i != k:
                f = aug[i][k]
                aug[i] = [(p * x - f * y) // prev for x, y in zip(aug[i], row_k)]
        prev = p
    return tuple(tuple(r[n:]) for r in aug), prev


def _saturated(rows: Sequence[Vec], n: int) -> bool:
    """Do the k integer rows of length n extend to a basis of Z^n?

    True when the top k x k block of the Hermite form of the transposed
    rows has |det| = 1.  That block is upper triangular with the pivots on
    its diagonal when the rows are independent, and has a zero on its
    diagonal otherwise, so the test reads the diagonal.
    """
    if len(rows) > n:
        return False
    h = _hermite(transpose(rows, n))[0]
    return all(h[i][i] == 1 for i in range(len(rows)))
