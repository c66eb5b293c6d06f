"""Exact linear algebra over the coefficient tower.

Three regimes:

* fraction-free (Bareiss) elimination for determinants over a polynomial
  ring (Q[x] or Q[c,h]), where naive division would leave the ring;
* fraction-free elimination over Python ints for the rank of a rational
  matrix, after clearing each row's denominators;
* plain Gauss-Jordan over a field (Q or Q(t)) for kernels and reduced row
  echelon forms.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .scalars import BiPoly, UniPoly


def _exact_div(a, b):
    if isinstance(a, (UniPoly, BiPoly)):
        return a.exact_div(b)
    return a / b


def bareiss_det(matrix):
    """Determinant by fraction-free elimination.

    Entries may be Fraction, UniPoly, RatFunc or BiPoly; every division
    performed is exact in the entry ring.
    """
    n = len(matrix)
    if n == 0:
        return Fraction(1)
    m = [list(row) for row in matrix]
    sign = 1
    prev = Fraction(1)
    for k in range(n - 1):
        if not m[k][k]:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return m[k][k] * 0  # zero of the right ring
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = m[i][j] * m[k][k] - m[i][k] * m[k][j]
                m[i][j] = _exact_div(num, prev)
            m[i][k] = m[i][k] * 0
        prev = m[k][k]
    det = m[n - 1][n - 1]
    return -det if sign < 0 else det


def det_expansion(matrix):
    """Cofactor expansion along the first row; fine for small matrices
    (the spin-chain and Jacobi-Trudi ones).  Entries may lie in any ring
    with +, - and * whose elements are false exactly when zero: scalars
    or SparseVector subclasses with a product."""
    n = len(matrix)
    if n == 0:
        return Fraction(1)
    if n == 1:
        return matrix[0][0]
    total = matrix[0][0] - matrix[0][0]
    for j, entry in enumerate(matrix[0]):
        if not entry:
            continue
        minor = [row[:j] + row[j + 1 :] for row in matrix[1:]]
        term = entry * det_expansion(minor)
        total = total - term if j % 2 else total + term
    return total


def rref(matrix):
    """Reduced row echelon form over a field; returns (rows, pivot columns).

    The input entries must support true division (Fraction or RatFunc).
    """
    m = [list(row) for row in matrix]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots = []
    r = 0
    for col in range(cols):
        pivot_row = None
        for i in range(r, rows):
            if m[i][col]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = m[r][col]
        m[r] = [x / inv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][col]:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(col)
        r += 1
        if r == rows:
            break
    return m, pivots


def rank(matrix) -> int:
    """Rank over Q of a matrix of rationals (Fraction or int entries).

    Each row is scaled by the lcm of its denominators, which keeps the
    rank, and fraction-free row echelon runs over Python ints, skipping
    the columns without a pivot.  Every division is by the previous pivot
    and exact (each entry stays a minor of the scaled matrix); a nonzero
    remainder raises ArithmeticError instead of rounding.
    """
    rows = []
    for row in matrix:
        den = lcm(*(x.denominator for x in row))
        ints = [x.numerator * (den // x.denominator) for x in row]
        if any(ints):
            rows.append(ints)
    if not rows:
        return 0
    nrows, ncols = len(rows), len(rows[0])
    prev = 1
    r = 0
    for col in range(ncols):
        for i in range(r, nrows):
            if rows[i][col]:
                rows[r], rows[i] = rows[i], rows[r]
                break
        else:
            continue
        top = rows[r]
        pivot = top[col]
        for i in range(r + 1, nrows):
            row = rows[i]
            a = row[col]
            for j in range(col + 1, ncols):
                q, rem = divmod(pivot * row[j] - a * top[j], prev)
                if rem:
                    raise ArithmeticError("inexact division in fraction-free rank")
                row[j] = q
            row[col] = 0
        prev = pivot
        r += 1
        if r == nrows:
            break
    return r


def nullspace(matrix, ncols=None):
    """Basis of the right kernel, one vector per free column.

    Each basis vector has a 1 in its free column, making the output
    canonical given the column order.
    """
    if not matrix:
        if not ncols:
            return []
        one, zero = Fraction(1), Fraction(0)
        return [[one if i == j else zero for i in range(ncols)] for j in range(ncols)]
    cols = len(matrix[0])
    reduced, pivots = rref(matrix)
    pivot_set = set(pivots)
    free = [c for c in range(cols) if c not in pivot_set]
    some = matrix[0][0]
    zero, one = some * 0, some * 0 + 1
    basis = []
    for fc in free:
        vec = [zero] * cols
        vec[fc] = one
        for r, pc in enumerate(pivots):
            vec[pc] = -reduced[r][fc]
        basis.append(vec)
    return basis


def sum_entries(row, vector):
    total = None
    for a, b in zip(row, vector):
        term = a * b
        total = term if total is None else total + term
    if total is None:
        return Fraction(0)
    return total


def identity(n, one=None):
    one = Fraction(1) if one is None else one
    zero = one * 0
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    n, k = len(a), len(b)
    cols = len(b[0]) if k else 0
    out = []
    for i in range(n):
        row = []
        for j in range(cols):
            row.append(sum_entries(a[i], [b[t][j] for t in range(k)]))
        out.append(row)
    return out

