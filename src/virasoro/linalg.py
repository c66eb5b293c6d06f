"""Exact linear algebra over the coefficient tower.

One fraction-free (Bareiss) elimination loop, `_echelon`, answers every
question: each row's denominators are cleared and the loop runs on ints
(depth 0), on Z[x] or Z[t] coefficient arrays (depth 1) or on Z[c][h]
arrays (depth 2), where every division by the previous pivot is exact
and remainder-checked.  It counts its row swaps, and on a symmetric
matrix the forward pass updates only the upper half and mirrors it.
The arrays and their ring operations live in `scalars`; this module
only eliminates.

* `bareiss_det`: determinants over Q, Q[x] or Q[c,h], one forward pass;
* `pivot_columns`, `rank`, `nullspace`: the forward pass or the full
  Gauss-Jordan over Z or Z[t], for matrices over Q or Q[t, 1/t];
* `annihilator_kernel`: the joint kernel of L_1 and L_2 on one level of
  a module, the one kernel solve behind its singular vectors.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod

from .scalars import (Laurent, UniPoly, _addmul, _array, _div, _entry, _leaves,
                      _ring_of, _row_scale, _scaled, _trim)


def bareiss_det(matrix):
    """Determinant by fraction-free (Bareiss) elimination over the integers.

    Entries may be Fraction/int, UniPoly or BiPoly; rational entries of a
    polynomial matrix are constants of its ring.  Each row is scaled by
    the lcm of its coefficient denominators (a symmetric matrix by one
    lcm for all rows, which keeps it symmetric), every entry becomes an
    int or an integer coefficient array (`scalars._array`), and the forward
    `_echelon` runs once in Z, Z[x] or Z[c][h].  Every division is by the
    previous pivot, exact, and checked: a nonzero remainder raises
    ArithmeticError.  With n pivots the determinant is the sign of the
    row swaps times the last pivot, divided by the product of the row
    scales in the entries' ring; with fewer it is the ring's zero.
    """
    n = len(matrix)
    if n == 0:
        return Fraction(1)
    kind, var, depth = _ring_of(matrix)
    arrays = [[_array(x, depth) for x in row] for row in matrix]
    dens = [_row_scale(_leaves(row, depth + 1)) for row in arrays]
    sym = all(matrix[i][j] == matrix[j][i] for i in range(n) for j in range(i))
    if sym:
        dens = [lcm(*dens)] * n
    m = [_scaled(row, den, depth + 1) for row, den in zip(arrays, dens)]
    pivots, d, sign = _echelon(m, depth, reduced=False, sym=sym)
    return _entry(d if len(pivots) == n else _array(0, depth), kind, var, sign * prod(dens))


def _step(p, x, q, y, prev, depth):
    """(p x - q y) / prev on coefficient arrays: the update of `_echelon`
    at depths 1 and 2 (at depth 0 it is inline).  The division is exact
    and checked; prev None stands for 1."""
    num = _addmul([], x, p, depth)
    if q:
        _addmul(num, q, y, depth, neg=True)
    _trim(num, depth)
    return num if prev is None else _div(num, prev, depth)


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


def _echelon(m, depth, reduced, sym=False):
    """Fraction-free elimination of the rows `m` in place over Z (depth 0,
    ints), Z[x] or Z[t] (depth 1) or Z[c][h] (depth 2, coefficient
    arrays); returns (pivot columns, last pivot d, sign of the row swaps).

    Forward elimination leaves the Bareiss row echelon form; `reduced`
    also clears above each pivot (Gauss-Jordan), so rows 0..r-1 end as d
    times the reduced row echelon form.  Each entry stays a minor of the
    input, so every division by the previous pivot is exact, and a
    nonzero remainder raises ArithmeticError.  With `sym` (a symmetric
    square matrix, forward only) every entry below the pivot row is a
    bordered minor, symmetric in its row and column, so row i updates
    only columns j >= i and mirrors them, until the first row swap or
    skipped column."""
    ncols = len(m[0]) if m else 0
    pivots, sign = [], 1
    prev, zero = (None, []) if depth else (1, 0)
    for col in range(ncols):
        r = len(pivots)
        i = next((i for i in range(r, len(m)) if m[i][col]), None)
        if i is None:
            sym = False
            continue
        if i != r:
            m[r], m[i] = m[i], m[r]
            sign, sym = -sign, False
        top, p = m[r], m[r][col]
        for i in [*range(r if reduced else 0), *range(r + 1, len(m))]:
            row, q = m[i], m[i][col]
            # rows above rescale every column, free ones included; rows
            # below are zero left of col, and a symmetric one copies the
            # columns left of its index from the rows above it
            cols = range(ncols) if i < r else range(i if sym else col + 1, ncols)
            if depth:
                for j in cols:
                    row[j] = _step(p, row[j], q, top[j], prev, depth)
            else:
                for j in cols:
                    x, rem = divmod(p * row[j] - q * top[j], prev)
                    if rem:
                        raise ArithmeticError("inexact division in fraction-free elimination")
                    row[j] = x
            if sym:
                for j in cols:
                    m[j][i] = row[j]
            row[col] = zero
        pivots.append(col)
        prev = p
    return pivots, prev, sign


def _cleared(row, var=None):
    """The row times the lcm of its denominators.  Rationals become ints,
    divided by their gcd (a positive scale of a row keeps the reduced row
    echelon form); with `var`, entries in Q[var, 1/var] become Z[var]
    coefficient arrays, scaled by var^k for the largest pole order k in
    the row and then by the lcm of the coefficient denominators."""
    if var is None:
        den = _row_scale(row)
        row = [x.numerator * (den // x.denominator) for x in row]
        g = gcd(*row)
        return [x // g for x in row] if g > 1 else row
    zero = Laurent(UniPoly((), var))
    row = [zero._coerce(x) for x in row]
    k = max((x.k for x in row), default=0)
    row = [list(x._shifted(k).coeffs) for x in row]
    den = _row_scale([y for a in row for y in a])
    return [_scaled(a, den, 1) for a in row]


def pivot_columns(matrix) -> list:
    """Pivot columns over Q of a matrix of rationals (Fraction or int
    entries): those of the forward elimination `_echelon` over Z, on the
    rows cleared of their denominators.  Column j is a pivot exactly when
    it is not in the span of the columns left of it, so neither the
    clearing nor the row swaps move the set."""
    rows = [row for row in map(_cleared, matrix) if any(row)]
    return _echelon(rows, 0, reduced=False)[0]


def rank(matrix) -> int:
    """Rank over Q of a matrix of rationals: its number of pivot columns."""
    return len(pivot_columns(matrix))


def nullspace(matrix, ncols=None):
    """Basis of the right kernel, one vector per free column f.

    The rows are cleared into Z, or into Z[t] when any entry is a
    Laurent polynomial, where `_echelon` leaves d times the reduced row
    echelon form.  Over Q, vec[f] = 1 and vec[pivot_i] = -M[i][f] / d.
    Over Z[t] nothing is divided: vec[f] = d and vec[pivot_i] = -M[i][f],
    as Laurent polynomials of pole order 0, which is d times that vector.
    The reduced form is unique, so the basis is canonical given the
    column order (over Z[t], up to the scale d).  An empty matrix has
    `ncols` columns.
    """
    cols = len(matrix[0]) if matrix else ncols or 0
    var = next((x.var for row in matrix for x in row if isinstance(x, Laurent)), None)
    m = [_cleared(row, var) for row in matrix]
    pivots, d, _ = _echelon(m, 0 if var is None else 1, reduced=True)
    one = Fraction(1) if var is None else Laurent(UniPoly(d or [1], var))
    basis = []
    for fc in sorted(set(range(cols)) - set(pivots)):
        vec = [one * 0] * cols
        vec[fc] = one
        for i, pc in enumerate(pivots):
            if a := m[i][fc]:
                vec[pc] = Fraction(a, -d) if var is None else Laurent(-UniPoly(a, var))
        basis.append(vec)
    return basis


def annihilator_rows(apply, basis_of, level):
    """The matrix of v -> (L_1 v, L_2 v) at `level`, for a module whose
    basis keys at level n are `basis_of(n)`: `apply(k, b)` is L_k of the
    basis vector b, a SparseVector, and each key k levels down gives the
    row of its coefficients in the images."""
    rows = []
    for k in (1, 2):
        if k <= level:
            images = [apply(k, b) for b in basis_of(level)]
            rows += ([img.coeff(key) for img in images] for key in basis_of(level - k))
    return rows


def annihilator_kernel(apply, basis_of, level):
    """The joint kernel of L_1 and L_2 at `level` (see `annihilator_rows`),
    one vector per free column of `nullspace`, on the basis
    `basis_of(level)`."""
    return nullspace(annihilator_rows(apply, basis_of, level), ncols=len(basis_of(level)))
