"""Exact linear algebra over the coefficient tower.

Three regimes:

* fraction-free (Bareiss) elimination for determinants over Q, Q[x] or
  Q[c,h]: each row's denominators are cleared and the elimination runs
  on integer coefficient arrays over Z, Z[x] or Z[c][h], where every
  division by the previous pivot is exact and remainder-checked;
* fraction-free elimination over Python ints for the rank of a rational
  matrix, after clearing each row's denominators the same way;
* plain Gauss-Jordan over a field (Q or Q(t)) for kernels and reduced row
  echelon forms.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm, prod

from .scalars import BiPoly, UniPoly


def bareiss_det(matrix):
    """Determinant by fraction-free (Bareiss) elimination over the integers.

    Entries may be Fraction/int, UniPoly or BiPoly; rational entries of a
    polynomial matrix are constants of its ring.  Each row is scaled by
    the lcm of its coefficient denominators (a symmetric matrix by one
    lcm for all rows), every entry becomes an integer coefficient array
    (see `_array`), and the elimination runs in Z, Z[x] or Z[c][h].
    Every division is by the previous pivot, exact, and checked: a
    nonzero remainder raises ArithmeticError.  The result is divided by
    the product of the row scales, in the entries' ring.
    """
    n = len(matrix)
    if n == 0:
        return Fraction(1)
    kind, var = _ring_of(matrix)
    depth = 2 if kind is BiPoly else 1
    arrays = [[_array(x, depth) for x in row] for row in matrix]
    dens = [_row_scale([y for a in row for y in _leaves(a, depth)]) for row in arrays]
    # Every entry of step k is a bordered minor det M[0..k-1 + i; 0..k-1 + j],
    # so a symmetric matrix stays symmetric until a row swap and only
    # j >= i is computed; one scale for all rows keeps it symmetric.
    sym = all(arrays[i][j] == arrays[j][i] for i in range(n) for j in range(i))
    if sym:
        dens = [lcm(*dens)] * n
    m = [[_scaled(a, den, depth) for a in row] for row, den in zip(arrays, dens)]
    scale = prod(dens)
    prev = None
    for k in range(n - 1):
        if not m[k][k]:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    scale, sym = -scale, False
                    break
            else:
                return _entry([], kind, var, 1)
        top = m[k]
        pivot = top[k]
        for i in range(k + 1, n):
            row = m[i]
            a = row[k]
            for j in range(i if sym else k + 1, n):
                num = _addmul([], row[j], pivot, depth)
                if a:
                    _addmul(num, a, top[j], depth, neg=True)
                _trim(num, depth)
                row[j] = num if prev is None else _div(num, prev, depth)
                if sym:
                    m[j][i] = row[j]
            row[k] = []
        prev = pivot
    return _entry(m[n - 1][n - 1], kind, var, scale)


# Integer coefficient arrays.  An element of Z[x] is the list of its
# coefficients from x^0 up; an element of Z[c][h] is the list over h of
# its coefficients in Z[c] (the layout of BiPoly.exact_div).  Arrays
# carry no trailing zeros, so zero is [] and the leading entry is last;
# a rational matrix runs in Z[x] with constant entries.


def _ring_of(matrix):
    """(Fraction, UniPoly or BiPoly, variable tag) of the entries' ring."""
    kind, var, constant = Fraction, None, True
    for row in matrix:
        for x in row:
            if isinstance(x, (int, Fraction)):
                continue
            if not isinstance(x, (UniPoly, BiPoly)):
                raise TypeError(f"bareiss_det takes rational, UniPoly or BiPoly entries, "
                                f"not {type(x).__name__}")
            if kind not in (Fraction, type(x)):
                raise TypeError("bareiss_det got both UniPoly and BiPoly entries")
            kind, v = type(x), (x.var if isinstance(x, UniPoly) else x.vars)
            if x.is_constant():
                var = v if var is None else var
            elif constant:
                var, constant = v, False
            elif v != var:
                raise ValueError(f"variable mismatch: {var!r} vs {v!r}")
    return kind, var


def _array(x, depth):
    """The coefficient array of an entry, over Q."""
    if isinstance(x, UniPoly):
        return list(x.coeffs)
    if isinstance(x, BiPoly):
        rows = []
        for (i, j), v in x.terms.items():
            rows.extend([] for _ in range(j + 1 - len(rows)))
            row = rows[j]
            row.extend([0] * (i + 1 - len(row)))
            row[i] = v
        return rows
    if not x:
        return []
    for _ in range(depth):
        x = [x]
    return x


def _leaves(a, depth):
    return a if depth == 1 else [y for x in a for y in _leaves(x, depth - 1)]


def _scaled(a, den, depth):
    if depth == 0:
        return a.numerator * (den // a.denominator)
    return [_scaled(x, den, depth - 1) for x in a]


def _entry(a, kind, var, scale):
    """The array `a` divided by `scale`, as an element of `kind`."""
    if kind is Fraction:
        return Fraction(a[0] if a else 0, scale)
    if kind is UniPoly:
        return UniPoly([Fraction(x, scale) for x in a], var)
    return BiPoly({(i, j): Fraction(x, scale)
                   for j, row in enumerate(a) for i, x in enumerate(row) if x}, var)


def _trim(a, depth):
    """Drop trailing zeros, at every depth, in place (an int at depth 0
    is returned as it is)."""
    if depth > 1:
        for x in a:
            _trim(x, depth - 1)
    while depth and a and not a[-1]:
        a.pop()
    return a


def _addmul(acc, a, b, depth, neg=False):
    """acc += a * b (acc -= a * b with `neg`) in place, growing `acc` as
    needed; the caller trims the result."""
    grow = len(a) + len(b) - 1 - len(acc)
    if grow > 0:
        acc.extend([0] * grow if depth == 1 else ([] for _ in range(grow)))
    if depth == 1:
        for i, x in enumerate(a):
            if x:
                if neg:
                    x = -x
                for j, y in enumerate(b):
                    acc[i + j] += x * y
    else:
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        _addmul(acc[i + j], x, y, depth - 1, neg)
    return acc


def _div(a, b, depth):
    """The exact quotient a / b by schoolbook long division, consuming
    `a`; each leading coefficient is divided the same way down to
    `divmod` on ints.  A nonzero remainder raises ArithmeticError."""
    if depth == 0:
        q, r = divmod(a, b)
        if r:
            raise ArithmeticError("inexact division in fraction-free elimination")
        return q
    *low, lead = b
    zero = 0 if depth == 1 else []
    quo = []
    for k in range(len(a) - len(b), -1, -1):
        q = _div(_trim(a.pop(), depth - 1), lead, depth - 1)
        quo.append(q)
        if q:  # a -= q x^k * low, which clears a below its old top term
            _addmul(a, [zero] * k + [q], low, depth, neg=True)
    if _trim(a, depth):
        raise ArithmeticError("inexact division in fraction-free elimination")
    quo.reverse()
    return quo


def _row_scale(values) -> int:
    """The lcm of the denominators of a row of rationals: the least
    positive integer that makes the scaled row integral."""
    return lcm(*(x.denominator for x in values))


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
        den = _row_scale(row)
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

