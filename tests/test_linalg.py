import random
from fractions import Fraction
from operator import mul

import pytest

from virasoro import jantzen, linalg, verma
from virasoro.combinat import partitions_of
from virasoro.linalg import bareiss_det, det_expansion, nullspace, rank
from virasoro.oscillator import c_coefficients, jacobi_trudi
from virasoro.scalars import BiPoly, Laurent, UniPoly


def rref(matrix):
    """Oracle: reduced row echelon form by plain Gauss-Jordan over Q;
    returns (rows, pivot columns)."""
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
        inv = m[r][col] ** -1
        m[r] = [x * inv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][col]:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(col)
        r += 1
        if r == rows:
            break
    return m, pivots


def _rref_rank(matrix):
    if not matrix or not matrix[0]:
        return 0
    return len(rref(matrix)[1])


def _rref_kernel(matrix):
    """Oracle: the kernel basis read off `rref`, -rref[i][f] at pivot i
    and 1 at the free column f."""
    reduced, pivots = rref(matrix)
    cols = len(matrix[0])
    basis = []
    for fc in (c for c in range(cols) if c not in pivots):
        vec = [Fraction(0)] * cols
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -reduced[r][fc]
        basis.append(vec)
    return basis


def _random_matrix(rng, rows, cols, true_rank=None, density=0.7):
    """Random rational matrix; with `true_rank` it is a product of a
    rows x true_rank and a true_rank x cols factor, so rank <= true_rank."""
    def entry():
        if rng.random() > density:
            return Fraction(0)
        return Fraction(rng.randint(-9, 9), rng.randint(1, 12))

    if true_rank is None:
        return [[entry() for _ in range(cols)] for _ in range(rows)]
    left = [[entry() for _ in range(true_rank)] for _ in range(rows)]
    right = [[entry() for _ in range(cols)] for _ in range(true_rank)]
    return [
        [sum((left[i][t] * right[t][j] for t in range(true_rank)), Fraction(0)) for j in range(cols)]
        for i in range(rows)
    ]


def test_rank_matches_rref_on_random_matrices():
    rng = random.Random(20261018)
    for _ in range(150):
        rows, cols = rng.randint(1, 9), rng.randint(1, 9)
        true_rank = rng.choice([None, 0, 1, 2, min(rows, cols)])
        m = _random_matrix(rng, rows, cols, true_rank, density=rng.choice([0.2, 0.6, 1.0]))
        assert rank(m) == _rref_rank(m), m


@pytest.mark.parametrize("shape", [(3, 8), (8, 3), (6, 6)], ids=["wide", "tall", "square"])
def test_rank_with_zero_rows_and_columns(shape):
    rng = random.Random(sum(shape))
    rows, cols = shape
    m = _random_matrix(rng, rows, cols, true_rank=2)
    for i in (0, rows // 2):
        m[i] = [Fraction(0)] * cols
    for row in m:
        row[cols - 1] = Fraction(0)
        row[1] = Fraction(0)
    assert rank(m) == _rref_rank(m) <= 2


def test_rank_of_degenerate_shapes():
    assert rank([]) == 0
    assert rank([[], []]) == 0
    assert rank([[Fraction(0)] * 4] * 3) == 0
    assert rank([[1, 2], [2, 4]]) == 1
    assert rank([[Fraction(1, 3), Fraction(1, 2)], [Fraction(2, 3), 1]]) == 1
    assert rank([[0, Fraction(1, 7)], [Fraction(5, 2), 0]]) == 2


def _same_kernel(matrix):
    got, want = nullspace(matrix), _rref_kernel(matrix)
    return got == want and all(type(x) is Fraction for vec in got for x in vec)


# two points where none of the Laurent matrices below drops rank
_POINTS = (Fraction(7, 5), Fraction(-11, 4))


def _at(x, t):
    return x(t) if isinstance(x, Laurent) else x


def _laurent_kernel_checks(matrix):
    """`nullspace` of a matrix with Laurent entries: vectors of Laurent
    polynomials (of Fractions if every entry is rational), each with
    M v = 0 in exact Laurent arithmetic, and at each rational t of
    `_POINTS` the rref kernel of M(t) over Q, times the vector's own
    nonzero entry d(t) at its free column."""
    got = nullspace(matrix)
    kind = Laurent if any(isinstance(x, Laurent) for row in matrix for x in row) else Fraction
    assert all(type(x) is kind for vec in got for x in vec)
    for vec in got:
        assert all(sum(map(mul, row, vec), Fraction(0)) == 0 for row in matrix)
    for t in _POINTS:
        want = _rref_kernel([[_at(x, t) for x in row] for row in matrix])
        assert len(got) == len(want), (t, matrix)
        for vec, w in zip(got, want):
            vec = [_at(x, t) for x in vec]
            d = next(x for x, y in zip(vec, w) if y == 1 and x)
            assert [x / d for x in vec] == w, (t, matrix)
    return got


def test_nullspace_matches_rref_kernel_over_q():
    rng = random.Random(20261019)
    for _ in range(300):
        rows, cols = rng.randint(1, 8), rng.randint(1, 8)
        true_rank = rng.choice([None, 0, 1, 2, 3])
        m = _random_matrix(rng, rows, cols, true_rank, density=rng.choice([0.3, 0.7, 1.0]))
        assert _same_kernel(m), m


def _random_laurent(rng):
    if rng.random() < 0.4:
        return rng.choice([Fraction(0), Laurent(UniPoly((), "t"))])
    coeffs = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(rng.randint(1, 3))]
    return Laurent(UniPoly(coeffs, "t"), rng.randint(0, 2))


def test_nullspace_over_laurent_matrices():
    rng = random.Random("nullspace Q[t, 1/t]")
    zero = Laurent(UniPoly((), "t"))
    for _ in range(80):
        rows, cols = rng.randint(1, 5), rng.randint(1, 6)
        true_rank = rng.choice([None, 1, 2])
        if true_rank is None:
            m = [[_random_laurent(rng) for _ in range(cols)] for _ in range(rows)]
        else:
            left = [[_random_laurent(rng) for _ in range(true_rank)] for _ in range(rows)]
            right = [[_random_laurent(rng) for _ in range(cols)] for _ in range(true_rank)]
            m = [[sum((left[i][k] * right[k][j] for k in range(true_rank)), zero)
                  for j in range(cols)] for i in range(rows)]
        m[0][0] = zero if rng.random() < 0.5 else m[0][0] + zero  # one Laurent entry at least
        _laurent_kernel_checks(m)


@pytest.mark.parametrize("rs", [(1, 1), (2, 1), (3, 1), (4, 1), (2, 2), (3, 2), (2, 3)])
def test_nullspace_matches_rref_kernel_on_curve_matrices(rs):
    """The joint L_1, L_2 matrix of the (r, s) curve module at level rs,
    over Q[t, 1/t]: the kernel is one vector, in the kernel exactly and
    the rref kernel vector at two rational t."""
    params = verma.VermaParams(verma.c_curve(), verma.h_pq_curve(*rs))
    level = rs[0] * rs[1]
    m = linalg.annihilator_rows(
        lambda k, p: verma.apply_L(k, verma.PBWVector.monomial(p), params), partitions_of, level)
    assert len(_laurent_kernel_checks(m)) == 1


def test_nullspace_of_degenerate_shapes():
    assert nullspace([]) == [] and nullspace([], ncols=0) == []
    assert nullspace([], ncols=2) == [[1, 0], [0, 1]]
    assert nullspace([[Fraction(0)] * 2]) == [[1, 0], [0, 1]]
    zero, one = Laurent(UniPoly((), "t")), Laurent(UniPoly.const(1, "t"))
    assert nullspace([[zero, Fraction(0)]]) == [[one, zero], [zero, one]]
    t = Laurent(UniPoly.gen("t"))
    # over Z[t] the vector is d = 2 times the one with 1 at the free column
    assert nullspace([[Fraction(2, 3), t]]) == [[-3 * t, 2]]
    assert nullspace([[one / t, Fraction(1)]]) == [[-t, one]]


def test_det_expansion_over_poly_states_matches_leibniz():
    """The Jacobi-Trudi matrix of f = (2, 2, 2), det(c_{f_i - i + j})."""
    c0, c1, c2, c3, c4 = c_coefficients(4)
    m = [[c2, c3, c4], [c1, c2, c3], [c0, c1, c2]]
    leibniz = (
        m[0][0] * m[1][1] * m[2][2]
        + m[0][1] * m[1][2] * m[2][0]
        + m[0][2] * m[1][0] * m[2][1]
        - m[0][0] * m[1][2] * m[2][1]
        - m[0][1] * m[1][0] * m[2][2]
        - m[0][2] * m[1][1] * m[2][0]
    )
    assert leibniz
    assert det_expansion(m) == leibniz
    assert jacobi_trudi((2, 2, 2)) == leibniz


# ----------------------------------------------------------------------
# bareiss_det against the elimination over Fraction coefficients
# ----------------------------------------------------------------------


def _exact_div(a, b):
    """a / b, checked with the ring's own product: BiPoly.exact_div runs
    on the same `_div` as bareiss_det, so its quotient alone would not
    make an independent oracle."""
    if isinstance(a, (UniPoly, BiPoly)):
        q = a.exact_div(b)
        assert q * b == a
        return q
    return a / b


def _bareiss_fraction(matrix):
    """Oracle: Bareiss with the entries' own arithmetic over Q, Q[x] or
    Q[c,h], every coefficient a Fraction (the kernel before integer
    coefficient arrays)."""
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


def _rational(rng, zeros=0.3):
    if rng.random() < zeros:
        return Fraction(0)
    return Fraction(rng.randint(-9, 9), rng.choice([1, 1, 2, 3, 4, 6, 7]))


def _random_entry(rng, ring):
    if ring == "Q":
        return _rational(rng)
    if ring == "Q[x]":
        if rng.random() < 0.2:
            return _rational(rng)  # a constant of Q[x]
        return UniPoly([_rational(rng) for _ in range(rng.randint(0, 3))], "x")
    if rng.random() < 0.2:
        return _rational(rng)  # a constant of Q[c,h]
    degrees = [(rng.randint(0, 2), rng.randint(0, 2)) for _ in range(rng.randint(0, 4))]
    rows = [[0] * 3 for _ in range(3)]
    for i, j in degrees:
        rows[j][i] = _rational(rng, 0)  # the coefficient of c^i h^j
    return BiPoly(rows)


def _same(got, want, ring):
    """Equal, and in the ring the entries live in."""
    kind = {"Q": Fraction, "Q[x]": UniPoly, "Q[c,h]": BiPoly}[ring]
    return type(got) is kind and got == want


@pytest.mark.parametrize("ring", ["Q", "Q[x]", "Q[c,h]"])
def test_bareiss_matches_fraction_oracle_on_random_matrices(ring):
    rng = random.Random(f"bareiss {ring}")
    for _ in range(60 if ring == "Q[c,h]" else 120):
        n = rng.randint(1, 5 if ring == "Q[c,h]" else 6)
        m = [[_random_entry(rng, ring) for _ in range(n)] for _ in range(n)]
        if n > 1 and rng.random() < 0.25:
            m[rng.randrange(n)] = list(m[rng.randrange(n)])  # often singular
        if rng.random() < 0.4:  # symmetric, as Gram matrices are
            for i in range(n):
                for j in range(i):
                    m[i][j] = m[j][i]
        want = _bareiss_fraction(m)
        got = bareiss_det(m)
        assert got == want, m
        if any(not isinstance(x, (int, Fraction)) for row in m for x in row):
            assert _same(got, want, ring), m


def test_bareiss_zero_leading_pivot_swaps_rows_with_sign():
    x = UniPoly.gen("x")
    m = [[0, x + 1, 2], [3, Fraction(1, 2), x], [x, 0, Fraction(-5, 3)]]
    assert bareiss_det(m) == _bareiss_fraction(m) == det_expansion(m)
    assert bareiss_det([[0, 1], [1, 0]]) == -1
    # symmetric, with a zero pivot only after the first step
    m = [[1, 1, 2], [1, 1, x], [2, x, Fraction(1, 3)]]
    assert bareiss_det(m) == _bareiss_fraction(m) == det_expansion(m)
    # rational and symmetric, with a zero pivot only after the first step
    m = [[1, 1, 2], [1, 1, 3], [2, 3, Fraction(1, 3)]]
    assert bareiss_det(m) == _bareiss_fraction(m) == det_expansion(m)
    c, h = BiPoly.gens()
    m = [[BiPoly.const(0), h], [c, Fraction(7, 2)]]
    assert bareiss_det(m) == -c * h


def test_bareiss_sees_symmetry_across_entry_types(monkeypatch):
    """A rational entry mirrors the equal constant polynomial: the matrix
    is symmetric, though their coefficient arrays are a list and a tuple."""
    seen = []
    echelon = linalg._echelon
    monkeypatch.setattr(linalg, "_echelon", lambda m, depth, reduced, sym=False:
                        seen.append(sym) or echelon(m, depth, reduced, sym))
    c, h = BiPoly.gens()
    x = UniPoly.gen("x")
    assert bareiss_det([[c, Fraction(3)], [BiPoly.const(3), h]]) == c * h - 9
    assert bareiss_det([[x, UniPoly.const(0, "x")], [0, x]]) == x * x
    assert seen == [True, True]


def test_bareiss_singular_gives_zero_of_the_ring():
    x = UniPoly.gen("x")
    c, h = BiPoly.gens()
    for m in ([[x, x * x], [1, x]],
              [[0, x], [0, x + 1]],
              [[c, h, 1], [2 * c, 2 * h, 2], [h, c, Fraction(1, 3)]],
              [[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), 1]]):
        det = bareiss_det(m)
        assert not det and det == _bareiss_fraction(m) == 0
    assert type(bareiss_det([[0, x], [0, x + 1]])) is UniPoly
    assert type(bareiss_det([[0, h], [0, c]])) is BiPoly
    # rational and symmetric: the second column has no pivot
    half = Fraction(1, 2)
    det = bareiss_det([[half, 1, 3 * half], [1, 2, 3], [3 * half, 3, 7]])
    assert type(det) is Fraction and det == 0


def test_every_determinant_runs_on_echelon(monkeypatch):
    """`bareiss_det` has no elimination loop of its own: each determinant
    is one forward `_echelon` pass, at the depth of the entries' ring,
    symmetric or not, with or without row swaps."""
    calls = []
    real = linalg._echelon

    def counted(m, depth, reduced, sym=False):
        calls.append((depth, reduced, sym))
        return real(m, depth, reduced, sym)

    monkeypatch.setattr(linalg, "_echelon", counted)
    x = UniPoly.gen("x")
    c, h = BiPoly.gens()
    cases = (
        ([[Fraction(1, 2), 3], [Fraction(-2, 3), 5]], 0, False),  # rational
        ([[x, 1], [x + 1, x * x]], 1, False),                     # Z[x]
        ([[c, h], [1, c * h]], 2, False),                         # Z[c][h]
        ([[2, 1], [1, Fraction(1, 3)]], 0, True),                 # symmetric
        ([[0, 1, 2], [3, 4, 5], [6, 7, 9]], 0, False),            # swapped
    )
    for m, depth, sym in cases:
        calls.clear()
        assert bareiss_det(m) == det_expansion(m)
        assert calls == [(depth, False, sym)], m


def test_bareiss_mixed_denominators_and_constants():
    x = UniPoly.gen("x")
    m = [[x / 6 + Fraction(1, 4), Fraction(2, 9), Fraction(0)],
         [Fraction(-1, 10), x * x / 35, x / 3],
         [7, Fraction(0), x / 8 - Fraction(5, 12)]]
    assert bareiss_det(m) == _bareiss_fraction(m) == det_expansion(m)
    c, h = BiPoly.gens()
    m = [[c / 24 - h / 4, Fraction(1, 3)], [Fraction(0), h * c / 9 + Fraction(1, 2)]]
    assert bareiss_det(m) == _bareiss_fraction(m) == det_expansion(m)


def test_bareiss_degenerate_sizes():
    x = UniPoly.gen("x")
    c, h = BiPoly.gens()
    assert bareiss_det([]) == 1
    assert bareiss_det([[Fraction(-3, 4)]]) == Fraction(-3, 4)
    assert bareiss_det([[Fraction(0)]]) == 0
    assert bareiss_det([[x / 3]]) == x / 3
    assert bareiss_det([[c * h - 1]]) == c * h - 1
    det = bareiss_det([[5]])
    assert type(det) is Fraction and det == 5


def test_bareiss_rejects_other_rings():
    with pytest.raises(TypeError):
        bareiss_det([[Laurent(UniPoly.gen("t"))]])
    with pytest.raises(TypeError):
        bareiss_det([[UniPoly.gen("x"), BiPoly.gens()[0]], [1, 1]])


@pytest.mark.parametrize("level", [1, 2, 3, 4, 5])
def test_bareiss_on_symbolic_gram_matrices(level):
    rows = verma.gram_matrix(level, verma.VermaParams.symbolic()).rows()
    want = _bareiss_fraction(rows)
    got = bareiss_det(rows)
    assert type(got) is BiPoly and got == want


_JANTZEN_PATHS = (
    jantzen.c1_path(Fraction(1, 2)),
    jantzen.c1_path(Fraction(1)),
    jantzen.discrete_path(3, 1, 1),
    jantzen.discrete_path(3, 2, 1),
    jantzen.discrete_path(3, 2, 2),
)


@pytest.mark.parametrize("case", range(len(_JANTZEN_PATHS)))
def test_bareiss_on_acceptance_jantzen_families(case):
    path, label = _JANTZEN_PATHS[case]
    for level in range(1, 7):
        rows = jantzen.gram_family(path, level, label).rows()
        assert bareiss_det(rows) == _bareiss_fraction(rows)


def test_exact_division_checks_every_remainder():
    assert linalg._div([-1, 0, 1], [1, 1], 1) == [-1, 1]  # (x^2 - 1)/(x + 1)
    for a, b, depth in (([1, 0, 1], [1, 1], 1),    # x^2 + 1 by x + 1
                        ([3, 1], [2, 1], 1),       # remainder in the constant term
                        ([1], [0, 1], 1),          # lower degree than the divisor
                        ([[2, 1]], [[0, 2]], 2),   # (2 + c) by 2c in Z[c][h]
                        (7, 2, 0)):
        with pytest.raises(ArithmeticError):
            linalg._div(a, b, depth)


@pytest.mark.parametrize("level", [3, 4])
def test_corrupted_pivot_raises(level, monkeypatch):
    """Mutation check: an off-by-one previous pivot is caught by the
    remainder check of the exact division, never rounded away."""
    real = linalg._div

    def corrupted(a, b, depth):
        if depth == 2:
            low = b[0]  # the h^0 coefficient, in Z[c]
            b = [[(low[0] if low else 0) + 1] + low[1:]] + b[1:]
        return real(a, b, depth)

    monkeypatch.setattr(linalg, "_div", corrupted)
    with pytest.raises(ArithmeticError):
        bareiss_det(verma.gram_matrix(level, verma.VermaParams.symbolic()).rows())
