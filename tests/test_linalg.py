import random
from fractions import Fraction

import pytest

from virasoro.linalg import det_expansion, rank, rref
from virasoro.oscillator import c_coefficient, jacobi_trudi


def _rref_rank(matrix):
    if not matrix or not matrix[0]:
        return 0
    return len(rref(matrix)[1])


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


def test_det_expansion_over_poly_states_matches_leibniz():
    """The Jacobi-Trudi matrix of f = (2, 2, 2), det(c_{f_i - i + j})."""
    c0, c1, c2, c3, c4 = (c_coefficient(n) for n in range(5))
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
