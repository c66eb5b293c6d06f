import itertools
import random
from collections import Counter
from fractions import Fraction
from math import factorial, prod

import pytest

from virasoro.combinat import num_partitions, partitions_of
from virasoro.oscillator import (
    OscParams,
    PolyState,
    binom_det,
    c_coefficients,
    goldstone_params,
    goldstone_signature,
    goldstone_vector,
    l1_power_pairing,
    level_basis,
    mode_apply,
    rect_binom_product,
    singular_kernel_osc,
    virasoro_apply,
)
from virasoro.scalars import UniPoly

HALF = Fraction(1, 2)


def _x(n: int) -> PolyState:
    """The variable x_n as a polynomial state."""
    return PolyState({(0,) * (n - 1) + (1,): Fraction(1)})


def test_mode_action_examples():
    p = OscParams.single(Fraction(0))
    x2 = _x(2)
    assert virasoro_apply(0, x2, p) == x2.scale(2)
    mu = Fraction(7, 5)
    pm = OscParams.single(mu)
    got = virasoro_apply(1, _x(1), pm)
    assert got == PolyState.one().scale(mu)


def test_defining_relation():
    rng = random.Random(3)
    for kappa in (1, 2):
        p = OscParams(Fraction(kappa), Fraction(rng.randint(-3, 3)))
        state = PolyState({(2, 1): Fraction(3), (0, 0, 1): Fraction(-1)})
        for m in (1, 2, 3):
            comm = mode_apply(m, mode_apply(-m, state, p), p) - mode_apply(
                -m, mode_apply(m, state, p), p
            )
            assert comm == state.scale(Fraction(kappa * m))


def test_virasoro_bracket_both_normalisations():
    state = PolyState({(2, 1): Fraction(1), (0, 0, 1): Fraction(2)})
    for kappa, mu0 in ((1, Fraction(1, 3)), (2, Fraction(2))):
        p = OscParams(Fraction(kappa), mu0)
        for m, n in itertools.product(range(-3, 4), repeat=2):
            lhs = virasoro_apply(m, virasoro_apply(n, state, p), p) - virasoro_apply(
                n, virasoro_apply(m, state, p), p
            )
            rhs = virasoro_apply(m + n, state, p).scale(Fraction(m - n))
            if m + n == 0:
                rhs = rhs.add_into(state.scale(Fraction(m**3 - m, 12)))
            assert lhs == rhs, (kappa, m, n)


def test_level_basis_counts():
    for n in range(7):
        assert len(level_basis(n)) == num_partitions(n)


def test_c_coefficients():
    c = c_coefficients(2)
    assert c[0] == PolyState.one()
    assert c[1] == _x(1)
    x1, x2 = _x(1), _x(2)
    assert c[2] == (x1 * x1).scale(HALF).add_into(x2.scale(HALF))
    assert len(c) == 3
    assert c_coefficients(-1) == []


def _partition_c_coefficient(n):
    """c_n as the sum over partitions lam of n of x^lam / z_lam, with
    z_lam = prod_i i^{m_i} m_i!: the reference for Newton's identity."""
    terms = {}
    for part in partitions_of(n):
        exps = [0] * (part[0] if part else 0)
        for p in part:
            exps[p - 1] += 1
        z_lam = prod(i**m * factorial(m) for i, m in Counter(part).items())
        terms[tuple(exps)] = Fraction(1, z_lam)
    return terms


def test_c_coefficients_match_partition_sum():
    for n, c in enumerate(c_coefficients(8)):
        assert c.terms == _partition_c_coefficient(n), n


def test_goldstone_signatures():
    assert goldstone_signature(0, 1) == (1,)
    assert goldstone_signature(0, 2) == (2, 2)
    assert goldstone_signature(HALF, 1) == (2,)
    assert goldstone_signature(HALF, 1, "plus") == (1, 1)
    with pytest.raises(ValueError):
        goldstone_signature(Fraction(1, 4), 1)


def test_goldstone_small_vectors():
    _, c1, c2, c3 = c_coefficients(3)
    assert goldstone_vector(0, 1) == c1
    x = goldstone_vector(0, 2)
    assert x == (c2 * c2) - (c1 * c3)
    assert goldstone_vector(HALF, 1) == c2


@pytest.mark.parametrize("two_k,m", [(0, 1), (0, 2), (0, 3), (1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (4, 1)])
def test_goldstone_vectors_are_singular(two_k, m):
    k = Fraction(two_k, 2)
    for sector in ("minus", "plus"):
        g = goldstone_vector(k, m, sector)
        p = goldstone_params(k, sector)
        assert virasoro_apply(1, g, p).is_zero()
        assert virasoro_apply(2, g, p).is_zero()
        assert g.degree() == (k + m) ** 2 - k * k


def test_kernel_dimension_pattern():
    # charge-0 sector: singular levels are the perfect squares
    p = OscParams.charge_sector(0)
    for level in range(1, 10):
        found = singular_kernel_osc(p, level)
        assert len(found) == (1 if level in (1, 4, 9) else 0), level
    # charge 1/2: levels m(m+1)
    p = OscParams.charge_sector(HALF)
    for level in range(1, 9):
        found = singular_kernel_osc(p, level)
        assert len(found) == (1 if level in (2, 6) else 0), level
    # generic weight: nothing
    p = OscParams.single(Fraction(1, 3))
    for level in range(1, 5):
        assert singular_kernel_osc(p, level) == []


def test_kernel_matches_goldstone_vector():
    p = OscParams.charge_sector(0)
    found = singular_kernel_osc(p, 1)
    g = goldstone_vector(0, 1)
    # kernel vectors are canonical up to scale; compare projectively
    assert len(found) == 1
    ratio = None
    for key, val in g.terms.items():
        other = found[0].coeff(key)
        assert other != 0
        ratio = ratio or val / other
        assert val == ratio * other


def test_binom_det_examples():
    mu = UniPoly.gen("mu")
    assert binom_det((1,), mu) == mu
    # a single row of width n gives binom(mu - 1 + n, n)
    got = binom_det((4,), mu)
    expect = (mu * (mu + 1) * (mu + 2) * (mu + 3)) / 24
    assert got == expect
    assert binom_det((2, 2), 3) == 6


def test_rect_product_examples():
    lam = UniPoly.gen("lam")
    assert rect_binom_product(3, 1, lam) == binom_det((3,), lam)
    assert rect_binom_product(2, 2, 3) == 6
    with pytest.raises(ValueError):
        rect_binom_product(1, 2, lam)


def test_rect_identity_as_polynomials():
    lam = UniPoly.gen("lam")
    for width in range(1, 6):
        for depth in range(1, width + 1):
            assert binom_det((width,) * depth, lam) == rect_binom_product(width, depth, lam)


def test_rect_zero_at_negative_integers():
    # lambda = -p with 0 < p < depth hits a zero factor
    assert rect_binom_product(3, 3, -1) == 0
    assert rect_binom_product(3, 3, -2) == 0
    assert rect_binom_product(3, 3, -3) != 0


def test_pairing_examples():
    for two_p in range(0, 5):
        p = Fraction(two_p, 2)
        assert l1_power_pairing((1,), p) == two_p
    assert l1_power_pairing((2, 2), Fraction(3, 2)) == 6


def test_pairing_matches_determinant():
    for size in range(1, 6):
        for f in partitions_of(size):
            for two_p in range(0, 5):
                assert l1_power_pairing(f, Fraction(two_p, 2)) == binom_det(f, two_p), (f, two_p)


def test_pairing_vanishing_rule():
    # with 2p boxes of depth available, a diagram deeper than 2p dies
    assert l1_power_pairing((1, 1, 1), 1) == 0
    assert l1_power_pairing((2, 1, 1), 1) == 0
    assert l1_power_pairing((2, 2), 1) != 0
    assert l1_power_pairing((1, 1), 0) == 0


def test_zero_mode_sugawara_and_raising_mode():
    p = OscParams.single(Fraction(0))
    x2 = _x(2)
    assert virasoro_apply(0, x2, p) == x2.scale(2)
    assert mode_apply(-1, PolyState.one(), p) == _x(1)


def test_kernel_pattern_single_boson_normalisation():
    # kappa = 1, vacuum weight zero: singular levels are the squares,
    # the halved-energy bookkeeping of the other normalisation
    p = OscParams(Fraction(1), Fraction(0))
    for level in range(1, 10):
        found = singular_kernel_osc(p, level)
        assert len(found) == (1 if level in (1, 4, 9) else 0), level
