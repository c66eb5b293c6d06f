import random
from fractions import Fraction

import pytest

from virasoro.density import (
    DensityVector,
    ad_direct,
    appc_determinant,
    density_apply,
    evaluate_ad,
    ff_product,
    ff_product_squared,
    singular_element,
    spin_range,
)
from virasoro.scalars import BiPoly, UniPoly, accumulate
from virasoro.verma import PBWVector

HALF = Fraction(1, 2)
MU = UniPoly.gen("mu")


def test_density_action_examples():
    got = density_apply(0, DensityVector({3: Fraction(1)}), Fraction(2), Fraction(5))
    assert got.terms == {3: -8}
    got = density_apply(-1, DensityVector({0: Fraction(1)}), Fraction(1), Fraction(0))
    assert got.terms == {-1: 1}


def test_density_is_a_witt_representation():
    rng = random.Random(77)
    lam, mu = Fraction(2, 3), Fraction(-1, 5)
    terms = tuple((rng.randint(-3, 3), Fraction(rng.randint(1, 5))) for _ in range(3))
    w = DensityVector(accumulate({}, terms))
    for m in range(-3, 4):
        for n in range(-3, 4):
            lhs = density_apply(m, density_apply(n, w, lam, mu), lam, mu) - density_apply(
                n, density_apply(m, w, lam, mu), lam, mu
            )
            rhs = density_apply(m + n, w, lam, mu).scale(m - n)
            assert lhs == rhs, (m, n)


def test_singular_element_is_normalised():
    for two_j in (0, 1, 2, 3):
        j = Fraction(two_j, 2)
        p = singular_element(j)
        d = two_j + 1
        assert p.level() == d
        assert p.coeff((1,) * d) == 1


def test_ad_j0():
    lam, mu = BiPoly.gens()
    assert ad_direct(0, lam, mu) == lam - mu


def test_ad_half_cases():
    assert ad_direct(HALF, 0, MU) == MU * MU
    assert ad_direct(HALF, 1, MU) == MU * (MU - 2)
    assert ff_product(HALF, 0, MU) == MU * MU
    assert ff_product(HALF, 1, MU) == MU * (MU - 2)


def test_case_d_squares():
    rng = random.Random(99)
    for two_j in (0, 1, 2, 3):
        j = Fraction(two_j, 2)
        for _ in range(5):
            lam = Fraction(rng.randint(-9, 9), rng.randint(1, 7))
            mu = Fraction(rng.randint(-9, 9), rng.randint(1, 7))
            assert ad_direct(j, lam, mu) ** 2 == ff_product_squared(j, lam, mu)


def test_mu_top_coefficient():
    for two_j in (0, 1, 2, 3, 4):
        j = Fraction(two_j, 2)
        d = two_j + 1
        sym = ad_direct(j, *BiPoly.gens())
        assert sym.coeffs[d][0] == Fraction(-1) ** d


def test_appc_determinant_matches_direct():
    for two_j in (0, 1, 2, 3):
        j = Fraction(two_j, 2)
        for p in (0, 1, 2, HALF):
            assert appc_determinant(j, p, MU) == ad_direct(j, p * p, MU)
    # sampled points away from the symbolic check
    for mu in (Fraction(0), Fraction(1), Fraction(7, 3)):
        for two_j in (1, 2, 3):
            j = Fraction(two_j, 2)
            assert appc_determinant(j, 1, mu) == ad_direct(j, 1, mu)


def test_evaluate_ad_rejects_inhomogeneous_support():
    # a non-normalised operator that moves v_0 to the wrong depth
    bad = PBWVector({(1,): 1, (2, 1): 1})
    with pytest.raises(ValueError, match="inhomogeneous"):
        evaluate_ad(bad, Fraction(1), Fraction(0))


def test_primary_obstruction():
    # a_d(1 - lambda, h - j^2) is nonzero exactly when no normalised
    # primary field of type lambda maps the (1, j^2) module to the (1, h)
    # one; generic target weight: no primary field, product of ((t-1)^2 - h)
    def primary_obstruction(j, lam, h):
        return ad_direct(j, 1 - lam, h - j * j)

    h = UniPoly.gen("h")
    got = primary_obstruction(HALF, 0, h)
    expect = UniPoly.const(1, "h")
    for t in spin_range(HALF):
        expect = expect * ((t - 1) ** 2 - h)
    assert got == expect
    # the chain weight (j+1)^2 kills the obstruction
    for two_j in (0, 1, 2):
        j = Fraction(two_j, 2)
        assert primary_obstruction(j, 0, (j + 1) ** 2) == 0
    # j = 0 directly: a_1(1, h) = 1 - h
    assert primary_obstruction(0, 0, h) == 1 - h


def test_spin_range():
    assert spin_range(HALF) == [-HALF, HALF]
    assert spin_range(1) == [-1, 0, 1]
