import time
from fractions import Fraction

import pytest

from virasoro.jantzen import kac_module
from virasoro import linalg
from virasoro.scalars import Laurent, UniPoly
from virasoro.singular import (
    SpinModule,
    bdiz_singular,
    check_singular,
    curve_params_at,
    curve_singular,
    singular_chain,
    singular_kernel,
    specialize_curve_vector,
)
from virasoro.verma import PBWVector, VermaParams, c_curve, h_pq_curve

HALF = Fraction(1, 2)


def test_kernel_examples():
    found = singular_kernel(VermaParams.rational(1, Fraction(1, 4)), 2)
    assert len(found) == 1
    assert found[0] == PBWVector({(1, 1): 1, (2,): -1})

    found = singular_kernel(VermaParams.rational(1, 0), 1)
    assert len(found) == 1
    assert found[0] == PBWVector.monomial((1,))

    generic = VermaParams.rational(2, 5)
    for level in (1, 2, 3, 4):
        assert singular_kernel(generic, level) == []


def _spin_matrices(spin):
    """E, F and H of a SpinModule as matrices in the basis v_{-j}, ..., v_j:
    E v_{-j+i} = e_step(i) v_{-j+i+1}, F v_{-j+i} = v_{-j+i-1}."""
    dim = spin.dim
    E = [[spin.e_step(j) if i == j + 1 else 0 for j in range(dim)] for i in range(dim)]
    F = [[int(j == i + 1) for j in range(dim)] for i in range(dim)]
    H = [[spin.h_eigenvalue(i) if i == j else 0 for j in range(dim)] for i in range(dim)]
    return E, F, H


def test_spin_module_relations():
    for two_j in (1, 2, 3, 4):
        spin = SpinModule(two_j)
        E, F, H = _spin_matrices(spin)
        dim = two_j + 1
        for i in range(dim):
            for j in range(dim):
                ef = sum(E[i][k] * F[k][j] for k in range(dim))
                fe = sum(F[i][k] * E[k][j] for k in range(dim))
                want = 2 * H[i][j]
                assert ef - fe == want
        # E^{2j} maps the lowest vector to ((2j)!)^2 times the highest
        from math import factorial

        assert spin.e_power_factor(0, two_j) == Fraction(factorial(two_j)) ** 2
        # E^m is the one subdiagonal m below the diagonal, with entries
        # e_power_factor(col, m)
        power = [[int(i == j) for j in range(dim)] for i in range(dim)]
        for m in range(dim + 1):
            for i in range(dim):
                for j in range(dim):
                    want = spin.e_power_factor(j, m) if i == j + m else 0
                    assert power[i][j] == want
            power = [[sum(E[i][k] * power[k][j] for k in range(dim)) for j in range(dim)]
                     for i in range(dim)]


def test_bdiz_small_spins():
    t = UniPoly.gen()
    assert bdiz_singular(0) == PBWVector.monomial((1,))
    b_half = bdiz_singular(HALF)
    assert b_half.coeff((1, 1)) == 1
    assert b_half.coeff((2,)) == -t
    b_one = bdiz_singular(1)
    assert b_one.coeff((1, 1, 1)) == 1
    # top coefficient: magnitude ((2j)!)^2 = 4 at t^2 on L_{-3}
    top = b_one.coeff((3,))
    assert top.coeffs[2] == 4
    # the constant term in t is exactly L_{-1}^3
    for part, coeff in b_one.terms.items():
        const = coeff.coeffs[0] if coeff.coeffs else 0
        assert (const == 1) == (part == (1, 1, 1))
        assert const == 0 or part == (1, 1, 1)


@pytest.mark.parametrize("two_j", [1, 2, 3, 4])
def test_bdiz_is_singular_at_sample_points(two_j):
    j = Fraction(two_j, 2)
    vec = bdiz_singular(j)
    for t_val in (Fraction(1), Fraction(2), Fraction(-1, 3)):
        params = curve_params_at(t_val, (int(2 * j) + 1, 1))
        sp = specialize_curve_vector(vec, t_val)
        ok, cert = check_singular(sp, params)
        assert ok, (j, t_val, cert)


def test_check_singular_counterexample_and_vacuum():
    params = VermaParams.rational(1, Fraction(1, 4))
    ok, (r1, r2) = check_singular(PBWVector.monomial((2,)), params)
    assert not ok
    assert r1 == PBWVector({(1,): 3})
    ok, _ = check_singular(PBWVector.vacuum(), params)
    assert ok


def test_curve_matches_bdiz_for_first_column():
    for r in (1, 2, 3):
        j = Fraction(r - 1, 2)
        assert curve_singular(r, 1) == bdiz_singular(j)


def test_curve_11_is_lowering_generator():
    assert curve_singular(1, 1) == PBWVector.monomial((1,))


def test_curve_22_specialisation_matches_kernel():
    vec = curve_singular(2, 2)
    point = Fraction(4, 3)  # lands on (c, h) = (1/2, 1/16)
    params = curve_params_at(point, (2, 2))
    assert params == VermaParams.rational(Fraction(1, 2), Fraction(1, 16))
    sp = specialize_curve_vector(vec, point)
    found = singular_kernel(params, 4)
    assert len(found) == 1 and found[0] == sp
    assert check_singular(sp, params)[0]


def test_curve_42_is_fast_and_singular():
    """The fraction-free Z[t] solve: (4, 2) took about two minutes as a
    Gauss-Jordan over Q(t)."""
    start = time.perf_counter()
    vec = curve_singular(4, 2)
    assert time.perf_counter() - start < 2.0
    params = VermaParams(c_curve(), h_pq_curve(4, 2))
    assert check_singular(vec, params)[0] and vec.coeff((1,) * 8) == 1


def test_curve_coefficients_clear_to_polynomials():
    # denominators along the curve are powers of t only: each coefficient
    # is num / t^k, and t^k times it is the polynomial num
    t = UniPoly.gen()
    for rs, top in (((2, 2), 2), ((2, 3), 4), ((3, 2), 3)):
        coeffs = curve_singular(*rs).terms.values()
        assert all(type(c) is Laurent and c * t**c.k == c.num for c in coeffs)
        assert max(c.k for c in coeffs) == top, rs


def test_curve_kernel_quotient_outside_laurent_raises(monkeypatch):
    """The normalisation by the L_{-1}^d entry is the one division of the
    curve route, and it is checked: a kernel vector whose quotient has a
    pole off t = 0 raises instead of passing."""
    t = Laurent(UniPoly.gen())
    params = VermaParams(c_curve(), h_pq_curve(2, 1))
    assert singular_kernel(params, 2) == [PBWVector({(1, 1): 1, (2,): -t})]
    monkeypatch.setattr(linalg, "nullspace", lambda rows, ncols: [[t - 2, t + 3]])
    with pytest.raises(ValueError):
        singular_kernel(params, 2)


def test_uniqueness_of_kernels():
    cases = [
        (VermaParams.rational(1, Fraction(1, 4)), 2),
        (VermaParams.rational(1, 0), 1),
        (VermaParams.rational(Fraction(1, 2), Fraction(1, 16)), 2),
        (VermaParams.rational(Fraction(1, 2), Fraction(1, 16)), 4),
        (VermaParams.rational(Fraction(1, 2), 0), 1),
        (VermaParams.rational(Fraction(1, 2), 0), 6),
        (VermaParams.rational(1, 1), 3),
    ]
    for params, level in cases:
        assert len(singular_kernel(params, level)) == 1, (params, level)


def test_singular_chain_c1():
    module = kac_module("c1", j=0)
    chain = singular_chain(module.params, module.chain(4))
    assert [v.level() for v in chain] == [1, 4]
    for v in chain:
        assert check_singular(v, VermaParams.rational(1, 0))[0]
    assert singular_chain(module.params, module.chain(0)) == []


def test_singular_chain_discrete():
    module = kac_module("discrete", m=3, r=1, s=1)
    chain = singular_chain(module.params, module.chain(8))
    assert [v.level() for v in chain] == [1, 6]
    for v in chain:
        assert check_singular(v, VermaParams.rational(Fraction(1, 2), 0))[0]


def test_chain_product_matches_kernel_vectors():
    from virasoro.singular import chain_product_vector

    for two_j in (0, 1):
        j = Fraction(two_j, 2)
        params = VermaParams.rational(1, j * j)
        for depth in (1, 2):
            vec = chain_product_vector(j, depth)
            level = int((j + depth) ** 2 - j * j)
            assert vec.level() == level
            assert check_singular(vec, params)[0]
            kernel = singular_kernel(params, level)[0]
            lead = vec.coeff((1,) * level)
            assert lead != 0
            assert vec.scale(1 / lead) == kernel
