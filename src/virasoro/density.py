"""Density modules and the degree-d obstruction polynomial a_d.

The density module V_{lambda,mu} has basis v_n (n in Z) with the
c = 0 Virasoro action l_k v_n = -(n + lambda*k + mu) v_{n+k}.  The
normalised singular element P_d of M(1, j^2) (d = 2j+1, coefficient of
L_{-1}^d equal to 1) acts on v_0 as a_d(lambda, mu) v_{-d}; the closed
product forms of that polynomial and an independent spin-chain
determinant evaluation are implemented alongside the direct evaluation,
so each can be checked against the others.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .linalg import det_expansion
from .scalars import SparseVector, as_fraction
from .singular import SpinModule, bdiz_singular, specialize_curve_vector
from .verma import PBWVector


class DensityVector(SparseVector):
    """Finite support vector in V_{lambda,mu}, n -> coefficient of v_n."""

    __slots__ = ()


def density_apply(k: int, w: DensityVector, lam, mu) -> DensityVector:
    """l_k w by linear extension of l_k v_n = -(n + lam*k + mu) v_{n+k}."""
    return w.apply_linear(lambda n: {n + k: -(lam * k + mu + n)})


# Entries kept by singular_element, one per spin j; the acceptance gate
# fills it to 9.
SINGULAR_CACHE_SIZE = 1 << 5


@lru_cache(maxsize=SINGULAR_CACHE_SIZE)
def singular_element(j) -> PBWVector:
    """P_d for M(1, j^2): the curve singular element at t = 1, with
    rational coefficients and L_{-1}^d coefficient 1."""
    return specialize_curve_vector(bdiz_singular(as_fraction(j)), 1)


def evaluate_ad(p: PBWVector, lam, mu):
    """Apply the level-d element p (L_{-k} acting as l_{-k}) to v_0.

    The result must be supported on v_{-d}; its coefficient is returned.
    Intermediate supports are asserted to be singletons, which is the
    grading statement that each monomial pushes v_0 straight down.
    """
    d = p.level()

    def image(part):
        w = DensityVector({0: Fraction(1)})
        for k in reversed(part):  # rightmost factor of the monomial acts first
            w = density_apply(-k, w, lam, mu)
            if len(w.terms) > 1:
                raise AssertionError("density action spread a monomial over several v_n")
        for n in w.terms:
            if n != -d:
                raise AssertionError(f"monomial landed on v_{n}, expected v_{-d}")
        return w.coeff(-d)

    return sum((coeff * image(part) for part, coeff in p.terms.items()), Fraction(0))


def ad_direct(j, lam, mu):
    """a_d(lambda, mu) by direct density-module evaluation of P_d."""
    return evaluate_ad(singular_element(j), lam, mu)


def spin_range(j) -> list:
    """S = {-j, -j+1, ..., j} as Fractions."""
    j = as_fraction(j)
    d = int(2 * j) + 1
    return [-j + k for k in range(d)]


def ff_product(j, p, mu):
    """The closed product form of a_d(p^2, mu), for rational p >= 0:
    (-1)^d prod_{k in S} (mu + j^2 - (k + p)^2).  Its cases lambda = 0
    and lambda = 1 are p = 0 and p = 1."""
    j, p = as_fraction(j), as_fraction(p)
    total = Fraction(-1) ** (int(2 * j) + 1)
    for k in spin_range(j):
        total = total * (mu + j * j - (k + p) ** 2)
    return total


def ff_product_squared(j, lam, mu):
    """The closed product form of a_d(lambda, mu)^2, for every lambda:
    prod_{k in S} ((lambda - mu - j^2 + k^2)^2 - 4 k^2 lambda)."""
    j = as_fraction(j)
    total = Fraction(1)
    for k in spin_range(j):
        total = total * ((lam - mu - j * j + k * k) ** 2 - 4 * (k * k) * lam)
    return total


def appc_determinant(j, p, mu):
    """a_d(p^2, mu) as the determinant of the spin-chain transfer matrix.

    The matrix, in the basis v_{-j}, ..., v_j, is

        D = -F + sum_{m=0}^{2j} (-E)^m diag_i(i + lambda (m+1) - mu)

    with lambda = p^2, and det D = a_d(p^2, mu) exactly (the chain
    recurrence is the triangular solve of the same system).
    """
    j = as_fraction(j)
    two_j = int(2 * j)
    spin = SpinModule(two_j)
    lam = as_fraction(p) ** 2
    dim = spin.dim
    zero_entry = mu * 0
    mat = [[zero_entry for _ in range(dim)] for _ in range(dim)]
    for i in range(dim - 1):
        mat[i][i + 1] = mat[i][i + 1] - 1  # the -F superdiagonal
    for m in range(two_j + 1):
        # (-E)^m is (-1)^m e_power_factor(col, m) at (col + m, col), else 0
        for col in range(dim - m):
            g = (-1) ** m * spin.e_power_factor(col, m)
            mat[col + m][col] = mat[col + m][col] + g * (col + lam * (m + 1) - mu)
    return det_expansion(mat)
