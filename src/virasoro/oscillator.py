"""Heisenberg oscillator modules with their Virasoro action.

States are polynomials in x_1, x_2, ... with deg x_n = n; the mode
algebra [b_m, b_n] = kappa m delta_{m+n,0} acts by

    b_{-n} = x_n * ,   b_n = kappa n d/dx_n  (n > 0),   b_0 = mu_0,

and the quadratic Virasoro generators L_k = (1/2 kappa) sum :b_r b_s:
(r + s = k) give central charge 1 with lowest energy mu_0^2 / (2 kappa).
Two normalisations ship: kappa = 1 for a single free boson and kappa = 2
for the difference boson of a two-factor system, where the charge
operator reads mu_0 / 2 and singular vectors sit at energies (k + m)^2.

The determinantal singular vectors (Goldstone vectors) are built from
the coefficients c_n of exp(sum_{n>0} x_n z^n / n) via Jacobi-Trudi
determinants over rectangular signatures.

This module owns the two constructions every free-boson module here
shares, and the Fock space imports them: `sugawara`, the normal-ordered
quadratic sum L_k = w sum_{r+s=k} :X_r X_s: over any boson modes X_n,
and `exp_series`, the coefficients of exp(c sum_{n>0} z^n X_n / n) by
Newton's identity (which also gives c_n, with X_n = x_n).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import zip_longest
from math import factorial
from typing import NamedTuple

from .combinat import as_signature, partitions_of, transpose
from .linalg import annihilator_kernel, det_expansion
from .scalars import SparseVector, UniPoly, UsageError, accumulate, as_fraction, render_scalar


class OscParams(NamedTuple):
    """Mode normalisation kappa and b_0 eigenvalue mu_0 on the vacuum."""

    kappa: Fraction
    mu0: object

    @classmethod
    def single(cls, mu0) -> "OscParams":
        return cls(Fraction(1), mu0)

    @classmethod
    def charge_sector(cls, charge) -> "OscParams":
        """kappa = 2 sector with H(0)-charge `charge`, i.e. mu_0 = 2*charge."""
        return cls(Fraction(2), as_fraction(charge) * 2)


def _trim(exps) -> tuple:
    exps = tuple(exps)
    while exps and exps[-1] == 0:
        exps = exps[:-1]
    return exps


class PolyState(SparseVector):
    """Polynomial in x_1, x_2, ...; keys are trimmed exponent tuples."""

    __slots__ = ()

    def __init__(self, terms=None):
        self.terms = accumulate({}, ((_trim(k), v) for k, v in dict(terms or {}).items()))

    @classmethod
    def one(cls) -> "PolyState":
        return cls({(): Fraction(1)})

    def degree(self) -> int:
        """Weighted degree (energy above the sector minimum); homogeneous only."""
        degs = {_weighted_degree(k) for k in self.terms}
        if not degs:
            return 0
        if len(degs) > 1:
            raise ValueError(f"inhomogeneous state with degrees {sorted(degs)}")
        return degs.pop()

    def coeff(self, exps):
        return self.terms.get(_trim(exps), Fraction(0))

    def __mul__(self, other):
        if not isinstance(other, PolyState):
            return NotImplemented
        return PolyState(accumulate({}, (
            (tuple(a + b for a, b in zip_longest(k1, k2, fillvalue=0)), v1 * v2)
            for k1, v1 in self.terms.items()
            for k2, v2 in other.terms.items()
        )))

    def __repr__(self):
        if not self.terms:
            return "PolyState(0)"
        bits = []
        for k in sorted(self.terms):
            mono = "*".join(
                f"x{i+1}" if e == 1 else f"x{i+1}^{e}"
                for i, e in enumerate(k)
                if e
            ) or "1"
            bits.append(f"{render_scalar(self.terms[k])}*{mono}")
        return "PolyState(" + " + ".join(bits) + ")"


def _weighted_degree(exps) -> int:
    return sum((i + 1) * e for i, e in enumerate(exps))


def _times_x(n: int, exps) -> tuple:
    """x_n times the monomial `exps`, as its one (monomial, 1) pair."""
    exps += (0,) * (n - len(exps))
    return ((exps[: n - 1] + (exps[n - 1] + 1,) + exps[n:], 1),)


def mode_apply(n: int, state: PolyState, params: OscParams) -> PolyState:
    """Action of the mode b_n."""
    if n == 0:
        return state.scale(params.mu0)
    if n < 0:
        return state.apply_linear(lambda exps: _times_x(-n, exps))

    def lower(exps):
        e = exps[n - 1] if len(exps) >= n else 0
        if e:
            yield _trim(exps[: n - 1] + (e - 1,) + exps[n:]), params.kappa * n * e

    return state.apply_linear(lower)


def sugawara(k: int, vec, mode, weight, depth):
    """The quadratic Sugawara operator L_k = weight * sum_{r+s=k} :X_r X_s:.

    `mode(n, vec)` applies the boson mode X_n to a SparseVector, and
    `depth(key)` is the excitation of a basis key, above which every
    annihilator X_n (n > 0) kills it.  For k = 0 the sum is
    weight * X_0^2 + 2 weight * sum_{n>0} X_{-n} X_n, the energy.
    """
    if not vec:
        return vec
    top = max(depth(key) for key in vec.terms)
    total = {}
    # unordered pairs {r, s}, r + s = k, r <= s; the annihilating factor
    # (the larger index) is applied first, which keeps every step finite
    for r in range(k - top, k // 2 + 1):
        s = k - r
        inner = mode(s, vec)
        if inner:
            accumulate(total, mode(r, inner).terms, weight if r == s else 2 * weight)
    return type(vec)._wrap(total)


def virasoro_apply(k: int, state: PolyState, params: OscParams) -> PolyState:
    """Sugawara action L_k = (1/2 kappa) sum_{r+s=k} :b_r b_s:."""
    return sugawara(k, state, lambda n, v: mode_apply(n, v, params),
                    Fraction(1, 2) / params.kappa, _weighted_degree)


def exp_series(table, step: int, c: int, series: list, order: int) -> list:
    """Extend `series` = [P_0, ...] in place to [P_0, ..., P_order] and
    return it, where P_u = u! S_u v and
    sum_u S_u z^u = exp(c sum_{n>0} z^n X_n / n).

    X_n is the operator `table(step * n, state)` (an iterable of
    (state, coefficient) pairs), v = P_0 is a tuple of (state,
    coefficient) pairs, and so is each P_u appended.  The X_n
    commute, so Newton's identity u S_u = c sum_{n=1..u} X_n S_{u-n}
    (Macdonald, Symmetric Functions, I.2) gives each coefficient from the
    lower ones exactly, with no sum over partitions.  In the scaled form
    P_u = c sum_{n=1..u} (u-1)!/(u-n)! X_n P_{u-n} it stays in the
    integers when c, v and the X_n are integral.
    """
    for u in range(len(series), order + 1):
        acc = {}
        weight = c                       # c (u-1)!/(u-n)!
        for n in range(1, u + 1):
            for st, coeff in series[u - n]:
                accumulate(acc, table(step * n, st), weight * coeff)
            weight *= u - n
        series.append(tuple(acc.items()))
    return series


def level_basis(level: int):
    """Monomials of weighted degree `level` in bijection with partitions:
    a partition with m_i parts of size i maps to x_i^{m_i}."""
    out = []
    for part in partitions_of(level):
        if part:
            exps = [0] * part[0]
            for p in part:
                exps[p - 1] += 1
            out.append(tuple(exps))
        else:
            out.append(())
    return out


def singular_kernel_osc(params: OscParams, level: int) -> list:
    """Joint kernel of L_1 and L_2 on the weighted-degree-`level` slice.

    Raises if the kernel has dimension two or more, which would violate
    the uniqueness of oscillator singular vectors.
    """
    if level < 1:
        return []
    kernel = annihilator_kernel(
        lambda k, b: virasoro_apply(k, PolyState({b: Fraction(1)}), params), level_basis, level)
    if len(kernel) > 1:
        raise RuntimeError(
            f"oscillator singular space at level {level} has dimension {len(kernel)}"
        )
    return [PolyState(dict(zip(level_basis(level), vec))) for vec in kernel]


def c_coefficients(top: int) -> list:
    """[c_0, ..., c_top] in exp(sum_{n>0} x_n z^n / n) = sum c_n z^n, from
    one Newton series."""
    series = exp_series(_times_x, 1, 1, [(((), 1),)], top)[:top + 1]
    return [PolyState._wrap({exps: Fraction(p, factorial(n)) for exps, p in terms})
            for n, terms in enumerate(series)]


def jacobi_trudi(f) -> PolyState:
    """X_f = det(c_{f_i - i + j}) expanded as a polynomial state, with
    c_n = 0 for n < 0."""
    f = as_signature(f)
    n = len(f)
    if n == 0:
        return PolyState.one()
    c = c_coefficients(f[0] + n - 1)  # the largest index, at i = 0, j = n - 1
    zero = PolyState.zero()
    return det_expansion([[c[k] if k >= 0 else zero for k in range(f[i] - i, f[i] - i + n)]
                          for i in range(n)])


def goldstone_signature(k, m: int, sector: str = "minus"):
    """Rectangular signature of the Goldstone vector at energy (k+m)^2.

    sector "minus": charge -k, m rows of width 2k + m applied to the
    charge -k vacuum; sector "plus": the transposed diagram on the
    charge +k vacuum.
    """
    k = as_fraction(k)
    if m < 0:
        raise UsageError("the Goldstone vector needs m >= 0")
    width = 2 * k + m
    if width.denominator != 1:
        raise UsageError("2k + m must be an integer")
    f = as_signature([int(width)] * m)
    if sector == "minus":
        return f
    if sector == "plus":
        return transpose(f)
    raise UsageError(f"unknown sector {sector!r}")


def goldstone_vector(k, m: int, sector: str = "minus") -> PolyState:
    """X_f on the appropriate charge-sector vacuum (as a polynomial)."""
    return jacobi_trudi(goldstone_signature(k, m, sector))


def goldstone_params(k, sector: str = "minus") -> OscParams:
    k = as_fraction(k)
    charge = -k if sector == "minus" else k
    return OscParams.charge_sector(charge)


def binomial_poly(a: int, var: str = "mu") -> UniPoly:
    """binom(mu + a - 1, a) = mu (mu+1) ... (mu+a-1) / a! as a polynomial."""
    if a < 0:
        return UniPoly.const(0, var)
    out = UniPoly.const(Fraction(1, factorial(a)), var)
    mu = UniPoly.gen(var)
    for s in range(a):
        out = out * (mu + s)
    return out


def binom_det(f, mu):
    """det binom(mu + f_i - i + j - 1, f_i - i + j) over Q[mu].

    `mu` may be rational or the symbolic UniPoly generator.
    """
    f = as_signature(f)
    n = len(f)
    if n == 0:
        return Fraction(1) if not isinstance(mu, UniPoly) else UniPoly.const(1, mu.var)
    var = mu.var if isinstance(mu, UniPoly) else "mu"
    mat = []
    for i in range(n):
        row = []
        for j in range(n):
            poly = binomial_poly(f[i] - (i + 1) + (j + 1), var)
            row.append(poly(mu) if not isinstance(mu, UniPoly) else poly)
        mat.append(row)
    return det_expansion(mat)


def rect_binom_product(width: int, depth: int, lam):
    """prod_{j<=width} prod_{i<=depth} (lam - i + j) / (width + i - j),
    the closed form of binom_det on a depth x width rectangle (width >= depth)."""
    if width < depth:
        raise ValueError("the closed form needs width >= depth")
    num = Fraction(1) if not isinstance(lam, UniPoly) else UniPoly.const(1, lam.var)
    den = Fraction(1)
    for j in range(1, width + 1):
        for i in range(1, depth + 1):
            num = num * (lam - i + j)
            den = den * Fraction(width + i - j)
    return num / den


def l1_power_pairing(f, charge) -> Fraction:
    """(1/|f|!) L_1^{|f|} applied to X_f on the charge-sector vacuum.

    Returns the scalar multiple of the vacuum; equals
    binom_det(f, 2*charge).  A nonscalar remainder is a grading bug and
    raises.
    """
    f = as_signature(f)
    size = sum(f)
    params = OscParams.charge_sector(charge)
    state = jacobi_trudi(f)
    for _ in range(size):
        state = virasoro_apply(1, state, params)
    if state.is_zero():
        return Fraction(0)
    if set(state.terms) != {()}:
        raise AssertionError("L_1 powers did not reduce X_f to a scalar")
    return state.terms[()] / factorial(size)
