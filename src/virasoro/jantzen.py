"""Jantzen filtrations of one-parameter Gram-matrix families.

A family A(x) = sum_i A_i x^i of symmetric matrices (the Shapovalov form
along a curve through a degenerate point) induces the filtration

    V^(m) = { v(0) : v(x) polynomial, A(x) v(x) = 0 mod x^m },

and the order of x = 0 as a root of det A(x) equals sum_{i>=1} dim V^(i).
V^(1) is the plain kernel of A_0; for deeper steps the witnessing section
may need x-corrections, so V^(m) is read off the kernel K_m of the
block-Toeplitz system T_m: sum_{i+j=k} A_i v_j = 0 (k < m), rather than
from the intersection of the ker A_i alone.  (The plain intersection
undercounts: at c = 1, j = 1/2, level 6 it gives 5 where the determinant
order is 6, because the depth-two singular vector only annihilates A_1
after a correction.)  K_m projects onto V^(m) by v -> v_0, and the
kernel of that projection, the sections with v_0 = 0, is K_{m-1} shifted
by one block.  So dim V^(m) = dim K_m - dim K_{m-1} = n - (rank T_m -
rank T_{m-1}), and the filtration needs only ranks over Q, at most
ord det + 1 of them.

Two path families are supported: central-charge paths (1 + x, j^2) and
weight paths (c(m), h_{r,s}(m) + x).  For j = 0 the c-path is degenerate
at every positive level (the linear Kac factor vanishes identically along
it), so the weight path (1, x) is used instead; reports flag the switch.
`kac_module` is the one place that maps a family label to its module:
(c, h), the path, the singular-chain levels and the closed character.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, NamedTuple

from .combinat import QSeries, num_partitions, partitions_of
from .linalg import bareiss_det, rank, sum_entries
from .scalars import UniPoly, UsageError, as_fraction
from .singular import c1_chain_levels, discrete_chain_levels
from .verma import PBWVector, VermaParams, central_charge, gram_matrices, h_pq


class DegenerateFamilyError(ValueError):
    """The family determinant vanishes identically; no filtration exists."""


class MatrixFamily(NamedTuple):
    level: int
    entries: tuple  # tuple of tuples of UniPoly in x
    provenance: str

    def rows(self):
        return [list(r) for r in self.entries]

    @property
    def dim(self) -> int:
        return len(self.entries)


class Filtration(NamedTuple):
    dims: tuple  # dim V^(0), dim V^(1), ... down to the first zero

    def depth_sum(self) -> int:
        return sum(self.dims[1:])


def _as_x_poly(value, var="x") -> UniPoly:
    if isinstance(value, UniPoly):
        return value
    return UniPoly.const(as_fraction(value), var)


def gram_family(path, level: int, provenance: str = "") -> MatrixFamily:
    """The level Gram matrix along a polynomial path (c(x), h(x)): the path
    is itself the Verma parameter, whose Gram matrices gram_matrices
    builds on Z[x] arrays; every entry, zeros included, as a UniPoly."""
    return _gram_families(path, level, provenance, low=level)[0]


def _gram_families(path, n_max: int, provenance: str, low: int) -> list:
    """The families of levels low..n_max from one gram_matrices build."""
    c_path, h_path = (_as_x_poly(p) for p in path)
    label = provenance or f"c(x)={c_path.render()}, h(x)={h_path.render()}"
    return [MatrixFamily(g.level, tuple(tuple(map(_as_x_poly, row)) for row in g.entries), label)
            for g in gram_matrices(n_max, VermaParams(c_path, h_path))[low:]]


def c1_path(j):
    """The path through (1, j^2); the weight path (1, x) when j = 0."""
    j = as_fraction(j)
    x = UniPoly.gen("x")
    if j == 0:
        return (UniPoly.const(1, "x"), x), "c=1, h=x (weight path; c-path degenerate at j=0)"
    return (1 + x, UniPoly.const(j * j, "x")), f"c=1+x, h={j * j}"


def discrete_path(m: int, r: int, s: int):
    _check_kac_label(m, r, s)
    x = UniPoly.gen("x")
    h0 = h_pq(r, s, m)
    return (UniPoly.const(central_charge(m), "x"), h0 + x), (
        f"c={central_charge(m)}, h={h0}+x"
    )


def coefficient_matrices(family: MatrixFamily):
    """The rational matrices A_i of A(x) = sum A_i x^i."""
    top = max((e.degree for row in family.entries for e in row), default=0)
    return [[[e.coeffs[i] if i <= e.degree else Fraction(0) for e in row]
             for row in family.entries] for i in range(top + 1)]


def jantzen_filtration(family: MatrixFamily, det=None) -> Filtration:
    """The filtration dims as rank differences of the block-Toeplitz
    matrices T_m; `det` is det A(x) when the caller has already computed it.

    T_m has A_{i-j} in block row i and block column j <= i (i, j < m), and
    dim V^(m) = n - (rank T_m - rank T_{m-1}).  As the dims sum to
    ord det, at most ord det + 1 depths are run; a filtration that overran
    them would break the order identity its callers check.
    """
    if det is None:
        det = bareiss_det(family.rows())
    if det.is_zero():
        raise DegenerateFamilyError(
            f"det A(x) vanishes identically for {family.provenance} at level {family.level}"
        )
    mats = coefficient_matrices(family)
    n = family.dim
    zeros = [Fraction(0)] * n
    dims, prev = [n], 0
    for m in range(1, det.order_at_zero() + 2):
        toeplitz = [[x for j in range(m)
                     for x in (mats[i - j][r] if 0 <= i - j < len(mats) else zeros)]
                    for i in range(m) for r in range(n)]
        now = rank(toeplitz)
        if now - prev == n:
            break
        dims.append(n - (now - prev))
        prev = now
    dims.append(0)
    return Filtration(tuple(dims))


def det_order_filtration(family: MatrixFamily):
    """(order of x=0 in det A(x), the filtration) from one determinant;
    the order and the filtration dims are computed independently, so the
    caller can assert order == filtration.depth_sum()."""
    det = bareiss_det(family.rows())
    return det.order_at_zero(), jantzen_filtration(family, det)


def level_filtrations(path, label: str, n_max: int) -> list:
    """(det order, filtration) of the path's Gram family at each level
    1..n_max, one Gram build for all levels and one determinant per level
    (see det_order_filtration)."""
    return [det_order_filtration(fam) for fam in _gram_families(path, n_max, label, low=1)]


def det_order_identity(family: MatrixFamily):
    """(order of x=0 in det A(x), sum of filtration dims)."""
    order, filt = det_order_filtration(family)
    return order, filt.depth_sum()


class KacModule(NamedTuple):
    """M(c, h) of a family label: its rational parameters, the Jantzen
    path through them with its label, `chain(n)`, the singular-chain
    levels within 1..n, and `signs(n)`, the (level, +-1) terms within
    0..n of the closed character q^h phi(q) sum +-q^level."""

    params: VermaParams
    path: tuple  # ((c(x), h(x)), label)
    chain: Callable
    signs: Callable

    def phi_times(self, terms, n_max: int) -> QSeries:
        """q^h phi(q) sum sign q^level over the (level, sign) terms, to
        relative level n_max: the one product by phi(q)."""
        _check_order(n_max)
        coeffs = [0] * (n_max + 1)
        for lvl, sign in terms:
            for n in range(lvl, n_max + 1):
                coeffs[n] += sign * num_partitions(n - lvl)
        return QSeries(coeffs, self.params.h, n_max)


def kac_module(case: str, *, j=None, m=None, r=None, s=None) -> KacModule:
    """The module of a family label, checked once; a UsageError outside
    the family.  "c1": M(1, j^2), j a non-negative half-integer, with
    chain levels k(k + 2j), k >= 1, and character q^{j^2} phi(q)
    (1 - q^{2j+1}).  "discrete": the (m; r, s) module, (r, s) in the Kac
    table, with chain levels (r + am)(s + a(m+1)), a in Z, and character

        q^h phi(q) sum_{k in Z} (q^{l+(k)} - q^{l-(k)}),
        l+(k) = k^2 m(m+1) + k (r(m+1) - s m),
        l-(k) = r s + k^2 m(m+1) + k (r(m+1) + s m),

    the relative levels of the two chains of submodule generators.
    """
    if case == "c1":
        j = _c1_spin(j)
        return KacModule(VermaParams.rational(1, j * j), c1_path(j),
                         lambda n: [lvl for lvl in c1_chain_levels(j, n) if lvl <= n],
                         lambda n: [t for t in ((0, 1), (int(2 * j) + 1, -1)) if t[0] <= n])
    if case == "discrete":
        path = discrete_path(m, r, s)
        period, a_minus, a_plus = m * (m + 1), r * (m + 1) - s * m, r * (m + 1) + s * m
        return KacModule(
            VermaParams.rational(central_charge(m), h_pq(r, s, m)), path,
            lambda n: discrete_chain_levels(m, r, s, n),
            lambda n: [(lvl, sign) for k in range(-n - 1, n + 2)
                       for lvl, sign in ((k * k * period + k * a_minus, 1),
                                         (r * s + k * k * period + k * a_plus, -1))
                       if 0 <= lvl <= n])
    raise UsageError(f"unknown module case {case!r}; valid: c1, discrete")


def character_formula(case: str, n_max: int, *, j=None, m=None, r=None, s=None) -> QSeries:
    """Closed-form irreducible character, truncated at relative level n_max."""
    module = kac_module(case, j=j, m=m, r=r, s=s)
    return module.phi_times(module.signs(n_max), n_max)


def character_sum_closed(case: str, n_max: int, *, j=None, m=None, r=None, s=None) -> QSeries:
    """The closed degeneracy sum q^h phi(q) sum_{chain levels} q^level to
    relative level n_max, which `filtration_character_sum` must equal."""
    module = kac_module(case, j=j, m=m, r=r, s=s)
    return module.phi_times([(lvl, 1) for lvl in module.chain(n_max)], n_max)


def filtration_character_sum(case: str, n_max: int, *, j=None, m=None, r=None, s=None) -> QSeries:
    """sum_{i>=1} ch M^(i) assembled level by level from filtration dims.

    Returned with leading exponent equal to the lowest weight of the
    module, coefficients indexed by relative level.
    """
    module = kac_module(case, j=j, m=m, r=r, s=s)
    _check_order(n_max)
    coeffs = [0] + [filt.depth_sum() for _, filt in level_filtrations(*module.path, n_max)]
    return QSeries(coeffs, module.params.h, n_max)


def _c1_spin(j) -> Fraction:
    """j as a Fraction; a UsageError unless j is a non-negative half-integer."""
    if j is None:
        raise UsageError("the c = 1 module needs its spin j")
    j = as_fraction(j)
    if j < 0 or (2 * j).denominator != 1:
        raise UsageError(f"the c = 1 characters need j a non-negative half-integer, got {j}")
    return j


def _check_order(n_max: int) -> None:
    if n_max < 0:
        raise UsageError(f"a character is truncated at an order n >= 0, got {n_max}")


def _check_kac_label(m: int, r: int, s: int) -> None:
    if None in (m, r, s):
        raise UsageError(f"a discrete-series module needs m, r and s, got {(m, r, s)}")
    h_pq(r, s, m)  # rejects m < 2
    if not (1 <= r < m and 1 <= s <= m):
        raise UsageError(f"(r, s) = ({r}, {s}) lies outside the Kac table 1 <= r < m, 1 <= s <= m")


def norm_vanishing_order(vector: PBWVector, family: MatrixFamily) -> int:
    """Order of the zero of (v, v)_x along the family, for a fixed vector."""
    basis = partitions_of(family.level)
    coords = [vector.coeff(p) for p in basis]
    norm = UniPoly.const(0, "x")
    for i, row in enumerate(family.entries):
        if coords[i] == 0:
            continue
        norm = norm + coords[i] * sum_entries(row, coords)
    order = norm.order_at_zero()
    if order is None:
        raise ValueError("the norm vanishes identically along the family")
    return order
