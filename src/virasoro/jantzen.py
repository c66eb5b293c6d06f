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

Two path families are supported: the c-path (1 + x, j^2) and the weight
paths (c, h + x).  For j = 0 the c-path is degenerate at every positive
level (the linear Kac factor vanishes identically along it), so the
weight path (1, x), labelled "c=1, h=0+x", is used instead.  `kac_module`
is the one place that maps a family label to its module: (c, h), its
Jantzen paths, the singular-chain levels and the closed characters.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul
from typing import Callable, NamedTuple

from .combinat import QSeries, num_partitions, partitions_of
from .linalg import bareiss_det, rank
from .scalars import UniPoly, UsageError, as_fraction
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


def _as_x_poly(value) -> UniPoly:
    return value if isinstance(value, UniPoly) else UniPoly.const(value)


def gram_family(path, level: int, provenance: str) -> MatrixFamily:
    """The level Gram matrix along a polynomial path (c(x), h(x)): the path
    is itself the Verma parameter, whose Gram matrices gram_matrices
    builds on Z[x] arrays; every entry, zeros included, as a UniPoly."""
    return _gram_families(path, level, provenance, low=level)[0]


def _gram_families(path, n_max: int, provenance: str, low: int) -> list:
    """The families of levels low..n_max from one gram_matrices build."""
    params = VermaParams(*map(_as_x_poly, path))
    return [MatrixFamily(g.level, tuple(tuple(map(_as_x_poly, row)) for row in g.entries), provenance)
            for g in gram_matrices(n_max, params)[low:]]


def _weight_path(c, h):
    """The weight path (c, h + x) through M(c, h), with its label."""
    return (UniPoly.const(c), h + UniPoly.gen()), f"c={c}, h={h}+x"


def c1_path(j):
    """The c-path (1 + x, j^2) through (1, j^2); the weight path (1, x)
    when j = 0, where the c-path is degenerate."""
    j = as_fraction(j)
    if j == 0:
        return _weight_path(1, j)
    return (1 + UniPoly.gen(), UniPoly.const(j * j)), f"c=1+x, h={j * j}"


def discrete_path(m: int, r: int, s: int):
    """The weight path through the (m; r, s) module."""
    _check_kac_label(m, r, s)
    return _weight_path(central_charge(m), h_pq(r, s, m))


def coefficient_matrices(family: MatrixFamily):
    """The rational matrices A_i of A(x) = sum A_i x^i."""
    top = max((e.degree for row in family.entries for e in row), default=0)
    return [[[e.coeffs[i] if i <= e.degree else Fraction(0) for e in row]
             for row in family.entries] for i in range(top + 1)]


def jantzen_filtration(family: MatrixFamily, det) -> Filtration:
    """The filtration dims as rank differences of the block-Toeplitz
    matrices T_m, given det = det A(x).

    T_m has A_{i-j} in block row i and block column j <= i (i, j < m), and
    dim V^(m) = n - (rank T_m - rank T_{m-1}).  As the dims sum to
    ord det, at most ord det + 1 depths are run; a filtration that overran
    them would break the order identity its callers check.
    """
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


def det_order_identity(family: MatrixFamily):
    """(order of x=0 in det A(x), sum of filtration dims)."""
    order, filt = det_order_filtration(family)
    return order, filt.depth_sum()


class KacModule(NamedTuple):
    """M(c, h) of a family label: its rational parameters, the Jantzen
    paths through them keyed by the --path choice, `chain(n)`, the
    singular-chain levels within 1..n, and `signs(n)`, the (level, +-1)
    terms within 0..n of the closed character q^h phi(q) sum +-q^level."""

    params: VermaParams
    paths: dict  # --path choice -> (((c(x), h(x)), label), multiplicity of every det order)
    chain: Callable
    signs: Callable

    @property
    def path(self) -> tuple:
        """The default Jantzen path, ((c(x), h(x)), label)."""
        return self.paths["auto"][0]

    def phi_times(self, terms, n_max: int) -> QSeries:
        """q^h phi(q) sum sign q^level over the (level, sign) terms, to
        relative level n_max: the one product by phi(q)."""
        _check_order(n_max)
        coeffs = [0] * (n_max + 1)
        for lvl, sign in terms:
            for n in range(lvl, n_max + 1):
                coeffs[n] += sign * num_partitions(n - lvl)
        return QSeries(coeffs, self.params.h, n_max)

    def character(self, n_max: int) -> QSeries:
        """The closed irreducible character to relative level n_max."""
        return self.phi_times(self.signs(n_max), n_max)

    def character_sum_closed(self, n_max: int) -> QSeries:
        """The closed degeneracy sum q^h phi(q) sum_{chain levels} q^level to
        relative level n_max, which the series of `filtrations` must equal."""
        return self.phi_times([(lvl, 1) for lvl in self.chain(n_max)], n_max)

    def filtrations(self, n_max: int, choice: str = "auto"):
        """(label, levels, series) along the Jantzen path of the --path
        `choice`: its label; (det order, filtration) at each level 1..n_max,
        from one Gram build and one determinant per level
        (`det_order_filtration`); and sum_{i>=1} ch M^(i), their depth
        sums by relative level.  A choice without a path is a UsageError."""
        if choice not in self.paths:
            raise UsageError(f"this module takes --path {' or '.join(self.paths)}, not {choice}")
        _check_order(n_max)
        (path, label), _ = self.paths[choice]
        levels = [det_order_filtration(fam) for fam in _gram_families(path, n_max, label, low=1)]
        coeffs = [0] + [filt.depth_sum() for _, filt in levels]
        return label, levels, QSeries(coeffs, self.params.h, n_max)


def kac_module(case: str, *, j=None, m=None, r=None, s=None) -> KacModule:
    """The module of a family label, checked once; a UsageError outside
    the family.  "c1": M(1, j^2), j a non-negative half-integer, on the
    weight path and, for j != 0, the c-path, with chain levels
    k(k + 2j), k >= 1, and character q^{j^2} phi(q) (1 - q^{2j+1}).
    "discrete": the (m; r, s) module, (r, s) in the Kac table, on its
    weight path, with character

        q^h phi(q) sum_{k in Z} (q^{l+(k)} - q^{l-(k)}),
        l+(k) = k^2 m(m+1) + k (r(m+1) - s m),
        l-(k) = (r + km)(s + k(m+1)),

    the relative levels of the two chains of submodule generators; the
    l-(k), each >= 1 and distinct, are its chain levels.
    """
    if case == "c1":
        j = _c1_spin(j)
        two_j = int(2 * j)
        weight = _weight_path(1, j * j)
        # at j != 0 the weight path crosses each c = 1 vanishing curve where
        # its quadratic factor is a perfect square, doubling every order; at
        # j = 0 the c-path is degenerate and c1_path is the weight path
        paths = ({"auto": (c1_path(j), 1), "c": (c1_path(j), 1), "h": (weight, 2)} if j
                 else {"auto": (weight, 1), "h": (weight, 1)})
        return KacModule(VermaParams.rational(1, j * j), paths,
                         lambda n: [lvl for k in range(1, n + 1) if (lvl := k * (k + two_j)) <= n],
                         lambda n: [t for t in ((0, 1), (two_j + 1, -1)) if t[0] <= n])
    if case == "discrete":
        path = discrete_path(m, r, s)
        period, a_minus = m * (m + 1), r * (m + 1) - s * m

        def signs(n):
            return [(lvl, sign) for k in range(-n - 1, n + 2)
                    for lvl, sign in ((k * k * period + k * a_minus, 1),
                                      ((r + k * m) * (s + k * (m + 1)), -1))
                    if 0 <= lvl <= n]

        return KacModule(VermaParams.rational(central_charge(m), h_pq(r, s, m)),
                         {"auto": (path, 1)},
                         lambda n: sorted(lvl for lvl, sign in signs(n) if sign < 0), signs)
    raise UsageError(f"unknown module case {case!r}; valid: c1, discrete")


def character_formula(case: str, n_max: int, *, j=None, m=None, r=None, s=None) -> QSeries:
    """Closed-form irreducible character, truncated at relative level n_max."""
    return kac_module(case, j=j, m=m, r=r, s=s).character(n_max)


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
    norm = UniPoly.const(0)
    for i, row in enumerate(family.entries):
        if coords[i] == 0:
            continue
        norm = norm + coords[i] * sum(map(mul, row, coords), Fraction(0))
    order = norm.order_at_zero()
    if order is None:
        raise ValueError("the norm vanishes identically along the family")
    return order
