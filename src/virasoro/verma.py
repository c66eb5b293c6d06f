"""Verma modules for the Virasoro algebra over an exact coefficient ring.

Conventions fixed here and used everywhere else:

* generators satisfy [L_m, L_n] = (m-n) L_{m+n} + delta_{m+n,0} (m^3-m)/12 C;
* the module M(c, h) is generated by xi with L_0 xi = h xi, L_k xi = 0
  for k > 0, C = c;
* PBW monomials are written L_{-p1} L_{-p2} ... xi with p1 >= p2 >= ...,
  indexed by the partition (p1, p2, ...);
* Gram matrices are laid out in the descending-lexicographic partition
  order of :func:`virasoro.combinat.partitions_of`.

The parameters (c, h) may be rationals, rational functions of a curve
parameter, or the symbolic coordinates of Q[c,h]; all the action and
Gram-matrix code below is generic over that choice.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .combinat import num_partitions, partition_key, partitions_of
from .linalg import bareiss_det, rank
from .scalars import (
    BiPoly,
    RatFunc,
    SparseVector,
    UniPoly,
    UsageError,
    accumulate,
    as_fraction,
    render_scalar,
)


@dataclass(frozen=True)
class VermaParams:
    """Central charge and lowest weight, drawn from a common ring."""

    c: object
    h: object

    @classmethod
    def rational(cls, c, h) -> "VermaParams":
        return cls(as_fraction(c), as_fraction(h))

    @classmethod
    def symbolic(cls) -> "VermaParams":
        c, h = BiPoly.gens()
        return cls(c, h)

    def is_rational(self) -> bool:
        return isinstance(self.c, (int, Fraction)) and isinstance(self.h, (int, Fraction))


class PBWVector(SparseVector):
    """Finite linear combination of PBW monomials, partition -> scalar."""

    __slots__ = ()

    @classmethod
    def monomial(cls, part, coeff=Fraction(1)) -> "PBWVector":
        return cls({tuple(part): coeff})

    @classmethod
    def vacuum(cls) -> "PBWVector":
        return cls({(): Fraction(1)})

    def level(self) -> int:
        levels = {sum(p) for p in self.terms}
        if not levels:
            return 0
        if len(levels) > 1:
            raise ValueError(f"inhomogeneous vector with levels {sorted(levels)}")
        return levels.pop()

    def __repr__(self):
        if not self.terms:
            return "PBWVector(0)"
        bits = []
        for part in sorted(self.terms, reverse=True):
            bits.append(f"{partition_key(part)}: {render_scalar(self.terms[part])}")
        return "PBWVector({" + ", ".join(bits) + "})"

    def to_json(self) -> dict:
        parts = sorted(self.terms, reverse=True)
        return {
            "level": self.level(),
            "terms": {partition_key(p): render_scalar(self.terms[p]) for p in parts},
        }


def central_term(k: int):
    return Fraction(k**3 - k, 12)


def pbw_left_multiply(p: int, v: PBWVector) -> PBWVector:
    """Left-multiply by L_{-p} (p > 0) and re-sort into PBW order.

    Only commutators inside the lowering subalgebra occur, so the result
    is independent of (c, h).
    """
    if p <= 0:
        raise ValueError("pbw_left_multiply expects a positive index")
    return v.apply_linear(lambda part: _left_mul_monomial(p, part).terms)


# Entries kept by the PBW reordering table _left_mul_monomial, which does
# not depend on (c, h); the Gram matrices to level 10 fill it to 50.
LEFT_CACHE_SIZE = 1 << 12


@lru_cache(maxsize=LEFT_CACHE_SIZE)
def _left_mul_monomial(p: int, part: tuple) -> PBWVector:
    if not part or p >= part[0]:
        return PBWVector.monomial((p,) + part)
    head, rest = part[0], part[1:]
    # L_{-p} L_{-head} = L_{-head} L_{-p} + (head - p) L_{-p-head}
    out = {}
    for q, c in _left_mul_monomial(p, rest).terms.items():
        accumulate(out, _left_mul_monomial(head, q).terms, c)
    accumulate(out, _left_mul_monomial(p + head, rest).terms, Fraction(head - p))
    return PBWVector(out)


def pbw_operator_apply(op: PBWVector, v: PBWVector) -> PBWVector:
    """Apply an element of the lowering algebra, written in the PBW
    basis, to a vector: rightmost factor of each monomial acts first."""
    out = {}
    for part, coeff in op.terms.items():
        w = v
        for p in reversed(part):
            w = pbw_left_multiply(p, w)
        accumulate(out, w.terms, coeff)
    return PBWVector(out)


@lru_cache(maxsize=4)
def _action_table(params: VermaParams) -> dict:
    """{(k, part): L_k applied to the monomial} at `params`; a long process
    that visits many (c, h) keeps only the four most recently used."""
    return {}


def apply_L(k: int, v: PBWVector, params: VermaParams) -> PBWVector:
    """Exact action of L_k on a PBW vector of M(c, h)."""
    table = _action_table(params)
    return v.apply_linear(lambda part: _apply_monomial(k, part, params, table).terms)


def _apply_monomial(k: int, part: tuple, params: VermaParams, table: dict) -> PBWVector:
    if k == 0:
        return PBWVector.monomial(part, params.h + sum(part))
    if k < 0 and (not part or -k >= part[0]):
        return PBWVector.monomial((-k,) + part)
    key = (k, part)
    hit = table.get(key)
    if hit is not None:
        return hit
    out = {}  # k > 0 annihilates the lowest-weight vector
    if part:
        head, rest = part[0], part[1:]
        # L_k L_{-head} = L_{-head} L_k + (k + head) L_{k-head} + delta central
        for q, c in _apply_monomial(k, rest, params, table).terms.items():
            accumulate(out, _left_mul_monomial(head, q).terms, c)
        m = k - head
        if m == 0:
            bracket = {rest: (params.h + sum(rest)) * Fraction(2 * k)}
        else:
            bracket = accumulate(
                {}, _apply_monomial(m, rest, params, table).terms, Fraction(k + head)
            )
        if k == head:
            accumulate(bracket, {rest: params.c * central_term(k)})
        accumulate(out, bracket)
    result = PBWVector(out)
    table[key] = result
    return result


@dataclass(frozen=True)
class GramMatrix:
    level: int
    basis: tuple
    entries: tuple  # tuple of tuples, Shapovalov pairings
    params: VermaParams

    def entry(self, row_part, col_part):
        i = self.basis.index(tuple(row_part))
        j = self.basis.index(tuple(col_part))
        return self.entries[i][j]

    def rows(self):
        return [list(r) for r in self.entries]

    def to_json(self) -> dict:
        return {
            "level": self.level,
            "basis": [partition_key(p) for p in self.basis],
            "entries": [[render_scalar(x) for x in row] for row in self.entries],
        }


def shapovalov_pair(left_part, w: PBWVector, params: VermaParams):
    """<L_{-left} xi, w> computed by pushing the adjoints through w."""
    for p in left_part:
        w = apply_L(p, w, params)
        if w.is_zero():
            break
    return w.coeff(())


def gram_matrices(max_level: int, params: VermaParams) -> list:
    """The Gram matrices of levels 0..max_level, each from the lower ones.

    With lambda' the partition lambda without its first part lambda_1,

        G_n[lambda, mu] = sum_nu [nu](L_{lambda_1} L_{-mu} xi) G_{n-lambda_1}[lambda', nu],

    so a column mu applies L_k once per distinct first part k of its rows,
    and rows of the lower matrices replace the apply_L chains of
    shapovalov_pair.  Only the upper triangle is computed.  Entries equal
    shapovalov_pair's, type included: a zero entry is Fraction(0).
    """
    if max_level < 0:
        raise UsageError("negative level")
    grams = [GramMatrix(0, ((),), ((Fraction(1),),), params)]
    index = [{(): 0}]
    for n in range(1, max_level + 1):
        basis = partitions_of(n)
        size = len(basis)
        entries = [[None] * size for _ in range(size)]
        for j, mu in enumerate(basis):
            images = {}
            for i in range(j + 1):
                lam = basis[i]
                k = lam[0]
                image = images.get(k)
                if image is None:
                    image = images[k] = apply_L(k, PBWVector.monomial(mu), params).terms
                where = index[n - k]
                lower = grams[n - k].entries[where[lam[1:]]]
                total = Fraction(0)
                for nu, a in image.items():
                    total = total + a * lower[where[nu]]
                if not total:
                    total = Fraction(0)
                entries[i][j] = entries[j][i] = total
        grams.append(GramMatrix(n, basis, tuple(map(tuple, entries)), params))
        index.append({part: i for i, part in enumerate(basis)})
    return grams


def gram_matrix(level: int, params: VermaParams) -> GramMatrix:
    """The Shapovalov Gram matrix at one level: gram_matrices(level)[level]."""
    return gram_matrices(level, params)[level]


def kac_det_direct(level: int, params: VermaParams):
    """Determinant of the level Gram matrix, fraction-free."""
    g = gram_matrix(level, params)
    return bareiss_det(g.rows())


def phi_rr(r: int) -> BiPoly:
    """h + (r^2-1)(c-1)/24, the linear Kac-determinant factor."""
    c, h = BiPoly.gens()
    return h + (c - 1) * Fraction(r * r - 1, 24)


def phi_rs(r: int, s: int) -> BiPoly:
    """Quadratic Kac factor covering the root pair (h_{r,s}, h_{s,r})."""
    if r == s:
        return phi_rr(r)
    c, h = BiPoly.gens()
    cm1 = c - 1
    quarter = Fraction((r - s) ** 2, 4)
    return (
        (h - quarter) * (h - quarter)
        + h * cm1 * Fraction(r * r + s * s - 2, 24)
        + cm1 * cm1 * Fraction((r * r - 1) * (s * s - 1), 576)
        + cm1 * Fraction((r - s) ** 2 * (r * s + 1), 48)
    )


def kac_det_product_sym(level: int) -> BiPoly:
    """Product form of the level determinant, up to a constant, in Q[c,h]."""
    if level < 1:
        raise UsageError("product form defined for level >= 1")
    result = BiPoly.const(1)
    for r in range(1, level + 1):
        for s in range(1, r + 1):
            if r * s > level:
                continue
            result = result * phi_rs(r, s) ** num_partitions(level - r * s)
    return result


def kac_det_product(level: int, params: VermaParams):
    """Product form evaluated at the given parameters."""
    sym = kac_det_product_sym(level)
    return sym.specialize(params.c, params.h)


def kac_det_ratio(level: int):
    """direct / product at fully symbolic (c, h); a constant polynomial."""
    direct = kac_det_direct(level, VermaParams.symbolic())
    product = kac_det_product_sym(level)
    quotient = direct.exact_div(product)
    return quotient


def h_pq(p: int, q: int, m: int) -> Fraction:
    """Discrete-series weight ((p(m+1)-qm)^2 - 1) / (4m(m+1))."""
    if m < 2:
        raise UsageError("the weight grid needs m >= 2")
    a = p * (m + 1) - q * m
    return Fraction(a * a - 1, 4 * m * (m + 1))


def central_charge(m: int) -> Fraction:
    return Fraction(1) - Fraction(6, m * (m + 1))


def c_curve(var: str = "t") -> RatFunc:
    """c(t) = 13 - 6t - 6/t."""
    t = UniPoly.gen(var)
    return RatFunc(UniPoly([13, -6], var) * t - 6, t)


def h_pq_curve(p: int, q: int, var: str = "t") -> RatFunc:
    """The weight h(t) on c(t) = 13 - 6t - 6/t with phi_{p,q}(c(t), h(t)) = 0.

    Validated symbolically at construction.
    """
    t = UniPoly.gen(var)
    num = (
        t * t * Fraction(p * p - 1, 4)
        + t * Fraction(-(p * q - 1), 2)
        + Fraction(q * q - 1, 4)
    )
    h = RatFunc(num, t)
    residue = phi_rs(p, q).specialize(c_curve(var), h)
    if not residue.is_zero():
        raise AssertionError(f"curve weight for ({p},{q}) fails its defining equation")
    return h


def irreducible_dims(params: VermaParams, max_level: int) -> list:
    """dim L(c,h)(n) for n = 0..max_level: the Q-rank of each Gram matrix,
    all levels from one gram_matrices call, each rank in integers."""
    if not params.is_rational():
        raise ValueError("the rank oracle needs rational (c, h)")
    return [rank(g.rows()) for g in gram_matrices(max_level, params)]
