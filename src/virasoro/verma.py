"""Verma modules for the Virasoro algebra over an exact coefficient ring.

Conventions fixed here and used everywhere else:

* generators satisfy [L_m, L_n] = (m-n) L_{m+n} + delta_{m+n,0} (m^3-m)/12 C;
* the module M(c, h) is generated by xi with L_0 xi = h xi, L_k xi = 0
  for k > 0, C = c;
* PBW monomials are written L_{-p1} L_{-p2} ... xi with p1 >= p2 >= ...,
  indexed by the partition (p1, p2, ...);
* Gram matrices are laid out in the descending-lexicographic partition
  order of :func:`virasoro.combinat.partitions_of`.

The action is one (c, h)-free table of integer triples (a, b, e), the
coefficient a + b h + e c/2, and no table depends on (c, h): apply_L
evaluates the triples on every call, in the ring of (c, h), which may be
Q, Q[x], Q[t, 1/t] (a curve parameter) or Q[c,h].  The Gram matrices,
the rank oracle and the Kac product form take (c, h) in Q, Q[x] or
Q[c,h] and compute on the integer coefficient arrays of `scalars`:
`_gram_recursion` lifts each triple to S a + b (S h) + e (S c/2), and
each result is divided once in the ring of (c, h).

The rank oracle `irreducible_dims` leans on one lemma.  Order the PBW
monomials of a level by number of parts, then lexicographically; if v
leads with L_{-lambda} xi, then L_{-j} v leads with L_{-(lambda+j)} xi
and the same coefficient.  As the radical of the Shapovalov form is a
submodule, the radical at level n - j supplies, through L_{-j}, radical
vectors at level n with known leading monomials, and only the Gram block
on the remaining monomials needs ranking.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .combinat import num_partitions, partition_key, partitions_of
# nothing here calls `rank`, but the benchmark's tracer
# (perfbench/tracing.py) wraps verma.rank by name and fails where it is missing
from .linalg import bareiss_det, pivot_columns, rank  # noqa: F401
from .scalars import (
    BiPoly,
    Laurent,
    SparseVector,
    UniPoly,
    UsageError,
    _addmul,
    _array,
    _entry,
    _is_rational,
    _leaves,
    _ring_of,
    _row_scale,
    _scaled,
    _trim,
    accumulate,
    as_fraction,
    render_scalar,
)


class VermaParams(NamedTuple):
    """Central charge and lowest weight, drawn from a common ring."""

    c: object
    h: object

    @classmethod
    def rational(cls, c, h) -> "VermaParams":
        return cls(as_fraction(c), as_fraction(h))

    @classmethod
    def symbolic(cls) -> "VermaParams":
        return cls(*BiPoly.gens())

    def is_rational(self) -> bool:
        return _is_rational(self.c) and _is_rational(self.h)


class PBWVector(SparseVector):
    """Finite linear combination of PBW monomials, partition -> scalar."""

    __slots__ = ()

    @classmethod
    def monomial(cls, part) -> "PBWVector":
        return cls({tuple(part): Fraction(1)})

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
        bits = (f"{partition_key(p)}: {render_scalar(self.terms[p])}"
                for p in sorted(self.terms, reverse=True))
        return "PBWVector({" + ", ".join(bits) + "})"

    def to_json(self) -> dict:
        parts = sorted(self.terms, reverse=True)
        return {
            "level": self.level(),
            "terms": {partition_key(p): render_scalar(self.terms[p]) for p in parts},
        }


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


# Entries kept by the action table _action, which does not depend on
# (c, h); the rank oracle fills it to 987 at level 10, 2,307 at level 12.
ACTION_CACHE_SIZE = 1 << 12


@lru_cache(maxsize=ACTION_CACHE_SIZE)
def _action(k: int, part: tuple) -> dict:
    """L_k L_{-part} xi as {nu: (a, b, e)}: the coefficient of L_{-nu} xi
    is a + b h + e c/2 with integers a, b, e at every (c, h).  At most one
    positive mode is absorbed, and its central term (k^3-k)/12 c is
    ((k^3-k)/6) c/2."""
    if k < 0:
        return {nu: (x.numerator, 0, 0) for nu, x in _left_mul_monomial(-k, part).terms.items()}
    if k == 0:
        return {part: (sum(part), 1, 0)}
    out = {}  # k > 0 annihilates the lowest-weight vector
    if part:
        head, rest = part[0], part[1:]
        # L_k L_{-head} = L_{-head} L_k + (k + head) L_{k-head} + delta central
        terms = [(nu, x.numerator, t) for q, t in _action(k, rest).items()
                 for nu, x in _left_mul_monomial(head, q).terms.items()]
        if k == head:
            terms.append((rest, 1, (2 * k * sum(rest), 2 * k, (k**3 - k) // 6)))
        else:
            terms += [(nu, k + head, t) for nu, t in _action(k - head, rest).items()]
        for nu, x, (a, b, e) in terms:
            a0, b0, e0 = out.get(nu, (0, 0, 0))
            out[nu] = (a0 + x * a, b0 + x * b, e0 + x * e)
    return {nu: t for nu, t in out.items() if any(t)}


def apply_L(k: int, v: PBWVector, params: VermaParams) -> PBWVector:
    """Exact action of L_k on a PBW vector of M(c, h): each triple of
    _action evaluated as a + b h + e c/2 in the ring of (c, h), a
    Fraction when b = e = 0 (as the PBW reordering leaves it)."""
    c, h = params

    def image(part):
        return {nu: x for nu, (a, b, e) in _action(k, part).items()
                if (x := Fraction(a) + (b and h * b) + (e and c * Fraction(e, 2)))}

    return v.apply_linear(image)


class GramMatrix(NamedTuple):
    level: int
    basis: tuple
    entries: tuple  # tuple of tuples, Shapovalov pairings

    def rows(self):
        return [list(r) for r in self.entries]

    def to_json(self) -> dict:
        return {
            "level": self.level,
            "basis": [partition_key(p) for p in self.basis],
            "entries": [[render_scalar(x) for x in row] for row in self.entries],
        }


def _gram_recursion(max_level: int, params: VermaParams):
    """(kind, S, tables): the ring of (c, h) (`scalars._ring_of`), the
    least positive integer S with S h and S c/2 integral at every
    coefficient, and the entry tables of S^n G_n, n = 0..max_level, as
    ints (rational (c, h)), Z[x] arrays or Z[c][h] arrays.  A Laurent
    (c, h) raises TypeError.  With lambda' the partition lambda without
    its first part k,

        G_n[lambda, mu] = sum_nu [nu](L_k L_{-mu} xi) G_{n-k}[lambda', nu],

    where each triple (a, b, e) of `_action(k, mu)` lifts to S^(k-1) times
    the integer S a + b (S h) + e (S c/2), once per column mu and distinct
    k of its rows.  Only the upper triangle is computed; the lower one
    shares its entries."""
    if max_level < 0:
        raise UsageError("negative level")
    kind, depth = _ring_of([params])
    lifted = [_array(params.h, depth), _array(params.c * Fraction(1, 2), depth)]
    scale = _row_scale(_leaves(lifted, depth + 1))
    sh, sc = _scaled(lifted, scale, depth + 1)

    def images(k, mu):
        power = scale ** (k - 1)
        out = {}
        for nu, (a, b, e) in _action(k, mu).items():
            a, b, e = power * scale * a, power * b, power * e
            if not depth:
                out[nu] = a + b * sh + e * sc
                continue
            x = _array(a, depth)
            if b:
                _addmul(x, sh, _array(b, depth), depth)
            if e:
                _addmul(x, sc, _array(e, depth), depth)
            out[nu] = _trim(x, depth)
        return out

    tables = [((_array(1, depth),),)]
    index = [{(): 0}]
    for n in range(1, max_level + 1):
        basis = partitions_of(n)
        entries = [[None] * len(basis) for _ in basis]
        for j, mu in enumerate(basis):
            column = {}
            for i in range(j + 1):
                lam = basis[i]
                k = lam[0]
                image = column.get(k)
                if image is None:
                    image = column[k] = images(k, mu)
                where = index[n - k]
                lower = tables[n - k][where[lam[1:]]]
                if depth:
                    total = []
                    for nu, a in image.items():
                        if low := lower[where[nu]]:
                            _addmul(total, a, low, depth)
                    _trim(total, depth)
                else:
                    total = sum([a * lower[where[nu]] for nu, a in image.items()])
                entries[i][j] = entries[j][i] = total
        tables.append(tuple(map(tuple, entries)))
        index.append({part: i for i, part in enumerate(basis)})
    return kind, scale, tables


def gram_matrices(max_level: int, params: VermaParams) -> list:
    """The Gram matrices of levels 0..max_level: each entry of the tables
    of `_gram_recursion` divided once by S^n.  An entry's type is that of
    the pairing <L_{-lambda} xi, L_{-mu} xi> in the ring of (c, h): the
    level-0 entry and every zero entry are Fractions, and so is every
    constant entry when h is rational; all others lie in the ring."""
    kind, scale, tables = _gram_recursion(max_level, params)
    rational_h = _is_rational(params.h)

    def entry(a, den):
        x = _entry(a, kind, den)
        if kind is not Fraction and (not x or rational_h and x.is_constant()):
            return x.constant_value()
        return x

    grams = [GramMatrix(0, partitions_of(0), ((Fraction(1),),))]
    for n in range(1, len(tables)):
        rows, den = [list(row) for row in tables[n]], scale ** n
        for j in range(len(rows)):
            for i in range(j + 1):
                rows[i][j] = rows[j][i] = entry(rows[i][j], den)
        grams.append(GramMatrix(n, partitions_of(n), tuple(map(tuple, rows))))
    return grams


def gram_matrix(level: int, params: VermaParams) -> GramMatrix:
    """The Shapovalov Gram matrix at one level: gram_matrices(level)[level]."""
    return gram_matrices(level, params)[level]


def kac_det_direct(level: int, params: VermaParams):
    """Determinant of the level Gram matrix, fraction-free."""
    return bareiss_det(gram_matrix(level, params).rows())


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
    return kac_det_product(level, VermaParams.symbolic())


def kac_det_product(level: int, params: VermaParams):
    """The product form prod_{rs <= level, r >= s} phi_{r,s}^p(level - rs)
    at the given (c, h), in their ring.  Each phi_{r,s} is specialised
    first and cleared of its coefficient denominators by d_{r,s}; the
    powers are multiplied as ints, Z[x] or Z[c][h] arrays, and the
    product is divided once by the product of the d_{r,s}^p."""
    if level < 1:
        raise UsageError("product form defined for level >= 1")
    kind, depth = _ring_of([params])
    result, scale = _array(1, depth), 1
    for r in range(1, level + 1):
        for s in range(1, min(r, level // r) + 1):
            factor = _array(phi_rs(r, s).specialize(params.c, params.h), depth)
            den = _row_scale(_leaves([factor], depth + 1))
            factor = _scaled(factor, den, depth)
            power = num_partitions(level - r * s)
            if depth:
                for _ in range(power):
                    result = _trim(_addmul([], result, factor, depth), depth)
            else:
                result *= factor ** power
            scale *= den ** power
    return _entry(result, kind, scale)


def kac_det_ratio(level: int):
    """direct / product at fully symbolic (c, h); a constant polynomial.
    The product form comes first, so level 0 is a usage error."""
    product = kac_det_product_sym(level)
    return kac_det_direct(level, VermaParams.symbolic()).exact_div(product)


def h_pq(p: int, q: int, m: int) -> Fraction:
    """Discrete-series weight ((p(m+1)-qm)^2 - 1) / (4m(m+1))."""
    if m < 2:
        raise UsageError("the weight grid needs m >= 2")
    a = p * (m + 1) - q * m
    return Fraction(a * a - 1, 4 * m * (m + 1))


def central_charge(m: int) -> Fraction:
    return Fraction(1) - Fraction(6, m * (m + 1))


def c_curve() -> Laurent:
    """c(t) = 13 - 6t - 6/t."""
    return Laurent(UniPoly([-6, 13, -6]), 1)


def h_pq_curve(p: int, q: int) -> Laurent:
    """The weight h(t) on c(t) = 13 - 6t - 6/t with phi_{p,q}(c(t), h(t)) = 0.

    Validated symbolically at construction.
    """
    num = UniPoly([Fraction(q * q - 1, 4), Fraction(1 - p * q, 2), Fraction(p * p - 1, 4)])
    h = Laurent(num, 1)
    if phi_rs(p, q).specialize(c_curve(), h):
        raise AssertionError(f"curve weight for ({p},{q}) fails its defining equation")
    return h


def irreducible_dims(params: VermaParams, max_level: int) -> list:
    """dim L(c,h)(n) for n = 0..max_level: the Q-rank of each Gram matrix,
    read off the int table S^n G_n of `_gram_recursion` (a nonzero scale
    keeps the rank) without ranking the full table.

    Order the partitions of n by <: fewer parts first, then the
    descending tuples lexicographically.  Lemma: if v at level n - j
    leads with lambda, L_{-j} v leads with lambda + {j}, with the same
    coefficient.  PBW reordering gives that monomial with coefficient 1
    and commutator terms with fewer parts, and inserting a part keeps <
    (two tuples of one length compare at the largest part whose
    multiplicities differ).  The radical of the form is a submodule, so
    each partition of n that loses one part j into `lead[n - j]`, the
    leading monomials of the radical at level n - j, leads a radical
    vector.  These vectors are triangular in the PBW basis, so rank G_n
    is the rank of the block on the other partitions R, whose columns
    are put in <-ascending order.  The kernel vector of a non-pivot
    column of the forward elimination lives on it and on pivot columns
    left of it, so `lead[n]` is the known monomials plus R's non-pivot
    columns."""
    if not params.is_rational():
        raise ValueError("the rank oracle needs rational (c, h)")
    dims, lead = [], []
    for n, table in enumerate(_gram_recursion(max_level, params)[2]):
        basis = partitions_of(n)
        known = {lam for lam in basis
                 if any(lam[:i] + lam[i + 1:] in lead[n - j] for i, j in enumerate(lam))}
        rest = sorted((i for i, lam in enumerate(basis) if lam not in known),
                      key=lambda i: (len(basis[i]), basis[i]))
        pivots = pivot_columns([[table[i][j] for j in rest] for i in rest])
        dims.append(len(pivots))
        lead.append(known | {basis[rest[f]] for f in set(range(len(rest))) - set(pivots)})
    return dims
