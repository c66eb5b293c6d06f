"""Singular vectors of Verma modules by three independent routes.

* exact joint-kernel solve of L_1, L_2 at a fixed level;
* the spin-chain recurrence of Bauer, Di Francesco, Itzykson and Zuber
  (BDIZ) for weights on the curve c(t) = 13 - 6t - 6/t, giving the
  singular vector as a polynomial in t;
* a kernel solve over the Laurent polynomials Q[t, 1/t] along the curve
  through a general (r, s) vanishing locus of the Kac determinant, run
  fraction-free over Z[t] (see `linalg.nullspace`).

All three normalise the coefficient of L_{-1}^d to 1, which is always
possible: that coefficient is nonzero whenever a singular vector exists,
and then the vector is unique up to scale.  So a kernel vector over Z[t]
free of common factors has that coefficient vanish only at t = 0, where
c(t) has its pole: the normalised curve vector lies in Q[t, 1/t] (the
division is checked and raises otherwise).
"""

from __future__ import annotations

from fractions import Fraction

from .combinat import partitions_of
from .linalg import annihilator_kernel
from .scalars import Laurent, UniPoly, UsageError, accumulate, as_fraction
from .verma import (
    PBWVector,
    VermaParams,
    apply_L,
    c_curve,
    h_pq_curve,
    pbw_left_multiply,
    pbw_operator_apply,
)


def singular_kernel(params: VermaParams, level: int) -> list:
    """Basis of the joint kernel of L_1 and L_2 at the given level, as
    PBW vectors.

    Works over Q for rational parameters and over Q[t, 1/t] for curve
    parameters; `linalg.annihilator_kernel` builds the L_1, L_2 matrix
    and solves it fraction-free over Z or Z[t].  Vectors are normalised
    so the L_{-1}^level coefficient is 1 whenever it is nonzero; over
    Z[t] that is the one division, exact in Q[t, 1/t] or a ValueError.
    Level 0 has none; a negative level is a UsageError.
    """
    if level < 0:
        raise UsageError(f"a singular vector lies at a level >= 0, got {level}")
    if level == 0:
        return []
    kernel = annihilator_kernel(lambda k, p: apply_L(k, PBWVector.monomial(p), params),
                                partitions_of, level)
    out = []
    for vec in kernel:
        if lead := vec[-1]:  # (1, ..., 1) is the last partition
            vec = [x / lead for x in vec]
        out.append(PBWVector(dict(zip(partitions_of(level), vec))))
    return out


def check_singular(v: PBWVector, params: VermaParams):
    """Return (is_singular, (L_1 v, L_2 v)) as an explicit certificate."""
    r1 = apply_L(1, v, params)
    r2 = apply_L(2, v, params)
    return r1.is_zero() and r2.is_zero(), (r1, r2)


class SpinModule:
    """Irreducible sl2 module of spin j on v_{-j}, ..., v_j.

    Basis index i = 0..2j corresponds to v_{-j+i}; the operators act by
    H v_k = k v_k, F v_k = v_{k-1} (with v_{-j-1} = 0) and
    E v_k = (j-k)(j+k+1) v_{k+1}, so [E, F] = 2H and E^{2j} v_{-j}
    = ((2j)!)^2 v_j.
    """

    def __init__(self, two_j: int):
        if two_j < 0:
            raise UsageError("spin must be non-negative")
        self.two_j = two_j
        self.dim = two_j + 1

    def h_eigenvalue(self, i: int) -> Fraction:
        return Fraction(-self.two_j + 2 * i, 2)

    def e_step(self, i: int) -> Fraction:
        """Factor in E v_{-j+i} = e_step(i) v_{-j+i+1}."""
        # (j - k)(j + k + 1) at k = -j + i, cleared of halves:
        return Fraction((self.two_j - i) * (i + 1))

    def e_power_factor(self, i: int, m: int) -> Fraction:
        """Factor in E^m v_{-j+i} = factor * v_{-j+i+m}."""
        out = Fraction(1)
        for s in range(m):
            out *= self.e_step(i + s)
        return out


def bdiz_singular(j) -> PBWVector:
    """Singular element for the curve weight h(t) = (j^2+j)t - j at spin j,
    which is h_{2j+1,1}(t): at a point t its module is
    `curve_params_at(t, (2j+1, 1))`.  The recurrence itself uses no
    weight formula, so it is checked against `curve_singular(2j+1, 1)`.

    Returns the degree-(2j+1) element of the lowering algebra with
    UniPoly(t) coefficients: constant term L_{-1}^{2j+1}, coefficient of
    L_{-1}^{2j+1} equal to 1, and top t-degree 2j.

    The construction runs the two-term recurrence of the spin-j chain
    xi_{k+1} = sum_m (-t)^m E^m-factor L_{-m-1} xi_{k-m}; the final step
    emits the singular element.
    """
    j = as_fraction(j)
    two_j = j * 2
    if two_j.denominator != 1 or two_j < 0:
        raise UsageError("j must be a non-negative half-integer")
    two_j = int(two_j)
    spin = SpinModule(two_j)
    t = UniPoly.gen()
    one = UniPoly.const(1)

    def poly_vec(v: PBWVector) -> PBWVector:
        return v.map_coeffs(lambda c: c * one if isinstance(c, Fraction) else c)

    chain = [poly_vec(PBWVector.vacuum())]  # xi at index 0 <-> v_{-j}
    for i in range(two_j + 1):
        total = {}
        for m in range(i + 1):
            factor = spin.e_power_factor(i - m, m)
            if factor:
                accumulate(total, pbw_left_multiply(m + 1, chain[i - m]).terms,
                           ((-t) ** m) * factor)
        chain.append(PBWVector(total))
    return chain[two_j + 1]


def curve_singular(r: int, s: int) -> PBWVector:
    """The unique singular vector of M(c(t), h_{r,s}(t)) at level r*s.

    Solved as an exact kernel computation over Q[t, 1/t], fraction-free
    over Z[t] with rows cleared of their denominators; `singular_chain`
    raises a RuntimeError unless the kernel is one-dimensional, as the
    uniqueness guarantee requires.
    """
    if r < 1 or s < 1:
        raise UsageError("r and s must be positive")
    return singular_chain(VermaParams(c_curve(), h_pq_curve(r, s)), [r * s])[0]


def specialize_curve_vector(v: PBWVector, t_value) -> PBWVector:
    """Evaluate UniPoly or Laurent coefficients at a rational point."""
    t_value = as_fraction(t_value)

    def ev(c):
        if isinstance(c, (UniPoly, Laurent)):
            return c(t_value)
        return as_fraction(c)

    return v.map_coeffs(ev)


def curve_params_at(t_value, rs) -> VermaParams:
    """Rational (c(t), h_{r,s}(t)) on the curve at the point t_value, for
    rs = (r, s); the weight of `bdiz_singular(j)` is h_{2j+1,1}(t)."""
    t_value = as_fraction(t_value)
    r, s = rs
    return VermaParams(c_curve()(t_value), h_pq_curve(r, s)(t_value))


class SpinChainOps:
    """The operator family behind the spin-chain construction, acting on
    chains (one PBW vector per spin basis slot) over a common scalar ring.

    ladder(-1) is the chain operator N = -F + sum_m (-tE)^m L_{-m-1},
    ladder(0) = L_0 - H - tC, and for k >= 1

        ladder(k) = L_k - (-E)^k t^{k-1} (t(H - (k+1)/2) + (3k+1)/4).

    Bracket relations, checked by the `singular-chain` gate row:
    [ladder(p), ladder(q)] = (p - q) ladder(p + q) for p, q >= 0 at any
    parameters, and whenever the central charge is c(t) = 13 - 6t - 6/t
    (any weight) the alternating ladder law

        [ladder(p), ladder(-1)]
            = sum_{q >= 0} (p + 1 + q) (-t)^q E^q ladder(p - 1 - q)

    with ladder(k) = 0 for k < -1.
    """

    def __init__(self, two_j: int, params: VermaParams):
        self.spin = SpinModule(two_j)
        self.params = params
        self.t = Laurent(UniPoly.gen())
        self.casimir = Fraction(two_j * (two_j + 2), 4)

    def zero(self):
        return [PBWVector.zero() for _ in range(self.spin.dim)]

    def add(self, a, b):
        return [x.add_into(y) for x, y in zip(a, b)]

    def scale(self, a, s):
        return [x.scale(s) for x in a]

    def E(self, chain):
        return [PBWVector.zero()] + [
            chain[i].scale(self.spin.e_step(i))
            for i in range(self.spin.dim - 1)
        ]

    def F(self, chain):
        return list(chain[1:]) + [PBWVector.zero()]

    def H(self, chain):
        return [
            chain[i].scale(self.spin.h_eigenvalue(i))
            for i in range(self.spin.dim)
        ]

    def L(self, a, chain):
        return [apply_L(a, v, self.params) for v in chain]

    def ladder(self, k: int, chain):
        t = self.t
        if k < -1:
            return self.zero()
        if k == -1:
            out = [dict(v.terms) for v in self.scale(self.F(chain), -1)]
            for m in range(self.spin.two_j + 1):
                term = self.L(-m - 1, chain)
                for _ in range(m):
                    term = self.E(term)
                weight = (-t) ** m
                for slot, v in zip(out, term):
                    accumulate(slot, v.terms, weight)
            return [PBWVector(slot) for slot in out]
        if k == 0:
            out = self.add(self.L(0, chain), self.scale(self.H(chain), -1))
            return self.add(out, self.scale(chain, -t * self.casimir))
        shift = -t * Fraction(k + 1, 2) + Fraction(3 * k + 1, 4)
        inner = self.add(self.scale(self.H(chain), t), self.scale(chain, shift))
        for _ in range(k):
            inner = self.E(inner)
        sign = (-1) ** (k + 1) * t ** (k - 1)
        return self.add(self.L(k, chain), self.scale(inner, sign))

    def bracket(self, p: int, q: int, chain):
        left = self.ladder(p, self.ladder(q, chain))
        right = self.ladder(q, self.ladder(p, chain))
        return self.add(left, self.scale(right, -1))


def chain_product_vector(j, depth: int) -> PBWVector:
    """The composite singular vector of M(1, j^2) at level (j+depth)^2 - j^2,
    built by applying the normalised degree-(2i+1) singular elements for
    the weights j, j+1, ..., j+depth-1 in succession.

    Equals (up to scale) the kernel-solved singular vector at that level;
    the `singular-chain` gate row checks this.
    """
    j = as_fraction(j)
    vec = PBWVector.vacuum()
    for i in range(depth):
        element = specialize_curve_vector(bdiz_singular(j + i), 1)
        vec = pbw_operator_apply(element, vec)
    return vec


def singular_chain(params: VermaParams, levels) -> list:
    """Kernel-solved singular vectors of M(c, h) at the given levels, one
    PBW vector per level: the chain a family predicts is
    `jantzen.kac_module(...).chain(n)`.  A level whose kernel is not
    one-dimensional is a structural failure and raises."""
    chain = []
    for lvl in levels:
        found = singular_kernel(params, lvl)
        if len(found) != 1:
            raise RuntimeError(
                f"expected a unique singular vector at level {lvl}, found {len(found)}"
            )
        chain.append(found[0])
    return chain
