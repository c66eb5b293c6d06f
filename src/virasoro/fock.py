"""Truncated fermionic Fock space, fermion bilinears and vertex operators.

Basis states are semi-infinite wedges e_{i_1} ^ e_{i_2} ^ ... with
i_1 < i_2 < ... and i_s = k + s - 1 eventually.  Such a state is labelled
by its sector k and a partition lam, with occupied indices

    i_s = k - 1 + s - lam_s   (s = 1..len(lam)),  then  k + len(lam), ...

A state is stored as its Maya diagram relative to the sector vacuum
Omega_k = e_k ^ e_{k+1} ^ ...: the tuple (k, particles, holes) of two
int bitmasks, bit j of `particles` marking index k - 1 - j occupied and
bit j of `holes` marking index k + j empty (Miwa, Jimbo and Date,
Solitons, ch. 9).  The key is canonical, so tuple hashing and equality
are state identity; e_n and e_n* set or clear one bit, re-centre the
masks on the new sector with a shift, and take their sign from the
bit count of the occupied indices below n.  The partition `lam` is
derived from the masks.

The sector vacuum Omega_k has energy k^2 / 2; the boson charge a_0 acts
on sector k as -k (particles below zero count +1, holes at or above zero
count -1).  Energy of (k, lam) is k^2/2 + |lam|.

The operators with a 1/2 in them are carried doubled, so their
coefficients stay integers: 2L'_k (`lprime2_apply`), 2L_k
(`sugawara2_apply`), b = 2H (`b_apply`) and 2K = a^(1) + a^(2) (`K2_apply`).

The shift U raises every wedge index, so U Omega_k = Omega_{k+1},
U e_i U* = e_{i+1}, U a_0 U* = a_0 + 1; on the stored key it only moves
the sector.

Vertex operators follow Phi_m(z) = U^{-m} z^{m a_0} E_-^m(z) E_+^m(z)
with E_-^m(z) = exp(m sum_{n>0} z^n a_{-n} / n) and E_+^m(z) =
exp(-m sum_{n>0} z^{-n} a_n / n), expanded in modes Phi_m(z) =
sum_n Phi_m(n) z^{-n}.  With these conventions Phi_1(n) = e_{n-1} and
Phi_{-1}(n) = e*_{-n} hold identically, and on the vacuum of boson
charge q (= sector -q) the lowest mode gives
z^{-qm} Phi_m(z) Omega |_{z=0} = the charge q+m vacuum.

Everything here acts exactly on explicit states; the energy bound E_max
only selects which source states a check enumerates, never introduces an
approximation.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial
from typing import NamedTuple

from .combinat import num_partitions, partitions_of
from .oscillator import exp_series, sugawara
from .scalars import SparseVector, accumulate, as_fraction

# Entries kept by each per-state operator table (_boson_state,
# _lprime2_state, _vertex_modes, _exp_series_state, the last holding
# single and pair states); the acceptance window at emax 7, pair-emax 4
# fills them to 7,775, 4,389, 1,186 and 4,071.
STATE_CACHE_SIZE = 1 << 14

_tuple_new = tuple.__new__


class _MayaKey(NamedTuple):
    sector: int     # wedge label k: vacuum is e_k ^ e_{k+1} ^ ...
    particles: int  # bit j: index k - 1 - j is occupied
    holes: int      # bit j: index k + j is empty


class FermionState(_MayaKey):
    """A wedge state; built as FermionState(sector, lam)."""

    __slots__ = ()

    def __new__(cls, sector: int, lam=()):
        occupied = {sector - 1 + s - part for s, part in enumerate(lam, start=1)}
        particles = sum(1 << (sector - 1 - i) for i in occupied if i < sector)
        holes = sum(1 << j for j in range(len(lam)) if sector + j not in occupied)
        return _tuple_new(cls, (sector, particles, holes))

    def __getnewargs__(self):
        return self.sector, self.lam

    @property
    def lam(self) -> tuple:
        """The excitation partition: lam_s = k - 1 + s - i_s."""
        k = self.sector
        return tuple(k - 1 + s - i for s, i in enumerate(self.occupied_prefix(), start=1))

    @property
    def charge(self) -> int:
        """Eigenvalue of the boson mode a_0."""
        return -self.sector

    @property
    def energy(self) -> Fraction:
        return Fraction(self.sector * self.sector, 2) + _level(self)

    @property
    def parity(self) -> int:
        return self.sector & 1

    def occupied_prefix(self) -> list:
        """The occupied indices below `tail_start`, ascending."""
        k, particles, holes = self
        below = [k - 1 - j for j in range(particles.bit_length() - 1, -1, -1)
                 if particles >> j & 1]
        return below + [k + j for j in range(holes.bit_length()) if not holes >> j & 1]

    @property
    def tail_start(self) -> int:
        return self.sector + self.holes.bit_length()

    def __repr__(self):
        return f"F({self.sector};{','.join(map(str, self.lam))})"


def _level(st: FermionState) -> int:
    """|lam|, the energy above the sector vacuum: a particle at k - 1 - j
    and a hole at k + j each carry j + 1/2, and they come in equal numbers."""
    _, particles, holes = st
    total = particles.bit_count()
    for mask in (particles, holes):
        while mask:
            low = mask & -mask
            total += low.bit_length() - 1
            mask ^= low
    return total


def vacuum(sector: int = 0) -> FermionState:
    return _tuple_new(FermionState, (sector, 0, 0))


def _shifted(st: FermionState, power: int) -> FermionState:
    """U^power st: the masks are relative to the sector, so only it moves."""
    k, particles, holes = st
    return _tuple_new(FermionState, (k + power, particles, holes))


def _occupied_below(n: int, k: int, particles: int, holes: int) -> int:
    """How many indices below n are occupied (n below the tail)."""
    if n < k:
        return (particles >> (k - n)).bit_count()
    return particles.bit_count() + (n - k) - (holes & ((1 << (n - k)) - 1)).bit_count()


def apply_e(n: int, st: FermionState):
    """Exterior multiplication by e_n; returns (sign, state) or None."""
    k, particles, holes = st
    if n < k:
        bit = 1 << (k - 1 - n)
        if particles & bit:
            return None
        particles |= bit
    else:
        bit = 1 << (n - k)
        if not holes & bit:
            return None
        holes ^= bit
    sign = -1 if _occupied_below(n, k, particles, holes) & 1 else 1
    # re-centre on sector k - 1: index k - 1 moves to the upper mask
    return sign, _tuple_new(FermionState, (k - 1, particles >> 1, holes << 1 | (~particles & 1)))


def apply_e_star(n: int, st: FermionState):
    """Interior multiplication by e_n*; returns (sign, state) or None."""
    k, particles, holes = st
    if n < k:
        bit = 1 << (k - 1 - n)
        if not particles & bit:
            return None
        particles ^= bit
    else:
        bit = 1 << (n - k)
        if holes & bit:
            return None
        holes |= bit
    sign = -1 if _occupied_below(n, k, particles, holes) & 1 else 1
    # re-centre on sector k + 1: index k moves to the lower mask
    return sign, _tuple_new(FermionState, (k + 1, particles << 1 | (~holes & 1), holes >> 1))


class FockVector(SparseVector):
    """Finite rational linear combination of fermion states."""

    __slots__ = ()

    @classmethod
    def basis(cls, st: FermionState) -> "FockVector":
        return cls({st: 1})

    def __repr__(self):
        if not self.terms:
            return "FockVector(0)"
        bits = [f"{c}*{st}" for st, c in sorted(self.terms.items(), key=lambda kv: repr(kv[0]))]
        return "FockVector(" + " + ".join(bits) + ")"


def fermion_apply(kind: str, n: int, vec: FockVector) -> FockVector:
    """e_n (kind "e") or e_n* (kind "e*") on a vector."""
    op = {"e": apply_e, "e*": apply_e_star}.get(kind)
    if op is None:
        raise ValueError(f"unknown fermion operator {kind!r}")

    def image(st):
        got = op(n, st)
        if got is not None:
            sign, new = got
            yield new, sign

    return vec.apply_linear(image)


def _hops(n: int, st: FermionState):
    """(q, sign, state) for every nonzero e_{q+n} e_q* st = sign * state."""
    tail = st.tail_start
    qs = st.occupied_prefix()
    if n < 0:
        qs = qs + list(range(tail, tail - n))
    for q in qs:
        first = apply_e_star(q, st)
        if first is None:
            continue
        s1, mid = first
        second = apply_e(q + n, mid)
        if second is None:
            continue
        s2, new = second
        yield q, s1 * s2, new


@lru_cache(maxsize=STATE_CACHE_SIZE)
def _boson_state(n: int, st: FermionState) -> tuple:
    if n == 0:
        return ((st, -st.sector),)
    return tuple(accumulate({}, ((new, sign) for _, sign, new in _hops(n, st))).items())


def boson_apply(n: int, vec: FockVector) -> FockVector:
    """a_n = sum_{p-q=n} e_p e_q* (normal-ordered charge for n = 0)."""
    return vec.apply_linear(lambda st: _boson_state(n, st))


@lru_cache(maxsize=STATE_CACHE_SIZE)
def _lprime2_state(k: int, st: FermionState) -> tuple:
    if k == 0:
        return ((st, st.sector * st.sector + 2 * _level(st)),)
    return tuple(accumulate(
        {}, ((new, -(2 * q + 1 + k) * sign) for q, sign, new in _hops(k, st))
    ).items())


def lprime2_apply(k: int, vec: FockVector) -> FockVector:
    """2L'_k = sum_{p-q=k} -(2q + 1 + k) e_p e_q*, twice the fermion-bilinear
    Virasoro operator; 2L'_0 = k^2 + 2|lam| is twice the energy."""
    return vec.apply_linear(lambda st: _lprime2_state(k, st))


def lprime2_zero_bilinear(st: FermionState) -> int:
    """Twice the energy of a state from the normal-ordered bilinear sum
    (for tests): particles at i < 0 contribute -2i - 1, holes at i >= 0
    contribute 2i + 1."""
    occ = st.occupied_prefix()
    occupied_neg = [i for i in occ if i < 0] + list(range(min(st.tail_start, 0), 0))
    holes = set(range(max(st.tail_start, 0))) - set(occ)
    return sum(-2 * i - 1 for i in occupied_neg) + sum(2 * i + 1 for i in holes)


def sugawara2_apply(k: int, vec: FockVector) -> FockVector:
    """2L_k = sum_{r+s=k} :a_r a_s:, twice the boson-bilinear Virasoro operator."""
    return sugawara(k, vec, boson_apply, 1, _level)


def shift_apply(power: int, vec: FockVector) -> FockVector:
    """U^power; U shifts every wedge index up by one (no sign)."""
    return FockVector(
        {_shifted(st, power): c for st, c in vec.terms.items()}
    )


def _quotient(p: int, den: int):
    """p / den, as an int when the division is exact: the vector algebra
    compares values only, and integer coefficients keep it in ints."""
    q, r = divmod(p, den)
    return Fraction(p, den) if r else q


@lru_cache(maxsize=STATE_CACHE_SIZE)
def _exp_series_state(table, step: int, c: int, st) -> list:
    """[P_0, P_1, ...] of exp_series on the basis state st, grown by _series."""
    return [((st, 1),)]


def _series(table, step: int, c: int, st, order: int) -> tuple:
    """P_order = order! S_order on st, as (state, coefficient) pairs."""
    return exp_series(table, step, c, _exp_series_state(table, step, c, st), order)[order]


def _exp_coeff_apply(step: int, c: int, order: int, vec: FockVector) -> FockVector:
    """S_order vec, from each source state's integer P_order = order! S_order."""
    if order < 0:
        raise ValueError(f"negative series order {order}")
    num = {}
    for st, coeff in vec.terms.items():
        accumulate(num, _series(_boson_state, step, c, st, order), coeff)
    den = factorial(order)
    return FockVector._wrap({st: _quotient(p, den) for st, p in num.items()})


def raising_coeff_apply(u: int, m: int, vec: FockVector) -> FockVector:
    """z^u coefficient of E_-^m(z) = exp(m sum_{n>0} z^n a_{-n}/n)."""
    return _exp_coeff_apply(-1, m, u, vec)


def lowering_coeff_apply(d: int, m: int, vec: FockVector) -> FockVector:
    """z^{-d} coefficient of E_+^m(z) = exp(-m sum_{n>0} z^{-n} a_n/n)."""
    return _exp_coeff_apply(1, -m, d, vec)


def _exp_product_mode(table, m: int, st, depth: int, u0: int) -> dict:
    """sum_{d >= 0} [z^{u0+d}] exp(m sum z^n X_{-n}/n) [z^{-d}]
    exp(-m sum z^{-n} X_n/n) applied to the basis state `st`, for
    commuting X_n = table(n, .) with integer coefficients that lower the
    excitation by n; `depth` bounds the excitation of `st`, so the
    lowering series stops there.  Unshifted: the caller applies its own
    U^{-m}."""
    top = u0 + depth
    if top < 0:
        return {}
    num = {}                             # numerators over top! depth!
    for d in range(max(0, -u0), depth + 1):
        u = u0 + d
        weight = factorial(top) // factorial(u) * (factorial(depth) // factorial(d))
        for low, c in _series(table, 1, -m, st, d):
            accumulate(num, _series(table, -1, m, low, u), weight * c)
    den = factorial(top) * factorial(depth)
    return {new: _quotient(p, den) for new, p in num.items()}


@lru_cache(maxsize=STATE_CACHE_SIZE)
def _vertex_modes(m: int, st: FermionState) -> dict:
    """n -> Phi_m(n) st, filled by _vertex_mode_state."""
    return {}


def _vertex_mode_state(m: int, n: int, st: FermionState) -> tuple:
    modes = _vertex_modes(m, st)
    got = modes.get(n)
    if got is None:
        raw = _exp_product_mode(_boson_state, m, st, _level(st), -m * st.charge - n)
        got = modes[n] = tuple((_shifted(s, -m), c) for s, c in raw.items())
    return got


def vertex_mode(m: int, n: int, vec: FockVector) -> FockVector:
    """Phi_m(n), the z^{-n} mode of U^{-m} z^{m a_0} E_-^m(z) E_+^m(z)."""
    return vec.apply_linear(lambda st: _vertex_mode_state(m, n, st))


def vertex_mode_range(m: int, st: FermionState):
    """The top mode: Phi_m(n) st vanishes for n > |lam| - m * charge."""
    return _level(st) - m * st.charge


class FockBasis:
    """All states of energy <= emax, sorted by (energy, sector, partition)."""

    def __init__(self, emax):
        emax = as_fraction(emax)
        states = []
        k = 0
        while Fraction(k * k, 2) <= emax:
            for kk in ({k, -k}):
                budget = emax - Fraction(kk * kk, 2)
                for n in range(int(budget) + 1):
                    for lam in partitions_of(n):
                        states.append(FermionState(kk, lam))
            k += 1
        states.sort(key=lambda s: (s.energy, s.sector, s.lam))
        self.states = states

    def __iter__(self):
        return iter(self.states)

    def __len__(self):
        return len(self.states)


# ----------------------------------------------------------------------
# graded two-factor space
# ----------------------------------------------------------------------


class PairState(NamedTuple):
    left: FermionState
    right: FermionState

    @property
    def energy(self) -> Fraction:
        return self.left.energy + self.right.energy


class PairVector(SparseVector):
    """Finite rational linear combination of two-factor states."""

    __slots__ = ()

    @classmethod
    def basis(cls, left, right) -> "PairVector":
        return cls({PairState(left, right): 1})

    def __repr__(self):
        bits = [
            f"{c}*({st.left}|{st.right})"
            for st, c in sorted(self.terms.items(), key=lambda kv: repr(kv[0]))
        ]
        return "PairVector(" + (" + ".join(bits) or "0") + ")"


def pair_bilinear_apply(n: int, vec: PairVector, which: tuple) -> PairVector:
    """E_{ij}(n) = sum_{p-q=n} e_p^{(i)} (e_q^{(j)})* for i != j."""
    i, j = which

    def image(st):
        src = st.right if j == 2 else st.left
        dst_state = st.left if i == 1 else st.right
        qs = src.occupied_prefix()
        qs += range(src.tail_start, dst_state.tail_start - n)
        for q in qs:
            # e on factor i can vanish, e* on an occupied q cannot; the two
            # act on different factors, so test the first one first
            second = apply_e(q + n, dst_state)
            if second is None:
                continue
            s2, new_dst = second
            s1, mid = apply_e_star(q, src)
            # operator order: e* on factor j first, then e on factor i
            if j == 2:
                yield PairState(new_dst, mid), s1 * (-1 if st.left.parity else 1) * s2
            else:
                yield PairState(mid, new_dst), s1 * s2 * (-1 if mid.parity else 1)

    return vec.apply_linear(image)


def E_apply(n: int, vec: PairVector) -> PairVector:
    return pair_bilinear_apply(n, vec, (1, 2))


def F_apply(n: int, vec: PairVector) -> PairVector:
    return pair_bilinear_apply(n, vec, (2, 1))


def _b_state(n: int, st: PairState, sign: int = -1):
    """a_n^(1) + sign * a_n^(2) on one pair state as (state, coefficient)
    pairs: the difference boson b_n = 2H(n) by default, 2K(n) with sign 1.  The
    bosons are even, so the second factor takes no Koszul sign."""
    left, right = st
    out = [(_tuple_new(PairState, (new, right)), c) for new, c in _boson_state(n, left)]
    out += [(_tuple_new(PairState, (left, new)), sign * c) for new, c in _boson_state(n, right)]
    return out


def K2_apply(n: int, vec: PairVector) -> PairVector:
    """Twice the sum current: 2K(n) = a_n^(1) + a_n^(2)."""
    return vec.apply_linear(lambda st: _b_state(n, st, 1))


def psi_mode(m: int, n: int, vec: PairVector) -> PairVector:
    """Psi_m(n) = sum_{i+j=n} Phi_m(i) tensor Phi_{-m}(j), graded."""
    odd = bool(m & 1)

    def image(st):
        i_hi = vertex_mode_range(m, st.left)
        j_hi = vertex_mode_range(-m, st.right)
        sign = -1 if (odd and st.left.parity) else 1
        for i in range(n - j_hi, i_hi + 1):
            right = _vertex_mode_state(-m, n - i, st.right)
            if not right:
                continue
            for ls, lc in _vertex_mode_state(m, i, st.left):
                for rs, rc in right:
                    yield PairState(ls, rs), sign * lc * rc

    return vec.apply_linear(image)


def b_apply(n: int, vec: PairVector) -> PairVector:
    """Difference boson b_n = a_n^(1) - a_n^(2) = 2H(n); [b_m, b_n] = 2m delta."""
    return vec.apply_linear(lambda st: _b_state(n, st))


def psi_mode_b(m: int, n: int, vec: PairVector) -> PairVector:
    """Psi_m(n) built from the difference-boson system:
    Psi_m(z) = C_m V^{-m} z^{m b_0} exp(m sum_{n>0} z^n b_{-n}/n)
    exp(-m sum_{n>0} z^{-n} b_n/n), modes Psi_m(z) = sum Psi_m(n) z^{-n}.

    Here V is the unsigned shift (U x) ox (U^{-1} y), not the graded one
    of V_apply, and C_m is the cocycle (-1)^{m |left|}: the bare boson
    exponential cannot see the fermionic crossing of the two factors,
    which for odd m flips the sign on odd left sectors.  With it, this
    agrees entry for entry with the graded product of the single-factor
    vertex operators."""

    def image(st):
        left, right = st
        sign = -1 if m % 2 and left.parity else 1
        # the b modes preserve both factor charges, so total lowering
        # is bounded by the excitation above the fixed sector pair
        raw = _exp_product_mode(_b_state, m, st, _level(left) + _level(right),
                                -m * (left.charge - right.charge) - n)
        return [(PairState(_shifted(s.left, -m), _shifted(s.right, m)), sign * c)
                for s, c in raw.items()]

    return vec.apply_linear(image)


def b_sugawara_apply(k: int, vec: PairVector) -> PairVector:
    """Virasoro operators of the difference-boson system,
    L_k = (1/4) sum_{r+s=k} :b_r b_s: (central charge 1); these are the
    generators acting within each level-one component, and commute with
    the sum-boson ones."""
    return sugawara(k, vec, b_apply, Fraction(1, 4), lambda st: _level(st.left) + _level(st.right))


def V_apply(vec: PairVector, power: int = 1) -> PairVector:
    """Graded shift V^power with V(x ox y) = (-1)^|x| (Ux) ox (U^{-1}y).

    The sign makes V_apply(_, k) and V_apply(_, -k) exact inverses and
    gives the clean conjugation laws V E(n) V^{-1} = E(n+2),
    V F(n) V^{-1} = F(n-2).  V lowers the wedge label of the right
    factor, so it raises b_0 = a_0^(1) - a_0^(2) by 2 * `power`.
    """
    k = power
    sigma = -1 if (k * (k - 1) // 2) % 2 else 1
    return PairVector({
        PairState(_shifted(st.left, k), _shifted(st.right, -k)):
            sigma * (-1 if (k % 2 and st.left.parity) else 1) * coeff
        for st, coeff in vec.terms.items()
    })


class PairBasis:
    def __init__(self, emax):
        emax = as_fraction(emax)
        single = FockBasis(emax)
        states = []
        for s1 in single:
            for s2 in single:
                if s1.energy + s2.energy <= emax:
                    states.append(PairState(s1, s2))
        states.sort(key=lambda s: (s.energy, s.left.sector, s.right.sector,
                                   s.left.lam, s.right.lam))
        self.states = states

    def __iter__(self):
        return iter(self.states)

    def __len__(self):
        return len(self.states)


# ----------------------------------------------------------------------
# the theta decomposition of the two-factor trace
# ----------------------------------------------------------------------


def two_factor_trace(emax) -> dict:
    """Diagonal sum over the truncated pair basis: maps
    (q1 - q2, energy) -> state count, the coefficients of
    tr(g q^{L_0}) with g = diag(zeta, 1/zeta) acting as zeta^{q1 - q2}."""
    out = {}
    for st in PairBasis(emax):
        key = (st.left.charge - st.right.charge, st.energy)
        out[key] = out.get(key, 0) + 1
    return out


def two_factor_trace_closed(zeta_exp: int, energy) -> int:
    """The same trace coefficient from the closed factorised form
    sum_j X_j(zeta, q) Psi_j(q): with 2n = zeta_exp, the coefficient is
    sum_{m in j+Z} sum_{a+b = E - n^2 - m^2} P(a) P(b)."""
    n = Fraction(zeta_exp, 2)
    energy = as_fraction(energy)
    total = 0
    m = Fraction(zeta_exp % 2, 2)
    while n * n + m * m <= energy:
        for mm in ({m, -m} if m else {m}):
            rest = energy - n * n - mm * mm
            if rest < 0 or rest.denominator != 1:
                continue
            rest = int(rest)
            total += sum(
                num_partitions(a) * num_partitions(rest - a) for a in range(rest + 1)
            )
        m += 1
    return total
