"""Identity suites on the truncated Fock space.

Each suite enumerates source states inside an energy window, applies
both sides of an operator identity exactly, and reports any mismatching
matrix element.  Equality is exact rational equality; there are no
tolerances anywhere.  A report is a dict with the suite name, the number
of comparisons made and the list of mismatches (empty means verified).
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb

from .fock import (
    E_apply,
    F_apply,
    FockBasis,
    FockVector,
    H_apply,
    K_apply,
    PairBasis,
    PairVector,
    V_apply,
    boson_apply,
    fermion_apply,
    lowering_coeff_apply,
    lprime_apply,
    lprime_zero_bilinear,
    psi_mode,
    raising_coeff_apply,
    shift_apply,
    sugawara_apply,
    two_factor_trace,
    two_factor_trace_closed,
    vacuum,
    vertex_mode,
    vertex_mode_matrix,
    vertex_mode_range,
    FermionState,
)


def _report(name, checked, mismatches, **extra):
    out = {"name": name, "checked": checked, "mismatches": mismatches, "ok": not mismatches}
    out.update(extra)
    return out


def check_car(emax, mode_span=3) -> dict:
    """e_m e_n* + e_n* e_m = delta_{mn}, e_m e_n + e_n e_m = 0."""
    basis = FockBasis(emax)
    mism = []
    checked = 0
    for st in basis:
        v = FockVector.basis(st)
        for m, n in itertools.product(range(-mode_span, mode_span + 1), repeat=2):
            anti = fermion_apply("e", m, fermion_apply("e*", n, v)) + fermion_apply(
                "e*", n, fermion_apply("e", m, v)
            )
            want = v if m == n else FockVector.zero()
            checked += 1
            if anti != want:
                mism.append(("car", st, m, n))
            if m <= n:
                ee = fermion_apply("e", m, fermion_apply("e", n, v)) + fermion_apply(
                    "e", n, fermion_apply("e", m, v)
                )
                checked += 1
                if not ee.is_zero():
                    mism.append(("ee", st, m, n))
    return _report("car", checked, mism)


def check_boson(emax, mode_span=3) -> dict:
    """[a_m, a_n] = m delta_{m+n,0} and a_0 = charge."""
    basis = FockBasis(emax)
    mism = []
    checked = 0
    for st in basis:
        v = FockVector.basis(st)
        if boson_apply(0, v) != v.scale(st.charge):
            mism.append(("charge", st))
        checked += 1
        for m in range(-mode_span, mode_span + 1):
            for n in range(-mode_span, mode_span + 1):
                if m == 0 or n == 0:
                    continue
                lhs = boson_apply(m, boson_apply(n, v)) - boson_apply(n, boson_apply(m, v))
                want = v.scale(m) if m + n == 0 else FockVector.zero()
                checked += 1
                if lhs != want:
                    mism.append(("bracket", st, m, n))
    return _report("boson", checked, mism)


def check_virasoro(emax, mode_span=2) -> dict:
    """L' = L (fermion vs boson bilinears), the c = 1 bracket, and the
    energy operator as a normal-ordered bilinear."""
    basis = FockBasis(emax)
    mism = []
    checked = 0
    for st in basis:
        v = FockVector.basis(st)
        if lprime_zero_bilinear(st) != st.energy:
            mism.append(("energy", st))
        checked += 1
        for k in range(-mode_span, mode_span + 1):
            checked += 1
            if lprime_apply(k, v) != sugawara_apply(k, v):
                mism.append(("L'=L", st, k))
        for m, n in itertools.product(range(-mode_span, mode_span + 1), repeat=2):
            lhs = lprime_apply(m, lprime_apply(n, v)) - lprime_apply(n, lprime_apply(m, v))
            rhs = lprime_apply(m + n, v).scale(m - n)
            if m + n == 0:
                rhs = rhs + v.scale(Fraction(m**3 - m, 12))
            checked += 1
            if lhs != rhs:
                mism.append(("bracket", st, m, n))
    return _report("virasoro", checked, mism)


def check_shift(emax, mode_span=2) -> dict:
    """U e_i U* = e_{i+1}, U a_n U* = a_n + delta,
    U L_k U* = L_k + a_k + delta/2; U Omega_k = Omega_{k+1}."""
    basis = FockBasis(emax)
    mism = []
    checked = 0
    if shift_apply(1, FockVector.basis(vacuum(0))) != FockVector.basis(vacuum(1)):
        mism.append(("vacuum",))
    for st in basis:
        v = FockVector.basis(st)
        for i in range(-mode_span, mode_span + 1):
            lhs = shift_apply(1, fermion_apply("e", i, shift_apply(-1, v)))
            checked += 1
            if lhs != fermion_apply("e", i + 1, v):
                mism.append(("UeU", st, i))
        for n in range(-mode_span, mode_span + 1):
            lhs = shift_apply(1, boson_apply(n, shift_apply(-1, v)))
            rhs = boson_apply(n, v) + (v if n == 0 else FockVector.zero())
            checked += 1
            if lhs != rhs:
                mism.append(("UaU", st, n))
        for k in range(-mode_span, mode_span + 1):
            lhs = shift_apply(1, lprime_apply(k, shift_apply(-1, v)))
            rhs = lprime_apply(k, v) + boson_apply(k, v)
            if k == 0:
                rhs = rhs + v.scale(Fraction(1, 2))
            checked += 1
            if lhs != rhs:
                mism.append(("ULU", st, k))
    return _report("shift", checked, mism)


def check_example1(emax, mode_pad=4) -> dict:
    """Phi_1(n) = e_{n-1} and Phi_{-1}(n) = e*_{-n} as exact maps."""
    basis = FockBasis(emax)
    mism = []
    checked = 0
    for st in basis:
        v = FockVector.basis(st)
        for n in range(-mode_pad, vertex_mode_range(1, st) + 1):
            checked += 1
            if vertex_mode(1, n, v) != fermion_apply("e", n - 1, v):
                mism.append(("phi1", st, n))
        for n in range(-mode_pad, vertex_mode_range(-1, st) + 1):
            checked += 1
            if vertex_mode(-1, n, v) != fermion_apply("e*", -n, v):
                mism.append(("phi-1", st, n))
    return _report("example1", checked, mism)


def check_vacuum_anchor(charge_span=2, m_span=2) -> dict:
    """z^{-qm} Phi_m(z) (charge-q vacuum)|_{z=0} = charge-(q+m) vacuum."""
    mism = []
    checked = 0
    for q in range(-charge_span, charge_span + 1):
        vq = FockVector.basis(FermionState(-q, ()))
        for m in range(-m_span, m_span + 1):
            if m == 0:
                continue
            checked += 2
            low = vertex_mode(m, -q * m, vq)
            if low != FockVector.basis(FermionState(-(q + m), ())):
                mism.append(("lowest", q, m))
            if not vertex_mode(m, -q * m + 1, vq).is_zero():
                mism.append(("below", q, m))
    return _report("vacuum-anchor", checked, mism)


def check_fubini_veneziano(emax, ms=(1, 2, -1), ks=(-2, -1, 0, 1, 2), mode_pad=3) -> dict:
    """[L_k, Phi_m(n)] = (-(n+k) + (m^2/2)(k+1)) Phi_m(n+k), mode by mode."""
    basis = FockBasis(emax)
    mism = []
    checked = 0
    for st in basis:
        v = FockVector.basis(st)
        for m in ms:
            hi = vertex_mode_range(m, st)
            for k in ks:
                for n in range(-mode_pad, hi + abs(k) + 1):
                    lhs = lprime_apply(k, vertex_mode(m, n, v)) - vertex_mode(
                        m, n, lprime_apply(k, v)
                    )
                    coeff = Fraction(-(n + k)) + Fraction(m * m * (k + 1), 2)
                    rhs = vertex_mode(m, n + k, v).scale(coeff)
                    checked += 1
                    if lhs != rhs:
                        mism.append((st, m, k, n))
    return _report("fubini-veneziano", checked, mism)


def check_exchange(emax, orders=3, pairs=((1, 1), (2, 1), (2, 2), (-1, 1))) -> dict:
    """E_+^m(z) E_-^m'(w) = (1 - w/z)^{m m'} E_-^m'(w) E_+^m(z),
    coefficient by coefficient (binomial series for negative powers)."""
    basis = FockBasis(emax)
    mism = []
    checked = 0
    for st in basis:
        v = FockVector.basis(st)
        for m, mp in pairs:
            e = m * mp
            for a in range(orders + 1):
                for b in range(orders + 1):
                    lhs = lowering_coeff_apply(a, m, raising_coeff_apply(b, mp, v))
                    rhs = FockVector.zero()
                    for i in range(min(a, b) + 1):
                        if e >= 0:
                            coeff = Fraction((-1) ** i * comb(e, i))
                        else:
                            coeff = Fraction(comb(-e + i - 1, i))
                        if coeff:
                            rhs = rhs + raising_coeff_apply(
                                b - i, mp, lowering_coeff_apply(a - i, m, v)
                            ).scale(coeff)
                    checked += 1
                    if lhs != rhs:
                        mism.append((st, m, mp, a, b))
    return _report("exchange", checked, mism)


def check_adjoint(emax, ms=(1, -1, 2), mode_span=3) -> dict:
    """Phi_m(n)^T = Phi_{-m}(m^2 - n) as matrices on the truncated basis."""
    basis = FockBasis(emax)
    mism = []
    checked = 0
    for m in ms:
        for n in range(-mode_span, mode_span + 1):
            a = dict(vertex_mode_matrix(m, n, basis).entries)
            b = vertex_mode_matrix(-m, m * m - n, basis).entries
            checked += 1
            if a != {(j, i): c for (i, j), c in b}:
                mism.append((m, n))
    return _report("adjoint", checked, mism)


def check_example2(emax, mode_span=3, sample=None) -> dict:
    """E(n) = Psi_1(n+1) and F(n) = -Psi_{-1}(n+1).

    The minus sign on the F side is forced: with Example 1 fixing the
    single-factor vertex operators and the level-one bracket
    [E(m), F(n)] = 2 H(m+n) + m delta Tr fixing the bilinears, the two
    graded products Psi_{+-1} cannot both match bare (the shift V and
    its inverse differ by a sign on vacua), so one dictionary entry
    carries -1.
    """
    pb = PairBasis(emax)
    states = list(pb)[:sample] if sample else list(pb)
    mism = []
    checked = 0
    for st in states:
        v = PairVector({st: 1})
        for n in range(-mode_span, mode_span + 1):
            checked += 2
            if E_apply(n, v) != psi_mode(1, n + 1, v):
                mism.append(("E", st, n))
            if F_apply(n, v) != psi_mode(-1, n + 1, v).scale(-1):
                mism.append(("F", st, n))
    anchor = psi_mode(1, 0, PairVector.basis(vacuum(0), vacuum(0)))
    want = PairVector.basis(FermionState(-1, ()), FermionState(1, ()))
    checked += 1
    if anchor != want:
        mism.append(("anchor",))
    return _report("example2", checked, mism)


def check_level_one_brackets(emax, mode_span=2, sample=None) -> dict:
    """[X(m), Y(n)] = [X,Y](m+n) + m delta Tr(XY) on the pair space,
    plus [H(m), K(n)] = 0 and the V conjugation laws."""
    pb = PairBasis(emax)
    states = list(pb)[:sample] if sample else list(pb)
    mism = []
    checked = 0
    for st in states:
        v = PairVector({st: 1})
        for m, n in itertools.product(range(-mode_span, mode_span + 1), repeat=2):
            lhs = E_apply(m, F_apply(n, v)) - F_apply(n, E_apply(m, v))
            rhs = H_apply(m + n, v).scale(2)
            if m + n == 0:
                rhs = rhs + v.scale(m)
            checked += 1
            if lhs != rhs:
                mism.append(("EF", st, m, n))
            lhs = H_apply(m, E_apply(n, v)) - E_apply(n, H_apply(m, v))
            checked += 1
            if lhs != E_apply(m + n, v):
                mism.append(("HE", st, m, n))
            lhs = H_apply(m, K_apply(n, v)) - K_apply(n, H_apply(m, v))
            checked += 1
            if not lhs.is_zero():
                mism.append(("HK", st, m, n))
        for n in range(-mode_span, mode_span + 1):
            checked += 2
            if V_apply(E_apply(n, V_apply(v, -1)), 1) != E_apply(n + 2, v):
                mism.append(("VEV", st, n))
            if V_apply(F_apply(n, V_apply(v, -1)), 1) != F_apply(n - 2, v):
                mism.append(("VFV", st, n))
    return _report("level1-brackets", checked, mism)


def check_psi_boson(emax, ms=(1, -1, 2), mode_span=2, sample=None) -> dict:
    """The difference-boson realisation of the Psi modes (with its
    cocycle) equals the graded product of single-factor vertex operators."""
    from .fock import psi_mode_b

    pb = PairBasis(emax)
    states = list(pb)[:sample] if sample else list(pb)
    mism = []
    checked = 0
    for st in states:
        v = PairVector({st: 1})
        for m in ms:
            for n in range(-mode_span, mode_span + 1):
                checked += 1
                if psi_mode(m, n, v) != psi_mode_b(m, n, v):
                    mism.append((st, m, n))
    return _report("psi-boson", checked, mism)


def check_equation_of_motion(emax=None, charges=(1, -1, 2, -2), powers=5) -> dict:
    """Psi_k(z) applied to the double vacuum solves dF/dz = L_{-1} F:
    mode by mode, Psi_k(-j)(Omega ox Omega) = (1/j!) (L_{-1})^j xi_k with
    L_{-1} the difference-boson Virasoro lowering operator and xi_k the
    charge-(k, -k) vacuum pair.  This is the identity that reduces the
    existence of primary fields to L_1-power pairings."""
    from math import factorial

    from .fock import FermionState, b_sugawara_apply

    om2 = PairVector.basis(vacuum(0), vacuum(0))
    mism = []
    checked = 0
    for k in charges:
        xi = PairVector.basis(FermionState(-k, ()), FermionState(k, ()))
        power = xi
        for j in range(powers):
            checked += 1
            if psi_mode(k, -j, om2) != power.scale(Fraction(1, factorial(j))):
                mism.append((k, j))
            power = b_sugawara_apply(-1, power)
        checked += 1
        if not psi_mode(k, 1, om2).is_zero():
            mism.append((k, "above-top"))
    return _report("equation-of-motion", checked, mism)


def check_theta(emax) -> dict:
    """Diagonal two-factor trace against the factorised spin sum
    sum_j X_j(zeta, q) Psi_j(q), coefficient by coefficient."""
    trace = two_factor_trace(emax)
    mism = []
    for (zx, en), count in sorted(trace.items()):
        want = two_factor_trace_closed(zx, en)
        if count != want:
            mism.append((zx, en, count, want))
    return _report("theta", len(trace), mism)


def check_grading(emax, mode_span=2) -> dict:
    """Every operator's energy and charge shift matches its declaration."""
    basis = FockBasis(emax)
    mism = []
    checked = 0
    declared = []
    for n in range(-mode_span, mode_span + 1):
        declared.append((f"a_{n}", lambda v, n=n: boson_apply(n, v), -n, 0))
        declared.append((f"L'_{n}", lambda v, n=n: lprime_apply(n, v), -n, 0))
        declared.append(
            (f"e_{n}", lambda v, n=n: fermion_apply("e", n, v), -(n + Fraction(1, 2)), 1)
        )
        declared.append(
            (f"e*_{n}", lambda v, n=n: fermion_apply("e*", n, v), n + Fraction(1, 2), -1)
        )
    for m in (1, -1, 2):
        for n in range(-2, 3):
            declared.append(
                (
                    f"Phi_{m}({n})",
                    lambda v, m=m, n=n: vertex_mode(m, n, v),
                    Fraction(m * m, 2) - n,
                    m,
                )
            )
    for st in basis:
        v = FockVector.basis(st)
        for name, op, de, dq in declared:
            got = op(v)
            checked += 1
            for ts in got.terms:
                if ts.energy - st.energy != de or ts.charge - st.charge != dq:
                    mism.append((name, st, ts))
                    break
    return _report("grading", checked, mism)


SUITES = {
    "car": check_car,
    "boson": check_boson,
    "virasoro": check_virasoro,
    "shift": check_shift,
    "example1": check_example1,
    "vacuum-anchor": lambda emax: check_vacuum_anchor(),
    "fv": check_fubini_veneziano,
    "exchange": check_exchange,
    "adjoint": check_adjoint,
    "example2": check_example2,
    "level1": check_level_one_brackets,
    "psi-boson": check_psi_boson,
    "eqmotion": lambda emax: check_equation_of_motion(),
    "theta": check_theta,
    "grading": check_grading,
}


def run_suites(emax, names=None, pair_emax=None) -> list:
    """Run the named suites (all by default) and return their reports.

    The pair-space suites run at `pair_emax` (default: emax scaled down
    to keep the two-factor enumeration tractable).
    """
    names = list(names) if names else list(SUITES)
    pair_emax = pair_emax if pair_emax is not None else emax
    reports = []
    for name in names:
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r}")
        bound = pair_emax if name in ("example2", "level1", "psi-boson", "theta") else emax
        reports.append(SUITES[name](bound))
    return reports
