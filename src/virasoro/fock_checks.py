"""Identity suites on the truncated Fock space.

Each suite is a generator of comparisons `(key, lhs, rhs)`: it
enumerates source states inside an energy window, applies both sides of
an operator identity exactly, and yields the two results with a key that
names the source state and the modes.  Every suite takes the window and
may ignore it.  `_run` consumes the stream: it counts every comparison,
keeps the key of each pair that differs, and builds the report, a dict
with the suite name, the number of comparisons (`checked`), the keys of
the mismatching pairs (`mismatches`, empty means verified) and `ok`.
Equality is exact rational equality; there are no tolerances anywhere.

The suites look up the operators they apply as module globals when they
run, so a wrapper installed on an attribute of this module sees every
call.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb, factorial

from .fock import (
    E_apply,
    F_apply,
    FermionState,
    FockBasis,
    FockVector,
    K2_apply,
    PairBasis,
    PairVector,
    V_apply,
    b_apply,
    b_sugawara_apply,
    boson_apply,
    fermion_apply,
    lowering_coeff_apply,
    lprime2_apply,
    lprime2_zero_bilinear,
    psi_mode,
    psi_mode_b,
    raising_coeff_apply,
    shift_apply,
    sugawara2_apply,
    two_factor_trace,
    two_factor_trace_closed,
    vacuum,
    vertex_mode,
    vertex_mode_range,
)
from .scalars import UsageError


def _run(name, comparisons) -> dict:
    """Count the `(key, lhs, rhs)` comparisons and report the keys of
    the pairs that differ."""
    checked = 0
    mismatches = []
    for key, lhs, rhs in comparisons:
        checked += 1
        if lhs != rhs:
            mismatches.append(key)
    return {"name": name, "checked": checked, "mismatches": mismatches, "ok": not mismatches}


def check_car(emax):
    """e_m e_n* + e_n* e_m = delta_{mn}, e_m e_n + e_n e_m = 0."""
    for st in FockBasis(emax):
        v = FockVector.basis(st)
        for m, n in itertools.product(range(-3, 4), repeat=2):
            anti = fermion_apply("e", m, fermion_apply("e*", n, v)) + fermion_apply(
                "e*", n, fermion_apply("e", m, v)
            )
            yield ("car", st, m, n), anti, v if m == n else FockVector.zero()
            if m <= n:
                ee = fermion_apply("e", m, fermion_apply("e", n, v)) + fermion_apply(
                    "e", n, fermion_apply("e", m, v)
                )
                yield ("ee", st, m, n), ee, FockVector.zero()


def check_boson(emax):
    """[a_m, a_n] = m delta_{m+n,0} and a_0 = charge."""
    for st in FockBasis(emax):
        v = FockVector.basis(st)
        yield ("charge", st), boson_apply(0, v), v.scale(st.charge)
        for m, n in itertools.product(range(-3, 4), repeat=2):
            if m == 0 or n == 0:
                continue
            lhs = boson_apply(m, boson_apply(n, v)) - boson_apply(n, boson_apply(m, v))
            yield ("bracket", st, m, n), lhs, v.scale(m) if m + n == 0 else FockVector.zero()


def check_virasoro(emax):
    """2L' = 2L (fermion vs boson bilinears), [2L'_m, 2L'_n] = 2(m-n) 2L'_{m+n}
    + delta_{m+n,0} (m^3-m)/3, and twice the energy k^2 + 2|lam| as a
    normal-ordered bilinear."""
    for st in FockBasis(emax):
        v = FockVector.basis(st)
        yield ("energy", st), lprime2_zero_bilinear(st), st.sector**2 + 2 * sum(st.lam)
        for k in range(-2, 3):
            yield ("L'=L", st, k), lprime2_apply(k, v), sugawara2_apply(k, v)
        for m, n in itertools.product(range(-2, 3), repeat=2):
            lhs = lprime2_apply(m, lprime2_apply(n, v)) - lprime2_apply(n, lprime2_apply(m, v))
            rhs = lprime2_apply(m + n, v).scale(2 * (m - n))
            if m + n == 0:
                rhs = rhs + v.scale((m**3 - m) // 3)
            yield ("bracket", st, m, n), lhs, rhs


def check_shift(emax):
    """U e_i U* = e_{i+1}, U a_n U* = a_n + delta,
    U 2L'_k U* = 2L'_k + 2a_k + delta; U Omega_k = Omega_{k+1}."""
    yield ("vacuum",), shift_apply(1, FockVector.basis(vacuum(0))), FockVector.basis(vacuum(1))
    for st in FockBasis(emax):
        v = FockVector.basis(st)
        for i in range(-2, 3):
            lhs = shift_apply(1, fermion_apply("e", i, shift_apply(-1, v)))
            yield ("UeU", st, i), lhs, fermion_apply("e", i + 1, v)
        for n in range(-2, 3):
            lhs = shift_apply(1, boson_apply(n, shift_apply(-1, v)))
            rhs = boson_apply(n, v) + (v if n == 0 else FockVector.zero())
            yield ("UaU", st, n), lhs, rhs
        for k in range(-2, 3):
            lhs = shift_apply(1, lprime2_apply(k, shift_apply(-1, v)))
            rhs = lprime2_apply(k, v) + boson_apply(k, v).scale(2)
            if k == 0:
                rhs = rhs + v
            yield ("ULU", st, k), lhs, rhs


def check_example1(emax):
    """Phi_1(n) = e_{n-1} and Phi_{-1}(n) = e*_{-n} as exact maps."""
    for st in FockBasis(emax):
        v = FockVector.basis(st)
        for n in range(-4, vertex_mode_range(1, st) + 1):
            yield ("phi1", st, n), vertex_mode(1, n, v), fermion_apply("e", n - 1, v)
        for n in range(-4, vertex_mode_range(-1, st) + 1):
            yield ("phi-1", st, n), vertex_mode(-1, n, v), fermion_apply("e*", -n, v)


def check_vacuum_anchor(emax):
    """z^{-qm} Phi_m(z) (charge-q vacuum)|_{z=0} = charge-(q+m) vacuum."""
    for q in range(-2, 3):
        vq = FockVector.basis(FermionState(-q, ()))
        for m in (-2, -1, 1, 2):
            want = FockVector.basis(FermionState(-(q + m), ()))
            yield ("lowest", q, m), vertex_mode(m, -q * m, vq), want
            yield ("below", q, m), vertex_mode(m, -q * m + 1, vq), FockVector.zero()


def check_fubini_veneziano(emax):
    """[2L'_k, Phi_m(n)] = (-2(n+k) + m^2 (k+1)) Phi_m(n+k), mode by mode."""
    for st in FockBasis(emax):
        v = FockVector.basis(st)
        for m in (1, 2, -1):
            hi = vertex_mode_range(m, st)
            for k in range(-2, 3):
                for n in range(-3, hi + abs(k) + 1):
                    lhs = lprime2_apply(k, vertex_mode(m, n, v)) - vertex_mode(
                        m, n, lprime2_apply(k, v)
                    )
                    coeff = -2 * (n + k) + m * m * (k + 1)
                    yield (st, m, k, n), lhs, vertex_mode(m, n + k, v).scale(coeff)


def check_exchange(emax):
    """E_+^m(z) E_-^m'(w) = (1 - w/z)^{m m'} E_-^m'(w) E_+^m(z),
    coefficient by coefficient (binomial series for negative powers)."""
    for st in FockBasis(emax):
        v = FockVector.basis(st)
        for m, mp in ((1, 1), (2, 1), (2, 2), (-1, 1)):
            e = m * mp
            for a, b in itertools.product(range(4), repeat=2):
                lhs = lowering_coeff_apply(a, m, raising_coeff_apply(b, mp, v))
                rhs = FockVector.zero()
                for i in range(min(a, b) + 1):
                    if e >= 0:
                        coeff = (-1) ** i * comb(e, i)
                    else:
                        coeff = comb(-e + i - 1, i)
                    if coeff:
                        rhs = rhs + raising_coeff_apply(
                            b - i, mp, lowering_coeff_apply(a - i, m, v)
                        ).scale(coeff)
                yield (st, m, mp, a, b), lhs, rhs


def check_adjoint(emax):
    """Phi_m(n)^T = Phi_{-m}(m^2 - n) as matrices on the truncated basis,
    each a map (target, source) -> coefficient over the images that stay
    inside the basis."""
    basis = FockBasis(emax)
    inside = set(basis)

    def matrix(m, n):
        return {(ts, st): c for st in basis
                for ts, c in vertex_mode(m, n, FockVector.basis(st)).terms.items() if ts in inside}

    for m in (1, -1, 2):
        for n in range(-3, 4):
            a, b = matrix(m, n), matrix(-m, m * m - n)
            yield (m, n), a, {(j, i): c for (i, j), c in b.items()}


def check_example2(emax):
    """E(n) = Psi_1(n+1) and F(n) = -Psi_{-1}(n+1).

    The minus sign on the F side is forced: with Example 1 fixing the
    single-factor vertex operators and the level-one bracket
    [E(m), F(n)] = b(m+n) + m delta fixing the bilinears, the two
    graded products Psi_{+-1} cannot both match bare (the shift V and
    its inverse differ by a sign on vacua), so one dictionary entry
    carries -1.
    """
    for st in PairBasis(emax):
        v = PairVector({st: 1})
        for n in range(-3, 4):
            yield ("E", st, n), E_apply(n, v), psi_mode(1, n + 1, v)
            yield ("F", st, n), F_apply(n, v), psi_mode(-1, n + 1, v).scale(-1)
    anchor = psi_mode(1, 0, PairVector.basis(vacuum(0), vacuum(0)))
    yield ("anchor",), anchor, PairVector.basis(FermionState(-1, ()), FermionState(1, ()))


def check_level_one_brackets(emax):
    """[E(m), F(n)] = b(m+n) + m delta_{m+n,0}, [b(m), E(n)] = 2E(m+n) and
    [b(m), 2K(n)] = 0 on the pair space, in the integral normalisation
    b = 2H, 2K = a^(1) + a^(2); plus the V conjugation laws."""
    for st in PairBasis(emax):
        v = PairVector({st: 1})
        for m, n in itertools.product(range(-2, 3), repeat=2):
            lhs = E_apply(m, F_apply(n, v)) - F_apply(n, E_apply(m, v))
            rhs = b_apply(m + n, v)
            if m + n == 0:
                rhs = rhs + v.scale(m)
            yield ("EF", st, m, n), lhs, rhs
            lhs = b_apply(m, E_apply(n, v)) - E_apply(n, b_apply(m, v))
            yield ("bE", st, m, n), lhs, E_apply(m + n, v).scale(2)
            lhs = b_apply(m, K2_apply(n, v)) - K2_apply(n, b_apply(m, v))
            yield ("bK", st, m, n), lhs, PairVector.zero()
        for n in range(-2, 3):
            yield ("VEV", st, n), V_apply(E_apply(n, V_apply(v, -1)), 1), E_apply(n + 2, v)
            yield ("VFV", st, n), V_apply(F_apply(n, V_apply(v, -1)), 1), F_apply(n - 2, v)


def check_psi_boson(emax):
    """The difference-boson realisation of the Psi modes (with its
    cocycle) equals the graded product of single-factor vertex operators."""
    for st in PairBasis(emax):
        v = PairVector({st: 1})
        for m in (1, -1, 2):
            for n in range(-2, 3):
                yield (st, m, n), psi_mode(m, n, v), psi_mode_b(m, n, v)


def check_equation_of_motion(emax):
    """Psi_k(z) applied to the double vacuum solves dF/dz = L_{-1} F:
    mode by mode, Psi_k(-j)(Omega ox Omega) = (1/j!) (L_{-1})^j xi_k with
    L_{-1} the difference-boson Virasoro lowering operator and xi_k the
    charge-(k, -k) vacuum pair.  This is the identity that reduces the
    existence of primary fields to L_1-power pairings."""
    om2 = PairVector.basis(vacuum(0), vacuum(0))
    for k in (1, -1, 2, -2):
        power = PairVector.basis(FermionState(-k, ()), FermionState(k, ()))
        for j in range(5):
            yield (k, j), psi_mode(k, -j, om2), power.scale(Fraction(1, factorial(j)))
            power = b_sugawara_apply(-1, power)
        yield (k, "above-top"), psi_mode(k, 1, om2), PairVector.zero()


def check_theta(emax):
    """Diagonal two-factor trace against the factorised spin sum
    sum_j X_j(zeta, q) Psi_j(q), coefficient by coefficient."""
    for (zx, en), count in sorted(two_factor_trace(emax).items()):
        want = two_factor_trace_closed(zx, en)
        yield (zx, en, count, want), count, want


def check_grading(emax):
    """Every operator's energy and charge shift matches its declaration:
    the shifts of an operator's image that differ from the declared one
    form an empty set."""
    declared = []
    for n in range(-2, 3):
        declared.append((f"a_{n}", lambda v, n=n: boson_apply(n, v), -n, 0))
        declared.append((f"2L'_{n}", lambda v, n=n: lprime2_apply(n, v), -n, 0))
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
    for st in FockBasis(emax):
        v = FockVector.basis(st)
        for name, op, de, dq in declared:
            shifts = {(ts.energy - st.energy, ts.charge - st.charge) for ts in op(v).terms}
            yield (name, st), shifts - {(de, dq)}, set()


def _suite(name, comparisons):
    """`SUITES` entry: the report of suite `comparisons` at a window."""
    return lambda emax: _run(name, comparisons(emax))


SUITES = {
    "car": _suite("car", check_car),
    "boson": _suite("boson", check_boson),
    "virasoro": _suite("virasoro", check_virasoro),
    "shift": _suite("shift", check_shift),
    "example1": _suite("example1", check_example1),
    "vacuum-anchor": _suite("vacuum-anchor", check_vacuum_anchor),
    "fv": _suite("fubini-veneziano", check_fubini_veneziano),
    "exchange": _suite("exchange", check_exchange),
    "adjoint": _suite("adjoint", check_adjoint),
    "example2": _suite("example2", check_example2),
    "level1": _suite("level1-brackets", check_level_one_brackets),
    "psi-boson": _suite("psi-boson", check_psi_boson),
    "eqmotion": _suite("equation-of-motion", check_equation_of_motion),
    "theta": _suite("theta", check_theta),
    "grading": _suite("grading", check_grading),
}


# The suites that run on the pair space, at the second window bound.
PAIR_SUITES = ("example2", "level1", "psi-boson", "theta")


def check_window(emax, pair_emax) -> None:
    """A UsageError unless both window bounds reach the q^2 order that the
    character checks read."""
    if emax < 2 or pair_emax < 2:
        raise UsageError(
            "truncation window too small: the character checks reach order q^2, "
            "so --emax and --pair-emax must be at least 2"
        )


def run_suites(emax, names=None, pair_emax=None) -> list:
    """Run the named suites (all by default) and return their reports.

    The pair-space suites run at `pair_emax`, which defaults to `emax`;
    a window below `check_window`'s is a UsageError.
    """
    names = list(names) if names else list(SUITES)
    pair_emax = pair_emax if pair_emax is not None else emax
    check_window(emax, pair_emax)
    reports = []
    for name in names:
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r}")
        bound = pair_emax if name in PAIR_SUITES else emax
        reports.append(SUITES[name](bound))
    return reports
