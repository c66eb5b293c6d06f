import copy
import itertools
import pickle
import random
from collections import Counter
from fractions import Fraction
from math import factorial, lcm, prod

import pytest

from virasoro.combinat import partitions_of
from virasoro.fock import (
    E_apply,
    F_apply,
    FermionState,
    FockBasis,
    FockVector,
    K2_apply,
    PairBasis,
    PairState,
    PairVector,
    V_apply,
    apply_e,
    apply_e_star,
    b_apply,
    boson_apply,
    fermion_apply,
    lowering_coeff_apply,
    lprime2_apply,
    lprime2_zero_bilinear,
    psi_mode,
    raising_coeff_apply,
    shift_apply,
    sugawara2_apply,
    two_factor_trace,
    two_factor_trace_closed,
    vacuum,
    vertex_mode,
    vertex_mode_range,
)
from virasoro import fock, fock_checks
from virasoro.fock_checks import SUITES, run_suites
from virasoro.oscillator import exp_series
from virasoro.scalars import SparseVector

HALF = Fraction(1, 2)


def test_wedge_examples():
    om = vacuum(0)
    assert apply_e(0, om) is None
    sign, st = apply_e(-1, om)
    assert sign == 1 and st == FermionState(-1, ())
    assert st.energy == HALF and st.charge == 1
    sign, st = apply_e_star(0, om)
    assert sign == 1 and st == FermionState(1, ())
    assert st.energy == HALF and st.charge == -1
    assert vacuum(3).energy == Fraction(9, 2)


def test_state_bookkeeping_roundtrip():
    rng = random.Random(8)
    for st in FockBasis(5):
        occ = st.occupied_prefix()
        assert occ == sorted(occ)
        assert all(occ[i] < occ[i + 1] for i in range(len(occ) - 1))
        assert st.energy == Fraction(st.sector**2, 2) + sum(st.lam)
        assert lprime2_zero_bilinear(st) == 2 * st.energy


def _occupied_from_partition(st):
    """The wedge of (sector, lam) as explicit occupied indices below its
    tail, from the partition alone: i_s = k - 1 + s - lam_s."""
    k, lam = st.sector, st.lam
    return [k - 1 + s - part for s, part in enumerate(lam, start=1)], k + len(lam)


def _state_from_occupied(prefix, tail):
    sector = tail - len(prefix)
    lam = [sector - 1 + s - idx for s, idx in enumerate(prefix, start=1)]
    while lam and lam[-1] == 0:
        lam.pop()
    assert all(part > 0 for part in lam) and lam == sorted(lam, reverse=True)
    return FermionState(sector, tuple(lam))


def _apply_e_on_lists(n, st):
    """e_n on an occupied-index list: the reference for the bit version."""
    occ, tail = _occupied_from_partition(st)
    if n >= tail or n in occ:
        return None
    before = sum(1 for i in occ if i < n)
    return (-1) ** before, _state_from_occupied(sorted(occ + [n]), tail)


def _apply_e_star_on_lists(n, st):
    occ, tail = _occupied_from_partition(st)
    if n >= tail:
        pos = len(occ) + (n - tail)
        return (-1) ** pos, _state_from_occupied(occ + list(range(tail, n)), n + 1)
    if n not in occ:
        return None
    pos = occ.index(n)
    occ.remove(n)
    return (-1) ** pos, _state_from_occupied(occ, tail)


def test_wedge_operators_match_occupied_lists():
    for st in FockBasis(6):
        occ, tail = _occupied_from_partition(st)
        for n in range(min(occ + [tail]) - 3, tail + 4):
            assert apply_e(n, st) == _apply_e_on_lists(n, st), (st, n)
            assert apply_e_star(n, st) == _apply_e_star_on_lists(n, st), (st, n)


def test_maya_key_round_trip():
    basis = FockBasis(6)
    assert len(set(basis)) == len(basis) == 96
    for k in range(-3, 4):
        for size in range(7):
            for lam in partitions_of(size):
                st = FermionState(k, lam)
                assert (st.sector, st.lam) == (k, lam)
                assert FermionState(st.sector, st.lam) == st and hash(FermionState(k, lam)) == hash(st)
                assert st.occupied_prefix() == _occupied_from_partition(st)[0]
                assert st.tail_start == k + len(lam)
                assert st.energy == Fraction(k * k, 2) + size
                assert repr(st) == f"F({k};{','.join(map(str, lam))})"
    assert vacuum(2) == FermionState(2, ()) == FermionState(2)
    st = FermionState(-1, (3, 1, 1))
    assert pickle.loads(pickle.dumps(st)) == st and copy.deepcopy(st) == st


def test_operator_tables_are_bounded():
    from virasoro import combinat, density, verma

    for table in (fock._boson_state, fock._lprime2_state, fock._vertex_modes,
                  fock._exp_series_state):
        assert table.cache_info().maxsize == fock.STATE_CACHE_SIZE, table.__name__
    for table, size in ((verma._left_mul_monomial, verma.LEFT_CACHE_SIZE),
                        (verma._action, verma.ACTION_CACHE_SIZE),
                        (combinat.partitions_of, combinat.PARTITION_CACHE_SIZE),
                        (combinat.num_partitions, combinat.PARTITION_CACHE_SIZE),
                        (density.singular_element, density.SINGULAR_CACHE_SIZE)):
        assert table.cache_info().maxsize == size, table.__name__


def test_car_relations():
    rng = random.Random(9)
    basis = FockBasis(4)
    for st in rng.sample(basis.states, 10):
        v = FockVector.basis(st)
        for m, n in itertools.product(range(-3, 4), repeat=2):
            anti = fermion_apply("e", m, fermion_apply("e*", n, v)) + fermion_apply(
                "e*", n, fermion_apply("e", m, v)
            )
            assert anti == (v if m == n else FockVector.zero())
            ee = fermion_apply("e", m, fermion_apply("e", n, v)) + fermion_apply(
                "e", n, fermion_apply("e", m, v)
            )
            assert ee.is_zero()


def test_boson_bracket_and_charge():
    basis = FockBasis(4)
    rng = random.Random(10)
    for st in rng.sample(basis.states, 8):
        v = FockVector.basis(st)
        assert boson_apply(0, v) == v.scale(st.charge)
        for m, n in itertools.product((-2, -1, 1, 2), repeat=2):
            comm = boson_apply(m, boson_apply(n, v)) - boson_apply(n, boson_apply(m, v))
            assert comm == (v.scale(m) if m + n == 0 else FockVector.zero())


def test_lprime_eigenvalues_on_vacua():
    for k in range(-3, 4):
        v = FockVector.basis(vacuum(k))
        assert lprime2_apply(0, v) == v.scale(k * k)  # 2 L'_0 = 2 (k^2 / 2)


def test_fermion_boson_virasoro_agree():
    basis = FockBasis(4)
    rng = random.Random(11)
    for st in rng.sample(basis.states, 8):
        v = FockVector.basis(st)
        for k in range(-2, 3):
            assert lprime2_apply(k, v) == sugawara2_apply(k, v), (st, k)


def test_shift_relations():
    basis = FockBasis(3)
    assert shift_apply(1, FockVector.basis(vacuum(0))) == FockVector.basis(vacuum(1))
    for st in basis:
        v = FockVector.basis(st)
        got = shift_apply(1, boson_apply(0, shift_apply(-1, v))) - boson_apply(0, v)
        assert got == v  # U a_0 U* = a_0 + 1
        got = shift_apply(1, lprime2_apply(0, shift_apply(-1, v)))
        want = lprime2_apply(0, v) + boson_apply(0, v).scale(2) + v
        assert got == want  # U 2L_0 U* = 2L_0 + 2a_0 + 1


def test_example1_modes():
    basis = FockBasis(3)
    for st in basis:
        v = FockVector.basis(st)
        for n in range(-4, vertex_mode_range(1, st) + 1):
            assert vertex_mode(1, n, v) == fermion_apply("e", n - 1, v)
        for n in range(-4, vertex_mode_range(-1, st) + 1):
            assert vertex_mode(-1, n, v) == fermion_apply("e*", -n, v)


def test_vertex_vacuum_anchor():
    # z^{-qm} Phi_m(z) (charge-q vacuum)|_{z=0} = charge-(q+m) vacuum
    for q in (-2, -1, 0, 1, 2):
        vq = FockVector.basis(FermionState(-q, ()))
        for m in (-2, -1, 1, 2):
            lowest = vertex_mode(m, -q * m, vq)
            assert lowest == FockVector.basis(FermionState(-(q + m), ()))
            assert vertex_mode(m, -q * m + 1, vq).is_zero()


def test_vertex_modes_match_exponential_product():
    # Phi_m(n) = U^{-m} sum_d [z^{d-n-mq}] E_-^m [z^{-d}] E_+^m on charge q,
    # from the single-exponential coefficients, one mode at a time
    compared = 0
    for st in FockBasis(4):
        v = FockVector.basis(st)
        for m in (1, -1, 2, -2, 3):
            for n in range(-3, vertex_mode_range(m, st) + 2):
                want = FockVector.zero()
                for d in range(sum(st.lam) + 1):
                    u = d - n - m * st.charge
                    if u >= 0:
                        want = want + raising_coeff_apply(u, m, lowering_coeff_apply(d, m, v))
                assert vertex_mode(m, n, v) == shift_apply(-m, want), (st, m, n)
                compared += 1
    assert compared == 1211


def test_fubini_veneziano_m0_trivial():
    # Phi_0 is the identity at mode 0 and vanishes elsewhere
    basis = FockBasis(3)
    for st in basis:
        v = FockVector.basis(st)
        assert vertex_mode(0, 0, v) == v
        assert vertex_mode(0, 1, v).is_zero()


def test_fubini_veneziano_sample():
    basis = FockBasis(3)
    for st in list(basis)[:12]:
        v = FockVector.basis(st)
        for m, k in ((1, 1), (2, -1), (-1, 2)):
            hi = vertex_mode_range(m, st)
            for n in range(-3, hi + abs(k) + 1):
                lhs = lprime2_apply(k, vertex_mode(m, n, v)) - vertex_mode(
                    m, n, lprime2_apply(k, v)
                )
                coeff = -2 * (n + k) + m * m * (k + 1)
                assert lhs == vertex_mode(m, n + k, v).scale(coeff), (st, m, k, n)


def test_two_factor_anchors():
    om2 = PairVector.basis(vacuum(0), vacuum(0))
    plus = FermionState(-1, ())   # charge +1 vacuum
    minus = FermionState(1, ())   # charge -1 vacuum
    assert psi_mode(1, 0, om2) == PairVector.basis(plus, minus)
    assert E_apply(-1, om2) == PairVector.basis(plus, minus)
    assert psi_mode(-1, 0, om2) == PairVector.basis(minus, plus)
    assert F_apply(-1, om2) == PairVector.basis(minus, plus).scale(-1)


def test_level_one_bracket():
    pb = PairBasis(Fraction(5, 2))
    for st in list(pb)[:20]:
        v = PairVector({st: Fraction(1)})
        lhs = E_apply(1, F_apply(-1, v)) - F_apply(-1, E_apply(1, v))
        assert lhs == b_apply(0, v) + v  # 2H(0) = b(0)
        for m, n in itertools.product((-1, 0, 1), repeat=2):
            hk = b_apply(m, K2_apply(n, v)) - K2_apply(n, b_apply(m, v))
            assert hk.is_zero()


def test_example2_signed_dictionary():
    pb = PairBasis(2)
    for st in pb:
        v = PairVector({st: Fraction(1)})
        for n in range(-3, 3):
            assert E_apply(n, v) == psi_mode(1, n + 1, v)
            assert F_apply(n, v) == psi_mode(-1, n + 1, v).scale(-1)


def test_V_conjugation():
    pb = PairBasis(2)
    for st in pb:
        v = PairVector({st: Fraction(1)})
        assert V_apply(V_apply(v, 1), -1) == v
        for n in (-2, -1, 0, 1):
            assert V_apply(E_apply(n, V_apply(v, -1)), 1) == E_apply(n + 2, v)
            assert V_apply(F_apply(n, V_apply(v, -1)), 1) == F_apply(n - 2, v)


def test_theta_decomposition_to_order_two():
    trace = two_factor_trace(2)
    assert trace  # nonempty window
    for (zx, en), count in trace.items():
        assert count == two_factor_trace_closed(zx, en), (zx, en)


def test_suite_runner_smoke():
    reports = run_suites(2, names=["car", "grading"], pair_emax=2)
    assert all(r["ok"] for r in reports)
    with pytest.raises(ValueError):
        run_suites(2, names=["nope"])


# comparisons per suite at the benchmark's window (emax 3, pair emax 2)
CHECKED_AT_3_2 = {
    "car": 1463, "boson": 703, "virasoro": 589, "shift": 286, "example1": 242,
    "vacuum-anchor": 40, "fv": 1872, "exchange": 1216, "adjoint": 21, "example2": 505,
    "level1": 3060, "psi-boson": 540, "eqmotion": 24, "theta": 11, "grading": 665,
}


def test_suite_counts_are_pinned():
    reports = run_suites(3, pair_emax=2)
    assert all(r["ok"] for r in reports)
    assert dict(zip(SUITES, (r["checked"] for r in reports))) == CHECKED_AT_3_2


def test_run_counts_every_comparison_and_keeps_differing_keys():
    report = fock_checks._run("demo", iter([("a", 1, 1), ("b", 1, 2), ("c", 3, 3), ("d", [1], [])]))
    assert report == {"name": "demo", "checked": 4, "mismatches": ["b", "d"], "ok": False}
    assert fock_checks._run("none", iter([]))["ok"]


def test_suites_look_up_operators_when_they_run(monkeypatch):
    real = fock_checks.lprime2_apply
    monkeypatch.setattr(fock_checks, "lprime2_apply", lambda k, v: real(k, v).scale(2))
    report = SUITES["virasoro"](2)
    got = {key for key in report["mismatches"] if key[0] == "L'=L"}
    want = {
        ("L'=L", st, k)
        for st in FockBasis(2)
        for k in range(-2, 3)
        if real(k, FockVector.basis(st))
    }
    assert want and got == want and not report["ok"]


def test_adjoint_suite_sees_a_changed_mode(monkeypatch):
    real = fock_checks.vertex_mode

    def doubled(m, n, v):
        got = real(m, n, v)
        return got.scale(2) if (m, n) == (1, 0) else got

    monkeypatch.setattr(fock_checks, "vertex_mode", doubled)
    report = SUITES["adjoint"](2)
    # Phi_1(0) is compared with Phi_{-1}(1)^T under both keys
    assert report["checked"] == 21 and set(report["mismatches"]) == {(1, 0), (-1, 1)}


def test_shift_moves_each_state_to_one_state():
    for st in FockBasis(3):
        for p in (-2, -1, 1, 2):
            (image, coeff), = shift_apply(p, FockVector.basis(st)).terms.items()
            assert coeff == 1 and image.charge == st.charge - p and image.lam == st.lam, (st, p)


def test_pair_space_suites():
    reports = run_suites(2, ["example2", "level1", "psi-boson", "theta"])
    assert [r["name"] for r in reports] == [
        "example2", "level1-brackets", "psi-boson", "theta"
    ]
    assert all(r["ok"] for r in reports)


def test_psi_boson_realisation_matches_graded_product():
    from virasoro.fock import psi_mode_b

    pb = PairBasis(2)
    for st in pb:
        v = PairVector({st: Fraction(1)})
        for m in (1, -1, 2):
            for n in range(-2, 3):
                assert psi_mode(m, n, v) == psi_mode_b(m, n, v), (st, m, n)


def test_equation_of_motion_suite():
    report = SUITES["eqmotion"](0)
    assert report["ok"] and report["checked"] >= 20


def test_b_sugawara_bracket():
    from virasoro.fock import b_sugawara_apply

    pb = PairBasis(2)
    for st in list(pb)[:8]:
        v = PairVector({st: Fraction(1)})
        for m, n in itertools.product((-2, -1, 0, 1, 2), repeat=2):
            lhs = b_sugawara_apply(m, b_sugawara_apply(n, v)) - b_sugawara_apply(
                n, b_sugawara_apply(m, v)
            )
            rhs = b_sugawara_apply(m + n, v).scale(Fraction(m - n))
            if m + n == 0:
                rhs = rhs + v.scale(Fraction(m**3 - m, 12))
            assert lhs == rhs, (st, m, n)


def test_b_sugawara_zero_mode_written_out():
    """L_0 = (q1 - q2)^2 / 4 + (1/2) sum_{n>0} b_{-n} b_n, where
    b_0 = q1 - q2 is the difference of the boson charges."""
    from virasoro.fock import b_sugawara_apply

    for st in PairBasis(3):
        v = PairVector({st: Fraction(1)})
        want = v.scale(Fraction((st.left.charge - st.right.charge) ** 2, 4))
        for n in range(1, 4):
            want = want + b_apply(-n, b_apply(n, v)).scale(HALF)
        assert b_sugawara_apply(0, v) == want, st


def _partition_exp_coeff(apply_mode, c, vec, order):
    """z^order coefficient of exp(c sum_{n>0} z^n X_n / n) applied to vec,
    as the sum over partitions lam of order of c^len(lam) / z_lam times
    the product of the X_{lam_i}: the reference for Newton's recurrence."""
    total = vec.scale(0)
    for part in partitions_of(order):
        z_lam = prod(i**k * factorial(k) for i, k in Counter(part).items())
        w = vec.scale(Fraction(c ** len(part), z_lam))
        for p in part:
            w = apply_mode(p, w)
        total = total + w
    return total


def _exp_coeff(table, step, c, terms, order):
    """S_order v for a vector v with rational coefficients, from one
    Newton series on the whole vector cleared of denominators: the
    reference for the per-state series behind raising_coeff_apply."""
    den = lcm(*(v.denominator for v in terms.values()))
    ints = {st: v.numerator * (den // v.denominator) for st, v in terms.items()}
    top = exp_series(table, step, c, [tuple(ints.items())], order)[order]
    return {st: Fraction(p, den * factorial(order)) for st, p in top}


def test_exponential_coefficients_match_partition_sum():
    for st in FockBasis(3):
        v = FockVector.basis(st)
        for m in (1, -1, 2, -2, 3):
            for u in range(6):
                want = _partition_exp_coeff(lambda p, w: boson_apply(-p, w), m, v, u)
                assert raising_coeff_apply(u, m, v) == want, (st, m, u)
                want = _partition_exp_coeff(lambda p, w: boson_apply(p, w), -m, v, u)
                assert lowering_coeff_apply(u, m, v) == want, (st, m, u)


def test_b_exponential_matches_partition_sum():
    from virasoro.fock import _b_state

    for st in PairBasis(2):
        v = PairVector({st: Fraction(1)})
        for m in (1, -1, 2):
            for order in range(5):
                want = _partition_exp_coeff(lambda p, w: b_apply(-p, w), m, v, order)
                got = _exp_coeff(_b_state, -1, m, v.terms, order)
                assert PairVector(got) == want, (st, m, order)
                want = _partition_exp_coeff(lambda p, w: b_apply(p, w), -m, v, order)
                got = _exp_coeff(_b_state, 1, -m, v.terms, order)
                assert PairVector(got) == want, (st, m, order)


def test_per_state_series_match_whole_vector_route():
    rng = random.Random(14)
    states = FockBasis(4).states
    for _ in range(12):
        v = FockVector({st: Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                        for st in rng.sample(states, 4)})
        for m in (1, -1, 2, -2, 3):
            for u in range(6):
                want = _exp_coeff(fock._boson_state, -1, m, v.terms, u)
                assert raising_coeff_apply(u, m, v) == FockVector(want), (v, m, u)
                want = _exp_coeff(fock._boson_state, 1, -m, v.terms, u)
                assert lowering_coeff_apply(u, m, v) == FockVector(want), (v, m, u)
    # a negative order would index the cached series from its end
    with pytest.raises(ValueError):
        raising_coeff_apply(-1, 1, FockVector.basis(vacuum(0)))


def _lprime_from_fermions(k, st):
    """L'_k = sum_{p-q=k} -(q + 1/2 + k/2) e_p e_q* on a basis state, with
    its half-integer coefficients, one fermion pair at a time; L'_0 is the
    energy.  The reference for the doubled table."""
    v = FockVector.basis(st)
    if k == 0:
        return v.scale(st.energy)
    total = FockVector.zero()
    # e_q* needs q occupied, and e_{q+k} then needs q + k below the tail
    for q in range(min(st.occupied_prefix(), default=st.tail_start), st.tail_start + abs(k)):
        hop = fermion_apply("e", q + k, fermion_apply("e*", q, v))
        total = total + hop.scale(-(q + HALF + Fraction(k, 2)))
    return total


def _pair_current_halved(n, st, sign):
    """(a_n^(1) + sign * a_n^(2)) / 2 on a pair state from the
    single-factor boson: H(n) for sign -1, K(n) for sign 1."""
    terms = {}
    for s, c in boson_apply(n, FockVector.basis(st.left)).terms.items():
        terms[PairState(s, st.right)] = c * HALF
    for s, c in boson_apply(n, FockVector.basis(st.right)).terms.items():
        key = PairState(st.left, s)
        terms[key] = terms.get(key, 0) + sign * c * HALF
    return PairVector(terms)


def test_doubled_operators_are_twice_the_half_integer_ones():
    for st in FockBasis(4):
        v = FockVector.basis(st)
        for k in range(-3, 4):
            assert lprime2_apply(k, v) == _lprime_from_fermions(k, st).scale(2), (st, k)
    for st in PairBasis(3):
        v = PairVector({st: 1})
        for n in range(-3, 4):
            assert b_apply(n, v) == _pair_current_halved(n, st, -1).scale(2), (st, n)
            assert K2_apply(n, v) == _pair_current_halved(n, st, 1).scale(2), (st, n)


def _coefficients(side):
    return list(side.terms.values()) if isinstance(side, SparseVector) else [side]


@pytest.mark.parametrize("suite", ["check_fubini_veneziano", "check_level_one_brackets",
                                   "check_virasoro", "check_shift", "check_exchange"])
def test_integral_suites_compare_integers(suite):
    seen = 0
    for key, lhs, rhs in getattr(fock_checks, suite)(2):
        for c in _coefficients(lhs) + _coefficients(rhs):
            assert type(c) is int, (key, c)
            seen += 1
    assert seen
