import itertools
import random
from fractions import Fraction

import pytest

from virasoro import linalg, verma
from virasoro.combinat import num_partitions, partitions_of
from virasoro.jantzen import c1_path, discrete_path
from virasoro.scalars import BiPoly, Laurent, UniPoly, accumulate
from virasoro.verma import (
    PBWVector,
    VermaParams,
    _gram_recursion,
    _left_mul_monomial,
    apply_L,
    c_curve,
    central_charge,
    gram_matrices,
    gram_matrix,
    h_pq,
    h_pq_curve,
    irreducible_dims,
    kac_det_direct,
    kac_det_product,
    kac_det_product_sym,
    kac_det_ratio,
    pbw_left_multiply,
    phi_rs,
)

SYM = VermaParams.symbolic()


def rand_vector(rng, level, ring="rational"):
    parts = partitions_of(level)
    terms = {}
    for p in parts:
        if rng.random() < 0.6:
            terms[p] = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
    return PBWVector(terms)


def test_apply_L_examples():
    c, h = BiPoly.gens()
    assert apply_L(1, PBWVector.monomial((1,)), SYM) == PBWVector({(): 2 * h})
    assert apply_L(1, PBWVector.monomial((2,)), SYM) == PBWVector({(1,): 3})
    v = PBWVector.monomial((2, 1))
    assert apply_L(0, v, SYM) == PBWVector({(2, 1): h + 3})


def test_left_multiply_normal_orders():
    got = pbw_left_multiply(1, PBWVector.monomial((2, 2)))
    assert got == PBWVector({(2, 2, 1): 1, (3, 2): 2, (5,): 1})


def test_jacobi_identity_on_random_vectors():
    rng = random.Random(31)
    for level in (2, 3, 5):
        v = rand_vector(rng, level)
        for m, n in itertools.product(range(-3, 4), repeat=2):
            lhs = apply_L(m, apply_L(n, v, SYM), SYM) - apply_L(n, apply_L(m, v, SYM), SYM)
            rhs = apply_L(m + n, v, SYM).scale(Fraction(m - n))
            if m + n == 0:
                central = SYM.c * Fraction(m**3 - m, 12)
                rhs = rhs.add_into(v.scale(central))
            assert lhs == rhs, (m, n)


def test_adjoint_symmetry():
    # <L_{-k} v, w> = <v, L_k w> on random vectors at symbolic (c, h)
    rng = random.Random(32)
    for level in (3, 4, 5):
        v = rand_vector(rng, level)
        w = rand_vector(rng, level + 2)
        for k in (1, 2):
            left = _pair(pbw_left_multiply(k, v), w)
            right = _pair(v, apply_L(k, w, SYM))
            assert left == right, (level, k)


def shapovalov_pair(left_part, w: PBWVector, params: VermaParams):
    """Oracle: <L_{-left} xi, w> computed by pushing the adjoints through w."""
    for p in left_part:
        w = apply_L(p, w, params)
        if w.is_zero():
            break
    return w.coeff(())


def _entry(gram, row_part, col_part):
    """The Gram matrix entry at two basis partitions."""
    return gram.entries[gram.basis.index(row_part)][gram.basis.index(col_part)]


def _pair(a: PBWVector, b: PBWVector):
    total = Fraction(0)
    for part, coeff in a.terms.items():
        total = total + coeff * shapovalov_pair(part, b, SYM)
    return total


def test_gram_levels_0_1_2():
    c, h = BiPoly.gens()
    assert gram_matrix(0, SYM).entries == ((BiPoly.const(1),),)
    assert gram_matrix(1, SYM).entries == ((2 * h,),)
    g = gram_matrix(2, SYM)
    assert _entry(g, (1, 1), (1, 1)) == 4 * h * (2 * h + 1)
    assert _entry(g, (1, 1), (2,)) == 6 * h
    assert _entry(g, (2,), (2,)) == 4 * h + c * Fraction(1, 2)


def _gram_by_pairs(level, params):
    basis = partitions_of(level)
    return tuple(
        tuple(shapovalov_pair(lam, PBWVector.monomial(mu), params) for mu in basis)
        for lam in basis
    )


@pytest.mark.parametrize(
    "params,max_level",
    [
        (SYM, 7),
        (VermaParams.rational(Fraction(1, 2), Fraction(1, 16)), 9),
        (VermaParams.rational(1, Fraction(9, 4)), 9),
        (VermaParams.rational(Fraction(-22, 5), Fraction(-1, 5)), 9),
        (VermaParams(*c1_path(Fraction(1, 2))[0]), 7),
        (VermaParams(*discrete_path(3, 2, 2)[0]), 7),
        (VermaParams(Fraction(1, 2), BiPoly.gens()[1]), 7),
        (VermaParams(BiPoly.gens()[0], Fraction(1, 3)), 7),
    ],
    ids=["symbolic", "ising", "c1-j3/2", "lee-yang", "c1-path-j1/2", "discrete-path-3-2-2",
         "c1/2-h-symbolic", "c-symbolic-h1/3"],
)
def test_gram_matrices_match_shapovalov_pairs(params, max_level):
    grams = gram_matrices(max_level, params)
    assert [g.level for g in grams] == list(range(max_level + 1))
    for level, g in enumerate(grams):
        assert g.basis == partitions_of(level)
        expected = _gram_by_pairs(level, params)
        assert g.entries == expected, level
        # same entry types as the pairing, so rendered JSON is unchanged
        assert [type(x) for row in g.entries for x in row] == [
            type(x) for row in expected for x in row
        ]


def test_apply_L_answers_in_the_ring_of_its_params():
    # 7/3 == Laurent 7/3 and both hash alike, but each L_k image must
    # stay in the ring of its own parameters
    v = PBWVector.monomial((2, 1))
    rational = VermaParams.rational(Fraction(7, 3), Fraction(5, 2))
    lifted = VermaParams(*(Laurent(UniPoly.const(x, "t")) for x in rational))
    assert rational == lifted and hash(rational) == hash(lifted)
    for params, ring in ((rational, Fraction), (lifted, Laurent), (rational, Fraction)):
        # L_1 L_{-2} L_{-1} xi = 2h L_{-2} xi + 3 L_{-1}^2 xi
        assert type(apply_L(1, v, params).coeff((2,))) is ring
    # every (c, h) reads the one (c, h)-free table _action: a second point
    # reuses the images of the first
    apply_L(3, PBWVector.monomial((2, 2, 1)), VermaParams.rational(7, Fraction(2, 3)))
    first = verma._action.cache_info()
    apply_L(3, PBWVector.monomial((2, 2, 1)), VermaParams.rational(-5, Fraction(9, 4)))
    second = verma._action.cache_info()
    assert second.misses == first.misses and second.hits > first.hits


def _apply_monomial(k, part, params, table):
    """L_k on one PBW monomial by the commutator recursion in the ring of
    (c, h): an independent route to apply_L, which evaluates the integer
    triples of _action."""
    if k == 0:
        return PBWVector({part: params.h + sum(part)})
    if k < 0 and (not part or -k >= part[0]):
        return PBWVector.monomial((-k,) + part)
    key = (k, part)
    if key in table:
        return table[key]
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
            accumulate(bracket, {rest: params.c * Fraction(k**3 - k, 12)})
        accumulate(out, bracket)
    table[key] = PBWVector(out)
    return table[key]


def _oracle_params():
    rng = random.Random(41)
    path, _ = discrete_path(3, 2, 2)
    yield "symbolic", SYM
    yield "jantzen Q[x]", VermaParams(*path)
    yield "curve Q[t, 1/t]", VermaParams(c_curve(), h_pq_curve(3, 2))
    yield "c=h=0", VermaParams.rational(0, 0)
    for _ in range(4):
        c, h = (Fraction(rng.randint(-60, 60), rng.randint(1, 97)) for _ in range(2))
        yield f"c={c} h={h}", VermaParams.rational(c, h)


def test_apply_L_matches_ring_recursion():
    """The evaluated triples of _action against the ring recursion, entry
    and type, for k in -3..7 on every monomial up to level 7."""
    for name, params in _oracle_params():
        table = {}
        for level in range(8):
            for part in partitions_of(level):
                for k in range(-3, 8):
                    got = apply_L(k, PBWVector.monomial(part), params)
                    want = _apply_monomial(k, part, params, table)
                    assert got == want, (name, k, part)
                    assert {nu: type(x) for nu, x in got.terms.items()} == {
                        nu: type(x) for nu, x in want.terms.items()
                    }, (name, k, part)


def _kac_modules():
    for m in (3, 4, 5, 6):
        for r in range(1, m):
            for s in range(1, m + 1):
                if (m - r, m + 1 - s) >= (r, s):
                    yield VermaParams.rational(central_charge(m), h_pq(r, s, m))


def test_irreducible_dims_match_fraction_route():
    """The S^n-scaled integer recursion against the ranks of the Gram
    matrices got by pushing apply_L adjoints, at seeded (c, h) and at all
    34 Kac-table modules."""
    rng = random.Random(43)
    points = [VermaParams.rational(Fraction(rng.randint(-90, 90), rng.randint(1, 97)),
                                   Fraction(rng.randint(-90, 90), rng.randint(1, 97)))
              for _ in range(8)]
    modules = list(_kac_modules())
    assert len(modules) == 34
    for params in points + modules:
        want = [linalg.rank(_gram_by_pairs(n, params)) for n in range(9)]
        assert irreducible_dims(params, 8) == want, params


def _leading(v):
    """The leading monomial of a PBW vector under the order of
    irreducible_dims: most parts, then the largest descending tuple."""
    return max(v.terms, key=lambda part: (len(part), part))


def test_left_multiply_leads_with_the_inserted_part():
    """The lemma behind irreducible_dims: L_{-j} v leads with LM(v) + {j},
    with the coefficient of LM(v) in v."""
    rng = random.Random(7)
    for level in range(1, 13):
        v = rand_vector(rng, level)
        if not v.terms:
            continue
        lead = _leading(v)
        for j in range(1, 13):
            w = pbw_left_multiply(j, v)
            want = tuple(sorted(lead + (j,), reverse=True))
            assert _leading(w) == want, (level, j)
            assert w.terms[want] == v.terms[lead], (level, j)


def test_irreducible_dims_match_full_table_ranks():
    """The block route against `linalg.rank` of every full table S^n G_n
    of `_gram_recursion` to level 10: the 34 Kac modules, c = 1 with
    2j <= 5, (0, 0) and seeded rational points."""
    rng = random.Random(11)
    points = [VermaParams.rational(Fraction(rng.randint(-60, 60), rng.randint(1, 40)),
                                   Fraction(rng.randint(-60, 60), rng.randint(1, 40)))
              for _ in range(6)]
    c1 = [VermaParams.rational(1, Fraction(two_j, 2) ** 2) for two_j in range(6)]
    for params in [*_kac_modules(), *c1, VermaParams.rational(0, 0), *points]:
        want = [linalg.rank(table) for table in _gram_recursion(10, params)[2]]
        assert irreducible_dims(params, 10) == want, params


def test_irreducible_dims_ranks_one_entry_at_the_trivial_module(monkeypatch):
    """At (c, h) = (0, 0) the radical is everything above level 0, and
    every partition of n but (n) loses a part into the lower radical:
    each level ranks a 1 x 1 block, not its p(n) x p(n) table."""
    shapes = []

    def recorded(matrix):
        shapes.append((len(matrix), len(matrix[0])))
        return linalg.pivot_columns(matrix)

    monkeypatch.setattr(verma, "pivot_columns", recorded)
    assert irreducible_dims(VermaParams.rational(0, 0), 10) == [1] + [0] * 10
    assert shapes == [(1, 1)] * 11


def test_kac_det_examples():
    c, h = BiPoly.gens()
    assert kac_det_direct(1, SYM) == 2 * h
    det2 = kac_det_direct(2, SYM)
    assert det2 == 2 * h * (16 * h * h + 2 * (c - 5) * h + c)
    # c = 0 specialisation (the triviality bound at vanishing charge)
    at_c0 = det2.specialize(BiPoly.const(0), h)
    assert at_c0 == 4 * h * h * (8 * h - 5)


def test_kac_product_level_1_and_2():
    c, h = BiPoly.gens()
    assert kac_det_product_sym(1) == h
    # level 2: phi_11^P(1) * phi_21^P(0); ratio to the direct form is 32
    ratio = kac_det_ratio(2)
    assert ratio.is_constant() and ratio.constant_value() == 32


def _bipoly_product(level):
    """Oracle: the product form prod phi_{r,s}^p(level - rs) multiplied
    out in BiPoly arithmetic."""
    result = BiPoly.const(1)
    for r in range(1, level + 1):
        for s in range(1, min(r, level // r) + 1):
            result = result * phi_rs(r, s) ** num_partitions(level - r * s)
    return result


def test_kac_product_sym_matches_bipoly_product():
    for level in range(1, 8):
        assert kac_det_product_sym(level) == _bipoly_product(level), level


def test_kac_product_specialises_each_factor():
    """The factor-wise product at (c, h) against the symbolic product
    specialised there, value and type."""
    c, h = BiPoly.gens()
    points = [SYM, VermaParams(Fraction(1, 2), h), VermaParams(c, Fraction(-5, 4)),
              VermaParams.rational(1, Fraction(1, 3)), VermaParams.rational(0, 0),
              VermaParams.rational(Fraction(-22, 5), Fraction(-1, 5))]
    for level in range(1, 7):
        sym = kac_det_product_sym(level)
        for params in points:
            want = sym.specialize(params.c, params.h)
            got = kac_det_product(level, params)
            assert got == want and type(got) is type(want), (level, params)


def test_rational_function_params_raise_type_error():
    curve = VermaParams(c_curve(), h_pq_curve(3, 2))
    for build in (gram_matrices, kac_det_product):
        with pytest.raises(TypeError):
            build(2, curve)


@pytest.mark.parametrize("level", [1, 2, 3, 4])
def test_kac_ratio_constant(level):
    ratio = kac_det_ratio(level)
    assert ratio.is_constant()
    assert ratio.constant_value() != 0


def test_kac_ratio_level7_is_the_closed_leading_coefficient():
    """The 15 x 15 symbolic Gram determinant against the product form;
    the ratio is prod_{lambda |- 7} prod_k (2k)^{m_k} m_k!."""
    from virasoro.acceptance import _kac_leading_constant

    ratio = kac_det_ratio(7)
    assert ratio.is_constant()
    assert ratio.constant_value() == _kac_leading_constant(7) == 181331507972673152746653422022819840000


def test_c1_kac_factors():
    # at c = 1 the quadratic factors collapse to (h - (r-s)^2/4)^2
    c, h = BiPoly.gens()
    for r, s in ((2, 1), (3, 1), (3, 2)):
        quarter = Fraction((r - s) ** 2, 4)
        assert phi_rs(r, s).specialize(BiPoly.const(1), h) == (h - quarter) * (h - quarter)


def test_h_pq_values():
    assert h_pq(1, 1, 3) == 0
    assert h_pq(2, 1, 3) == Fraction(1, 2)
    assert h_pq(2, 2, 3) == Fraction(1, 16)
    assert central_charge(3) == Fraction(1, 2)
    assert central_charge(2) == 0


def test_h_pq_curve_matches_display():
    # (2j+1, 1) curve: h(t) = (j^2+j) t - j
    for two_j in (0, 1, 2, 3):
        j = Fraction(two_j, 2)
        r = two_j + 1
        curve = h_pq_curve(r, 1)
        t_val = Fraction(7, 3)
        assert curve(t_val) == (j * j + j) * t_val - j
    # every curve satisfies its defining polynomial identically
    for r, s in ((2, 2), (3, 2), (4, 1)):
        h = h_pq_curve(r, s)
        assert phi_rs(r, s).specialize(c_curve(), h) == 0


def test_curve_point_m3():
    # t = 4/3 lands on the (m = 3) discrete series
    assert c_curve()(Fraction(4, 3)) == Fraction(1, 2)
    assert h_pq_curve(2, 2)(Fraction(4, 3)) == Fraction(1, 16)


def test_irreducible_dims_examples():
    assert irreducible_dims(VermaParams.rational(1, 0), 4) == [1, 0, 1, 1, 2]
    generic = irreducible_dims(VermaParams.rational(2, 1), 5)
    assert generic == [num_partitions(n) for n in range(6)]
    ising = irreducible_dims(
        VermaParams.rational(Fraction(1, 2), Fraction(1, 16)), 4
    )
    assert ising == [1, 1, 1, 2, 2]


def test_irreducible_dims_needs_rational_params():
    with pytest.raises(ValueError):
        irreducible_dims(SYM, 2)


def test_pbw_vector_json():
    v = PBWVector({(3, 1): Fraction(5, 2), (2, 2): -1})
    assert v.to_json() == {"level": 4, "terms": {"[3,1]": "5/2", "[2,2]": "-1"}}
    assert v.level() == 4


def test_rank_oracle_j_three_halves():
    from virasoro.jantzen import character_formula

    dims = irreducible_dims(VermaParams.rational(1, Fraction(9, 4)), 9)
    closed = character_formula("c1", 9, j=Fraction(3, 2))
    assert [Fraction(d) for d in dims] == list(closed.coeffs)


def test_c1_product_exponent_bookkeeping():
    # at c = 1 the product form collapses to
    # prod over ordered pairs (p, q), pq <= N of (h - (p-q)^2/4)^P(N-pq)
    c, h = BiPoly.gens()
    for n in (1, 2, 3, 4):
        product = kac_det_product_sym(n).specialize(BiPoly.const(1), h)
        expect = BiPoly.const(1)
        for p in range(1, n + 1):
            for q in range(1, n + 1):
                if p * q > n:
                    continue
                factor = h - Fraction((p - q) ** 2, 4)
                expect = expect * factor ** num_partitions(n - p * q)
        assert product == expect, n


def test_norms_at_general_spacing():
    # the norm table behind the c = 0 triviality bound, any spacing n:
    # |L_{-2n} xi|^2 = 4nh (at c = 0), |L_{-n}^2 xi|^2 = 4n^2 h(2h + n),
    # (L_{-2n} xi, L_{-n}^2 xi) = 6n^2 h, det = 4n^3 h^2 (8h - 5n)
    c, h = BiPoly.gens()
    zero_c = BiPoly.const(0)
    for n in (1, 2, 3):
        g = gram_matrix(2 * n, SYM)
        sq = _entry(g, (n, n), (n, n)).specialize(zero_c, h)
        single = _entry(g, (2 * n,), (2 * n,)).specialize(zero_c, h)
        cross = _entry(g, (2 * n,), (n, n)).specialize(zero_c, h)
        assert sq == 4 * n * n * h * (2 * h + n)
        assert single == 4 * n * h
        assert cross == 6 * n * n * h
        det = single * sq - cross * cross
        assert det == 4 * n**3 * h * h * (8 * h - 5 * n)
