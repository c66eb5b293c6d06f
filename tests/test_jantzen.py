from fractions import Fraction
from operator import mul

import pytest

from virasoro.acceptance import JANTZEN_FAMILIES
from virasoro.combinat import num_partitions, partitions_of
from virasoro.jantzen import (
    DegenerateFamilyError,
    Filtration,
    MatrixFamily,
    _as_x_poly,
    c1_path,
    character_formula,
    coefficient_matrices,
    det_order_identity,
    discrete_path,
    gram_family,
    jantzen_filtration,
    kac_module,
    norm_vanishing_order,
)
from virasoro.linalg import bareiss_det, nullspace
from virasoro.scalars import BiPoly, UniPoly, UsageError
from virasoro.singular import singular_kernel
from virasoro.verma import PBWVector, VermaParams, gram_matrices, h_pq, pbw_left_multiply

from test_linalg import rref

HALF = Fraction(1, 2)
X = UniPoly.gen("x")
ONE = UniPoly.const(1, "x")
ZERO = UniPoly.const(0, "x")


def _filtration(fam):
    return jantzen_filtration(fam, bareiss_det(fam.rows()))


def test_hand_families():
    fam = MatrixFamily(2, ((ONE, ZERO), (ZERO, X * X)), "diag(1, x^2)")
    filt = _filtration(fam)
    assert filt.dims == (2, 1, 1, 0)
    assert filt.depth_sum() == 2
    assert det_order_identity(fam) == (2, 2)
    assert filt == Filtration(_rebuilt_filtration(fam)[0])

    fam = MatrixFamily(2, ((X, X), (X, X + X * X)), "hand")
    assert det_order_identity(fam) == (3, 3)
    assert _filtration(fam).dims == _rebuilt_filtration(fam)[0]


def _toeplitz_kernel(mats, n: int, depth: int):
    """Kernel of the depth x depth lower-triangular block system
    sum_{i+j=k} A_i v_j = 0 for k < depth, unknowns v_0..v_{depth-1}."""
    zero = Fraction(0)
    rows = []
    for k in range(depth):
        for r in range(n):
            row = []
            for jblk in range(depth):
                i = k - jblk
                block = mats[i] if 0 <= i < len(mats) else None
                row.extend(block[r] if block is not None else [zero] * n)
            rows.append(row)
    return nullspace(rows, ncols=n * depth)


def _first_block_span(kernel, n: int):
    """Reduced row echelon basis of the projection of kernel vectors onto
    the v_0 block."""
    rows, pivots = rref([vec[:n] for vec in kernel])
    return tuple(tuple(row) for row in rows[:len(pivots)])


def _rebuilt_filtration(family):
    """(dims, bases) of the filtration with the kernel of the whole
    block-Toeplitz system T_m solved at every depth and projected onto its
    v_0 block: bases[i - 1] spans V^(i), and the dims, differences of the
    kernel dimensions, are the reference for the rank differences of
    jantzen_filtration and for _growing_filtration.  The dims sum to
    ord det <= deg det <= n (len(mats) - 1), which bounds the depths."""
    mats = coefficient_matrices(family)
    n = family.dim
    dims, bases = [n], []
    prev = 0
    for depth in range(1, n * len(mats) + 2):
        kernel = _toeplitz_kernel(mats, n, depth)
        if len(kernel) == prev:
            break
        dims.append(len(kernel) - prev)
        bases.append(_first_block_span(kernel, n))
        prev = len(kernel)
    dims.append(0)
    return tuple(dims), tuple(bases)


def _growing_filtration(family: MatrixFamily, det=None) -> Filtration:
    """Section-based filtration from the growing kernels K_m; `det` is
    det A(x) when the caller has already computed it.

    K_{m+1} = {(w, v_m) : w in K_m, A_0 v_m + sum_{j<m} A_{m-j} w_j = 0},
    so each depth solves one n-row system over the columns [residues of
    the K_m basis | A_0], and dim V^(m) = dim K_m - dim K_{m-1}.  As the
    dims sum to ord det, at most ord det + 1 depths are run; a filtration
    that overran them would break the order identity its callers check.
    """
    if det is None:
        det = bareiss_det(family.rows())
    if det.is_zero():
        raise DegenerateFamilyError(
            f"det A(x) vanishes identically for {family.provenance} at level {family.level}"
        )
    mats = coefficient_matrices(family)
    n = family.dim
    zero = Fraction(0)
    dims = [n]
    kernel = []  # basis of K_m, each vector the blocks v_0 .. v_{m-1} in a row
    for m in range(det.order_at_zero() + 1):
        # the new block row A_0 v_m + sum_{j<m} A_{m-j} w_j = 0, with w
        # written in the K_m basis: one column per basis vector, then A_0
        residues = []
        for w in kernel:
            res = [zero] * n
            for j in range(max(0, m + 1 - len(mats)), m):
                block = w[j * n:(j + 1) * n]
                for r, row in enumerate(mats[m - j]):
                    res[r] += sum(map(mul, row, block), Fraction(0))
            residues.append(res)
        system = [[res[r] for res in residues] + mats[0][r] for r in range(n)]
        # each solution (a, v_m) gives the K_{m+1} vector (sum_t a_t w_t, v_m)
        grown = [
            [sum((a * w[k] for a, w in zip(sol, kernel) if a), zero) for k in range(n * m)]
            + sol[len(kernel):]
            for sol in nullspace(system, ncols=len(kernel) + n)
        ]
        if len(grown) == len(kernel):
            break
        dims.append(len(grown) - len(kernel))
        kernel = grown
    dims.append(0)
    return Filtration(tuple(dims))


def _three_routes(fam):
    """The filtration dims by rank differences, by growing kernels and by
    rebuilt systems, from one determinant."""
    det = bareiss_det(fam.rows())
    return (jantzen_filtration(fam, det).dims, _growing_filtration(fam, det).dims,
            _rebuilt_filtration(fam)[0])


@pytest.mark.parametrize("name,case,label", JANTZEN_FAMILIES, ids=[f[0] for f in JANTZEN_FAMILIES])
def test_growing_kernel_matches_rebuilt_systems(name, case, label):
    path, label = kac_module(case, **label).path
    for level in range(1, 8):
        ranks, growing, rebuilt = _three_routes(gram_family(path, level, label))
        assert ranks == growing == rebuilt, (name, level)


def test_three_routes_agree_on_the_weight_path_at_level_8():
    path, label = c1_path(0)
    assert _three_routes(gram_family(path, 8, label)) == ((22, 15, 5, 0),) * 3


def test_gram_family_is_the_specialised_symbolic_gram():
    symbolic = gram_matrices(6, VermaParams.symbolic())
    paths = [kac_module(case, **label).path for _, case, label in JANTZEN_FAMILIES] + [c1_path(0)]
    for path, label in paths:
        c_path, h_path = path
        for level in range(7):
            want = tuple(
                tuple(_as_x_poly(e.specialize(c_path, h_path) if isinstance(e, BiPoly) else e)
                      for e in row)
                for row in symbolic[level].entries
            )
            assert gram_family(path, level, label).entries == want, (label, level)


def test_degenerate_family_raises():
    fam = MatrixFamily(2, ((X, X), (X, X)), "rank-deficient")
    with pytest.raises(DegenerateFamilyError):
        _filtration(fam)


def test_gram_family_level_one():
    for j in (HALF, Fraction(1)):
        path, label = c1_path(j)
        fam = gram_family(path, 1, label)
        assert fam.entries == ((UniPoly.const(2 * j * j, "x"),),)
    path, label = c1_path(0)
    fam = gram_family(path, 1, label)
    assert fam.entries == ((2 * X,),)
    assert gram_family(path, 0, label).entries == ((ONE,),)


def test_coefficient_matrices():
    fam = MatrixFamily(2, ((ONE + X, X * X), (X * X, ZERO)), "demo")
    mats = coefficient_matrices(fam)
    assert mats[0] == [[1, 0], [0, 0]]
    assert mats[1] == [[1, 0], [0, 0]]
    assert mats[2] == [[0, 1], [1, 0]]


@pytest.mark.parametrize(
    "mk,label",
    [
        (lambda: c1_path(HALF), "c1 j=1/2"),
        (lambda: c1_path(1), "c1 j=1"),
        (lambda: discrete_path(3, 1, 1), "m3 (1,1)"),
        (lambda: discrete_path(3, 2, 1), "m3 (2,1)"),
        (lambda: discrete_path(3, 2, 2), "m3 (2,2)"),
    ],
)
def test_det_order_identity_on_gram_families(mk, label):
    path, provenance = mk()
    for level in range(1, 6):
        fam = gram_family(path, level, provenance)
        order, sdim = det_order_identity(fam)
        assert order == sdim, (label, level)


def test_deep_filtration_needs_section_corrections():
    # at c = 1, j = 1/2, level 6 the depth-two singular vector does not
    # annihilate A_1 on the nose; the section filtration still matches
    # the determinant order.
    path, label = c1_path(HALF)
    fam = gram_family(path, 6, label)
    order, sdim = det_order_identity(fam)
    assert order == sdim == 6
    filt = _filtration(fam)
    assert filt.dims == (11, 5, 1, 0)


def test_filtration_character_sums_match_closed_forms():
    for label in [{"j": HALF}, {"j": 1}]:
        module = kac_module("c1", **label)
        assert module.filtration_character_sum(6) == module.character_sum_closed(6)
    for r, s in ((1, 1), (2, 1), (2, 2)):
        module = kac_module("discrete", m=3, r=r, s=s)
        assert module.filtration_character_sum(6) == module.character_sum_closed(6)


def test_character_sum_closed_examples():
    # j = 1: first degeneracy at level 3 with multiplicity P(0) = 1
    series = kac_module("c1", j=1).character_sum_closed(6)
    assert series.coeffs[3] == 1
    assert [int(c) for c in series.coeffs] == [0, 0, 0, 1, 1, 2, 3]
    # j = 1/2 matches a(N) = sum_r P(N - r(r+1))
    series = kac_module("c1", j=HALF).character_sum_closed(6)
    assert [int(c) for c in series.coeffs] == [0, 0, 1, 1, 2, 3, 6]


def _lowering_matrix(k: int, level: int):
    """Matrix of L_{-k} from level to level + k; independent of (c, h)."""
    cols = [pbw_left_multiply(k, PBWVector.monomial(p)) for p in partitions_of(level)]
    return [[col.coeff(t) for col in cols] for t in partitions_of(level + k)]


def test_filtration_functoriality():
    # L_{-k} maps V^(i) at level n into V^(i) at level n + k
    for path, label in (c1_path(HALF), discrete_path(3, 1, 1)):
        for n in (1, 2, 3):
            bases_n = _rebuilt_filtration(gram_family(path, n, label))[1]
            for k in (1, 2):
                bases_nk = _rebuilt_filtration(gram_family(path, n + k, label))[1]
                mat = _lowering_matrix(k, n)
                for i, basis in enumerate(bases_n):
                    target = bases_nk[i] if i < len(bases_nk) else ()
                    span_rows = [list(v) for v in target]
                    for vec in basis:
                        image = [sum(map(mul, row, vec), Fraction(0)) for row in mat]
                        assert _in_span(image, span_rows), (label, n, k, i)


def _in_span(vector, rows):
    if all(x == 0 for x in vector):
        return True
    if not rows:
        return False
    before = len(rref(rows)[1])
    after = len(rref(rows + [vector])[1])
    return before == after


def test_norm_vanishing_orders():
    # constant vector has norm 1; L_{-1} along (1, x) has norm 2x
    path, label = c1_path(0)
    fam0 = gram_family(path, 0, label)
    assert norm_vanishing_order(PBWVector.vacuum(), fam0) == 0
    fam1 = gram_family(path, 1, label)
    assert norm_vanishing_order(PBWVector.monomial((1,)), fam1) == 1
    # the first discrete-series singular vector has order one
    dpath, dlabel = discrete_path(3, 1, 1)
    fam = gram_family(dpath, 1, dlabel)
    a1 = singular_kernel(VermaParams.rational(Fraction(1, 2), 0), 1)[0]
    assert norm_vanishing_order(a1, fam) == 1


def test_norm_orders_strictly_increase_along_c1_chain():
    params = VermaParams.rational(1, Fraction(1, 4))
    path, label = c1_path(HALF)
    orders = []
    for level in (2, 6):
        vec = singular_kernel(params, level)[0]
        fam = gram_family(path, level, label)
        orders.append(norm_vanishing_order(vec, fam))
    assert orders == [1, 2]


def test_norm_identically_zero_rejected():
    fam = MatrixFamily(1, ((ZERO,),), "null")
    with pytest.raises(ValueError):
        norm_vanishing_order(PBWVector.monomial((1,)), fam)


def test_character_formula_c1():
    series = character_formula("c1", 8, j=1)
    assert [int(c) for c in series.coeffs] == [
        num_partitions(n) - num_partitions(n - 3) for n in range(9)
    ]
    assert series.lead == 1
    # N = 0 reduces to the bare leading power
    assert list(character_formula("c1", 0, j=HALF).coeffs) == [1]


def test_character_formula_discrete_examples():
    # Ising h = 1/16 and h = 0 dimensions
    s = character_formula("discrete", 6, m=3, r=2, s=2)
    assert s.lead == Fraction(1, 16)
    assert [int(c) for c in s.coeffs] == [1, 1, 1, 2, 2, 3, 4]
    s = character_formula("discrete", 6, m=3, r=1, s=1)
    assert [int(c) for c in s.coeffs] == [1, 0, 1, 1, 2, 2, 3]
    s = character_formula("discrete", 6, m=3, r=2, s=1)
    assert s.lead == h_pq(2, 1, 3) == Fraction(1, 2)
    assert [int(c) for c in s.coeffs] == [1, 1, 1, 1, 2, 2, 3]


def test_character_formula_second_weight_grid():
    # an independent weight grid (m = 4, c = 7/10) against the rank
    # oracle, including the h = 7/16 and h = 1/10 entries
    from virasoro.verma import VermaParams, central_charge, irreducible_dims

    assert central_charge(4) == Fraction(7, 10)
    for r, s in ((1, 1), (2, 1), (3, 3)):
        h = h_pq(r, s, 4)
        closed = character_formula("discrete", 5, m=4, r=r, s=s)
        dims = irreducible_dims(VermaParams.rational(Fraction(7, 10), h), 5)
        assert [Fraction(d) for d in dims] == list(closed.coeffs), (r, s)


@pytest.mark.parametrize("j", [Fraction(1, 3), Fraction(-1), Fraction(-1, 2)])
def test_c1_characters_need_a_half_integer_spin(j):
    with pytest.raises(UsageError):
        character_formula("c1", 4, j=j)
    with pytest.raises(UsageError):
        kac_module("c1", j=j).character_sum_closed(4)


@pytest.mark.parametrize("r,s", [(0, 1), (3, 1), (1, 0), (1, 4), (-1, 2)])
def test_discrete_character_needs_a_kac_label(r, s):
    with pytest.raises(UsageError):
        character_formula("discrete", 4, m=3, r=r, s=s)


@pytest.mark.parametrize("case,label", [
    ("discrete", {"m": 3, "r": 0, "s": 1}),
    ("discrete", {"m": 3, "r": 3, "s": 1}),
    ("discrete", {"m": 3, "r": 1, "s": 4}),
    ("c1", {"j": Fraction(1, 3)}),
    ("c1", {"j": Fraction(-1)}),
    ("kac", {"j": 1}),
    ("c1", {}),
    ("discrete", {"m": 3, "r": 1}),
], ids=str)
def test_every_route_rejects_a_label_outside_its_family(case, label):
    """A label outside the c = 1 spins or the Kac table, an unknown case
    or a missing label is a usage error on every route, not a zero or a
    wrong series: each reads its module from kac_module."""
    for route in (lambda: kac_module(case, **label),
                  lambda: character_formula(case, 3, **label)):
        with pytest.raises(UsageError):
            route()


def test_kac_module_chain_and_signs():
    # c = 1, j = 1/2: chain k(k + 1) = 2, 6, 12; character terms 0 and 2j + 1
    module = kac_module("c1", j=HALF)
    assert module.params == VermaParams.rational(1, Fraction(1, 4))
    assert module.path == c1_path(HALF)
    assert module.paths["c"] == (c1_path(HALF), 1)
    assert module.paths["h"] == (((ONE, Fraction(1, 4) + X), "c=1, h=1/4+x"), 2)
    assert kac_module("c1", j=0).paths == dict.fromkeys(("auto", "h"), (c1_path(0), 1))
    assert module.chain(12) == [2, 6, 12] and module.chain(1) == []
    assert module.signs(2) == [(0, 1), (2, -1)] and module.signs(1) == [(0, 1)]
    # m = 3 (1, 1): chain (1 + 3a)(1 + 4a) = 1, 6, 20, 35; the character
    # terms l+(k), l-(k) within the window, each once
    module = kac_module("discrete", m=3, r=1, s=1)
    assert module.params == VermaParams.rational(Fraction(1, 2), 0)
    assert module.paths == {"auto": (discrete_path(3, 1, 1), 1)}
    assert module.chain(35) == [1, 6, 20, 35]
    assert sorted(module.signs(13)) == [(0, 1), (1, -1), (6, -1), (11, 1), (13, 1)]


def test_chain_levels():
    assert kac_module("c1", j=0).chain(4) == [1, 4]
    assert kac_module("c1", j=HALF).chain(6) == [2, 6]
    assert kac_module("discrete", m=3, r=1, s=1).chain(36) == [1, 6, 20, 35]
    assert kac_module("discrete", m=3, r=2, s=2).chain(31) == [2, 4, 24, 30]


def test_discrete_chain_levels_over_the_kac_table():
    # the two chains (r + am)(s + a(m+1)) and (r - am)(s - a(m+1)), a >= 0,
    # walked outward until both leave the window; inside the Kac table no
    # level repeats, so the sorted union is the whole list
    def reference(m, r, s, top):
        out = []
        for sign in (1, -1):
            for a in range(0 if sign == 1 else 1, top + 2):
                lvl = (r + sign * a * m) * (s + sign * a * (m + 1))
                if 1 <= lvl <= top:
                    out.append(lvl)
        return sorted(out)

    for m in (3, 4, 5):
        for r in range(1, m):
            for s in range(1, m + 1):
                chain = kac_module("discrete", m=m, r=r, s=s).chain
                for top in range(41):
                    assert chain(top) == reference(m, r, s, top), (m, r, s, top)


def test_discrete_chain_levels_are_the_minus_sign_character_levels():
    # the submodule generators of the closed character's q^{l-(k)} terms
    # are the singular chain: one l-(k) expression serves both
    for m in range(3, 9):
        for r in range(1, m):
            for s in range(1, m + 1):
                module = kac_module("discrete", m=m, r=r, s=s)
                for n in range(61):
                    minus = sorted(lvl for lvl, sign in module.signs(n) if sign < 0)
                    assert module.chain(n) == minus, (m, r, s, n)
