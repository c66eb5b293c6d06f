import random
from fractions import Fraction

import pytest

from virasoro.fock import FermionState, FockVector, PairState, PairVector
from virasoro.oscillator import PolyState
from virasoro.scalars import (
    BiPoly,
    Laurent,
    SparseVector,
    UniPoly,
    accumulate,
    render_scalar,
)
from virasoro.verma import PBWVector


def rand_unipoly(rng, var="t", max_deg=4):
    return UniPoly(
        [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(rng.randint(0, max_deg + 1))],
        var,
    )


def rand_bipoly(rng, max_deg=3):
    """Up to six random terms c^i h^j, written into the array coeffs[j][i]."""
    rows = [[0] * (max_deg + 1) for _ in range(max_deg + 1)]
    for _ in range(rng.randint(0, 6)):
        coeff = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        i, j = rng.randint(0, max_deg), rng.randint(0, max_deg)
        rows[j][i] = coeff
    return BiPoly(rows)


def test_ring_axioms_unipoly():
    rng = random.Random(11)
    for _ in range(60):
        a, b, c = (rand_unipoly(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)
        assert a + b == b + a
        assert a * b == b * a


def rand_laurent(rng, var="t", max_deg=3):
    return Laurent(rand_unipoly(rng, var, max_deg), rng.randint(0, 3))


def test_ring_axioms_laurent():
    rng = random.Random(15)
    for _ in range(60):
        a, b, c = (rand_laurent(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)
        assert a + b == b + a and a * b == b * a
        assert a - a == 0 and a * 1 == a and a ** 2 == a * a
        t = Fraction(rng.randint(1, 9), rng.randint(1, 4)) * rng.choice((1, -1))
        assert (a * b + c)(t) == a(t) * b(t) + c(t)


def test_ring_axioms_bipoly():
    rng = random.Random(12)
    for _ in range(40):
        a, b, c = (rand_bipoly(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)


def _sparse(f):
    """A BiPoly as {(i, j): coefficient of c^i h^j}, without zeros."""
    return {(i, j): x for j, row in enumerate(f.coeffs) for i, x in enumerate(row) if x}


def _sparse_add(a, b):
    """The sum of two such dicts: the sum of the sparse BiPoly layout."""
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, Fraction(0)) + v
    return {k: v for k, v in out.items() if v}


def _sparse_mul(a, b):
    """The product of two such dicts: the product of the sparse BiPoly
    layout, term by term."""
    out = {}
    for (i1, j1), x in a.items():
        for (i2, j2), y in b.items():
            k = (i1 + i2, j1 + j2)
            out[k] = out.get(k, Fraction(0)) + x * y
    return {k: v for k, v in out.items() if v}


def _dense_mul(a, b):
    """The product of two coefficient tuples over Q, on a list of
    Fraction zeros: the dense UniPoly product."""
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def test_arithmetic_matches_the_sparse_and_dense_oracles():
    rng = random.Random(22)
    for _ in range(80):
        a, b = rand_bipoly(rng), rand_bipoly(rng)
        assert _sparse(a + b) == _sparse_add(_sparse(a), _sparse(b))
        assert _sparse(a * b) == _sparse_mul(_sparse(a), _sparse(b))
        f, g = rand_unipoly(rng), rand_unipoly(rng)
        assert (f * g).coeffs == _dense_mul(f.coeffs, g.coeffs)


def _term_render(coeff, body):
    """One term as the per-class renders wrote it, its sign in front."""
    if not body:
        return render_scalar(coeff)
    if coeff in (1, -1):
        return body if coeff == 1 else f"-{body}"
    return f"{render_scalar(coeff)}*{body}"


def _joined(parts):
    if not parts:
        return "0"
    return parts[0] + "".join(f" - {p[1:]}" if p.startswith("-") else f" + {p}" for p in parts[1:])


def test_render_matches_the_per_class_renders():
    """The shared render against the two renders it replaced: UniPoly by
    power, BiPoly by total degree, then c-degree, then h-degree."""
    rng = random.Random(23)
    for _ in range(80):
        f = rand_unipoly(rng, max_deg=5)
        parts = [_term_render(c, "" if i == 0 else "t" if i == 1 else f"t^{i}")
                 for i, c in enumerate(f.coeffs) if c]
        assert f.render() == _joined(parts)
        g = rand_bipoly(rng)
        terms = _sparse(g)
        parts = []
        for i, j in sorted(terms, key=lambda k: (k[0] + k[1], k[0], k[1])):
            body = "*".join(([f"c^{i}" if i > 1 else "c"] if i else [])
                            + ([f"h^{j}" if j > 1 else "h"] if j else []))
            parts.append(_term_render(terms[(i, j)], body))
        assert g.render() == _joined(parts)


def test_polynomials_have_one_canonical_array():
    """Trailing zeros at either depth are dropped, so a value has one
    `coeffs`, and equal values hash alike."""
    c, h = BiPoly.gens()
    padded = BiPoly([[1, 0, 0], [], [0, 0]])
    assert padded.coeffs == ((1,),) and padded == BiPoly.const(1) == 1
    assert hash(padded) == hash(BiPoly.const(1)) == hash(1)
    p = BiPoly([[0, 2, 0], [0], [3], []])
    assert p.coeffs == ((0, 2), (), (3,))
    assert p == 2 * c + 3 * h * h and hash(p) == hash(2 * c + 3 * h * h)
    assert c * h - h * c == BiPoly([]) and (c * h - h * c).coeffs == ()
    assert UniPoly([1, 0, 0], "t").coeffs == (1,) and UniPoly([0, 0], "t").coeffs == ()
    with pytest.raises(TypeError):
        BiPoly({(0, 1): 1})  # not the array ((0, 1),), which is c


def test_one_arithmetic_for_both_polynomial_rings():
    """UniPoly and BiPoly define no +, -, * or / of their own: their
    shared base runs all four on the one coefficient array."""
    for cls in (UniPoly, BiPoly):
        for name in ("__add__", "__neg__", "__mul__", "__truediv__"):
            assert name not in vars(cls), (cls.__name__, name)


def test_scaling_by_a_rational_matches_the_product():
    """p * q for a rational q, on either side, equals p / (1/q) and the
    product with the constant polynomial q; it keeps p's variable tag,
    and 0 * p is the zero polynomial."""
    rng = random.Random(30)
    for _ in range(20):
        p = rand_unipoly(rng, var="v")
        assert p * 3 == 3 * p == p / Fraction(1, 3) == p * UniPoly.const(3, "v")
        assert (p * 3).var == (3 * p).var == "v"
        assert (0 * p).coeffs == () and 0 * p == UniPoly([], "v")
        b = rand_bipoly(rng)
        q = Fraction(-2, 5)
        assert b * q == q * b == b / Fraction(-5, 2) == b * BiPoly.const(q)
        assert (0 * b).coeffs == ()
    assert (UniPoly.const(2, "t") * Fraction(1, 2)).var == "t"


def test_laurent_exact_division():
    rng = random.Random(13)
    t = Laurent(UniPoly.gen("t"))
    count = 0
    while count < 25:
        a, b = rand_laurent(rng), rand_laurent(rng)
        if not b:
            continue
        assert (a * b) / b == a
        assert (a * b * t**3) / (b * t) == a * t**2 and (a * b) / (b * t**2) == a / t**2
        count += 1
    one = Laurent(UniPoly.const(1, "t"))
    assert one / t**2 == Laurent(UniPoly.const(1, "t"), 2)
    assert one / Laurent(UniPoly.const(2, "t"), 3) == t**3 / 2 == t**3 * Fraction(1, 2)


def test_laurent_division_outside_the_ring_raises():
    t = UniPoly.gen("t")
    with pytest.raises(ValueError):
        _ = Laurent(UniPoly.const(1, "t")) / Laurent(1 + t)
    with pytest.raises(ValueError):
        _ = Laurent(t * t + 1, 1) / Laurent(t - 2, 3)
    for zero in (0, Laurent(t - t, 2), UniPoly((), "t")):
        with pytest.raises(ZeroDivisionError):
            _ = Laurent(t, 1) / zero
    with pytest.raises(ZeroDivisionError):
        Laurent(1 + t, 1)(Fraction(0))


def test_laurent_canonical_form():
    """num / t^k with num(0) != 0 when k > 0, and zero with k = 0."""
    t = UniPoly.gen("t")
    f = Laurent(3 * t**2 + 3 * t**3, 3)
    assert (f.num, f.k) == (3 + 3 * t, 1)
    assert f == Laurent(UniPoly([3, 3], "t"), 1)
    g = Laurent(6 * t**4, 2)
    assert (g.num, g.k) == (6 * t**2, 0) and g == 6 * t**2
    zero = Laurent(UniPoly((), "t"), 4)
    assert zero.k == 0 and zero == 0
    assert f(Fraction(2)) == Fraction(9, 2)


def test_order_at_zero_examples():
    t = UniPoly.gen("t")
    assert (t**2 + t**3).order_at_zero() == 2
    assert UniPoly.const(5, "t").order_at_zero() == 0
    assert UniPoly.const(0, "t").order_at_zero() is None


def test_order_at_zero_level2_gram_family():
    # 2x2 determinant of the symbolic Gram family along (1+x, 1/4),
    # expanded by hand from the level-2 entries:
    # [[4h + c/2, 6h], [6h, 4h(2h+1)]] at h = 1/4, c = 1 + x.
    x = UniPoly.gen("x")
    h = Fraction(1, 4)
    a = 4 * h + (1 + x) * Fraction(1, 2)
    b = UniPoly.const(6 * h, "x")
    d = UniPoly.const(4 * h * (2 * h + 1), "x")
    det = a * d - b * b
    assert det.order_at_zero() == 1


def test_order_at_zero_multiplicative():
    rng = random.Random(14)
    count = 0
    while count < 30:
        f, g = rand_unipoly(rng), rand_unipoly(rng)
        if f.is_zero() or g.is_zero():
            continue
        assert (f * g).order_at_zero() == f.order_at_zero() + g.order_at_zero()
        count += 1


def test_specialize_examples():
    c, h = BiPoly.gens()
    phi11 = h
    assert phi11.specialize(Fraction(1), Fraction(1, 4)) == Fraction(1, 4)
    phi22 = h + (c - 1) * Fraction(3, 24)
    x = UniPoly.gen("x")
    got = phi22.specialize(1 + x, Fraction(0))
    assert got == x * Fraction(1, 8)
    # identity substitution
    f = c * c + h * 3 - 7
    assert f.specialize(c, h) == f


def _power_sum(f, first, second):
    """The evaluation term by term, each power a repeated product: the
    oracle for the Horner rule of `BiPoly.specialize`."""
    def power(x, n):
        out = Fraction(1)
        for _ in range(n):
            out = out * x
        return out

    total = Fraction(0)
    for j, row in enumerate(f.coeffs):
        for i, coeff in enumerate(row):
            total = total + coeff * power(first, i) * power(second, j)
    return total


def test_specialize_matches_power_sums():
    rng = random.Random(20)

    def rational():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 5))

    def unipoly():
        return rand_unipoly(rng, "x", max_deg=2)

    def laurent():
        return rand_laurent(rng, "x", max_deg=2)

    kinds = (rational, unipoly, laurent)
    for _ in range(40):
        f = rand_bipoly(rng)
        for first in kinds:
            for second in kinds:
                a, b = first(), second()
                assert f.specialize(a, b) == _power_sum(f, a, b), (f, a, b)


def test_variable_mixing_is_an_error():
    t = UniPoly.gen("t")
    x = UniPoly.gen("x")
    with pytest.raises(ValueError):
        _ = t + x
    with pytest.raises(ValueError):
        _ = t * x
    # constants are compatible with everything
    assert UniPoly.const(2, "t") + UniPoly.const(3, "x") == 5


def test_exact_div_unipoly_and_bipoly():
    t = UniPoly.gen("t")
    p = (t + 1) * (t**2 - 3)
    assert p.exact_div(t + 1) == t**2 - 3
    # rational coefficients and a divisor of integer content 6
    third = Fraction(1, 3)
    assert (p * third).exact_div(6 * t + 6) == (t**2 - 3) / 18
    assert UniPoly((), "t").exact_div(t + 1) == 0
    for a, b in ((t + 1, t), (t**2 + third, 3 * t + 1)):
        with pytest.raises(ValueError) as err:
            a.exact_div(b)
        assert type(err.value) is ValueError
    for zero in (UniPoly((), "t"), 0):
        with pytest.raises(ZeroDivisionError):
            p.exact_div(zero)
    c, h = BiPoly.gens()
    f = (c * h + 2) * (h * h - c)
    assert f.exact_div(h * h - c) == c * h + 2
    # rational coefficients, and divisors of integer content 2, 6 and 12
    third, half = Fraction(1, 3), Fraction(1, 2)
    g, k = c * third * h + half, 2 * h * h - 4 * c
    f = g * k
    assert f.exact_div(g) == k
    assert f.exact_div(k) == g
    assert f.exact_div(6 * g) == k / 6
    assert f.exact_div(6 * k) == g / 6
    assert ((h + half) ** 2).exact_div(2 * h + 1) == (h + half) / 2
    # divisors of lower h-degree (g above has 1 against 3), down to none
    assert ((c - 3) * k).exact_div(c - 3) == k
    assert (c * c * h - c).exact_div(3 * c) == (c * h - 1) / 3
    for a, b in ((c * h, h + 1),            # remainder in h
                 (h, c),                    # inexact in Z[c]
                 (c * h + 1, c * h),
                 (h * h + Fraction(1, 4), h + half),
                 (BiPoly.const(3), h)):     # lower degree than the divisor
        with pytest.raises(ValueError) as err:
            a.exact_div(b)
        # a ValueError (the CLI exits 1), not the ArithmeticError of `_div` (exit 3)
        assert type(err.value) is ValueError
    assert BiPoly.const(0).exact_div(k) == 0
    for zero in (BiPoly.const(0), 0):
        with pytest.raises(ZeroDivisionError):
            f.exact_div(zero)
    # both rings divide on the one shared path, and not by each other
    assert UniPoly.exact_div is BiPoly.exact_div
    for a, b in ((f, t), (p, c), (f, Laurent(t))):
        with pytest.raises(TypeError):
            a.exact_div(b)


def test_rendering():
    t = UniPoly.gen("t")
    assert render_scalar(Fraction(5, 2)) == "5/2"
    assert render_scalar(Fraction(-3)) == "-3"
    assert (1 - t).render() == "1 - t"
    assert (-t).render() == "-t"
    assert (t * t * Fraction(2) + Fraction(1, 2)).render() == "1/2 + 2*t^2"
    assert Laurent(-3 * (1 - t) ** 2, 1).render() == "(-3 + 6*t - 3*t^2)/(t)"
    assert Laurent(-3 * (1 - t) ** 2 * t, 1).render() == "-3 + 6*t - 3*t^2"
    assert render_scalar(Laurent(t + 1, 4)) == "(1 + t)/(t^4)"
    c, h = BiPoly.gens()
    assert (h + (c - 1) * Fraction(1, 8)).render() == "-1/8 + h + 1/8*c"


def test_hash_and_equality_across_constants():
    t = UniPoly.gen("t")
    five = UniPoly.const(5, "t")
    assert five == 5
    assert hash(five) == hash(UniPoly.const(5, "x"))
    assert Laurent(t) == t and t == Laurent(t) and Laurent(t**3, 2) == t
    assert len({Laurent(t), t, UniPoly.const(5, "x"), 5, Laurent(UniPoly.const(5, "t"))}) == 2
    assert hash(Laurent(UniPoly.const(5, "t"))) == hash(Fraction(5))
    assert hash(Laurent(t + 1)) == hash(t + 1) and Laurent(t + 1, 1) != t + 1


def _hash_law_pool(rng, rounds=20):
    """Small random values of every ring, each also written in the other
    rings it equals: a constant as a Fraction, an int, a UniPoly in two
    variables, a Laurent value and a BiPoly; a polynomial p as a UniPoly,
    as the Laurent p/t^0 and (p t^2)/t^2; and a Laurent p/t and a BiPoly
    of their own."""
    pool = []
    for _ in range(rounds):
        value = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
        pool += [value, UniPoly.const(value, "t"), UniPoly.const(value, "x"),
                 Laurent(UniPoly.const(value, "t")), BiPoly.const(value)]
        if value.denominator == 1:
            pool.append(int(value))
        p = rand_unipoly(rng, max_deg=2)
        pool += [p, Laurent(p), Laurent(p * UniPoly([0, 0, 1], "t"), 2), Laurent(p, 1),
                 rand_bipoly(rng, max_deg=1)]
    return pool


def test_equal_scalars_hash_alike():
    """The law of __hash__: a == b implies hash(a) == hash(b), over
    Fraction, UniPoly, Laurent and BiPoly, mixed and constant ones too."""
    pool = _hash_law_pool(random.Random(21))
    mixed = 0
    for a in pool:
        for b in pool:
            if a == b:
                assert hash(a) == hash(b), (a, b)
                mixed += type(a) is not type(b)
    assert mixed > 500


_F0, _F1 = FermionState(0, (1,)), FermionState(1, ())
VECTOR_KEYS = {
    PBWVector: ((2,), (1, 1)),
    PolyState: ((0, 1), (2,)),
    FockVector: (_F0, _F1),
    PairVector: (PairState(_F0, _F1), PairState(_F1, _F0)),
}
_C, _H = BiPoly.gens()
COEFFS = {
    "Fraction": (Fraction(1, 2), Fraction(-3), Fraction(5, 4)),
    "BiPoly": (_C, _H - 1, _C * _H),
}
vector_cases = pytest.mark.parametrize(
    "cls, ring", [(cls, ring) for cls in VECTOR_KEYS for ring in COEFFS],
    ids=lambda x: x if isinstance(x, str) else x.__name__,
)


@vector_cases
def test_accumulate_drops_cancelled_keys(cls, ring):
    (a, b), (x, y, z) = VECTOR_KEYS[cls], COEFFS[ring]
    out = {a: x}
    assert accumulate(out, {a: x, b: y}, -1) is out
    assert out == {b: -y}
    accumulate(out, [(b, y), (a, z)])
    assert out == {a: z}
    assert cls(accumulate({}, [(a, x), (b, y), (a, -x)])).terms == {b: y}


@vector_cases
def test_vector_algebra(cls, ring):
    (a, b), (x, y, z) = VECTOR_KEYS[cls], COEFFS[ring]
    u, w = cls({a: x, b: y}), cls({b: -y, a: z})
    assert isinstance(u, SparseVector)
    assert (u + w).terms == {a: x + z}
    assert (u - w).terms == {a: x - z, b: 2 * y}
    assert u.add_into(w, scale=z).terms == {a: x + z * z, b: y - z * y}
    assert u.scale(z).terms == {a: z * x, b: z * y}
    assert u.scale(0).is_zero() and (u - u).is_zero()
    # a vector is false exactly when it has no terms
    assert u and w and cls({a: x}) and not cls.zero() and not u.scale(0) and not (u - u)
    assert u.coeff(a) == x and u.coeff(b) == y
    assert u.map_coeffs(lambda v: v * 2) == cls({a: 2 * x, b: 2 * y})
    assert cls({a: x, b: 0}).terms == {a: x}
    assert cls.zero() == cls() and u != w
    # the operands are left untouched
    assert u.terms == {a: x, b: y} and w.terms == {b: -y, a: z}


def test_vector_types_never_compare_equal():
    assert FockVector.zero() != PairVector.zero()
    assert FockVector.basis(_F0) != PairVector.basis(_F0, _F1)
    assert PBWVector.vacuum() != PolyState.one()
    assert FockVector.basis(_F0) == FockVector({_F0: Fraction(1)})


def test_scalars_are_false_exactly_when_zero():
    t = UniPoly.gen("t")
    c, h = BiPoly.gens()
    for zero in (UniPoly((), "t"), t - t, BiPoly([]), c * h - h * c):
        assert not zero and zero.is_zero()
    for nonzero in (t, UniPoly.const(Fraction(1, 3), "t"), c, BiPoly.const(-1)):
        assert nonzero and not nonzero.is_zero()
    assert not Laurent(t - t, 2) and not Laurent(t + 1, 1) * 0
    assert Laurent(t) and Laurent(UniPoly.const(2, "t"), 1)


@vector_cases
def test_apply_linear_never_holds_a_zero(cls, ring):
    """Images that cancel, fully or in part, leave no zero coefficient."""
    (a, b), (x, y, z) = VECTOR_KEYS[cls], COEFFS[ring]
    u = cls({a: x, b: y})
    images = {a: ((a, y), (b, x)), b: ((a, -x), (b, z))}
    got = u.apply_linear(lambda key: images[key])
    assert got.terms == {b: x * x + y * z}
    assert all(v for v in got.terms.values())
    assert u.apply_linear(lambda key: ((a, y),) if key == a else ((a, -x),)).is_zero()
    for vec in (u + cls({a: -x}), u.add_into(u, scale=-1), u.scale(z)):
        assert all(v for v in vec.terms.values())
