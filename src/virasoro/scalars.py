"""Exact coefficient arithmetic shared by every module.

The tower is Q < Q[v] < Q[v, 1/v] for a single tagged formal variable v
(Laurent polynomials: on the curve c(t) = 13 - 6t - 6/t every denominator
is a power of t), plus Q[c, h], the bivariate polynomials in the central
charge c and the lowest weight h, which carry no variable tags.  There
is no floating point anywhere; rationals are ``fractions.Fraction``.

All values are immutable after construction and hashable, so they can be
shared freely between threads and used as cache keys.

The module also holds the integer coefficient arrays of Z[x], Z[t] and
Z[c][h] with their ring operations (`_ring_of` ... `_div`), on which the
one exact division `_exact_div` of UniPoly and BiPoly, the elimination
of `linalg` and the Gram matrices and Kac product form of `verma` run;
and what every vector module shares: the sparse-vector base
`SparseVector`, the in-place accumulator `accumulate`, and `UsageError`
for arguments outside a computation's domain.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


class UsageError(ValueError):
    """An argument outside the domain a computation is defined on (bad
    input, as opposed to an identity that fails); the CLI exits 2."""


def as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as a rational number")


def _is_rational(x) -> bool:
    return isinstance(x, (int, Fraction))


def render_fraction(x: Fraction) -> str:
    x = as_fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


class _Ring:
    """What UniPoly, Laurent and BiPoly share: immutability, subtraction,
    `repr`, non-negative integer powers and a hash cached from the
    class's `_key`.  A constant hashes as its Fraction value, which it
    equals, so `a == b` implies `hash(a) == hash(b)` across the tower.  A
    subclass that defines `__eq__` must rebind `__hash__`."""

    __slots__ = ("_hash",)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = self._coerce(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __hash__(self):
        if self._hash is None:
            key = self.constant_value() if self.is_constant() else self._key()
            object.__setattr__(self, "_hash", hash(key))
        return self._hash

    def __repr__(self):
        return f"{type(self).__name__}({self.render()!r})"


def _exact_div(a, b):
    """The exact quotient a / b of UniPolys or of BiPolys (their
    `exact_div`), by `_div` on integer coefficient arrays: both operands
    are cleared of denominators and the divisor is divided by its
    content, so by Gauss's lemma an exact quotient over Q is integral.
    A zero divisor raises ZeroDivisionError, an inexact one ValueError."""
    o = a._coerce(b)
    if o is None:
        raise TypeError(f"cannot divide a {type(a).__name__} by {type(b).__name__}")
    if not o:
        raise ZeroDivisionError("division by zero polynomial")
    if o.is_constant():
        return a / o.constant_value()
    kind, var, depth = _ring_of([(a, o)])
    x, y = _array(a, depth), _array(o, depth)
    dx, dy = _row_scale(_leaves(x, depth)), _row_scale(_leaves(y, depth))
    y = _scaled(y, dy, depth)
    g = gcd(*_leaves(y, depth))
    try:
        q = _div(_scaled(x, dx, depth), _div(y, _array(g, depth), depth), depth)
    except ArithmeticError:
        raise ValueError("inexact polynomial division") from None
    return _entry(q, kind, var, Fraction(dx * g, dy))


class UniPoly(_Ring):
    """Dense univariate polynomial over Q with a variable tag.

    Mixing two different variable tags in one expression is a checked
    error; no computation in this package ever needs it.
    """

    __slots__ = ("coeffs", "var")

    def __init__(self, coeffs, var: str):
        cs = [as_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))
        object.__setattr__(self, "var", var)
        object.__setattr__(self, "_hash", None)

    @classmethod
    def const(cls, value, var: str) -> "UniPoly":
        return cls([as_fraction(value)], var)

    @classmethod
    def gen(cls, var: str) -> "UniPoly":
        return cls([0, 1], var)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError(f"{self} is not constant")
        return self.coeffs[0] if self.coeffs else Fraction(0)

    def _coerce(self, other):
        if isinstance(other, UniPoly):
            if other.var != self.var and not other.is_constant() and not self.is_constant():
                raise ValueError(f"variable mismatch: {self.var!r} vs {other.var!r}")
            return other
        if _is_rational(other):
            return UniPoly.const(other, self.var)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n = max(len(self.coeffs), len(o.coeffs))
        a = list(self.coeffs) + [Fraction(0)] * (n - len(self.coeffs))
        for i, c in enumerate(o.coeffs):
            a[i] += c
        return UniPoly(a, self.var if not self.is_constant() or o.is_constant() else o.var)

    __radd__ = __add__

    def __neg__(self):
        return UniPoly([-c for c in self.coeffs], self.var)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.is_zero() or o.is_zero():
            return UniPoly((), self.var)
        out = [Fraction(0)] * (len(self.coeffs) + len(o.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(o.coeffs):
                    if b:
                        out[i + j] += a * b
        return UniPoly(out, self.var if not self.is_constant() or o.is_constant() else o.var)

    __rmul__ = __mul__

    exact_div = _exact_div

    def __truediv__(self, other):
        if _is_rational(other):
            inv = 1 / as_fraction(other)
            return UniPoly([c * inv for c in self.coeffs], self.var)
        return NotImplemented

    def __call__(self, value):
        """Evaluate by Horner's rule; value may live in any ring here."""
        return _horner(self.coeffs, value)

    def order_at_zero(self):
        """Multiplicity of the root at the origin; None for the zero
        polynomial, where it is undefined."""
        return next((i for i, c in enumerate(self.coeffs) if c), None)

    def __eq__(self, other):
        if _is_rational(other):
            return self.is_constant() and self.constant_value() == other
        if isinstance(other, UniPoly):
            if self.coeffs != other.coeffs:
                return False
            return self.is_constant() or other.is_constant() or self.var == other.var
        return NotImplemented

    __hash__ = _Ring.__hash__

    def _key(self):
        return self.var, self.coeffs

    def render(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(render_fraction(c))
            else:
                v = self.var if i == 1 else f"{self.var}^{i}"
                if c == 1:
                    term = v
                elif c == -1:
                    term = f"-{v}"
                else:
                    term = f"{render_fraction(c)}*{v}"
                parts.append(term)
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out


class Laurent(_Ring):
    """num / t^k in Q[t, 1/t]: a UniPoly numerator and a pole order k >= 0
    at t = 0, normalised so that num(0) != 0 when k > 0 (zero has k = 0),
    which makes the pair unique.  Division is exact and checked: a
    quotient outside Q[t, 1/t] raises ValueError."""

    __slots__ = ("num", "k")

    def __init__(self, num: UniPoly, k: int = 0):
        low = min(k, num.order_at_zero() if num else k)
        if low:
            num, k = UniPoly(num.coeffs[low:], num.var), k - low
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "_hash", None)

    @property
    def var(self) -> str:
        return self.num.var

    def __bool__(self) -> bool:
        return bool(self.num.coeffs)

    def is_constant(self) -> bool:
        return not self.k and self.num.is_constant()

    def constant_value(self) -> Fraction:
        if self.k:
            raise ValueError(f"{self} is not constant")
        return self.num.constant_value()

    def _coerce(self, other):
        if isinstance(other, Laurent):
            return other
        if isinstance(other, UniPoly) or _is_rational(other):
            return Laurent(self.num._coerce(other))
        return None

    def _shifted(self, k: int) -> UniPoly:
        """The numerator over t^k, for k >= self.k."""
        if k == self.k:
            return self.num
        return UniPoly((0,) * (k - self.k) + self.num.coeffs, self.var)

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        k = max(self.k, o.k)
        return Laurent(self._shifted(k) + o._shifted(k), k)

    __radd__ = __add__

    def __neg__(self):
        return Laurent(-self.num, self.k)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Laurent(self.num * o.num, self.k + o.k)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not o:
            raise ZeroDivisionError("division by zero Laurent polynomial")
        low = o.num.order_at_zero()  # 0 unless o.k == 0
        k = self.k + low - o.k
        num = self.num.exact_div(UniPoly(o.num.coeffs[low:], o.var))
        if k < 0:
            num, k = Laurent(num)._shifted(-k), 0
        return Laurent(num, k)

    def __call__(self, value):
        return self.num(value) / value ** self.k

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.k == o.k and self.num == o.num

    __hash__ = _Ring.__hash__

    def _key(self):
        # a polynomial (k = 0) hashes as the UniPoly it equals
        return (self.var, self.num.coeffs, self.k) if self.k else self.num._key()

    def render(self) -> str:
        if not self.k:
            return self.num.render()
        return f"({self.num.render()})/({self.var if self.k == 1 else f'{self.var}^{self.k}'})"


class BiPoly(_Ring):
    """Sparse polynomial in Q[c, h], {(i, j): coefficient of c^i h^j}."""

    __slots__ = ("terms",)

    def __init__(self, terms):
        clean = {}
        for (i, j), coeff in dict(terms).items():
            coeff = as_fraction(coeff)
            if coeff != 0:
                clean[(int(i), int(j))] = coeff
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "_hash", None)

    @classmethod
    def const(cls, value) -> "BiPoly":
        return cls({(0, 0): as_fraction(value)})

    @classmethod
    def gens(cls):
        return cls({(1, 0): 1}), cls({(0, 1): 1})

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_constant(self) -> bool:
        return all(k == (0, 0) for k in self.terms)

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError(f"{self} is not constant")
        return self.terms.get((0, 0), Fraction(0))

    def _coerce(self, other):
        if isinstance(other, BiPoly):
            return other
        if _is_rational(other):
            return BiPoly.const(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out = dict(self.terms)
        for k, v in o.terms.items():
            out[k] = out.get(k, Fraction(0)) + v
        return BiPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return BiPoly({k: -v for k, v in self.terms.items()})

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out = {}
        for (i1, j1), a in self.terms.items():
            for (i2, j2), b in o.terms.items():
                k = (i1 + i2, j1 + j2)
                out[k] = out.get(k, Fraction(0)) + a * b
        return BiPoly(out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if _is_rational(other):
            inv = 1 / as_fraction(other)
            return BiPoly({k: v * inv for k, v in self.terms.items()})
        return NotImplemented

    exact_div = _exact_div

    def specialize(self, first, second):
        """Substitute values for the two variables by Horner's rule in
        each; exact in any ring."""
        return _horner([_horner(row, first) for row in _array(self, 2)], second)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.terms == o.terms

    __hash__ = _Ring.__hash__

    def _key(self):
        return tuple(sorted(self.terms.items()))

    def render(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for (i, j) in sorted(self.terms, key=lambda k: (k[0] + k[1], k[0], k[1])):
            coeff = self.terms[(i, j)]
            factors = []
            if i:
                factors.append("c" if i == 1 else f"c^{i}")
            if j:
                factors.append("h" if j == 1 else f"h^{j}")
            body = "*".join(factors)
            if not body:
                parts.append(render_fraction(coeff))
            elif coeff == 1:
                parts.append(body)
            elif coeff == -1:
                parts.append(f"-{body}")
            else:
                parts.append(f"{render_fraction(coeff)}*{body}")
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out


def _horner(coeffs, value):
    """sum(coeffs[i] * value^i) by Horner's rule, in the ring of `value`."""
    result = Fraction(0)
    for c in reversed(coeffs):
        result = result * value + c
    return result


# Integer coefficient arrays.  An element of Z[x] is the list of its
# coefficients from x^0 up; an element of Z[c][h] is the list over h of
# its coefficients in Z[c].  Arrays carry no trailing zeros, so zero is []
# and the leading entry is last; at depth 0 an "array" is a plain int.


def _ring_of(matrix):
    """(kind, variable tag, depth) of the entries' ring: Fraction, UniPoly
    or BiPoly, whose arrays have depth 0, 1 or 2; only UniPoly has a tag.
    Any other entry, or UniPoly and BiPoly entries together, raise
    TypeError."""
    kind, var, constant = Fraction, None, True
    for row in matrix:
        for x in row:
            if isinstance(x, (int, Fraction)):
                continue
            if not isinstance(x, (UniPoly, BiPoly)):
                raise TypeError(f"expected rational, UniPoly or BiPoly entries, "
                                f"not {type(x).__name__}")
            if kind not in (Fraction, type(x)):
                raise TypeError("got both UniPoly and BiPoly entries")
            kind, v = type(x), (x.var if isinstance(x, UniPoly) else None)
            if x.is_constant():
                var = v if var is None else var
            elif constant:
                var, constant = v, False
            elif v != var:
                raise ValueError(f"variable mismatch: {var!r} vs {v!r}")
    return kind, var, (Fraction, UniPoly, BiPoly).index(kind)


def _array(x, depth):
    """The coefficient array of an entry over Q; at depth 0, the entry."""
    if isinstance(x, UniPoly):
        return list(x.coeffs)
    if isinstance(x, BiPoly):
        rows = []
        for (i, j), v in x.terms.items():
            rows.extend([] for _ in range(j + 1 - len(rows)))
            row = rows[j]
            row.extend([0] * (i + 1 - len(row)))
            row[i] = v
        return rows
    if depth and not x:
        return []
    for _ in range(depth):
        x = [x]
    return x


def _leaves(a, depth):
    return a if depth == 1 else [y for x in a for y in _leaves(x, depth - 1)]


def _scaled(a, den, depth):
    if depth == 0:
        return a.numerator * (den // a.denominator)
    return [_scaled(x, den, depth - 1) for x in a]


def _entry(a, kind, var, scale):
    """The int or array `a` divided by `scale`, as an element of `kind`."""
    if kind is Fraction:
        return Fraction(a, scale)
    if kind is UniPoly:
        return UniPoly([Fraction(x, scale) for x in a], var)
    return BiPoly({(i, j): Fraction(x, scale)
                   for j, row in enumerate(a) for i, x in enumerate(row) if x})


def _trim(a, depth):
    """Drop trailing zeros, at every depth, in place (an int at depth 0
    is returned as it is)."""
    if depth > 1:
        for x in a:
            _trim(x, depth - 1)
    while depth and a and not a[-1]:
        a.pop()
    return a


def _addmul(acc, a, b, depth, neg=False):
    """acc += a * b (acc -= a * b with `neg`) in place, growing `acc` as
    needed; the caller trims the result."""
    grow = len(a) + len(b) - 1 - len(acc)
    if grow > 0:
        acc.extend([0] * grow if depth == 1 else ([] for _ in range(grow)))
    if depth == 1:
        for i, x in enumerate(a):
            if x:
                if neg:
                    x = -x
                for j, y in enumerate(b):
                    acc[i + j] += x * y
    else:
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        _addmul(acc[i + j], x, y, depth - 1, neg)
    return acc


def _div(a, b, depth):
    """The exact quotient a / b by schoolbook long division, consuming
    `a`; each leading coefficient is divided the same way down to
    `divmod` on ints.  A nonzero remainder raises ArithmeticError."""
    if depth == 0:
        q, r = divmod(a, b)
        if r:
            raise ArithmeticError("inexact division in fraction-free elimination")
        return q
    *low, lead = b
    quo = []
    for k in range(len(a) - len(b), -1, -1):
        q = _div(_trim(a.pop(), depth - 1), lead, depth - 1)
        quo.append(q)
        if not q:
            continue
        # a -= q x^k * low in place, which clears a below its old top term
        if depth == 1:
            for i, y in enumerate(low, k):
                a[i] -= q * y
        else:
            for i, y in enumerate(low, k):
                if y:
                    _addmul(a[i], q, y, depth - 1, neg=True)
    if _trim(a, depth):
        raise ArithmeticError("inexact division in fraction-free elimination")
    quo.reverse()
    return quo


def _row_scale(values) -> int:
    """The lcm of the denominators of a row of rationals: the least
    positive integer that makes the scaled row integral."""
    return lcm(*(x.denominator for x in values))


def accumulate(out: dict, terms, scale=None) -> dict:
    """Add `scale * terms` into the dict `out` in place and return it.

    `terms` is a mapping or an iterable of (key, coefficient) pairs.  A
    key whose coefficient cancels is removed, so `out` never holds a
    zero; the coefficients may be rationals or any scalar of this module
    (each of which is false exactly when it is zero).
    """
    if isinstance(terms, dict):
        terms = terms.items()
    get = out.get
    for key, coeff in terms:
        if scale is not None:
            coeff = scale * coeff
        cur = get(key)
        if cur is not None:
            coeff = cur + coeff
        if coeff:
            out[key] = coeff
        elif cur is not None:
            del out[key]
    return out


class SparseVector:
    """Finite linear combination `terms: key -> coefficient` without zeros.

    Subclasses fix what a key is (a partition, an exponent tuple, a wedge
    state) and add their domain methods; the vector algebra lives here.
    Vectors of different subclasses never compare equal.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {k: v for k, v in dict(terms or {}).items() if v}

    @classmethod
    def _wrap(cls, terms: dict):
        """A vector that takes ownership of `terms`, which holds no zero
        (a dict built by `accumulate`); nothing is copied or filtered."""
        vec = cls.__new__(cls)
        vec.terms = terms
        return vec

    @classmethod
    def zero(cls):
        return cls()

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def coeff(self, key):
        return self.terms.get(key, Fraction(0))

    def add_into(self, other, scale=None):
        """self + scale * other, as a new vector."""
        return self._wrap(accumulate(dict(self.terms), other.terms, scale))

    def __add__(self, other):
        return self.add_into(other)

    def __sub__(self, other):
        return self.add_into(other, scale=-1)

    def scale(self, scalar):
        if not scalar:
            return self.zero()
        # every scalar ring here is a domain: nonzero times nonzero is nonzero
        return self._wrap({k: scalar * v for k, v in self.terms.items()})

    def map_coeffs(self, fn):
        return type(self)({k: fn(v) for k, v in self.terms.items()})

    def apply_linear(self, image):
        """The linear extension of `image` (key -> mapping or iterable of
        (key, coefficient) pairs) applied to this vector."""
        out = {}
        for key, coeff in self.terms.items():
            accumulate(out, image(key), coeff)
        return self._wrap(out)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.terms == other.terms


def render_scalar(x) -> str:
    """Canonical string form used verbatim in JSON output."""
    if _is_rational(x):
        return render_fraction(as_fraction(x))
    return x.render()
