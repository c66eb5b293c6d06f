"""Exact coefficient arithmetic shared by every module.

The tower is Q < Q[v] < Q[v, 1/v] for a single tagged formal variable v
(Laurent polynomials: on the curve c(t) = 13 - 6t - 6/t every denominator
is a power of t), plus Q[c, h], the bivariate polynomials in the central
charge c and the lowest weight h, which carry no variable tags.  There
is no floating point anywhere; rationals are ``fractions.Fraction``.

All values are immutable after construction and hashable, so they can be
shared freely between threads and used as cache keys.

Every polynomial has one layout, the dense coefficient array: Q[v] from
v^0 up, and Q[c, h] over h, each row over c (`coeffs[j][i]` for c^i h^j).
The integer arrays of Z[x], Z[t] and Z[c][h] share it, and the ring
operations on arrays (`_ring_of` ... `_div`) serve both: they are the
arithmetic of UniPoly and BiPoly, the one exact division `_exact_div`,
and what the elimination of `linalg` and the Gram matrices and Kac
product form of `verma` run on.  The module also holds what every
vector module shares: the sparse-vector base `SparseVector`, the
in-place accumulator `accumulate`, and `UsageError` for arguments
outside a computation's domain.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import neg


class UsageError(ValueError):
    """An argument outside the domain a computation is defined on (bad
    input, as opposed to an identity that fails); the CLI exits 2."""


def as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as a rational number")


def _is_rational(x) -> bool:
    return isinstance(x, (int, Fraction))


def render_fraction(x: Fraction) -> str:
    return str(as_fraction(x))  # "n" or "n/d", in lowest terms


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


class _Poly(_Ring):
    """What UniPoly and BiPoly share: `coeffs`, their dense coefficient
    array over Q at depth `_depth` (1 or 2), as tuples with no trailing
    zero at any depth, so that equal values have equal arrays (a zero
    inside may be the int 0); and the one +, -, * and / on it, by `_add`,
    `_addmul` and `_map`."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        if isinstance(coeffs, dict):
            raise TypeError(f"{type(self).__name__} takes a coefficient array, not a dict")
        depth = self._depth
        object.__setattr__(self, "coeffs", _canon(_map(as_fraction, coeffs, depth), depth))
        object.__setattr__(self, "_hash", None)

    def _new(self, array, other):
        """The result of an operation on self and `other`, of self's class,
        with the coefficient array `array` made canonical by `_canon`."""
        new = object.__new__(type(self))
        object.__setattr__(new, "coeffs", _canon(array, self._depth))
        object.__setattr__(new, "_hash", None)
        return new

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1 and len(_leaves(self.coeffs, self._depth)) <= 1

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError(f"{self} is not constant")
        return next(iter(_leaves(self.coeffs, self._depth)), Fraction(0))

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._new(_add(self.coeffs, o.coeffs, self._depth), o)

    __radd__ = __add__

    def __neg__(self):
        return self._new(_map(neg, self.coeffs, self._depth), self)

    def __mul__(self, other):
        if _is_rational(other):
            return self._new(_map(as_fraction(other).__mul__, self.coeffs, self._depth), self)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._new(_addmul([], self.coeffs, o.coeffs, self._depth), o)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if _is_rational(other):
            inv = 1 / as_fraction(other)
            return self._new(_map(inv.__mul__, self.coeffs, self._depth), self)
        return NotImplemented

    exact_div = _exact_div

    def _key(self):
        return self.coeffs

    def render(self) -> str:
        """The nonzero terms of `_terms`, (coefficient, monomial) pairs,
        joined by their signs; a size of 1 is left out before a monomial."""
        out = ""
        for coeff, body in self._terms():
            size = render_fraction(abs(coeff))
            term = f"{size}*{body}" if body and size != "1" else body or size
            if out:
                out += f" - {term}" if coeff < 0 else f" + {term}"
            else:
                out = f"-{term}" if coeff < 0 else term
        return out or "0"


def _power(var: str, n: int) -> str:
    return "" if n == 0 else var if n == 1 else f"{var}^{n}"


class UniPoly(_Poly):
    """Univariate polynomial over Q with a variable tag; `coeffs` runs
    from v^0 up.

    Mixing two different variable tags in one expression is a checked
    error; no computation in this package ever needs it.
    """

    __slots__ = ("var",)
    _depth = 1

    def __init__(self, coeffs, var: str):
        super().__init__(coeffs)
        object.__setattr__(self, "var", var)

    def _new(self, array, other):
        new = super()._new(array, other)
        # a constant takes the tag of a non-constant operand
        tagged = other if len(self.coeffs) <= 1 < len(other.coeffs) else self
        object.__setattr__(new, "var", tagged.var)
        return new

    @classmethod
    def const(cls, value, var: str) -> "UniPoly":
        return cls([value], var)

    @classmethod
    def gen(cls, var: str) -> "UniPoly":
        return cls([0, 1], var)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def _coerce(self, other):
        if isinstance(other, UniPoly):
            if other.var != self.var and not other.is_constant() and not self.is_constant():
                raise ValueError(f"variable mismatch: {self.var!r} vs {other.var!r}")
            return other
        if _is_rational(other):
            return UniPoly.const(other, self.var)
        return None

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

    def _terms(self):
        return ((c, _power(self.var, i)) for i, c in enumerate(self.coeffs) if c)


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
        return f"({self.num.render()})/({_power(self.var, self.k)})"


class BiPoly(_Poly):
    """Polynomial in Q[c, h] without variable tags; `coeffs[j][i]` is the
    coefficient of c^i h^j."""

    __slots__ = ()
    _depth = 2

    @classmethod
    def const(cls, value) -> "BiPoly":
        return cls([[value]])

    @classmethod
    def gens(cls):
        return cls([[0, 1]]), cls([[], [1]])

    def _coerce(self, other):
        if isinstance(other, BiPoly):
            return other
        if _is_rational(other):
            return BiPoly.const(other)
        return None

    def specialize(self, first, second):
        """Substitute values for the two variables by Horner's rule in
        each; exact in any ring."""
        return _horner([_horner(row, first) for row in self.coeffs], second)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.coeffs == o.coeffs

    __hash__ = _Ring.__hash__

    def _terms(self):
        """By total degree, then by the degree in c."""
        terms = sorted((i + j, i, j, x) for j, row in enumerate(self.coeffs)
                       for i, x in enumerate(row) if x)
        return ((x, "*".join(filter(None, (_power("c", i), _power("h", j)))))
                for _, i, j, x in terms)


def _horner(coeffs, value):
    """sum(coeffs[i] * value^i) by Horner's rule, in the ring of `value`."""
    result = Fraction(0)
    for c in reversed(coeffs):
        result = result * value + c
    return result


# Coefficient arrays.  An element of Z[x] or Q[x] is the list of its
# coefficients from x^0 up; an element of Z[c][h] or Q[c][h] is the list
# over h of its coefficients in Z[c] or Q[c].  Arrays carry no trailing
# zeros at any depth, so zero is [] and the leading entry is last; at
# depth 0 an "array" is a plain number.  A UniPoly's or BiPoly's `coeffs`
# is such an array over Q, in tuples; the integer ones are lists.


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
            if not isinstance(x, _Poly):
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
    return kind, var, 0 if kind is Fraction else kind._depth


def _array(x, depth):
    """The coefficient array of an entry over Q: a polynomial's own
    `coeffs`, not a copy, which every caller scales into new lists
    (`_scaled`) before `_div` or `_addmul` write; its tuples make a stray
    write raise instead of corrupting the polynomial.  A rational is
    wrapped in new lists; at depth 0 it is returned as it is."""
    if isinstance(x, _Poly):
        return x.coeffs
    if depth and not x:
        return []
    for _ in range(depth):
        x = [x]
    return x


def _leaves(a, depth):
    return a if depth == 1 else [y for x in a for y in _leaves(x, depth - 1)]


def _scaled(a, den, depth):
    return _map(lambda x: x.numerator * (den // x.denominator), a, depth)


def _entry(a, kind, var, scale):
    """The int or array `a` divided by `scale`, as an element of `kind`."""
    if kind is Fraction:
        return Fraction(a, scale)
    coeffs = _map(lambda x: Fraction(x, scale), a, kind._depth)
    return UniPoly(coeffs, var) if kind is UniPoly else BiPoly(coeffs)


def _map(fn, a, depth):
    """`fn` applied to every coefficient of the array `a`, as new lists;
    at depth 0, to `a` itself."""
    if depth <= 1:
        return list(map(fn, a)) if depth else fn(a)
    return [_map(fn, x, depth - 1) for x in a]


def _canon(a, depth):
    """The array `a` of depth 1 or 2 trimmed in place (only its lists may
    end in a zero), as tuples: a polynomial's `coeffs`."""
    _trim(a, depth)
    return tuple(a) if depth == 1 else tuple(map(tuple, a))


def _add(a, b, depth):
    """a + b on arrays, as a list: the shorter added into a copy of the
    longer, whose rows it does not touch are shared; not trimmed."""
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, y in enumerate(b):
        if y:
            out[i] = y + out[i] if depth == 1 else _add(out[i], y, depth - 1)
    return out


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
    needed and skipping zero coefficients; the caller trims the result."""
    grow = len(a) + len(b) - 1 - len(acc)
    if grow > 0:
        acc.extend([0] * grow if depth == 1 else ([] for _ in range(grow)))
    if depth == 1:
        b = [(j, y) for j, y in enumerate(b) if y]
        for i, x in enumerate(a):
            if x:
                if neg:
                    x = -x
                for j, y in b:
                    acc[i + j] = x * y + acc[i + j]  # Fraction + 0 is faster than 0 + Fraction
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
