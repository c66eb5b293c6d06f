"""Exact coefficient arithmetic shared by every module.

The tower is Q < Q[v] < Q(v) for a single tagged formal variable v, plus
bivariate polynomials in two tagged variables (by default the central
charge ``c`` and the lowest weight ``h``).  There is no floating point
anywhere; rationals are ``fractions.Fraction``.

All values are immutable after construction and hashable, so they can be
shared freely between threads and used as cache keys.

The module also holds what every vector module shares: the sparse-vector
base `SparseVector`, the in-place accumulator `accumulate`, and
`UsageError` for arguments outside a computation's domain.
"""

from __future__ import annotations

from fractions import Fraction


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


class UniPoly:
    """Dense univariate polynomial over Q with a variable tag.

    Mixing two different variable tags in one expression is a checked
    error; no computation in this package ever needs it.
    """

    __slots__ = ("coeffs", "var", "_hash")

    def __init__(self, coeffs, var: str):
        cs = [as_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))
        object.__setattr__(self, "var", var)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("UniPoly is immutable")

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

    def leading(self) -> Fraction:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

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

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

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

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = UniPoly.const(1, self.var)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __divmod__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        quo = [Fraction(0)] * max(0, len(rem) - len(o.coeffs) + 1)
        d, lead = o.degree, o.leading()
        while len(rem) - 1 >= d and rem:
            k = len(rem) - 1 - d
            q = rem[-1] / lead
            quo[k] = q
            for i, c in enumerate(o.coeffs):
                rem[k + i] -= q * c
            while rem and rem[-1] == 0:
                rem.pop()
        return UniPoly(quo, self.var), UniPoly(rem, self.var)

    def exact_div(self, other) -> "UniPoly":
        q, r = divmod(self, other)
        if not r.is_zero():
            raise ValueError(f"inexact polynomial division: {self} by {other}")
        return q

    def __truediv__(self, other):
        if _is_rational(other):
            inv = 1 / as_fraction(other)
            return UniPoly([c * inv for c in self.coeffs], self.var)
        return NotImplemented

    @staticmethod
    def gcd(a: "UniPoly", b: "UniPoly") -> "UniPoly":
        while not b.is_zero():
            a, b = b, divmod(a, b)[1]
        if a.is_zero():
            return a
        return a.monic()

    def monic(self) -> "UniPoly":
        if self.is_zero():
            return self
        inv = 1 / self.leading()
        return UniPoly([c * inv for c in self.coeffs], self.var)

    def __call__(self, value):
        """Evaluate by Horner's rule; value may live in any ring here."""
        result = Fraction(0)
        for c in reversed(self.coeffs):
            result = result * value + c
        return result

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

    def __hash__(self):
        if self._hash is None:
            key = ("rat", self.constant_value()) if self.is_constant() else (self.var, self.coeffs)
            object.__setattr__(self, "_hash", hash(key))
        return self._hash

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

    def __repr__(self):
        return f"UniPoly({self.render()!r})"


class RatFunc:
    """Reduced fraction of univariate polynomials; denominator monic."""

    __slots__ = ("num", "den", "_hash")

    def __init__(self, num: UniPoly, den: UniPoly):
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.var != den.var and not num.is_constant() and not den.is_constant():
            raise ValueError("variable mismatch in rational function")
        var = num.var if not num.is_constant() else den.var
        g = UniPoly.gcd(num, den)
        if not g.is_zero() and g.degree > 0:
            num = num.exact_div(g)
            den = den.exact_div(g)
        lead = den.leading()
        if lead != 1:
            num = num / lead
            den = den / lead
        if num.is_zero():
            den = UniPoly.const(1, var)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("RatFunc is immutable")

    @classmethod
    def from_poly(cls, p: UniPoly) -> "RatFunc":
        return cls(p, UniPoly.const(1, p.var))

    @classmethod
    def const(cls, value, var: str) -> "RatFunc":
        return cls(UniPoly.const(value, var), UniPoly.const(1, var))

    @classmethod
    def gen(cls, var: str) -> "RatFunc":
        return cls(UniPoly.gen(var), UniPoly.const(1, var))

    @property
    def var(self) -> str:
        return self.num.var if not self.num.is_constant() else self.den.var

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self) -> bool:
        return bool(self.num.coeffs)

    def is_constant(self) -> bool:
        return self.num.is_constant() and self.den.is_constant()

    def constant_value(self) -> Fraction:
        return self.num.constant_value() / self.den.constant_value()

    def _coerce(self, other):
        if isinstance(other, RatFunc):
            return other
        if isinstance(other, UniPoly):
            return RatFunc.from_poly(other)
        if _is_rational(other):
            return RatFunc.const(other, self.var)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RatFunc(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self):
        return RatFunc(-self.num, self.den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RatFunc(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RatFunc(self.num * o.den, self.den * o.num)

    def __pow__(self, n: int):
        if n < 0:
            return RatFunc(self.den ** (-n), self.num ** (-n))
        return RatFunc(self.num ** n, self.den ** n)

    def __call__(self, value):
        den = self.den(value)
        if den == 0:
            raise ZeroDivisionError(f"pole at {value}")
        return self.num(value) / den

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.num == o.num and self.den == o.den

    def __hash__(self):
        if self._hash is None:
            if self.is_constant():
                key = ("rat", self.constant_value())
            else:
                key = (self.var, self.num.coeffs, self.den.coeffs)
            object.__setattr__(self, "_hash", hash(key))
        return self._hash

    def render(self) -> str:
        if self.den.is_constant():
            return self.num.render()
        return f"({self.num.render()})/({self.den.render()})"

    def __repr__(self):
        return f"RatFunc({self.render()!r})"


class BiPoly:
    """Sparse polynomial in two tagged variables, by default (c, h)."""

    __slots__ = ("terms", "vars", "_hash")

    def __init__(self, terms, vars=("c", "h")):
        clean = {}
        for (i, j), coeff in dict(terms).items():
            coeff = as_fraction(coeff)
            if coeff != 0:
                clean[(int(i), int(j))] = coeff
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "vars", tuple(vars))
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("BiPoly is immutable")

    @classmethod
    def const(cls, value, vars=("c", "h")) -> "BiPoly":
        return cls({(0, 0): as_fraction(value)}, vars)

    @classmethod
    def gens(cls, vars=("c", "h")):
        return cls({(1, 0): 1}, vars), cls({(0, 1): 1}, vars)

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
            if other.vars != self.vars and not other.is_constant() and not self.is_constant():
                raise ValueError(f"variable mismatch: {self.vars} vs {other.vars}")
            return other
        if _is_rational(other):
            return BiPoly.const(other, self.vars)
        return None

    def _vars_of(self, other: "BiPoly"):
        return self.vars if not self.is_constant() or other.is_constant() else other.vars

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out = dict(self.terms)
        for k, v in o.terms.items():
            out[k] = out.get(k, Fraction(0)) + v
        return BiPoly(out, self._vars_of(o))

    __radd__ = __add__

    def __neg__(self):
        return BiPoly({k: -v for k, v in self.terms.items()}, self.vars)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out = {}
        for (i1, j1), a in self.terms.items():
            for (i2, j2), b in o.terms.items():
                k = (i1 + i2, j1 + j2)
                out[k] = out.get(k, Fraction(0)) + a * b
        return BiPoly(out, self._vars_of(o))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = BiPoly.const(1, self.vars)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __truediv__(self, other):
        if _is_rational(other):
            inv = 1 / as_fraction(other)
            return BiPoly({k: v * inv for k, v in self.terms.items()}, self.vars)
        return NotImplemented

    def degree_in(self, axis: int) -> int:
        if not self.terms:
            return -1
        return max(k[axis] for k in self.terms)

    def _as_second_var_coeffs(self):
        """View as a polynomial in the second variable over Q[first]."""
        by_j = {}
        for (i, j), v in self.terms.items():
            by_j.setdefault(j, {})[i] = v
        out = []
        for j in range(self.degree_in(1) + 1):
            row = by_j.get(j, {})
            n = max(row) + 1 if row else 0
            out.append(UniPoly([row.get(i, 0) for i in range(n)], self.vars[0]))
        return out

    @classmethod
    def _from_second_var_coeffs(cls, coeffs, vars):
        terms = {}
        for j, poly in enumerate(coeffs):
            for i, v in enumerate(poly.coeffs):
                if v:
                    terms[(i, j)] = v
        return cls(terms, vars)

    def exact_div(self, other) -> "BiPoly":
        """Exact division (used by fraction-free elimination)."""
        o = self._coerce(other)
        if o is None or o.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        if o.is_constant():
            return self / o.constant_value()
        rem = self._as_second_var_coeffs()
        div = o._as_second_var_coeffs()
        dd = len(div) - 1
        lead = div[-1]
        quo = [UniPoly((), self.vars[0]) for _ in range(max(0, len(rem) - dd))]
        while len(rem) - 1 >= dd and any(not p.is_zero() for p in rem):
            while rem and rem[-1].is_zero():
                rem.pop()
            if len(rem) - 1 < dd:
                break
            k = len(rem) - 1 - dd
            q = rem[-1].exact_div(lead)
            quo[k] = q
            for i, p in enumerate(div):
                rem[k + i] = rem[k + i] - q * p
        if any(not p.is_zero() for p in rem):
            raise ValueError("inexact bivariate division")
        return BiPoly._from_second_var_coeffs(quo, self.vars)

    def specialize(self, first, second):
        """Substitute values for the two variables; exact in any ring."""
        by_j = {}
        for (i, j), v in self.terms.items():
            by_j.setdefault(j, {})[i] = v
        result = Fraction(0)
        for j in sorted(by_j):
            inner = Fraction(0)
            for i, coeff in sorted(by_j[j].items()):
                inner = inner + coeff * _power(first, i)
            result = result + inner * _power(second, j)
        return result

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.terms == o.terms

    def __hash__(self):
        if self._hash is None:
            if self.is_constant():
                key = ("rat", self.constant_value())
            else:
                key = (self.vars, tuple(sorted(self.terms.items())))
            object.__setattr__(self, "_hash", hash(key))
        return self._hash

    def render(self) -> str:
        if not self.terms:
            return "0"
        cv, hv = self.vars
        parts = []
        for (i, j) in sorted(self.terms, key=lambda k: (k[0] + k[1], k[0], k[1])):
            coeff = self.terms[(i, j)]
            factors = []
            if i:
                factors.append(cv if i == 1 else f"{cv}^{i}")
            if j:
                factors.append(hv if j == 1 else f"{hv}^{j}")
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

    def __repr__(self):
        return f"BiPoly({self.render()!r})"


def _power(value, n: int):
    if n == 0:
        return Fraction(1)
    result = value
    for _ in range(n - 1):
        result = result * value
    return result


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
