"""Partitions, signatures and truncated q-series.

Partitions are plain tuples of weakly decreasing positive ints; the
canonical enumeration order (descending lexicographic) fixes the row and
column order of every Gram matrix in the package, so determinants are
reproducible bit for bit.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .scalars import UsageError, as_fraction, render_fraction

Partition = tuple  # weakly decreasing tuple of positive ints
Signature = tuple  # weakly decreasing tuple of non-negative ints, trimmed


@lru_cache(maxsize=None)
def partitions_of(n: int, max_part: int | None = None) -> tuple:
    """All partitions of n in descending lexicographic order."""
    if n < 0:
        raise UsageError("partitions of a negative integer")
    if max_part is None or max_part > n:
        max_part = n
    if n == 0:
        return ((),)
    out = []
    for first in range(max_part, 0, -1):
        for rest in partitions_of(n - first, first):
            out.append((first,) + rest)
    return tuple(out)


@lru_cache(maxsize=None)
def num_partitions(n: int) -> int:
    """Partition counts via the pentagonal number recurrence."""
    if n < 0:
        return 0
    if n == 0:
        return 1
    total = 0
    k = 1
    while True:
        g1 = k * (3 * k - 1) // 2
        g2 = k * (3 * k + 1) // 2
        if g1 > n and g2 > n:
            break
        sign = -1 if k % 2 == 0 else 1
        if g1 <= n:
            total += sign * num_partitions(n - g1)
        if g2 <= n:
            total += sign * num_partitions(n - g2)
        k += 1
    return total


def partition_key(p: Partition) -> str:
    """Canonical JSON key, e.g. "[3,1]" or "[]"."""
    return "[" + ",".join(str(x) for x in p) + "]"


def parse_partition(text: str) -> Partition:
    body = text.strip().lstrip("[").rstrip("]").strip()
    if not body:
        return ()
    parts = tuple(int(x) for x in body.split(","))
    if any(x <= 0 for x in parts) or list(parts) != sorted(parts, reverse=True):
        raise UsageError(f"not a partition: {text!r}")
    return parts


def as_signature(rows) -> Signature:
    rows = tuple(int(r) for r in rows)
    if any(rows[i] < rows[i + 1] for i in range(len(rows) - 1)) or any(r < 0 for r in rows):
        raise UsageError(f"not a signature: {rows}")
    while rows and rows[-1] == 0:
        rows = rows[:-1]
    return rows


def transpose(f: Signature) -> Signature:
    """Conjugate Young diagram."""
    f = as_signature(f)
    if not f:
        return ()
    out = [0] * f[0]
    for row in f:
        for i in range(row):
            out[i] += 1
    return tuple(out)


class QSeries:
    """Truncated power series q^lead * (c_0 + c_1 q + ... + c_order q^order).

    The leading exponent may be any rational (characters carry q^h).  The
    truncation order is the number of known coefficients past the lead;
    arithmetic propagates the minimum of the operands' orders, and asking
    for a coefficient beyond the order raises.
    """

    __slots__ = ("lead", "coeffs", "order")

    def __init__(self, coeffs, lead=0, order=None):
        cs = [as_fraction(c) for c in coeffs]
        if order is None:
            order = len(cs) - 1
        if order < len(cs) - 1:
            cs = cs[: order + 1]
        cs += [Fraction(0)] * (order + 1 - len(cs))
        object.__setattr__(self, "coeffs", tuple(cs))
        object.__setattr__(self, "lead", as_fraction(lead))
        object.__setattr__(self, "order", order)

    def __setattr__(self, name, value):
        raise AttributeError("QSeries is immutable")

    @classmethod
    def zero(cls, order: int, lead=0) -> "QSeries":
        return cls([0] * (order + 1), lead, order)

    @classmethod
    def one(cls, order: int) -> "QSeries":
        return cls([1], 0, order)

    def coeff(self, n: int) -> Fraction:
        """Coefficient of q^(lead + n)."""
        if n < 0:
            return Fraction(0)
        if n > self.order:
            raise IndexError(f"coefficient q^{n} beyond truncation order {self.order}")
        return self.coeffs[n]

    def shift(self, exponent) -> "QSeries":
        return QSeries(self.coeffs, self.lead + as_fraction(exponent), self.order)

    def scale(self, scalar) -> "QSeries":
        s = as_fraction(scalar)
        return QSeries([s * c for c in self.coeffs], self.lead, self.order)

    def _aligned(self, other: "QSeries"):
        """(low, high, offset) with low.lead + offset = high.lead."""
        delta = other.lead - self.lead
        if delta.denominator != 1:
            raise ValueError(
                f"cannot combine series with incompatible leads {self.lead} and {other.lead}"
            )
        d = delta.numerator
        if d >= 0:
            return self, other, d
        return other, self, -d

    def __add__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        low, high, offset = self._aligned(other)
        order = min(low.order, high.order + offset)
        out = []
        for n in range(order + 1):
            c = low.coeffs[n]
            if n - offset >= 0:
                c += high.coeffs[n - offset]
            out.append(c)
        return QSeries(out, low.lead, order)

    def __neg__(self):
        return QSeries([-c for c in self.coeffs], self.lead, self.order)

    def __sub__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        order = min(self.order, other.order)
        out = [Fraction(0)] * (order + 1)
        for i, a in enumerate(self.coeffs):
            if a == 0 or i > order:
                continue
            for j, b in enumerate(other.coeffs):
                if i + j > order:
                    break
                if b:
                    out[i + j] += a * b
        return QSeries(out, self.lead + other.lead, order)

    def __eq__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        a, b = self.normalized(), other.normalized()
        n = min(a.order, b.order)
        if all(c == 0 for c in a.coeffs[: n + 1]) and all(c == 0 for c in b.coeffs[: n + 1]):
            return True
        return a.lead == b.lead and a.coeffs[: n + 1] == b.coeffs[: n + 1]

    # equal series of different orders would need equal hashes
    __hash__ = None

    def normalized(self) -> "QSeries":
        """Strip leading zero coefficients into the exponent."""
        k = 0
        while k <= self.order and self.coeffs[k] == 0:
            k += 1
        if k == 0 or k > self.order:
            return self
        return QSeries(self.coeffs[k:], self.lead + k, self.order - k)

    def to_json(self) -> dict:
        return {
            "leading_exponent": render_fraction(self.lead),
            "coeffs": [render_fraction(c) for c in self.coeffs],
            "order": self.order,
        }

    def __repr__(self):
        bits = []
        for n, c in enumerate(self.coeffs):
            if c == 0:
                continue
            e = self.lead + n
            bits.append(f"{render_fraction(c)}*q^{e}" if e else render_fraction(c))
        body = " + ".join(bits) if bits else "0"
        return f"QSeries({body} + O(q^{self.lead + self.order + 1}))"


def phi_series(order: int) -> QSeries:
    """Euler generating function of partition counts, truncated."""
    if order < 0:
        raise ValueError("negative truncation order")
    return QSeries([num_partitions(n) for n in range(order + 1)], 0, order)
