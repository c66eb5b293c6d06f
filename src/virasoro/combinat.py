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

# Entries kept by each of partitions_of and num_partitions; the acceptance
# gate fills them to 66 and 14.
PARTITION_CACHE_SIZE = 1 << 12


@lru_cache(maxsize=PARTITION_CACHE_SIZE)
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


@lru_cache(maxsize=PARTITION_CACHE_SIZE)
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
    truncation order is the number of known coefficients past the lead,
    and equality compares the coefficients both series know.
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

    def scale(self, scalar) -> "QSeries":
        s = as_fraction(scalar)
        return QSeries([s * c for c in self.coeffs], self.lead, self.order)

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
