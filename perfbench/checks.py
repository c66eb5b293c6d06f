"""Reference values and output checks for the benchmark workloads.

Everything here is computed from first principles, without calling the
package under test: partition counts, the leading h-coefficient of the
Kac determinant, the closed character and degeneracy sums, and the
hand-derived level-2 Gram matrix.  Each check returns a list of
problems; an empty list means the output was verified.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from math import factorial

# ----------------------------------------------------------------------
# reference computations
# ----------------------------------------------------------------------


def partition_counts(n_max: int) -> list:
    """p(0..n_max) by the coin-change recurrence over part sizes."""
    p = [1] + [0] * n_max
    for part in range(1, n_max + 1):
        for n in range(part, n_max + 1):
            p[n] += p[n - part]
    return p


def partitions(n: int, largest: int | None = None):
    """Partitions of n as weakly decreasing tuples."""
    largest = n if largest is None else min(largest, n)
    if n == 0:
        yield ()
        return
    for first in range(largest, 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


def kac_leading_constant(level: int) -> int:
    """Leading h-coefficient of the level Gram determinant.

    The top h-power of <L_{-lam} xi, L_{-lam} xi> is prod_k (2k h)^{m_k} m_k!
    for a partition lam with m_k parts equal to k, and only the diagonal
    reaches the top total h-degree of the determinant.  The product form
    is monic in h, so this is also the constant direct / product.
    """
    total = 1
    for lam in partitions(level):
        for k in set(lam):
            m = lam.count(k)
            total *= (2 * k) ** m * factorial(m)
    return total


def c1_character(j: Fraction, n_max: int) -> list:
    """dim L(1, j^2)(n) = p(n) - p(n - 2j - 1)."""
    p = partition_counts(n_max)
    d = int(2 * j) + 1
    return [p[n] - (p[n - d] if n >= d else 0) for n in range(n_max + 1)]


def discrete_character(m: int, r: int, s: int, n_max: int) -> list:
    """Rocha-Caridi alternating sum for the (m; r, s) minimal-model module."""
    p = partition_counts(n_max)
    period = m * (m + 1)
    out = [0] * (n_max + 1)
    for k in range(-n_max - 1, n_max + 2):
        plus = k * k * period + k * (r * (m + 1) - s * m)
        minus = r * s + k * k * period + k * (r * (m + 1) + s * m)
        for n in range(n_max + 1):
            if n >= plus:
                out[n] += p[n - plus]
            if n >= minus:
                out[n] -= p[n - minus]
    return out


def discrete_degeneracy_sum(m: int, r: int, s: int, n_max: int) -> list:
    """sum over submodule levels (r + am)(s + a(m+1)) of p(n - level)."""
    p = partition_counts(n_max)
    out = [0] * (n_max + 1)
    for a in range(-n_max - 1, n_max + 2):
        level = (r + a * m) * (s + a * (m + 1))
        if 1 <= level <= n_max:
            for n in range(level, n_max + 1):
                out[n] += p[n - level]
    return out


def kac_weight(m: int, r: int, s: int) -> Fraction:
    a = r * (m + 1) - s * m
    return Fraction(a * a - 1, 4 * m * (m + 1))


def central_charge(m: int) -> Fraction:
    return 1 - Fraction(6, m * (m + 1))


def curve_c(t: Fraction) -> Fraction:
    return 13 - 6 * t - 6 / t


def curve_h(r: int, s: int, t: Fraction) -> Fraction:
    return Fraction(r * r - 1, 4) * t + Fraction(s * s - 1, 4) / t - Fraction(r * s - 1, 2)


def gram_level2(c, h):
    """<L_{-lam} xi, L_{-mu} xi> at level 2, basis ([2], [1,1]):
    L_2 L_{-2} xi = (4h + c/2) xi, L_1 L_1 L_{-2} xi = 6h xi and
    L_1 L_1 L_{-1} L_{-1} xi = (8h^2 + 4h) xi."""
    return [[4 * h + c / 2, 6 * h], [6 * h, 8 * h * h + 4 * h]]


# ----------------------------------------------------------------------
# parsing the package's rendered polynomials
# ----------------------------------------------------------------------

_MONOMIAL = re.compile(
    r"^(?:(?P<coef>\d+(?:/\d+)?)\*?)?(?P<body>[a-z]+(?:\^\d+)?(?:\*[a-z]+(?:\^\d+)?)*)?$"
)


def parse_poly(text: str) -> dict:
    """'4*h + 1/2*c - h^2' -> {frozenset({('h', 1)}): 4, ...}."""
    text = text.strip()
    if not text:
        raise ValueError("empty polynomial")
    terms = {}
    for sign, chunk in re.findall(r"(^-?|[+-] )([^+-]+?)(?= [+-] |$)", text):
        chunk = chunk.strip()
        match = _MONOMIAL.match(chunk)
        if not chunk or match is None:
            raise ValueError(f"cannot parse term {chunk!r} in {text!r}")
        coef = Fraction(match.group("coef") or 1)
        if sign.strip() == "-":
            coef = -coef
        powers = {}
        for factor in (match.group("body") or "").split("*"):
            if factor:
                var, _, exp = factor.partition("^")
                powers[var] = powers.get(var, 0) + int(exp or 1)
        key = frozenset(powers.items())
        terms[key] = terms.get(key, 0) + coef
    return {k: v for k, v in terms.items() if v}


def poly(**coeffs) -> dict:
    """Build a parse_poly-style dict: poly(h=4, c=Fraction(1, 2), h2=8)."""
    out = {}
    for name, coef in coeffs.items():
        powers = {}
        for var, exp in re.findall(r"([a-z])(\d*)", name):
            powers[var] = powers.get(var, 0) + int(exp or 1)
        out[frozenset(powers.items())] = Fraction(coef)
    return out


# ----------------------------------------------------------------------
# checks on program outputs
# ----------------------------------------------------------------------


def check_kac_quotient(level: int, quotient) -> list:
    """direct / product must be the nonzero constant prod of diagonal leads."""
    if not quotient.is_constant() or quotient.is_zero():
        return [f"level {level}: quotient {quotient.render()} is not a nonzero constant"]
    want = kac_leading_constant(level)
    got = quotient.constant_value()
    if got != want:
        return [f"level {level}: quotient {got}, leading-coefficient formula gives {want}"]
    return []


def check_det_at_point(level, point, det_sym, product_sym, quotient, det_direct) -> list:
    """The symbolic determinant and the product form times the constant
    both specialise to the determinant of the Gram matrix built at the point."""
    c, h = point
    problems = []
    at_point = det_sym.specialize(c, h)
    if at_point != det_direct:
        problems.append(f"level {level} at {point}: det(c,h) -> {at_point}, direct {det_direct}")
    via_product = quotient.constant_value() * product_sym.specialize(c, h)
    if via_product != det_direct:
        problems.append(f"level {level} at {point}: K*product -> {via_product}, direct {det_direct}")
    return problems


def check_det_order(family: str, level: int, order: int, depth_sum: int) -> list:
    if order != depth_sum:
        return [f"{family} level {level}: det order {order} != filtration sum {depth_sum}"]
    return []


def check_dims(label: str, dims, series_coeffs, reference) -> list:
    """Rank-oracle dims equal the closed character, which equals the
    benchmark's own alternating sum, and dim L(n) <= p(n)."""
    problems = []
    p = partition_counts(len(reference) - 1)
    if list(dims) != list(reference):
        problems.append(f"{label}: rank oracle {list(dims)} != reference {reference}")
    if [Fraction(x) for x in series_coeffs] != [Fraction(x) for x in reference]:
        problems.append(f"{label}: character_formula {list(map(str, series_coeffs))} != reference")
    over = [n for n, d in enumerate(dims) if n < len(p) and d > p[n]]
    if over:
        problems.append(f"{label}: dim L(n) > p(n) at n = {over}")
    return problems


def check_fock_report(name: str, report: dict) -> list:
    problems = []
    if not report.get("ok") or report.get("mismatches"):
        problems.append(f"{name}: {len(report.get('mismatches') or [])} mismatches")
    if not report.get("checked", 0) > 0:
        problems.append(f"{name}: checked {report.get('checked')}")
    return problems


def check_fock_basis(emax: Fraction, states) -> list:
    """Count states per (sector, energy): sector k holds p(E - k^2/2)
    states at energy E, for every k with k^2/2 <= emax."""
    counts = {}
    for st in states:
        key = (st.sector, Fraction(st.energy))
        counts[key] = counts.get(key, 0) + 1
    p = partition_counts(int(emax) + 1)
    want = {}
    k = 0
    while Fraction(k * k, 2) <= emax:
        for sector in {k, -k}:
            base = Fraction(sector * sector, 2)
            for n in range(int(emax - base) + 1):
                want[(sector, base + n)] = p[n]
        k += 1
    if counts != want:
        diff = sorted(set(counts.items()) ^ set(want.items()), key=str)[:4]
        return [f"FockBasis({emax}) state counts differ from p(n): {diff}"]
    return []


# ----------------------------------------------------------------------
# command-line checks
# ----------------------------------------------------------------------


def classify_command(expect: str, rc: int, stdout: str, stderr: str, verify=None):
    """Return (failed, problems) for one CLI command.

    `expect` is "ok" (exit 0, JSON on stdout, `verify` passes) or "usage"
    (exit 2 without a traceback).  A wrong exit code or a traceback is a
    failed operation; an accepted command whose output is wrong is a
    correctness problem.
    """
    if "Traceback (most recent call last)" in stderr:
        return True, [f"traceback: {stderr.strip().splitlines()[-1]}"]
    want_rc = 0 if expect == "ok" else 2
    if rc != want_rc:
        tail = (stderr.strip().splitlines() or [""])[-1]
        return True, [f"exit {rc}, expected {want_rc}: {tail}"]
    if expect != "ok":
        return False, []
    try:
        report = json.loads(stdout)
    except ValueError:
        return False, ["stdout is not JSON"]
    problems = []
    for key in ("verdict", "agree", "singular"):
        if key in report and report[key] is not True:
            problems.append(f"{key} is {report[key]!r}")
    if verify is not None:
        problems.extend(verify(report))
    return False, problems


def verify_gram2(c=None, h=None):
    """Verifier for `gram --level 2 --json` against gram_level2: at the
    rational point (c, h), or with c and h symbolic when they are None."""
    if c is None:
        want = [[poly(h=4, c=Fraction(1, 2)), poly(h=6)], [poly(h=6), poly(h2=8, h=4)]]
        parse = parse_poly
    else:
        want = gram_level2(c, h)
        parse = Fraction

    def verify(report):
        if report.get("basis") != ["[2]", "[1,1]"]:
            return [f"basis {report.get('basis')}"]
        try:
            got = [[parse(x) for x in row] for row in report["entries"]]
        except (KeyError, ValueError) as exc:
            return [f"unparsable entries: {exc}"]
        if got != want:
            return [f"entries {report['entries']} differ from the hand-derived level-2 matrix"]
        return []

    return verify


def verify_singvec_t(t):
    """The level-2 singular vector on h_{2,1}(t) is (L_{-1}^2 - t L_{-2}) xi:
    L_1 kills it iff 4h + 2 = 3t, L_2 iff 6h = t (4h + c/2)."""

    def verify(report):
        if report.get("count") != 1:
            return [f"kernel dimension {report.get('count')}, expected 1"]
        terms = report["vectors"][0]["terms"]
        got = {k: Fraction(v) for k, v in terms.items()}
        want = {"[2]": -t, "[1,1]": Fraction(1)}
        if got != want:
            return [f"vector {terms} != {{[2]: {-t}, [1,1]: 1}}"]
        return []

    return verify


def verify_bdiz_half(report):
    """Same vector with t left symbolic."""
    if report.get("terms") != {"[2]": "-t", "[1,1]": "1"}:
        return [f"terms {report.get('terms')} != {{[2]: -t, [1,1]: 1}}"]
    return []


def verify_curve_point(r, s, t):
    def verify(report):
        problems = []
        if Fraction(report.get("c", "nan")) != curve_c(t):
            problems.append(f"c = {report.get('c')}, expected {curve_c(t)}")
        if Fraction(report.get("h", "nan")) != curve_h(r, s, t):
            problems.append(f"h = {report.get('h')}, expected {curve_h(r, s, t)}")
        if report.get("level") != r * s:
            problems.append(f"level {report.get('level')} != {r * s}")
        return problems

    return verify


def verify_kacdet_ratio(level):
    def verify(report):
        if report.get("constant") is not True:
            return ["ratio is not constant"]
        want = kac_leading_constant(level)
        if Fraction(report.get("value", "0")) != want:
            return [f"ratio {report.get('value')} != {want}"]
        return []

    return verify


def verify_routes(report):
    """Every route printed must give the same value."""
    values = set(report.get("values", {}).values())
    if len(values) != 1:
        return [f"routes disagree: {report.get('values')}"]
    return []


def verify_jantzen_discrete(m, r, s, n):
    want = discrete_degeneracy_sum(m, r, s, n)

    def verify(report):
        problems = []
        got = [int(Fraction(x)) for x in report["character_sum"]["coeffs"]]
        if got != want:
            problems.append(f"character sum {got} != degeneracy sum {want}")
        bad = [lvl for lvl, row in report["levels"].items() if not row.get("identity")]
        if bad:
            problems.append(f"det-order identity fails at levels {bad}")
        return problems

    return verify


def verify_character_c1(j, n):
    want = c1_character(j, n)

    def verify(report):
        problems = []
        if [int(Fraction(x)) for x in report["coeffs"]] != want:
            problems.append(f"coeffs {report['coeffs']} != p(n) - p(n-{int(2 * j) + 1})")
        if report.get("rank_oracle") != want:
            problems.append(f"rank oracle {report.get('rank_oracle')} != {want}")
        return problems

    return verify


def verify_goldstone(k, m):
    def verify(report):
        level = (k + m) ** 2 - k * k
        if report.get("level") != level:
            return [f"level {report.get('level')} != (k+m)^2 - k^2 = {level}"]
        return []

    return verify
