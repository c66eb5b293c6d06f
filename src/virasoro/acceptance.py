"""Acceptance suite: one callable per criterion, exact equality throughout.

Every criterion returns a dict with "ok", "details" and "elapsed"; the
CLI prints one line per criterion and exits nonzero if any fails.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from math import factorial

from . import density, fock_checks, jantzen, oscillator, singular, verma
from .combinat import partitions_of
from .scalars import BiPoly, UniPoly, UsageError


def _timed(fn):
    def wrapper(**kwargs):
        t0 = time.perf_counter()
        ok, details = fn(**kwargs)
        return {"ok": ok, "details": details, "elapsed": round(time.perf_counter() - t0, 2)}

    # the parameters the criterion reads: those it names before **_
    wrapper.reads = fn.__code__.co_varnames[:fn.__code__.co_argcount]
    return wrapper


@_timed
def criterion_kac_ratio(level_cap, **_):
    """Determinant/product ratio is a nonzero constant, levels 1..cap,
    equal to the closed leading coefficient `_kac_leading_constant`."""
    ratios = {}
    for level in range(1, level_cap + 1):
        ratio = verma.kac_det_ratio(level)
        if not ratio.is_constant() or ratio.constant_value() != _kac_leading_constant(level):
            return False, {"level": level, "ratio": ratio.render(),
                           "closed": str(_kac_leading_constant(level))}
        ratios[level] = str(ratio.constant_value())
    return True, {"ratios": ratios}


def _kac_leading_constant(level: int) -> int:
    """prod over partitions lambda of level of prod_k (2k)^{m_k} m_k!, with
    m_k the multiplicity of k in lambda: the leading h-coefficient of the
    Gram determinant (the product of the diagonal leading terms), and so
    the direct/product ratio, since every phi_{r,s} is monic in h."""
    total = 1
    for part in partitions_of(level):
        for k in set(part):
            m = part.count(k)
            total *= (2 * k) ** m * factorial(m)
    return total


@_timed
def criterion_gomes(**_):
    """Level-2 determinant at c = 0 equals 4 h^2 (8h - 5)."""
    det = verma.kac_det_direct(2, verma.VermaParams.symbolic())
    c, h = BiPoly.gens()
    at_c0 = det.specialize(BiPoly.const(0), h)
    expected = 4 * h * h * (8 * h - 5)
    return at_c0 == expected, {"det(c=0)": at_c0.render()}


@_timed
def criterion_singular_triple(**_):
    """Curve singular vectors against the other two routes, to level 9:
    for (r, 1) = (2j+1, 1), j <= 7/2, equal to the spin-chain vector, whose
    structural coefficients are checked, and otherwise singular over
    Q[t, 1/t];
    at two rational t each equals the kernel vector and is singular."""
    details = {}
    for r, s in [(d, 1) for d in range(2, 9)] + [(2, 2), (3, 2), (2, 3), (4, 2), (2, 4), (3, 3)]:
        where = {"rs": [r, s]}
        curve = singular.curve_singular(r, s)
        details[f"({r},{s})"] = {"terms": len(curve.terms)}
        if s > 1:
            params = verma.VermaParams(verma.c_curve(), verma.h_pq_curve(r, s))
            if not singular.check_singular(curve, params)[0]:
                return False, {**where, "stage": "singularity over Q[t, 1/t]"}
        else:
            two_j = r - 1
            chain = singular.bdiz_singular(Fraction(two_j, 2))
            # identical after normalisation
            if chain != curve:
                return False, {**where, "stage": "curve vs chain"}
            # constant term is L_{-1}^r, top t-coefficient has magnitude ((2j)!)^2
            for part, coeff in chain.terms.items():
                const = coeff.coeffs[0] if coeff.coeffs else 0
                if part == (1,) * r:
                    if coeff != 1:
                        return False, {**where, "stage": "L_{-1}^r normalisation"}
                elif const != 0:
                    return False, {**where, "stage": "constant term", "part": part}
            top = chain.coeff((r,))
            magnitude = abs(top.coeffs[two_j]) if top.degree >= two_j else None
            if magnitude != Fraction(factorial(two_j)) ** 2:
                return False, {**where, "stage": "top t-coefficient", "got": str(magnitude)}
            details[f"({r},{s})"]["top_sign"] = 1 if top.coeffs[two_j] > 0 else -1
        # specialise at t = 1 and one generic t and match the kernel route
        for t_val in (Fraction(1), Fraction(3, 2)):
            params = singular.curve_params_at(t_val, (r, s))
            vec = singular.specialize_curve_vector(curve, t_val)
            found = singular.singular_kernel(params, r * s)
            if len(found) != 1 or found[0] != vec:
                return False, {**where, "stage": f"kernel at t={t_val}"}
            if not singular.check_singular(vec, params)[0]:
                return False, {**where, "stage": f"singularity at t={t_val}"}
    return True, details


def _probe_chains(ops):
    """The chains the ladder laws are checked on, with rational
    coefficients: xi in the lowest spin slot; xi + 2 L_{-1} xi in the
    highest; and L_{-2} xi in the lowest with L_{-1}^2 xi in the highest."""
    vec, top = verma.PBWVector, ops.spin.dim - 1
    fills = ({0: vec.vacuum()}, {top: vec({(1,): Fraction(2), (): Fraction(1)})},
             {0: vec.monomial((2,)), top: vec.monomial((1, 1))})
    return [[fill.get(i, vec.zero()) for i in range(top + 1)] for fill in fills]


@_timed
def criterion_singular_chain(**_):
    """The spin-chain structure behind the BDIZ vectors and the singular
    chains it predicts: the ladder operators' Witt brackets at a constant
    (c, h) and their ladder law at c(t); the c = 1 products of degree-(2i+1)
    singular elements, equal to the kernel-solved chain and singular; the
    norm orders 1 < 2 of the c = 1, j = 1/2 chain along its c-path; and
    the m = 3 (1, 1) chain at levels 1 and 6."""
    witt = verma.VermaParams(Fraction(7, 3), Fraction(5, 2))
    cases = [(two_j, witt, p, q) for two_j in (1, 2) for p in range(3) for q in range(3)]
    cases += [(two_j, verma.VermaParams(verma.c_curve(), h), p, -1)
              for two_j, h in ((1, verma.h_pq_curve(2, 1)), (2, verma.h_pq_curve(3, 1)),
                               (3, Fraction(5, 2)))
              for p in range(4)]
    for two_j, params, p, q in cases:
        ops = singular.SpinChainOps(two_j, params)
        for n, chain in enumerate(_probe_chains(ops)):
            if q >= 0:  # [ladder(p), ladder(q)] = (p - q) ladder(p + q)
                want = ops.scale(ops.ladder(p + q, chain), p - q)
            else:  # [ladder(p), ladder(-1)] = sum_k (p+1+k) (-t)^k E^k ladder(p-1-k)
                want = ops.zero()
                for k in range(p + two_j + 2):
                    term = ops.ladder(p - 1 - k, chain)
                    for _ in range(k):
                        term = ops.E(term)
                    want = ops.add(want, ops.scale(term, (-ops.t) ** k * (p + 1 + k)))
            if ops.bracket(p, q, chain) != want:
                return False, {"stage": "ladder bracket", "2j": two_j, "chain": n, "p": p, "q": q}
    details = {"brackets": 3 * len(cases), "c1 products": {}}
    for j in (Fraction(0), Fraction(1, 2)):
        module = jantzen.kac_module("c1", j=j)
        params = module.params
        chain = singular.singular_chain(params, module.chain(6))
        for depth, kernel in enumerate(chain, 1):
            vec = singular.chain_product_vector(j, depth)
            level = vec.level()
            lead = vec.coeff((1,) * level)
            if not lead or vec.scale(1 / lead) != kernel or not singular.check_singular(vec, params)[0]:
                return False, {"stage": "c1 product", "j": str(j), "depth": depth}
            details["c1 products"][f"j={j} depth {depth}"] = level
    # chain and module now hold the c = 1, j = 1/2 vectors at levels 2 and 6
    path, label = module.path
    orders = [jantzen.norm_vanishing_order(vec, jantzen.gram_family(path, vec.level(), label))
              for vec in chain]
    if orders != [1, 2]:
        return False, {"stage": "norm orders", "orders": orders}
    details["norm orders"] = orders
    module = jantzen.kac_module("discrete", m=3, r=1, s=1)
    params = module.params
    chain = singular.singular_chain(params, module.chain(8))
    levels = [vec.level() for vec in chain]
    if levels != [1, 6] or not all(singular.check_singular(vec, params)[0] for vec in chain):
        return False, {"stage": "m=3 (1,1) chain", "levels": levels}
    details["m=3 (1,1) levels"] = levels
    return True, details


@_timed
def criterion_density_polynomial(seed, **_):
    """Direct density evaluation vs product forms vs transfer determinant."""
    mu = UniPoly.gen()
    rng = random.Random(seed)
    for two_j in range(9):
        j = Fraction(two_j, 2)
        # cases a (lambda = 0) and b (lambda = 1) are p = 0 and p = 1 of c
        for p in (Fraction(0), Fraction(1), Fraction(2), Fraction(1, 2)):
            if density.ad_direct(j, p * p, mu) != density.ff_product(j, p, mu):
                return False, {"j": str(j), "case": "c", "p": str(p)}
        for _ in range(5):
            lam = Fraction(rng.randint(-12, 12), rng.randint(1, 9))
            mval = Fraction(rng.randint(-12, 12), rng.randint(1, 9))
            if density.ad_direct(j, lam, mval) ** 2 != density.ff_product_squared(j, lam, mval):
                return False, {"j": str(j), "case": "d", "at": (str(lam), str(mval))}
        for p in (0, 1):
            if density.appc_determinant(j, p, mu) != density.ad_direct(j, p * p, mu):
                return False, {"j": str(j), "case": "determinant", "p": p}
    return True, {"j": "0..4", "cases": "a b c d det"}


JANTZEN_FAMILIES = (
    ("c1 j=1/2", "c1", {"j": Fraction(1, 2)}),
    ("c1 j=1", "c1", {"j": 1}),
    ("m=3 (1,1)", "discrete", {"m": 3, "r": 1, "s": 1}),
    ("m=3 (2,1)", "discrete", {"m": 3, "r": 2, "s": 1}),
    ("m=3 (2,2)", "discrete", {"m": 3, "r": 2, "s": 2}),
)


@_timed
def criterion_jantzen_identity(level_cap, **_):
    """Determinant order equals the filtration dimension sum."""
    details = {}
    for name, case, label in JANTZEN_FAMILIES:
        _, levels, _ = jantzen.kac_module(case, **label).filtrations(level_cap)
        orders = []
        for level, (order, filt) in enumerate(levels, 1):
            if order != filt.depth_sum():
                return False, {"family": name, "level": level, "order": order,
                               "sum": filt.depth_sum()}
            orders.append(order)
        details[name] = orders
    return True, details


@_timed
def criterion_character_sums(**_):
    """Filtration character sums match the closed degeneracy sums to q^6."""
    for name, case, label in JANTZEN_FAMILIES:
        module = jantzen.kac_module(case, **label)
        if module.filtrations(6)[2] != module.character_sum_closed(6):
            return False, {"case": name}
    return True, {"cases": len(JANTZEN_FAMILIES)}


def _ranks_match_characters(rows):
    """Closed characters against the Gram-rank oracle over (name, n, case,
    label) rows, to q^n; each name is formatted with the module's h."""
    details = {}
    for name, n, case, label in rows:
        module = jantzen.kac_module(case, **label)
        name = name.format(h=module.params.h)
        dims = verma.irreducible_dims(module.params, n)
        if [Fraction(x) for x in dims] != list(module.character(n).coeffs):
            return False, {"case": name, "dims": dims}
        details[name] = dims
    return True, details


@_timed
def criterion_characters_vs_ranks(**_):
    """Closed-form characters against the Gram-rank oracle: c = 1 with
    j = 0, 1/2, 1, 3/2, 2 to q^11 and m = 3 with (r, s) = (1,1), (2,1),
    (2,2) to q^6."""
    return _ranks_match_characters(
        [(f"c=1 j={Fraction(two_j, 2)}", 11, "c1", {"j": Fraction(two_j, 2)}) for two_j in range(5)]
        + [(f"m=3 ({r},{s}) h={{h}}", 6, "discrete", {"m": 3, "r": r, "s": s})
           for r, s in ((1, 1), (2, 1), (2, 2))])


@_timed
def criterion_discrete_characters_vs_ranks(**_):
    """Discrete-series characters against the Gram-rank oracle to q^10 for
    m in {3, 4, 5, 6}, every Kac-table (r, s) up to (r, s) ~ (m - r, m + 1 - s):
    34 modules."""
    return _ranks_match_characters(
        [(f"m={m} ({r},{s})", 10, "discrete", {"m": m, "r": r, "s": s})
         for m in (3, 4, 5, 6) for r in range(1, m) for s in range(1, m + 1)
         if (m - r, m + 1 - s) >= (r, s)])


@_timed
def criterion_goldstone(**_):
    """Goldstone vectors are singular; kernels have dimension exactly one
    at the predicted levels and zero elsewhere, energies up to 9."""
    pairs = 0
    for two_k in range(0, 7):
        k = Fraction(two_k, 2)
        m = 1
        while (k + m) ** 2 <= 9:
            for sector in ("minus", "plus"):
                g = oscillator.goldstone_vector(k, m, sector)
                params = oscillator.goldstone_params(k, sector)
                if not oscillator.virasoro_apply(1, g, params).is_zero():
                    return False, {"k": str(k), "m": m, "sector": sector, "op": "L1"}
                if not oscillator.virasoro_apply(2, g, params).is_zero():
                    return False, {"k": str(k), "m": m, "sector": sector, "op": "L2"}
                if g.degree() != (k + m) ** 2 - k * k:
                    return False, {"k": str(k), "m": m, "sector": sector, "op": "energy"}
                pairs += 1
            m += 1
        # kernel dimensions across that charge sector
        params = oscillator.OscParams.charge_sector(k)
        max_level = int(Fraction(9) - k * k) if k * k <= 9 else -1
        expected = set(jantzen.kac_module("c1", j=k).chain(max_level))
        for level in range(1, max_level + 1):
            found = oscillator.singular_kernel_osc(params, level)
            want = 1 if level in expected else 0
            if len(found) != want:
                return False, {"k": str(k), "level": level, "dim": len(found)}
    # a generic weight has no singular vectors at low levels
    generic = oscillator.OscParams.single(Fraction(1, 3))
    for level in range(1, 5):
        if oscillator.singular_kernel_osc(generic, level):
            return False, {"case": "generic", "level": level}
    return True, {"vectors": pairs}


@_timed
def criterion_binomial(**_):
    """Pairings equal binomial determinants; rectangle determinants equal
    the double product as polynomials."""
    lam = UniPoly.gen()
    checked = 0
    for size in range(1, 7):
        for f in partitions_of(size):
            for two_p in range(0, 5):
                p = Fraction(two_p, 2)
                if oscillator.l1_power_pairing(f, p) != oscillator.binom_det(f, two_p):
                    return False, {"f": f, "2p": two_p}
                checked += 1
    for width in range(1, 6):
        for depth in range(1, width + 1):
            f = (width,) * depth
            if oscillator.binom_det(f, lam) != oscillator.rect_binom_product(width, depth, lam):
                return False, {"rect": f}
            checked += 1
    return True, {"checked": checked}


@_timed
def criterion_fock(emax, pair_emax, **_):
    """The full identity suite on the truncated Fock space."""
    reports = fock_checks.run_suites(emax, pair_emax=pair_emax)
    bad = [r for r in reports if not r["ok"]]
    summary = {r["name"]: r["checked"] for r in reports}
    if bad:
        return False, {"failed": [r["name"] for r in bad], "first": bad[0]["mismatches"][:3]}
    return True, summary


CRITERIA = (
    ("kac-ratio", "Kac determinant direct/product ratio is constant", criterion_kac_ratio),
    ("gomes", "level-2 determinant at c=0 is 4h^2(8h-5)", criterion_gomes),
    ("singular-triple", "three singular-vector routes agree", criterion_singular_triple),
    ("singular-chain", "spin-chain ladder laws and the c = 1 singular chain",
     criterion_singular_chain),
    ("density-poly", "density polynomial: direct = products = determinant", criterion_density_polynomial),
    ("jantzen", "determinant order = filtration dimension sum", criterion_jantzen_identity),
    ("character-sums", "filtration character sums match closed forms", criterion_character_sums),
    ("characters", "closed characters match the Gram-rank oracle", criterion_characters_vs_ranks),
    ("discrete-characters", "discrete-series characters, m = 3..6, match the rank oracle to q^10",
     criterion_discrete_characters_vs_ranks),
    ("goldstone", "Goldstone vectors exhaust oscillator singular vectors", criterion_goldstone),
    ("binomial", "L_1-power pairings equal binomial determinants", criterion_binomial),
    ("fock", "Fock space identity suite", criterion_fock),
)


DEFAULTS = {"level_cap": 6, "seed": 20260809, "emax": 7, "pair_emax": 4}


def run_acceptance(names=None, **params):
    """Run the selected criteria with `params` (keys of DEFAULTS) over
    the defaults; returns (all_ok, list of result rows).  A parameter
    that no selected criterion reads is a UsageError, as is a level cap
    below 1 (kac-ratio and jantzen would check nothing) and a Fock window
    below `fock_checks.check_window`."""
    selected = [row for row in CRITERIA if names is None or row[0] in names]
    read = {name for _, _, fn in selected for name in fn.reads}
    unread = sorted(set(params) - read)
    if unread:
        flags = ", ".join("--" + name.replace("_", "-") for name in unread)
        raise UsageError(f"no selected criterion reads {flags}")
    params = {**DEFAULTS, **params}
    if params["level_cap"] < 1:
        raise UsageError(f"the level cap must be at least 1, got {params['level_cap']}")
    fock_checks.check_window(params["emax"], params["pair_emax"])
    rows = []
    all_ok = True
    for key, title, fn in selected:
        result = fn(**params)
        rows.append({"criterion": key, "title": title, **result})
        all_ok = all_ok and result["ok"]
    return all_ok, rows
