"""The four benchmark workloads.

`prepare(name, seed, size, span)` generates a workload's inputs from the
seed and returns `(ops, info)`.  Each operation is a zero-argument
callable returning `(failed, problems)`: `failed` is True when the
program did not produce a result, `problems` lists every way a produced
result disagrees with the checks in `checks.py`.  Operations record what
the traced run reports besides spans in `info`: each Fock suite's
comparison count under "checked", each CLI command's wall time under
"timings".

`span(name)` is a context manager the operations open around their calls
into the package.  Untraced runs pass `no_span`, so they load no tracing
code; the traced run passes the tracer's own.

Sizes: "full" is what the benchmark measures, "tiny" is what the
self-test runs in seconds.
"""

from __future__ import annotations

import contextlib
import itertools
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

import checks

WORKLOADS = ("symbolic-det", "rank-oracle", "fock-suites", "cli-mix")

SIZES = {
    "full": {
        "kac_levels": 5,
        "points": 3,
        "jantzen_levels": 6,
        "rank_level": 10,
        "fock_window": (3, 2),
        "cli": {"kacdet": 5, "jantzen": 6, "character": 8},
    },
    "tiny": {
        "kac_levels": 3,
        "points": 2,
        "jantzen_levels": 3,
        "rank_level": 4,
        "fock_window": (2, 1),
        "cli": {"kacdet": 2, "jantzen": 2, "character": 3},
    },
}

# Jantzen families of the acceptance gate: two c = 1 central-charge
# paths and three m = 3 weight paths.
JANTZEN_FAMILIES = (
    ("c1", {"j": Fraction(1, 2)}),
    ("c1", {"j": Fraction(1)}),
    ("discrete", {"m": 3, "r": 1, "s": 1}),
    ("discrete", {"m": 3, "r": 2, "s": 1}),
    ("discrete", {"m": 3, "r": 2, "s": 2}),
)

# Rank-oracle modules: pairwise distinct (c, h), so no two calls share a
# cache entry.  Discrete-series labels are given up to the Kac-table
# symmetry (r, s) ~ (m - r, m + 1 - s); the seed picks which label the
# program sees.
RANK_CASES = (
    ("c1", {"j": Fraction(1, 2)}),
    ("c1", {"j": Fraction(1)}),
    ("discrete", {"m": 3, "r": 1, "s": 1}),
    ("discrete", {"m": 3, "r": 1, "s": 2}),
    ("discrete", {"m": 3, "r": 2, "s": 1}),
    ("discrete", {"m": 4, "r": 1, "s": 2}),
    ("discrete", {"m": 4, "r": 1, "s": 3}),
    ("discrete", {"m": 4, "r": 2, "s": 2}),
    ("discrete", {"m": 5, "r": 1, "s": 3}),
    ("discrete", {"m": 5, "r": 2, "s": 2}),
    ("discrete", {"m": 5, "r": 2, "s": 3}),
)
TINY_RANK_CASES = RANK_CASES[:1] + RANK_CASES[3:4] + RANK_CASES[-1:]

# Pair-space suites run at the second window bound (as run_suites does).
PAIR_SUITES = ("example2", "level1", "psi-boson", "theta")

SRC = os.path.join(os.getcwd(), "src")


@contextlib.contextmanager
def no_span(name):
    yield


def _guard(op):
    """Turn an exception escaping the program into a failed operation."""

    def run():
        try:
            return op()
        except Exception as exc:  # any escape from the program is a failed operation
            return True, [f"{type(exc).__name__}: {exc}"]

    return run


def prepare(name, seed, size="full", span=no_span):
    """Inputs and operations of one round of workload `name`."""
    sz = SIZES[size]
    rng = random.Random(seed)
    info = {"checked": {}, "timings": []}
    if name == "symbolic-det":
        ops = symbolic_det(rng, sz, span)
    elif name == "rank-oracle":
        ops = rank_oracle(rng, sz, span, TINY_RANK_CASES if size == "tiny" else RANK_CASES)
    elif name == "fock-suites":
        ops = fock_suites(sz, span, info["checked"])
    elif name == "cli-mix":
        commands = cli_commands(rng, sz)
        info["commands"] = [cmd.argv for cmd in commands]
        ops = [cmd.runner(info["timings"]) for cmd in commands]
    else:
        raise ValueError(f"unknown workload {name!r}")
    return [_guard(op) for op in ops], info


def _random_fraction(rng):
    return Fraction(rng.randint(-40, 40), rng.randint(1, 12))


# ----------------------------------------------------------------------
# symbolic-det
# ----------------------------------------------------------------------


def symbolic_det(rng, sz, span):
    """Kac ratio direct / product over Q[c,h] level by level, checked at
    seeded rational points, then the Jantzen determinant-order identity.

    The ratio is computed in the steps of verma.kac_det_ratio (direct
    determinant, product form, exact division), so the symbolic
    determinant is at hand for the point checks without computing it twice.
    """
    from virasoro import jantzen, linalg, verma

    levels = range(1, sz["kac_levels"] + 1)
    points = {lvl: [(_random_fraction(rng), _random_fraction(rng)) for _ in range(sz["points"])]
              for lvl in levels}
    ops = []
    for level in levels:
        state = {}

        def ratio(level=level, state=state):
            det = verma.kac_det_direct(level, verma.VermaParams.symbolic())
            product = verma.kac_det_product_sym(level)
            with span("scalars.exact_div.kac"):
                quotient = det.exact_div(product)
            state.update(det=det, product=product, quotient=quotient)
            return False, checks.check_kac_quotient(level, quotient)

        ops.append(ratio)
        for point in points[level]:

            def at_point(level=level, point=point, state=state):
                if "quotient" not in state:
                    return True, ["no symbolic determinant to specialise"]
                gram = verma.gram_matrix(level, verma.VermaParams.rational(*point))
                direct = linalg.bareiss_det(gram.rows())
                return False, checks.check_det_at_point(
                    level, point, state["det"], state["product"], state["quotient"], direct
                )

            ops.append(at_point)
    for case, kw in JANTZEN_FAMILIES:
        if case == "c1":
            path, label = jantzen.c1_path(kw["j"])
        else:
            path, label = jantzen.discrete_path(kw["m"], kw["r"], kw["s"])
        for level in range(1, sz["jantzen_levels"] + 1):

            def identity(path=path, label=label, level=level):
                family = jantzen.gram_family(path, level, label)
                with span("jantzen.det_order_identity"):
                    order, depth_sum = jantzen.det_order_identity(family)
                return False, checks.check_det_order(label, level, order, depth_sum)

            ops.append(identity)
    return ops


# ----------------------------------------------------------------------
# rank-oracle
# ----------------------------------------------------------------------


def rank_oracle(rng, sz, span, cases):
    """irreducible_dims at every (c, h) of the case list in seeded order,
    each against character_formula and the benchmark's own character."""
    from virasoro import jantzen, verma

    n = sz["rank_level"]
    cases = list(cases)
    rng.shuffle(cases)
    ops = []
    for case, kw in cases:
        if case == "c1":
            j = kw["j"]
            params = verma.VermaParams.rational(1, j * j)
            reference = checks.c1_character(j, n)
            label = f"c=1 j={j}"
        else:
            m, r, s = kw["m"], kw["r"], kw["s"]
            if rng.random() < 0.5:
                r, s = m - r, m + 1 - s
            kw = {"m": m, "r": r, "s": s}
            params = verma.VermaParams.rational(checks.central_charge(m), checks.kac_weight(m, r, s))
            reference = checks.discrete_character(m, r, s, n)
            label = f"m={m} ({r},{s})"

        def oracle(case=case, kw=kw, params=params, reference=reference, label=label):
            dims = verma.irreducible_dims(params, n)
            with span("jantzen.character_formula"):
                series = jantzen.character_formula(case, n, **kw)
            return False, checks.check_dims(label, dims, series.coeffs, reference)

        ops.append(oracle)
    return ops


# ----------------------------------------------------------------------
# fock-suites
# ----------------------------------------------------------------------


def fock_suites(sz, span, checked):
    """Every suite of fock_checks.SUITES in registry order at one window,
    plus the state count of each window's FockBasis.  No seeded input:
    the window fixes every state the suites enumerate."""
    from virasoro import fock, fock_checks

    emax, pair_emax = sz["fock_window"]
    ops = []
    for bound in sorted({emax, pair_emax}):

        def basis(bound=bound):
            return False, checks.check_fock_basis(Fraction(bound), list(fock.FockBasis(bound)))

        ops.append(basis)
    for name, suite in fock_checks.SUITES.items():

        def run(name=name, suite=suite):
            bound = pair_emax if name in PAIR_SUITES else emax
            with span(f"fock_checks.{name}"):
                report = suite(bound)
            checked[name] = report["checked"]
            return False, checks.check_fock_report(name, report)

        ops.append(run)
    return ops


# ----------------------------------------------------------------------
# cli-mix
# ----------------------------------------------------------------------


class Command:
    """One `python -m virasoro.cli` invocation and what it must produce."""

    def __init__(self, argv, expect="ok", verify=None):
        self.argv = [str(a) for a in argv]
        self.expect = expect
        self.verify = verify

    def runner(self, timings):
        """The operation: run the command as a fresh process, time it
        from spawn to exit, and check what it printed."""

        def run():
            env = dict(os.environ, PYTHONPATH=SRC)
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, "-m", "virasoro.cli", *self.argv],
                env=env, capture_output=True, text=True, timeout=120,
            )
            timings.append((self.argv[0], time.perf_counter() - start))
            return checks.classify_command(
                self.expect, proc.returncode, proc.stdout, proc.stderr, self.verify
            )

        return run


_missing_dirs = itertools.count()


def cli_commands(rng, sz):
    """The README's cheap command-line examples plus seeded variants,
    shuffled by the seed; four commands that hit known faults keep fixed
    inputs so they fail on every run.  Seeded rationals may be negative,
    so they are passed as --opt=value."""
    cli = sz["cli"]
    c, h = _random_fraction(rng), _random_fraction(rng)
    t = Fraction(rng.randint(1, 9), rng.randint(1, 5)) * rng.choice((1, -1))
    j_half = Fraction(1, 2)
    commands = [
        Command(["gram", "--c", "c", "--h", "h", "--level", 2, "--json"], verify=checks.verify_gram2()),
        Command(["gram", f"--c={c}", f"--h={h}", "--level", 2, "--json"], verify=checks.verify_gram2(c, h)),
        Command(["kacdet", "--level", cli["kacdet"], "--mode", "ratio", "--json"],
                verify=checks.verify_kacdet_ratio(cli["kacdet"])),
        Command(["singvec", "--method", "bdiz", "--j", "1/2", "--json"], verify=checks.verify_bdiz_half),
        Command(["singvec", "--method", "curve", "--rs", "2,2", "--at", "4/3", "--json"],
                verify=checks.verify_curve_point(2, 2, Fraction(4, 3))),
        Command(["singvec", "--method", "kernel", f"--c={checks.curve_c(t)}",
                 f"--h={checks.curve_h(2, 1, t)}", "--level", 2, "--json"],
                verify=checks.verify_singvec_t(t)),
        Command(["ffpoly", "--j", 1, "--lambda", 1, "--compare", "direct,product,determinant", "--json"],
                verify=checks.verify_routes),
        Command(["jantzen", "--case", "discrete", "--m", 3, "--r", 2, "--s", 2, "--N", cli["jantzen"],
                 "--json"], verify=checks.verify_jantzen_discrete(3, 2, 2, cli["jantzen"])),
        Command(["character", "--c1", "--j", 1, "--N", cli["character"], "--check-oracle", "--json"],
                verify=checks.verify_character_c1(Fraction(1), cli["character"])),
        Command(["goldstone", "--j", j_half, "--k", j_half, "--m", 2, "--check", "--json"],
                verify=checks.verify_goldstone(j_half, 2)),
        Command(["binomdet", "--f", "3,3,3", "--mu", 7, "--compare", "product,pairing", "--json"],
                verify=checks.verify_routes),
        # known faults: a pole at t = 0, a missing --j, an --out directory
        # that does not exist, and a float square root of a big square
        Command(["singvec", "--method", "curve", "--rs", "2,1", "--at", 0, "--json"], expect="usage"),
        Command(["character", "--c1", "--N", cli["character"], "--json"], expect="usage"),
        Command(["gram", "--c", "c", "--h", "h", "--level", 2, "--json", "--out",
                 os.path.join(".perfbench_out", f"missing-{os.getpid()}-{next(_missing_dirs)}", "x.json")],
                expect="usage"),
        Command(["ffpoly", "--j", 1, "--lambda", (10**20 + 3) ** 2, "--compare", "direct,product", "--json"],
                verify=checks.verify_routes),
    ]
    rng.shuffle(commands)
    return commands
