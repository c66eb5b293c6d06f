"""Self-test of the benchmark: every workload at tiny sizes, then every
correctness check fed one deliberately altered output.

    python3 perfbench/selftest.py

Run from the root of a checkout; takes well under a minute.  Exits 0
when every workload verifies at tiny size, reports the expected failure
count, and every check rejects its altered output.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import subprocess
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import checks  # noqa: E402
import workloads  # noqa: E402

# The four cli-mix commands that hit known faults in the program.
KNOWN_CLI_FAULTS = 4

failures = []


def expect(condition, what):
    print(("ok   " if condition else "FAIL ") + what)
    if not condition:
        failures.append(what)


def rejects(problems, what):
    expect(bool(problems), f"rejects {what}")


def worker(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), workload, "7", "tiny", str(int(trace))],
        capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_workloads():
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    reported = {}
    for name in workloads.WORKLOADS:
        for trace in (False, True):
            r = worker(name, trace)
            label = f"{name} tiny{' traced' if trace else ''}"
            if r is None:
                expect(False, f"{label}: worker ran")
                continue
            want_failed = KNOWN_CLI_FAULTS if name == "cli-mix" else 0
            expect(r["correct"] and r["failed"] == want_failed,
                   f"{label}: correct, {want_failed} of {r['attempted']} failed "
                   f"(got {r['failed']}: {r['failures'][:2]} {r['problems'][:2]})")
            if trace:
                reported.update({k: v["unit"] for k, v in r["layer"].items()})
    expect(reported == per_layer,
           f"traced rounds report exactly the per_layer metrics of BENCHMARK.json "
           f"(extra {sorted(set(reported) - set(per_layer))}, "
           f"missing {sorted(set(per_layer) - set(reported))})")
    e2e = [m["name"] for m in bench["end_to_end"]]
    expect(e2e == ["setup_s", "wall_s", "peak_rss_mb", "cmd_p50_ms"], "end_to_end metric names")


def cli_json(argv):
    from virasoro import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main([str(a) for a in argv])
    return rc, out.getvalue()


def test_math_checks():
    from virasoro import fock, fock_checks, jantzen, linalg, verma

    det = verma.kac_det_direct(3, verma.VermaParams.symbolic())
    product = verma.kac_det_product_sym(3)
    quotient = det.exact_div(product)
    expect(not checks.check_kac_quotient(3, quotient), "accepts the level-3 Kac quotient")
    rejects(checks.check_kac_quotient(3, quotient * 2), "a Kac quotient off by a factor 2")
    rejects(checks.check_kac_quotient(3, quotient + verma.BiPoly.gens()[1]), "a non-constant quotient")

    point = (Fraction(3, 7), Fraction(-5, 2))
    direct = linalg.bareiss_det(verma.gram_matrix(3, verma.VermaParams.rational(*point)).rows())
    expect(not checks.check_det_at_point(3, point, det, product, quotient, direct),
           "accepts the level-3 determinant at a rational point")
    rejects(checks.check_det_at_point(3, point, det, product, quotient, direct + 1),
            "a point determinant off by one")

    path, label = jantzen.discrete_path(3, 2, 2)
    order, depth = jantzen.det_order_identity(jantzen.gram_family(path, 4, label))
    expect(not checks.check_det_order(label, 4, order, depth), "accepts the det-order identity")
    rejects(checks.check_det_order(label, 4, order, depth + 1), "a filtration sum off by one")

    n = 5
    params = verma.VermaParams.rational(checks.central_charge(4), checks.kac_weight(4, 2, 2))
    dims = verma.irreducible_dims(params, n)
    series = jantzen.character_formula("discrete", n, m=4, r=2, s=2).coeffs
    ref = checks.discrete_character(4, 2, 2, n)
    expect(not checks.check_dims("m=4 (2,2)", dims, series, ref), "accepts rank-oracle dims")
    rejects(checks.check_dims("m=4 (2,2)", dims[:-1] + [dims[-1] + 1], series, ref), "a bumped dim")
    rejects(checks.check_dims("m=4 (2,2)", dims, list(series[:-1]) + [0], ref), "a wrong character")
    too_big = checks.partition_counts(n)
    too_big[2] += 1
    rejects(checks.check_dims("m=4 (2,2)", too_big, too_big, too_big), "dim L(n) > p(n)")

    report = fock_checks.SUITES["boson"](2)
    expect(not checks.check_fock_report("boson", report), "accepts a Fock suite report")
    rejects(checks.check_fock_report("boson", dict(report, ok=False, mismatches=[("x",)])),
            "a Fock report with a mismatch")
    rejects(checks.check_fock_report("boson", dict(report, checked=0)), "a Fock report that checked nothing")

    states = list(fock.FockBasis(3))
    expect(not checks.check_fock_basis(Fraction(3), states), "accepts FockBasis(3) state counts")
    rejects(checks.check_fock_basis(Fraction(3), states[:-1]), "a FockBasis missing a state")


def test_cli_checks():
    t = Fraction(-7, 3)
    c, h = Fraction(5, 2), Fraction(-1, 3)
    ok_cases = [
        (["gram", "--c", "c", "--h", "h", "--level", 2, "--json"], checks.verify_gram2(),
         lambda r: r["entries"][1].__setitem__(1, "4*h + 9*h^2")),
        (["gram", f"--c={c}", f"--h={h}", "--level", 2, "--json"], checks.verify_gram2(c, h),
         lambda r: r["entries"][0].__setitem__(0, "0")),
        (["kacdet", "--level", 3, "--mode", "ratio", "--json"], checks.verify_kacdet_ratio(3),
         lambda r: r.__setitem__("value", "2305")),
        (["singvec", "--method", "bdiz", "--j", "1/2", "--json"], checks.verify_bdiz_half,
         lambda r: r["terms"].__setitem__("[2]", "t")),
        (["singvec", "--method", "curve", "--rs", "2,2", "--at", "4/3", "--json"],
         checks.verify_curve_point(2, 2, Fraction(4, 3)), lambda r: r.__setitem__("h", "1/15")),
        (["singvec", "--method", "kernel", f"--c={checks.curve_c(t)}", f"--h={checks.curve_h(2, 1, t)}",
          "--level", 2, "--json"], checks.verify_singvec_t(t),
         lambda r: r["vectors"][0]["terms"].__setitem__("[2]", "7/4")),
        (["ffpoly", "--j", 1, "--lambda", 1, "--json"], checks.verify_routes,
         lambda r: r["values"].__setitem__("product", "mu")),
        (["jantzen", "--case", "discrete", "--m", 3, "--r", 2, "--s", 2, "--N", 3, "--json"],
         checks.verify_jantzen_discrete(3, 2, 2, 3),
         lambda r: r["character_sum"]["coeffs"].__setitem__(2, "5")),
        (["character", "--c1", "--j", 1, "--N", 4, "--check-oracle", "--json"],
         checks.verify_character_c1(Fraction(1), 4), lambda r: r["rank_oracle"].__setitem__(4, 9)),
        (["goldstone", "--j", "1/2", "--k", "1/2", "--m", 2, "--check", "--json"],
         checks.verify_goldstone(Fraction(1, 2), 2), lambda r: r.__setitem__("level", 5)),
    ]
    for argv, verify, alter in ok_cases:
        rc, out = cli_json(argv)
        what = " ".join(map(str, argv[:3]))
        expect(checks.classify_command("ok", rc, out, "", verify) == (False, []), f"accepts `{what}`")
        report = json.loads(out)
        altered = copy.deepcopy(report)
        alter(altered)
        failed, problems = checks.classify_command("ok", rc, json.dumps(altered), "", verify)
        rejects(problems, f"an altered `{what}` report")
        for key in ("verdict", "agree", "singular"):
            if key in report:
                flipped = dict(report, **{key: False})
                rejects(checks.classify_command("ok", rc, json.dumps(flipped), "", verify)[1],
                        f"`{what}` with {key} false")
    rejects(checks.classify_command("ok", 0, "PASS gomes\n{}", "", None)[1], "stdout that is not JSON")
    expect(checks.classify_command("ok", 1, "{}", "", None)[0], "fails exit 1 where 0 is expected")
    expect(checks.classify_command("usage", 2, "", "error: bad\n", None) == (False, []),
           "accepts a usage error with exit 2")
    expect(checks.classify_command("usage", 1, "", "Traceback (most recent call last):\n  x\nE: y", None)[0],
           "fails a traceback where a usage error is expected")
    expect(checks.classify_command("usage", 0, "{}", "", None)[0], "fails exit 0 where 2 is expected")


def main():
    if not os.path.isfile(os.path.join("src", "virasoro", "__init__.py")):
        print("run from the root of a checkout", file=sys.stderr)
        return 2
    test_math_checks()
    test_cli_checks()
    test_workloads()
    print(f"{len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
