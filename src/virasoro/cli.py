"""Command-line interface.

Exit codes: 0 for success or a verified identity, 1 when a computation
ran but an identity failed (a diff report is printed), 2 for usage
errors, including arguments the library rejects (`UsageError`), and 3
for an internal error (one `internal error:` line on stderr).  All
reports are deterministic given the arguments and seed.  A reader that
closes the pipe early (`virasoro ... | head`) cuts the report short
without a traceback, and the command still exits with its own code.

The optional VIRASORO_OUT_DIR environment variable sets the directory
for --out files given as bare names.

Each `cmd_*` imports the modules it runs when it runs, and calls them
through the module (`verma.gram_matrix`, not a name bound at import), so
a command loads only its own part of the package and the functions stay
patchable by module attribute.  It returns (report, ok), and `acceptance`
also the text of its table; `main` prints the report once and exits 0
when ok, else 1.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from fractions import Fraction

from .scalars import BiPoly, UniPoly, UsageError, as_fraction, render_scalar


def _parse_scalar(text: str, symbol: str):
    """A rational like '5/2', or the named symbolic coordinate."""
    text = text.strip()
    if text == symbol:
        c, h = BiPoly.gens()
        return c if symbol == "c" else h
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(
            f"expected a rational or the symbol {symbol!r}, got {text!r}"
        )


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}")


def _parse_rs(text: str):
    try:
        r, s = (int(x) for x in text.split(","))
        return r, s
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected r,s integers, got {text!r}")


def _parse_signature(text: str) -> tuple:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _check_names(what: str, names, valid) -> None:
    """A comma-list entry outside `valid` is a usage error naming `valid`."""
    unknown = sorted(set(names) - set(valid))
    if unknown:
        raise UsageError(f"unknown {what}: {unknown}; valid: {', '.join(valid)}")


# For each subcommand with modes: how a mode is spelled on the command
# line, and the flags each mode needs ([flag]: may be given).  A flag that
# only the other modes read is a usage error, not ignored.
_MODE_FLAGS = {
    "jantzen": ("--case {}", {"c1": "j", "discrete": "m r s"}),
    "character": ("--{}", {"c1": "j", "discrete": "m r s"}),
    "singvec": ("--method {}", {"kernel": "c h level", "bdiz": "j [at]", "curve": "rs [at]"}),
}


def _check_mode_flags(args, mode: str) -> None:
    """Require the flags of `mode` and reject those of the subcommand's other modes."""
    spelling, modes = _MODE_FLAGS[args.command]
    where = f"{args.command} {spelling.format(mode)}"
    own = modes[mode].split()
    missing = [f"--{f}" for f in own if f[0] != "[" and getattr(args, f) is None]
    if missing:
        raise UsageError(f"{where} needs {', '.join(missing)}")
    allowed = {f.strip("[]") for f in own}
    foreign = sorted({f.strip("[]") for flags in modes.values() for f in flags.split()} - allowed)
    given = [f"--{f}" for f in foreign if getattr(args, f) is not None]
    if given:
        raise UsageError(f"{where} takes no {', '.join(given)}")


def _label(args) -> dict:
    """The module label flags of `jantzen` and `character`."""
    return {"j": args.j, "m": args.m, "r": args.r, "s": args.s}


def _emit(report: dict, args, text=None) -> None:
    """Print the report (JSON under --json, else `text` or a rendering of
    the report) and write the same to the --out file."""
    if args.json:
        text = json.dumps(report, indent=2, default=str)
    elif text is None:
        text = _render_text(report)
    out = args.out
    if out:
        directory = os.environ.get("VIRASORO_OUT_DIR", "")
        if directory and not os.path.isabs(out):
            out = os.path.join(directory, out)
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise UsageError(f"cannot write --out file {out!r}: {exc.strerror}") from None
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # the interpreter flushes stdout again at exit: send what is left
        # to devnull so that flush cannot raise as well
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _render_text(report, indent=0) -> str:
    pad = "  " * indent
    if isinstance(report, dict):
        lines = []
        for key, value in report.items():
            if isinstance(value, (dict, list)):
                lines.append(f"{pad}{key}:")
                lines.append(_render_text(value, indent + 1))
            else:
                lines.append(f"{pad}{key}: {value}")
        return "\n".join(lines)
    if isinstance(report, list):
        return "\n".join(_render_text(v, indent) for v in report)
    return f"{pad}{report}"


def cmd_gram(args):
    from . import verma
    params = verma.VermaParams(args.c, args.h)
    g = verma.gram_matrix(args.level, params)
    return {"subcommand": "gram", **g.to_json()}, True


def cmd_kacdet(args):
    from . import verma
    params = verma.VermaParams(args.c, args.h)
    report = {"subcommand": "kacdet", "level": args.level, "mode": args.mode}
    if args.mode == "direct":
        report["value"] = render_scalar(verma.kac_det_direct(args.level, params))
    elif args.mode == "product":
        report["value"] = render_scalar(verma.kac_det_product(args.level, params))
    else:
        if (args.c, args.h) != BiPoly.gens():
            raise UsageError("kacdet --mode ratio is the symbolic ratio over Q[c,h]; "
                             "it takes no --c or --h")
        ratio = verma.kac_det_ratio(args.level)
        report["value"] = render_scalar(ratio)
        report["constant"] = ratio.is_constant()
    return report, report.get("constant", True)


def cmd_singvec(args):
    from . import singular, verma
    report = {"subcommand": "singvec", "method": args.method}
    _check_mode_flags(args, args.method)
    if args.method == "kernel":
        params = verma.VermaParams.rational(args.c, args.h)
        found = singular.singular_kernel(params, args.level)
        report["count"] = len(found)
        report["vectors"] = [v.to_json() for v in found]
    else:
        if args.method == "bdiz":
            vec = singular.bdiz_singular(args.j)
            rs = (int(2 * args.j) + 1, 1)  # the spin-j vector's weight is h_{2j+1,1}(t)
        else:
            rs = args.rs
            vec = singular.curve_singular(*rs)
        if args.at is not None:
            try:
                vec = singular.specialize_curve_vector(vec, args.at)
                params = singular.curve_params_at(args.at, rs)
            except ZeroDivisionError:
                raise UsageError(f"t = {args.at} is a pole of c(t) = 13 - 6t - 6/t "
                                 "or of the vector's coefficients") from None
            ok, _ = singular.check_singular(vec, params)
            report["singular"] = ok
            report["c"] = render_scalar(params.c)
            report["h"] = render_scalar(params.h)
        report.update(vec.to_json())
    return report, report.get("singular", True)


def cmd_ffpoly(args):
    from . import density
    mu = UniPoly.gen() if args.mu is None else args.mu
    compare = args.compare.split(",") if args.compare else ["direct"]
    _check_names("routes", compare, ("direct", "product", "determinant"))
    routes = {}
    direct = density.ad_direct(args.j, args.lam, mu)
    routes["direct"] = direct
    if "product" in compare:
        p = _sqrt_fraction(args.lam)
        if p is not None:
            routes["product"] = density.ff_product(args.j, p, mu)
        elif args.mu is not None:
            routes["product^2 (case d)"] = density.ff_product_squared(args.j, args.lam, mu)
            routes["direct^2"] = direct * direct
        else:
            raise UsageError("product form needs lambda = p^2 or an explicit --mu")
    if "determinant" in compare:
        p = _sqrt_fraction(args.lam)
        if p is None:
            raise UsageError("the determinant route needs lambda = p^2")
        routes["determinant"] = density.appc_determinant(args.j, p, mu)
    values = {k: render_scalar(v, "mu") for k, v in routes.items()}
    keys = [k for k in ("direct", "product", "determinant") if k in routes]
    agree = all(routes[k] == routes[keys[0]] for k in keys)
    if "product^2 (case d)" in routes:
        agree = agree and routes["product^2 (case d)"] == routes["direct^2"]
    report = {
        "subcommand": "ffpoly",
        "j": str(args.j),
        "lambda": str(args.lam),
        "mu": str(args.mu) if args.mu is not None else "mu (symbolic)",
        "values": values,
        "agree": agree,
    }
    return report, agree


def _sqrt_fraction(x: Fraction):
    x = as_fraction(x)
    if x < 0:
        return None
    num, den = math.isqrt(x.numerator), math.isqrt(x.denominator)
    if num * num == x.numerator and den * den == x.denominator:
        return Fraction(num, den)
    return None


def cmd_jantzen(args):
    from . import jantzen
    _check_mode_flags(args, args.case)
    module = jantzen.kac_module(args.case, **_label(args))
    label, filts, computed = module.filtrations(args.n, args.path)
    closed = module.character_sum_closed(args.n).scale(module.paths[args.path][1])
    levels = {
        level: {"dims": list(filt.dims), "det_order": order, "identity": order == filt.depth_sum()}
        for level, (order, filt) in enumerate(filts, 1)
    }
    verdict = computed == closed and all(v["identity"] for v in levels.values())
    report = {
        "subcommand": "jantzen",
        "case": args.case,
        "path": label,
        "levels": levels,
        "character_sum": computed.to_json(),
        "closed_form": closed.to_json(),
        "verdict": verdict,
    }
    return report, verdict


def cmd_character(args):
    from . import jantzen, verma
    case = "c1" if args.c1 else "discrete"
    _check_mode_flags(args, case)
    module = jantzen.kac_module(case, **_label(args))
    series = module.character(args.n)
    report = {"subcommand": "character", **series.to_json()}
    if args.check_oracle:
        dims = verma.irreducible_dims(module.params, args.n)
        report["rank_oracle"] = dims
        report["verdict"] = [Fraction(d) for d in dims] == list(series.coeffs)
    return report, report.get("verdict", True)


def cmd_goldstone(args):
    from . import oscillator
    sector = args.sector
    if args.j is not None and (args.k - args.j).denominator > 1:
        raise UsageError("the charge k must lie in j + Z")
    f = oscillator.goldstone_signature(args.k, args.m, sector)
    state = oscillator.goldstone_vector(args.k, args.m, sector)
    report = {
        "subcommand": "goldstone",
        "k": str(args.k),
        "m": args.m,
        "sector": sector,
        "signature": list(f),
        "level": int(state.degree()),
        "energy": str((as_fraction(args.k) + args.m) ** 2),
        "terms": {
            "[" + ",".join(map(str, exps)) + "]": render_scalar(c)
            for exps, c in sorted(state.terms.items())
        },
    }
    if args.check:
        params = oscillator.goldstone_params(args.k, sector)
        ok = (
            oscillator.virasoro_apply(1, state, params).is_zero()
            and oscillator.virasoro_apply(2, state, params).is_zero()
        )
        report["singular"] = ok
    return report, report.get("singular", True)


def cmd_binomdet(args):
    from . import combinat, oscillator
    f = args.f
    compare = args.compare.split(",") if args.compare else []
    _check_names("routes", compare, ("determinant", "product", "pairing"))
    values = {"determinant": oscillator.binom_det(f, args.mu)}
    if "product" in compare:
        shape = combinat.as_signature(f)  # trailing zero rows trimmed
        width, depth = (shape[0] if shape else 0), len(shape)
        if any(row != width for row in shape) or width < depth:
            raise UsageError("the product form needs a rectangle with width >= depth")
        values["product"] = oscillator.rect_binom_product(width, depth, args.mu)
    if "pairing" in compare:
        if args.mu.denominator != 1 or args.mu < 0:
            raise UsageError("the pairing needs mu = 2p with p a non-negative half-integer")
        values["pairing"] = oscillator.l1_power_pairing(f, Fraction(args.mu, 2))
    agree = len({render_scalar(v) for v in values.values()}) == 1
    report = {
        "subcommand": "binomdet",
        "f": list(f),
        "mu": str(args.mu),
        "values": {k: render_scalar(v) for k, v in values.items()},
        "agree": agree,
    }
    return report, agree


def cmd_fock_check(args):
    from . import fock_checks
    names = args.suite.split(",") if args.suite and args.suite != "all" else None
    _check_names("suites", names or (), fock_checks.SUITES)
    # a window that no selected suite runs at is a usage error, not ignored
    pair = [name in fock_checks.PAIR_SUITES for name in names or fock_checks.SUITES]
    for flag, given, unread in (("--emax", args.emax, all(pair)),
                                ("--pair-emax", args.pair_emax, not any(pair))):
        if given is not None and unread:
            raise UsageError(f"no selected suite runs at {flag}; pair suites: "
                             f"{', '.join(fock_checks.PAIR_SUITES)}")
    emax = Fraction(6) if args.emax is None else args.emax
    pair_emax = Fraction(4) if args.pair_emax is None else args.pair_emax
    reports = fock_checks.run_suites(emax, names=names, pair_emax=pair_emax)
    ok = all(r["ok"] for r in reports)
    report = {
        "subcommand": "fock-check",
        "emax": str(emax),
        **({"pair_emax": str(pair_emax)} if any(pair) else {}),
        "suites": [
            {
                "name": r["name"],
                "checked": r["checked"],
                "ok": r["ok"],
                "mismatches": [str(m) for m in r["mismatches"][:10]],
            }
            for r in reports
        ],
        "ok": ok,
    }
    return report, ok


def cmd_acceptance(args):
    from . import acceptance
    names = None if args.suite == "all" else args.suite.split(",")
    known = [key for key, _, _ in acceptance.CRITERIA]
    _check_names("criteria", names or (), known)
    given = {name: getattr(args, name) for name in acceptance.DEFAULTS
             if getattr(args, name) is not None}
    ok, rows = acceptance.run_acceptance(names=names, **given)
    width = max(map(len, known))
    lines = []
    for row in rows:
        status = "PASS" if row["ok"] else "FAIL"
        lines.append(f"{status} {row['criterion']:{width}s} {row['elapsed']:8.2f}s  {row['title']}")
        if not row["ok"]:
            lines.append(f"     {row['details']}")
    text = "\n".join(lines)
    if args.json:
        # stdout carries only the JSON report
        print(text, file=sys.stderr)
    return {"ok": ok, "criteria": rows}, ok, text


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="virasoro",
        description="Exact Virasoro representation computations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gram", help="Shapovalov Gram matrix at a level")
    p.add_argument("--c", type=lambda t: _parse_scalar(t, "c"), required=True)
    p.add_argument("--h", type=lambda t: _parse_scalar(t, "h"), required=True)
    p.add_argument("--level", type=int, required=True)
    _common(p)
    p.set_defaults(fn=cmd_gram)

    p = sub.add_parser("kacdet", help="Kac determinant: direct, product or ratio")
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--mode", choices=("direct", "product", "ratio"), default="direct")
    p.add_argument("--c", type=lambda t: _parse_scalar(t, "c"), default=BiPoly.gens()[0])
    p.add_argument("--h", type=lambda t: _parse_scalar(t, "h"), default=BiPoly.gens()[1])
    _common(p)
    p.set_defaults(fn=cmd_kacdet)

    p = sub.add_parser("singvec", help="singular vectors by three methods")
    p.add_argument("--method", choices=("kernel", "bdiz", "curve"), required=True)
    p.add_argument("--j", type=_parse_fraction)
    p.add_argument("--rs", type=_parse_rs)
    p.add_argument("--at", type=_parse_fraction, help="specialise the curve parameter t")
    p.add_argument("--c", type=_parse_fraction)
    p.add_argument("--h", type=_parse_fraction)
    p.add_argument("--level", type=int)
    _common(p)
    p.set_defaults(fn=cmd_singvec)

    p = sub.add_parser("ffpoly", help="density-module obstruction polynomial")
    p.add_argument("--j", type=_parse_fraction, required=True)
    p.add_argument("--lambda", dest="lam", type=_parse_fraction, required=True)
    p.add_argument("--mu", type=_parse_fraction)
    p.add_argument("--compare", default="direct,product,determinant")
    _common(p)
    p.set_defaults(fn=cmd_ffpoly)

    p = sub.add_parser("jantzen", help="Jantzen filtration report")
    p.add_argument("--case", choices=("c1", "discrete"), required=True)
    p.add_argument("--j", type=_parse_fraction)
    p.add_argument("--m", type=int)
    p.add_argument("--r", type=int)
    p.add_argument("--s", type=int)
    p.add_argument("--N", dest="n", type=int, default=6)
    p.add_argument("--path", choices=("auto", "c", "h"), default="auto")
    _common(p)
    p.set_defaults(fn=cmd_jantzen)

    p = sub.add_parser("character", help="irreducible character formulas")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--c1", action="store_true")
    group.add_argument("--discrete", action="store_true")
    p.add_argument("--j", type=_parse_fraction)
    p.add_argument("--m", type=int)
    p.add_argument("--r", type=int)
    p.add_argument("--s", type=int)
    p.add_argument("--N", dest="n", type=int, default=8)
    p.add_argument("--check-oracle", action="store_true",
                   help="compare against Gram-matrix ranks")
    _common(p)
    p.set_defaults(fn=cmd_character)

    p = sub.add_parser("goldstone", help="determinantal oscillator singular vectors")
    p.add_argument("--j", type=_parse_fraction, help="sector spin (validates k in j+Z)")
    p.add_argument("--k", type=_parse_fraction, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--sector", choices=("minus", "plus"), default="minus")
    p.add_argument("--check", action="store_true")
    _common(p)
    p.set_defaults(fn=cmd_goldstone)

    p = sub.add_parser("binomdet", help="binomial determinants and pairings")
    p.add_argument("--f", type=_parse_signature, required=True, help="signature, e.g. 3,3,3")
    p.add_argument("--mu", type=_parse_fraction, required=True)
    p.add_argument("--compare", default="")
    _common(p)
    p.set_defaults(fn=cmd_binomdet)

    p = sub.add_parser("fock-check", help="Fock-space identity suites")
    p.add_argument("--emax", type=_parse_fraction, help="window of the other suites (default 6)")
    p.add_argument("--pair-emax", type=_parse_fraction,
                   help="window of the pair suites (default 4)")
    p.add_argument("--suite", default="all",
                   help="comma list of suite names, or 'all'")
    _common(p)
    p.set_defaults(fn=cmd_fock_check)

    p = sub.add_parser("acceptance", help="run the acceptance criteria")
    p.add_argument("--suite", default="all",
                   help="comma list of criterion names, or 'all'")
    # read by kac-ratio and jantzen; density-poly; fock (defaults: acceptance.DEFAULTS)
    p.add_argument("--level-cap", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--emax", type=_parse_fraction)
    p.add_argument("--pair-emax", type=_parse_fraction)
    _common(p)
    p.set_defaults(fn=cmd_acceptance)

    return parser


def _common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--json", action="store_true", help="emit a JSON report")
    p.add_argument("--out", help="also write the report to this file")


_NEGATIVE_FRACTION = re.compile(r"-\d+/\d+")


def _join_negative_fractions(argv: list) -> list:
    """`--opt -p/q` as `--opt=-p/q`: argparse takes a token such as -1/2,
    which is not a negative number to it, for an option."""
    out = []
    for token in argv:
        after_option = out and out[-1].startswith("--") and "=" not in out[-1]
        if after_option and _NEGATIVE_FRACTION.fullmatch(token):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_join_negative_fractions(sys.argv[1:] if argv is None else argv))
    # every input is parsed, under CPython's guard on long digit strings;
    # what is left to convert is results, which may be of any size
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    try:
        if limit is not None:
            sys.set_int_max_str_digits(0)
        report, ok, *text = args.fn(args)
        _emit(report, args, *text)
        return 0 if ok else 1
    except UsageError as exc:
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # a fault of the program, not of the input
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 3
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
