import contextlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from virasoro.cli import build_parser, main


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def test_singvec_bdiz_json(capsys):
    code, out = run_cli(["singvec", "--method", "bdiz", "--j", "1/2", "--json"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["terms"] == {"[1,1]": "1", "[2]": "-t"}
    assert report["level"] == 2


def test_singvec_kernel(capsys):
    code, out = run_cli(
        ["singvec", "--method", "kernel", "--c", "1", "--h", "1/4", "--level", "2", "--json"],
        capsys,
    )
    assert code == 0
    report = json.loads(out)
    assert report["count"] == 1
    assert report["vectors"][0]["terms"] == {"[1,1]": "1", "[2]": "-1"}


def test_singvec_usage_error(capsys):
    code, _ = run_cli(["singvec", "--method", "kernel"], capsys)
    assert code == 2


def test_kacdet_ratio(capsys):
    code, out = run_cli(["kacdet", "--level", "2", "--mode", "ratio", "--json"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["constant"] is True
    assert report["value"] == "32"


def test_kacdet_product_renders_integers_of_any_size(capsys):
    # the numerator has 43,248 digits, beyond CPython's default str limit
    # (Python >= 3.11); main lifts that limit only while the command runs
    from fractions import Fraction

    from virasoro import verma

    get_limit = getattr(sys, "get_int_max_str_digits", None)
    limit = get_limit() if get_limit else None
    code, out = run_cli(["kacdet", "--level", "30", "--mode", "product",
                         "--c", "1", "--h", "1/3", "--json"], capsys)
    assert code == 0
    text = json.loads(out)["value"]
    assert len(text.split("/")[0]) == 43248
    if limit is None:
        value = Fraction(text)
    else:
        assert get_limit() == limit and 43248 > sys.int_info.default_max_str_digits
        # argument parsing keeps the guard after a call that lifted it
        with pytest.raises(SystemExit) as exc:
            main(["kacdet", "--level", "1", "--mode", "product", "--c", "1" * 43248])
        assert exc.value.code == 2
        capsys.readouterr()
        sys.set_int_max_str_digits(0)
        try:
            value = Fraction(text)
        finally:
            sys.set_int_max_str_digits(limit)
    assert value == verma.kac_det_product(30, verma.VermaParams.rational(1, Fraction(1, 3)))


def test_gram_json_roundtrip(capsys):
    code, out = run_cli(["gram", "--c", "c", "--h", "h", "--level", "2", "--json"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["basis"] == ["[2]", "[1,1]"]
    # the document round-trips through its serialisation
    assert json.loads(json.dumps(report)) == report


def test_gram_schema(capsys):
    jsonschema = pytest.importorskip("jsonschema")
    code, out = run_cli(["gram", "--c", "1", "--h", "1/4", "--level", "1", "--json"], capsys)
    schema = {
        "type": "object",
        "required": ["level", "basis", "entries"],
        "properties": {
            "level": {"type": "integer"},
            "basis": {"type": "array", "items": {"type": "string"}},
            "entries": {
                "type": "array",
                "items": {"type": "array", "items": {"type": "string"}},
            },
        },
    }
    jsonschema.validate(json.loads(out), schema)


def test_character_schema_and_values(capsys):
    jsonschema = pytest.importorskip("jsonschema")
    code, out = run_cli(["character", "--c1", "--j", "1", "--N", "8", "--json"], capsys)
    assert code == 0
    report = json.loads(out)
    schema = {
        "type": "object",
        "required": ["leading_exponent", "coeffs", "order"],
        "properties": {
            "leading_exponent": {"type": "string"},
            "coeffs": {"type": "array", "items": {"type": "string"}},
            "order": {"type": "integer"},
        },
    }
    jsonschema.validate(report, schema)
    assert report["coeffs"] == ["1", "1", "2", "2", "4", "5", "8", "10", "15"]


def test_character_oracle_verdict(capsys):
    code, out = run_cli(
        ["character", "--discrete", "--m", "3", "--r", "2", "--s", "2", "--N", "5",
         "--check-oracle", "--json"],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["verdict"] is True


def test_ffpoly_agreement(capsys):
    code, out = run_cli(["ffpoly", "--j", "1/2", "--lambda", "1", "--json"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["agree"] is True
    assert report["values"]["direct"] == report["values"]["determinant"]


def test_goldstone_check(capsys):
    code, out = run_cli(
        ["goldstone", "--j", "0", "--k", "1/2", "--m", "2", "--check", "--json"], capsys
    )
    # k = 1/2 with j = 0 violates k in j + Z
    assert code == 2
    code, out = run_cli(
        ["goldstone", "--j", "1/2", "--k", "1/2", "--m", "2", "--check", "--json"], capsys
    )
    assert code == 0
    report = json.loads(out)
    assert report["singular"] is True
    assert report["signature"] == [3, 3]


def test_binomdet_compare(capsys):
    code, out = run_cli(
        ["binomdet", "--f", "3,3,3", "--mu", "7/2", "--compare", "product", "--json"], capsys
    )
    assert code == 0
    report = json.loads(out)
    assert report["agree"] is True
    code, _ = run_cli(["binomdet", "--f", "3,1", "--mu", "2", "--compare", "product"], capsys)
    assert code == 2  # not a rectangle


def test_jantzen_verdict(capsys):
    code, out = run_cli(
        ["jantzen", "--case", "c1", "--j", "1", "--N", "4", "--json"], capsys
    )
    assert code == 0
    assert json.loads(out)["verdict"] is True


def test_fock_check_subset(capsys):
    code, out = run_cli(
        ["fock-check", "--emax", "2", "--pair-emax", "2", "--suite", "car,theta", "--json"],
        capsys,
    )
    assert code == 0
    report = json.loads(out)
    assert report["ok"] is True
    assert [s["name"] for s in report["suites"]] == ["car", "theta"]
    assert (report["emax"], report["pair_emax"]) == ("2", "2")
    code, out = run_cli(["fock-check", "--emax", "2", "--suite", "car", "--json"], capsys)
    assert code == 0 and "pair_emax" not in json.loads(out)


def test_fock_check_unknown_suite(capsys):
    from virasoro.fock_checks import SUITES

    assert main(["fock-check", "--suite", "nope"]) == 2
    assert capsys.readouterr().err.rstrip().endswith("valid: " + ", ".join(SUITES))


def test_acceptance_subset(capsys):
    code, out = run_cli(["acceptance", "--suite", "gomes,binomial"], capsys)
    assert code == 0
    assert "PASS gomes" in out
    assert "PASS binomial" in out


def test_acceptance_time_columns_line_up(monkeypatch, capsys):
    """The name column fits the longest criterion name, so the time
    column starts at one offset on every line."""
    from virasoro import acceptance

    rows = [{"criterion": key, "title": title, "ok": True, "details": {}, "elapsed": 0.5}
            for key, title, _ in acceptance.CRITERIA]
    monkeypatch.setattr(acceptance, "run_acceptance", lambda **_: (True, rows))
    code, out = run_cli(["acceptance"], capsys)
    lines = out.splitlines()
    assert code == 0 and len(lines) == len(rows)
    assert len({line.index("0.50s") for line in lines}) == 1


def test_acceptance_flags_reach_the_criteria_that_read_them(capsys):
    code, out = run_cli(["acceptance", "--suite", "gomes,kac-ratio", "--level-cap", "2",
                         "--json"], capsys)
    assert code == 0
    rows = {row["criterion"]: row for row in json.loads(out)["criteria"]}
    assert rows["kac-ratio"]["details"]["ratios"] == {"1": "2", "2": "32"}


def test_acceptance_unknown_criterion(capsys):
    from virasoro.acceptance import CRITERIA

    assert main(["acceptance", "--suite", "nonsense"]) == 2
    valid = ", ".join(key for key, _, _ in CRITERIA)
    assert capsys.readouterr().err.rstrip().endswith("valid: " + valid)


def test_usage_error_exit_code():
    proc = subprocess.run(
        [sys.executable, "-m", "virasoro.cli", "kacdet"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2


def test_internal_error_exits_3_without_traceback(monkeypatch, capsys):
    from virasoro import cli

    def broken(args):
        raise ArithmeticError("inexact division in fraction-free elimination")

    monkeypatch.setattr(cli, "cmd_kacdet", broken)
    assert main(["kacdet", "--level", "2"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal error: ")
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


def test_reader_closing_the_pipe_leaves_no_traceback():
    # the level-10 report (about 110 kB) outgrows the pipe buffer, so the
    # writer is still writing when the reader stops after one line
    with subprocess.Popen(
        [sys.executable, "-m", "virasoro.cli", "gram", "--c", "c", "--h", "h", "--level", "10"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    ) as proc:
        first = proc.stdout.readline()
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
    assert first == b"subcommand: gram\n"
    assert proc.returncode == 0
    assert b"Traceback" not in err, err.decode()


def test_out_file(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("VIRASORO_OUT_DIR", str(tmp_path))
    code, out = run_cli(
        ["kacdet", "--level", "1", "--json", "--out", "det.json"], capsys
    )
    assert code == 0
    on_disk = json.loads((tmp_path / "det.json").read_text())
    assert on_disk == json.loads(out)


def test_jantzen_weight_path_doubles_orders(capsys):
    # the weight path at c = 1 crosses each vanishing curve with
    # multiplicity two; the subcommand accounts for that
    code, out = run_cli(
        ["jantzen", "--case", "c1", "--j", "1/2", "--path", "h", "--N", "4", "--json"],
        capsys,
    )
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] is True
    assert report["character_sum"]["coeffs"] == ["0", "0", "2", "2", "4"]


def test_jantzen_c_path_rejected_at_j_zero(capsys):
    code, _ = run_cli(["jantzen", "--case", "c1", "--j", "0", "--path", "c"], capsys)
    assert code == 2


def test_fock_check_window_too_small(capsys):
    code, _ = run_cli(["fock-check", "--emax", "1"], capsys)
    assert code == 2


def test_singvec_not_singular_exits_1(monkeypatch, capsys):
    from virasoro import singular

    monkeypatch.setattr(singular, "check_singular", lambda v, params: (False, None))
    code, out = run_cli(["singvec", "--method", "bdiz", "--j", "1/2", "--at", "1", "--json"],
                        capsys)
    assert code == 1
    assert json.loads(out)["singular"] is False


def test_singvec_pole_is_usage_error(capsys):
    code, _ = run_cli(
        ["singvec", "--method", "curve", "--rs", "2,1", "--at", "0", "--json"], capsys
    )
    assert code == 2


@pytest.mark.parametrize("argv", [
    "--method kernel --c 1 --h 1/4 --level 2 --at 3 --j 5",
    "--method kernel --c 1 --h 1/4 --level 2 --rs 2,1",
    "--method bdiz --j 1/2 --c 1 --level 7",
    "--method curve --rs 2,2 --at 4/3 --h 1",
])
def test_singvec_flags_of_another_method_are_usage_errors(argv, capsys):
    code, out = run_cli(["singvec", *argv.split()], capsys)
    assert code == 2 and out == ""


@pytest.mark.parametrize("argv", [
    "--c1 --j 1 --N 3 --m 4",
    "--c1 --j 1 --N 3 --r 1 --s 1",
    "--discrete --m 3 --r 1 --s 1 --j 2 --N 3",
])
def test_character_flags_of_another_case_are_usage_errors(argv, capsys):
    code, out = run_cli(["character", *argv.split()], capsys)
    assert code == 2 and out == ""


@pytest.mark.parametrize("argv", [
    "--case c1 --j 1 --N 2 --m 3",
    "--case discrete --m 3 --r 2 --s 2 --N 2 --j 1",
    "--case discrete --m 3 --r 2 --s 2 --N 2 --path h",
])
def test_jantzen_flags_of_another_case_are_usage_errors(argv, capsys):
    code, out = run_cli(["jantzen", *argv.split()], capsys)
    assert code == 2 and out == ""


def test_character_c1_without_j_is_usage_error(capsys):
    code, _ = run_cli(["character", "--c1", "--N", "4", "--json"], capsys)
    assert code == 2


def test_out_into_missing_directory_is_usage_error(tmp_path, capsys):
    out = tmp_path / "missing" / "x.json"
    code, _ = run_cli(["kacdet", "--level", "1", "--json", "--out", str(out)], capsys)
    assert code == 2
    assert not out.exists()


def test_ffpoly_big_square_lambda(capsys):
    # (10^20 + 3)^2 is a perfect square that a float square root misses
    lam = str((10**20 + 3) ** 2)
    code, out = run_cli(
        ["ffpoly", "--j", "1", "--lambda", lam, "--compare", "direct,product", "--json"], capsys
    )
    assert code == 0
    report = json.loads(out)
    assert report["agree"] is True
    assert "product" in report["values"]


def test_acceptance_json_stdout_is_pure_json(tmp_path, capsys):
    out = tmp_path / "acc.json"
    code = main(["acceptance", "--suite", "gomes", "--json", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 0
    report = json.loads(captured.out)
    assert report["ok"] is True
    assert [row["criterion"] for row in report["criteria"]] == ["gomes"]
    assert "PASS gomes" in captured.err
    assert json.loads(out.read_text()) == report


@pytest.mark.parametrize("argv", [
    ["kacdet", "--level", "-1"],
    ["binomdet", "--f", "1,3", "--mu", "2"],
    ["character", "--discrete", "--m", "1", "--r", "1", "--s", "1"],
    ["goldstone", "--k", "-3", "--m", "1"],
    ["goldstone", "--k", "1/2", "--m", "-3", "--check"],
    ["character", "--c1", "--j", "1/3", "--N", "4"],
    ["character", "--c1", "--j", "-1", "--N", "4"],
    ["character", "--discrete", "--m", "3", "--r", "0", "--s", "1", "--N", "4", "--check-oracle"],
    ["character", "--c1", "--j", "1", "--N", "-1"],
    ["character", "--discrete", "--m", "3", "--r", "1", "--s", "1", "--N", "-1"],
    ["jantzen", "--case", "c1", "--j", "1/2", "--N", "-1"],
    ["jantzen", "--case", "discrete", "--m", "3", "--r", "1", "--s", "1", "--N", "-1"],
    ["jantzen", "--case", "discrete", "--m", "3", "--r", "0", "--s", "1", "--N", "2"],
    ["jantzen", "--case", "discrete", "--m", "3", "--r", "3", "--s", "1", "--N", "2"],
    ["singvec", "--method", "kernel", "--c", "1", "--h", "0", "--level", "-1"],
    ["acceptance", "--level-cap", "0"],
    ["acceptance", "--level-cap", "-1"],
    ["kacdet", "--level", "0", "--mode", "ratio"],
    ["ffpoly", "--j", "1", "--lambda", "1", "--compare", "direct,prodcut"],
    ["binomdet", "--f", "3,3", "--mu", "2", "--compare", "pairng"],
    ["singvec", "--method", "curve", "--rs", "2,2", "--j", "1/2", "--at", "4/3", "--json"],
    ["singvec", "--method", "bdiz", "--j", "1/2", "--rs", "2,2", "--at", "4/3", "--json"],
    ["kacdet", "--level", "1", "--mode", "ratio", "--c", "1"],
    ["kacdet", "--level", "1", "--mode", "ratio", "--h", "1/2"],
    ["acceptance", "--suite", "fock", "--emax", "1", "--pair-emax", "1"],
    ["acceptance", "--suite", "fock", "--emax", "0"],
    ["acceptance", "--suite", "gomes", "--level-cap", "2", "--seed", "5", "--emax", "2"],
    ["acceptance", "--suite", "gomes", "--level-cap", "2"],
    ["acceptance", "--suite", "gomes,density-poly", "--emax", "3"],
    ["acceptance", "--suite", "kac-ratio,jantzen", "--seed", "5"],
    ["acceptance", "--suite", "density-poly", "--pair-emax", "3"],
    ["jantzen", "--case", "c1", "--N", "2"],
    ["jantzen", "--case", "discrete", "--m", "3", "--r", "1", "--N", "2"],
    ["singvec", "--method", "curve", "--at", "2"],
], ids=" ".join)
def test_library_rejects_bad_input_as_usage_error(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err


@pytest.mark.parametrize("argv", [
    ["binomdet", "--f", "3,a", "--mu", "1"],
    ["binomdet", "--f", "3,,1", "--mu", "1"],
    ["gram", "--c", "1/0", "--h", "h", "--level", "2"],
    ["singvec", "--method", "curve", "--rs", "2,2", "--at", "1/0"],
    ["character", "--c1", "--j", "1/0", "--N", "2"],
    ["ffpoly", "--j", "1", "--lambda", "1/0", "--compare", "direct,product"],
    ["goldstone", "--j", "1/0", "--k", "1/2", "--m", "2"],
], ids=" ".join)
def test_parser_rejects_bad_input_as_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err


@pytest.mark.parametrize("line, code", [
    ("goldstone --k -1/2 --m 1", 0),
    ("binomdet --f 2,1 --mu -1/2", 0),
    ("ffpoly --j 1 --lambda -1/4 --mu -3/2 --compare direct,product", 0),
    ("singvec --method bdiz --j -1/2", 2),
    ("singvec --method curve --rs 2,1 --at -1/2", 0),
], ids=str)
def test_negative_fraction_as_its_own_token(line, code, capsys):
    joined = re.sub(r"(--[\w-]+) (-\d+/\d+)", r"\1=\2", line)
    assert joined != line
    want = run_cli(joined.split(), capsys)
    assert want[0] == code
    assert run_cli(line.split(), capsys) == want


# One cheap argv per mode of each subcommand.  The scan adds, one at a
# time, every flag of the subcommand that the argv lacks; each must exit 2
# or change the report, so no flag is parsed and then ignored.
SCAN_BASES = [
    "gram --c 1 --h 1/4 --level 2",
    "kacdet --level 2",
    "kacdet --level 2 --mode ratio",
    "singvec --method kernel --c 1 --h 1/4 --level 2",
    "singvec --method bdiz --j 1/2",
    "singvec --method curve --rs 2,1",
    "ffpoly --j 1 --lambda 1",
    "jantzen --case c1 --j 1 --N 3",
    "jantzen --case discrete --m 3 --r 1 --s 1 --N 3",
    "character --c1 --j 1 --N 4",
    "character --discrete --m 3 --r 2 --s 2 --N 4",
    "goldstone --k 1/2 --m 2",
    "binomdet --f 2,2 --mu 2",
    "fock-check --emax 2 --suite car",
    "fock-check --pair-emax 2 --suite level1",
    "acceptance --suite gomes",
    "acceptance --suite jantzen",
]
SCAN_VALUES = {
    "--c": "1/2", "--h": "1/2", "--level": "1", "--mode": "product", "--j": "1/2",
    "--rs": "2,2", "--at": "2", "--mu": "1/2", "--compare": "direct,product", "--m": "3",
    "--r": "2", "--s": "1", "--N": "2", "--path": "h", "--sector": "plus", "--emax": "3",
    "--pair-emax": "3", "--level-cap": "1", "--seed": "5",
    ("binomdet", "--compare"): "product,pairing",
    # --j only checks that the charge lies in j + Z, so a valid spin leaves
    # the report as it is; what shows that the flag is read is the exit 2
    # of a charge outside j + Z
    ("goldstone", "--j"): "0",
}


def _scan_run(argv):
    """(exit code, stdout) of one in-process run, a parser exit included,
    with the acceptance rows' wall times dropped."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, re.sub(r'"elapsed": [-+.\de]+', "", out.getvalue())


@pytest.mark.parametrize("base", SCAN_BASES)
def test_every_flag_is_read(base):
    argv = [*base.split(), "--json"]
    want = _scan_run(argv)
    assert want[0] == 0, want
    parser = next(a for a in build_parser()._actions if a.dest == "command").choices[argv[0]]
    for action in parser._actions:
        flag = action.option_strings[-1] if action.option_strings else None
        if flag in (None, "--help", "--json", "--out") or flag in argv:
            continue
        value = [] if action.nargs == 0 else [SCAN_VALUES.get((argv[0], flag), SCAN_VALUES[flag])]
        code, out = _scan_run(argv + [flag, *value])
        assert code == 2 or code in (0, 1) and out != want[1], (flag, value, code)


README_HEAVY = ("kacdet --level 6", "fock-check", "acceptance --suite all")
GOLDEN = Path(__file__).resolve().parent / "golden"


def _readme_examples():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return [
        line[len("virasoro "):]
        for line in text.splitlines()
        if line.startswith("virasoro ") and not any(h in line for h in README_HEAVY)
    ]


@pytest.mark.parametrize("example", _readme_examples())
def test_readme_example_succeeds(example, capsys):
    """Each cheap README example exits 0, and its --json report is byte
    for byte the one stored under tests/golden/."""
    argv = shlex.split(example)
    if "--json" not in argv:
        assert main(argv) == 0
        capsys.readouterr()
        argv.append("--json")
    assert main(argv) == 0
    golden = GOLDEN / (re.sub(r"[^A-Za-z0-9]+", "_", example).strip("_") + ".json")
    assert capsys.readouterr().out == golden.read_text()


_IMPORT_PROBE = """import json, sys
from virasoro import cli
code = cli.main(sys.argv[1:]) if sys.argv[1:] else 0
print(json.dumps([code, sorted(sys.modules)]))"""
_SUITE_MODULES = {
    "acceptance": {"virasoro.acceptance", "virasoro.fock_checks"},
    "fock-check": {"virasoro.fock_checks"},
}


@pytest.mark.parametrize("example", [""] + _readme_examples() + [
    "kacdet --level 2 --mode ratio",
    "fock-check --emax 2 --pair-emax 2 --suite car,theta",
    "acceptance --suite gomes",
], ids=lambda e: e or "import virasoro.cli")
def test_command_imports_only_what_it_runs(example):
    """A fresh process loads no `dataclasses`, and the identity suites
    only for the subcommands that run them; `jantzen` and `character`,
    which read everything they know of a module from `kac_module`, load
    no `virasoro.singular`; a bare `import virasoro.cli` loads only the
    package, the CLI and the scalars it parses into."""
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, *shlex.split(example)],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True, timeout=120,
    )
    code, modules = json.loads(proc.stdout.splitlines()[-1])
    assert code == 0, proc.stderr
    assert "dataclasses" not in modules
    loaded = {m for m in modules if m.split(".")[0] == "virasoro"}
    if not example:
        assert loaded == {"virasoro", "virasoro.cli", "virasoro.scalars"}
    suites = loaded & {"virasoro.acceptance", "virasoro.fock_checks"}
    assert suites == _SUITE_MODULES.get(example.split(" ")[0], set()), sorted(loaded)
    if example.split(" ")[0] in ("jantzen", "character"):
        assert "virasoro.singular" not in loaded
