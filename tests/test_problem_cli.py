"""Problem file parsing, canonical printing, CLI reports and replay digests."""

import json
import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest

from cartanframes.problem import ParseError, parse_problem, print_problem
from conftest import PROBLEMS, load_problem

FIXTURES = [
    "contact",
    "contact_asprinted",
    "point",
    "point_order0",
    "point_branch1",
    "point_branch4",
    "pj",
    "empty",
    "twoform_case1",
    "twoform_case21",
]


@pytest.mark.parametrize("name", FIXTURES)
def test_roundtrip(name):
    pf = load_problem(name)
    printed = print_problem(pf)
    again = parse_problem(printed)
    assert print_problem(again) == printed


def test_point_relation_count():
    assert load_problem("point").relation_count == 7


def test_contact_relation_count():
    assert load_problem("contact").relation_count == 6


def test_empty_det_block():
    pf = load_problem("empty")
    assert pf.relation_count == 0


def test_unknown_symbol_diagnostic():
    text = """
base x u;
split independent x dependent u;
coeffs xi eta;
det { xi_x = zeta_u; }
"""
    with pytest.raises(ParseError) as err:
        parse_problem(text)
    assert "zeta" in str(err.value)


def test_nonlinear_relation_rejected():
    text = """
base x u;
split independent x dependent u;
coeffs xi eta;
det { xi = eta*eta; }
"""
    with pytest.raises(Exception):
        parse_problem(text)


def test_duplicate_lead_rejected():
    text = """
base x u;
split independent x dependent u;
coeffs xi eta;
det { xi = 0; xi = eta; }
"""
    with pytest.raises(Exception):
        parse_problem(text)


def test_duplicate_coefficient_field_rejected():
    text = """
base x u;
split independent x dependent u;
coeffs xi xi;
"""
    with pytest.raises(ParseError, match="coeffs must name distinct coefficient fields"):
        parse_problem(text)


def test_cross_section_prefix_violation_reported():
    from cartanframes.frames import CrossSectionError
    from cartanframes.frames import RecurrenceEngine

    text = """
base x u;
split independent x dependent u;
coeffs xi eta;
det { }
xsec { u_x2 = 0; x = 0; }
"""
    pf = parse_problem(text)
    jc, system, cs = pf.build()
    engine = RecurrenceEngine(system, cs)
    with pytest.raises(CrossSectionError):
        engine.normalize(2)


def _run_cli(*argv):
    from cartanframes import cli

    import io
    from contextlib import redirect_stdout

    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(list(argv))
    return code, buf.getvalue()


def test_cli_cartan_test_contact():
    code, out = _run_cli("run", str(PROBLEMS / "contact.prob"), "cartan-test")
    assert code == 0
    assert "cartan.beta[4] = 4" in out
    assert "cartan.beta[3] = 3" in out
    assert "cartan.beta[2] = 1" in out
    assert "cartan.rank_next = 27" in out
    assert "cartan.involutive = true" in out


def test_cli_cartan_test_two_form_cases():
    code, out = _run_cli("run", str(PROBLEMS / "twoform_case1.prob"), "cartan-test", "--m", "3")
    assert code == 0
    assert "cartan.rank_next = 11" in out
    assert "cartan.alpha[3] = 0" in out and "cartan.alpha[2] = 2" in out and "cartan.alpha[1] = 3" in out
    code, out = _run_cli("run", str(PROBLEMS / "twoform_case21.prob"), "cartan-test", "--m", "3")
    assert code == 0
    assert "cartan.rank_next = 14" in out
    assert "cartan.alpha[2] = 1" in out and "cartan.alpha[1] = 2" in out


def test_cli_normalize_point_order0():
    code, out = _run_cli("run", str(PROBLEMS / "point_order0.prob"), "normalize", "--order", "0")
    assert code == 0
    assert "frame.mu = -w^x" in out
    assert "frame.nu = -w^u" in out
    assert "frame.nu_X = -w^p" in out
    assert "frame.nu_X2 = -Q_X*w^x - Q_U*w^u - Q_P*w^p" in out


def test_cli_normalize_reports_a_residual_relation(tmp_path):
    """A phantom relation left with no Maurer-Cartan symbol after the solve
    is reported as a residual relation; normalize still exits 0."""
    prob = tmp_path / "residual.prob"
    prob.write_text("base x u;\nsplit independent x dependent u;\ncoeffs xi eta;\ndet { eta = 0; }\nxsec { u = 0; }\n")
    code, out = _run_cli("run", str(prob), "normalize", "--order", "1")
    assert code == 0
    assert out == (
        "report.command = normalize\n"
        "frame.residual = mu^x, mu^x_X, mu^x_U\n"
        "frame.residual_relation = -U_X*w^x\n"
        "digest = sha256:ac6f5a14c7df5330d8703ad6ea271ede41c94336e4cd8f498f54d9442de27e68\n"
    )


def test_cli_coframe_rejects_an_unreachable_cross_section(tmp_path, capsys):
    """The trivial pseudo-group cannot move x to 0: the phantom relation
    w^x = 0 has a constant coefficient, so coframe stops with the relation
    (exit 1) while normalize still reports the frame (exit 0)."""
    prob = tmp_path / "unreachable.prob"
    prob.write_text("base x u; split independent x dependent u; coeffs xi eta;\ndet { xi = 0; eta = 0; }\nxsec { x = 0; u = 0; u_x = 1; }\n")
    from cartanframes import cli

    assert cli.main(["run", str(prob), "coframe"]) == 1
    out, err = capsys.readouterr()
    assert (out, err) == ("", "error: unreachable cross-section: phantom relation -w^x = 0\n")
    assert cli.main(["run", str(prob), "normalize"]) == 0
    assert "frame.residual_relation = -w^x\n" in capsys.readouterr().out


def test_cli_coframe_names_the_invariants_of_a_residual_relation(tmp_path, capsys):
    """The residual relation U_X*w^x = 0 holds only where U_X vanishes: a
    branch to declare, named in one error line (exit 1)."""
    prob = tmp_path / "residual.prob"
    prob.write_text("base x u;\nsplit independent x dependent u;\ncoeffs xi eta;\ndet { eta = 0; }\nxsec { u = 0; }\n")
    from cartanframes import cli

    assert cli.main(["run", str(prob), "coframe", "--order", "1"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: undeclared branch on u_x: declare each with assume <coordinate> != 0 or == 0 in xsec\n"


def test_cli_structure_empty_problem():
    code, out = _run_cli("run", str(PROBLEMS / "empty.prob"), "structure", "--order", "1")
    assert code == 0
    assert "structure.d(sigma^x) = -sigma^x^mu_X - sigma^u^mu_U" in out


def test_cli_digest_stable():
    code1, out1 = _run_cli("run", str(PROBLEMS / "contact.prob"), "cartan-test")
    code2, out2 = _run_cli("run", str(PROBLEMS / "contact.prob"), "cartan-test")
    assert out1 == out2
    assert "digest = sha256:" in out1


def test_cli_parse_error_exit_code(tmp_path, capsys):
    from cartanframes import cli

    plain = "base x u;\nsplit independent x dependent u;\n"
    for head, body, message in [
        (plain, "coeffs xi eta;\ndet { xi_w = 0; }\n", "4:10: cannot read subscript 'w'"),
        # A coefficient field named like a base coordinate would shadow it;
        # the error points at that name.
        (plain, "coeffs x u;\ndet { x_u = u*u_x; }\n", "3:8: coeffs must not reuse the base coordinate name 'x'"),
        (plain, "coeffs xi u;\n", "3:11: coeffs must not reuse the base coordinate name 'u'"),
        (plain, "coeffs xi xi;\n", "3:11: coeffs must name distinct coefficient fields"),
        # The default field names zeta<name> are checked too, each at the base
        # coordinate it is made from.
        ("base x zetax;\nsplit independent x dependent zetax;\n", "", "1:6: coeffs must not reuse the base coordinate name 'zetax'"),
        # A mismatch is reported at its statement, a missing declaration at 0:0.
        ("base x u;\nsplit independent u dependent x;\n", "", "2:1: base must list independents then dependents, matching split"),
        (plain, "coeffs xi;\n", "3:1: coeffs must name one coefficient field per base variable"),
        ("split independent x dependent u;\n", "", "0:0: missing base declaration"),
        # Errors found while a relation is evaluated point at the operator
        # or the repeated lead, and name the relation by its lead jet.
        (plain, "coeffs xi eta;\ndet { xi = eta*eta; }\n", "4:15: the relation for xi is not linear in the coefficient fields"),
        (plain, "coeffs xi eta;\ndet { xi = eta^2; }\n", "4:15: cannot exponentiate a field-jet expression in the relation for xi"),
        (plain, "coeffs xi eta;\ndet { xi = 0; xi = eta; }\n", "4:15: duplicate relation for xi"),
        (plain, "coeffs xi eta;\ndet { xi_x = eta; xi_x = 0; }\n", "4:19: duplicate relation for xi_x"),
        # A character no token starts with is reported at its own line and
        # column, past any blank lines and spaces before it.
        (plain, "coeffs xi eta; $\n", "3:16: unexpected character '$'"),
        (plain, "coeffs xi eta;\ndet { xi = 0; }\n\n@\n", "6:1: unexpected character '@'"),
    ]:
        bad = tmp_path / "bad.prob"
        bad.write_text(head + body)
        assert cli.main(["run", str(bad), "lift"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"{bad}:{message}\n"


def _src_dir() -> str:
    import cartanframes

    return str(pathlib.Path(cartanframes.__file__).resolve().parent.parent)


# These run in a child process: an input on which the parser loops fails the
# time bound instead of hanging the suite.
@pytest.mark.parametrize(
    "text, message",
    [
        ("base x u", "1:8: unterminated base statement: expected ';'"),
        ("base x u;\nsplit independent x u", "2:21: unterminated split statement: expected 'dependent'"),
        ("base x u;\nsplit independent x dependent u", "2:31: unterminated split statement: expected ';'"),
        ("base x u;\nsplit independent x dependent u;\ncoeffs xi eta", "3:13: unterminated coeffs statement: expected ';'"),
    ],
)
def test_cli_unterminated_name_list_is_a_parse_error(tmp_path, text, message):
    bad = tmp_path / "bad.prob"
    bad.write_text(text)
    result = subprocess.run(
        [sys.executable, "-m", "cartanframes.cli", "run", str(bad), "lift"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": _src_dir()},
        timeout=10,
    )
    assert result.returncode == 1
    assert result.stderr == f"{bad}:{message}\n"


@pytest.mark.parametrize(
    "body, message",
    [
        ("xsec { x = ; }", "4:12: expected a rational constant"),
        ("det { xi = ; }", "4:12: unexpected token ';'"),
        ("det { xi = eta_x + ; }", "4:20: unexpected token ';'"),
        ("xsec { x = 1/0; }", "4:14: zero denominator"),
        ("det { xi = eta/(x - x); }", "4:15: division only by nonzero scalar expressions"),
    ],
)
def test_statement_errors_are_positioned(body, message):
    text = "base x u;\nsplit independent x dependent u;\ncoeffs xi eta;\n" + body
    with pytest.raises(ParseError) as err:
        parse_problem(text)
    assert str(err.value) == message


PREFIX_CHECK = """
import pathlib, re, sys
from cartanframes.problem import ParseError, parse_problem

def check(path, text, what):
    try:
        parse_problem(text)
    except ParseError:
        pass
    except Exception as err:
        sys.exit(f"{path.name}, {what}: {type(err).__name__}: {err}")

for path in map(pathlib.Path, sys.argv[1:]):
    text = path.read_text()
    for end in range(len(text) + 1):
        check(path, text[:end], f"first {end} characters")
    for tok in re.finditer(r"[A-Za-z][A-Za-z0-9]*|[0-9]+|==|!=|[^\\s]", text):
        check(path, text[: tok.start()] + text[tok.end() :], f"without {tok.group()!r} at offset {tok.start()}")
"""


def test_every_prefix_of_a_shipped_problem_parses_or_raises_parse_error():
    paths = sorted(PROBLEMS.glob("*.prob")) + sorted(pathlib.Path(__file__).parent.glob("*.prob"))
    try:
        result = subprocess.run(
            [sys.executable, "-c", PREFIX_CHECK, *map(str, paths)],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": _src_dir()},
            timeout=60,
        )
    except subprocess.TimeoutExpired:
        pytest.fail("parse_problem did not return within 60 s on the prefixes and token deletions of the problems")
    assert result.returncode == 0, result.stderr


def test_cli_lift_report():
    code, out = _run_cli("run", str(PROBLEMS / "contact.prob"), "lift", "--order", "1")
    assert code == 0
    assert "lift.relation_count = " in out
    assert "lift.basis = " in out


def test_cli_signature_fixtures():
    code, out = _run_cli(
        "run", str(PROBLEMS / "contact.prob"), "signature-compare",
        "--data", str(PROBLEMS / "signature_equal.json"),
    )
    assert code == 0 and "signature.overlap = true" in out
    code, out = _run_cli(
        "run", str(PROBLEMS / "contact.prob"), "signature-compare",
        "--data", str(PROBLEMS / "signature_distinct.json"),
    )
    assert code == 0 and "signature.overlap = false" in out


def test_cli_classify():
    code, out = _run_cli("run", str(PROBLEMS / "point.prob"), "classify-ode", "--rhs", "p^2")
    assert code == 0
    assert "classify.branch = IV" in out
    assert "classify.agreement = true" in out


def test_cli_groebner():
    text = """
base x u q;
split independent x u dependent q;
spoly {
  s_x*S^q;
  s_u*S^q;
}
"""
    path = PROBLEMS / "_tmp_groebner.prob"
    path.write_text(text)
    try:
        code, out = _run_cli("run", str(path), "groebner")
        assert code == 0
        assert "groebner.size = 2" in out
    finally:
        path.unlink()


def test_cli_out_file(tmp_path):
    out_path = tmp_path / "report.txt"
    code, out = _run_cli(
        "run", str(PROBLEMS / "twoform_case1.prob"), "cartan-test", "--m", "3",
        "--out", str(out_path),
    )
    assert code == 0
    assert out_path.read_text() == out


def test_cli_out_to_an_unwritable_path_is_an_error(tmp_path, capsys):
    """A failed ``--out`` write is one ``error:`` line and exit 1, and the
    report does not reach stdout either."""
    from cartanframes import cli

    out_path = tmp_path / "missing" / "report.txt"
    assert cli.main(["run", str(PROBLEMS / "pj.prob"), "lift", "--out", str(out_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: [Errno 2] No such file or directory: {str(out_path)!r}\n"


POINT_PRINT = "  mu^x as mu; mu^u as nu;\n"


@pytest.mark.parametrize(
    "block, message",
    [
        # two forms would print under one key, frame.nu_X
        ("  mu^x as nu; mu^u as nu;\n", "25:23: print name 'nu' is already taken"),
        ("  foo^u as nu;\n", "25:3: print renames only mu^<base coordinate>, not foo^u"),
        ("  mu^zz as mu;\n", "25:3: print renames only mu^<base coordinate>, not mu^zz"),
        ("  mu^x as mu; mu^x as nu;\n", "25:15: duplicate print name for mu^x"),
    ],
)
def test_cli_print_block_errors_are_positioned(tmp_path, capsys, block, message):
    from cartanframes import cli

    text = (PROBLEMS / "point.prob").read_text()
    assert text.splitlines()[24] + "\n" == POINT_PRINT
    bad = tmp_path / "bad.prob"
    bad.write_text(text.replace(POINT_PRINT, block))
    assert cli.main(["run", str(bad), "normalize", "--order", "4"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"{bad}:{message}\n"


def test_print_block_may_precede_base():
    text = "print { mu^u as nu; }\nbase x u;\nsplit independent x dependent u;\n"
    assert parse_problem(text).print_aliases == {"u": "nu"}


def test_cli_entry_point_installed():
    result = subprocess.run(
        [sys.executable, "-m", "cartanframes.cli", "print", str(PROBLEMS / "empty.prob")],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout.startswith("base x u;")


def test_cli_import_skips_dataclasses_and_inspect():
    """Every cartan-frames process pays the CLI's imports; dataclasses pulls
    in inspect, which alone costs more than the package.  json and numpy
    are not imported either: only signature-compare reads JSON, and numpy
    is a test dependency."""
    code = "import sys, cartanframes.cli; print(sorted({'dataclasses', 'inspect', 'json', 'numpy'} & set(sys.modules)))"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env={**os.environ, "PYTHONPATH": _src_dir()})
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


@pytest.mark.parametrize("priority", ["x,zz", "x", "x,y,z,x"])
def test_cli_priority_must_permute_the_base(capsys, priority):
    code, out = _run_cli(
        "run", str(PROBLEMS / "twoform_case1.prob"), "cartan-test", "--m", "3", "--priority", priority
    )
    err = capsys.readouterr().err
    assert code == 1 and out == ""
    assert err.startswith("error: --priority") and "permutation" in err


def test_cli_priority_permutation_accepted():
    code, out = _run_cli(
        "run", str(PROBLEMS / "twoform_case1.prob"), "cartan-test", "--m", "3", "--priority", "z,y,x"
    )
    assert code == 0 and "cartan.priority = z,y,x" in out


SIDE = '{"grids": [[0, 0.5, 1]], "invariants": ["s"]}'


@pytest.mark.parametrize(
    "content, message",
    [
        (None, "No such file or directory"),
        ("{not json", "malformed JSON"),
        ('{"parameters": ["s"], "S": {"grids": [], "invariants": []}}', "missing key 'Sbar'"),
        ('{"S": {}, "Sbar": {}}', "missing key 'parameters'"),
        ('{"parameters": ["s"], "S": {"grids": [], "invariants": []}, "Sbar": {"grids": []}}', "missing key 'Sbar.invariants'"),
        ("[1, 2]", "missing key 'parameters'"),
        (
            '{"parameters": ["s"], "S": {"grids": [[0, 0.5, 1], [0, 0.5, 1]], "invariants": ["s"]}, "Sbar": {"grids": [[0, 0.5, 1]], "invariants": ["s"]}}',
            "S.grids has 2 grids for 1 parameters",
        ),
        (
            '{"parameters": ["s", "r"], "S": {"grids": [[0, 0.5, 1]], "invariants": ["s"]}, "Sbar": {"grids": [[0, 0.5, 1]], "invariants": ["s"]}}',
            "S.grids has 1 grids for 2 parameters",
        ),
        # tolerances and grid values must be finite numbers
        ('{"parameters": ["s"], "tol": Infinity, "S": %s, "Sbar": %s}' % (SIDE, SIDE), "tol is not a finite number: Infinity"),
        ('{"parameters": ["s"], "tol": NaN, "S": %s, "Sbar": %s}' % (SIDE, SIDE), "tol is not a finite number: NaN"),
        ('{"parameters": ["s"], "tol": -1e-9, "S": %s, "Sbar": %s}' % (SIDE, SIDE), "tol must be at least 0, got -1e-09"),
        (
            '{"parameters": ["s"], "S": {"grids": [[0, NaN, 1]], "invariants": ["s"]}, "Sbar": %s}' % SIDE,
            "S.grids[0][1] is not a finite number: NaN",
        ),
        (
            '{"parameters": ["s"], "S": %s, "Sbar": {"grids": [[0, -Infinity]], "invariants": ["s"]}}' % SIDE,
            "Sbar.grids[0][1] is not a finite number: -Infinity",
        ),
        ('{"parameters": ["s"], "order": Infinity, "S": %s, "Sbar": %s}' % (SIDE, SIDE), "order is not a number: Infinity"),
    ],
)
def test_cli_signature_data_diagnostics(tmp_path, capsys, content, message):
    data = tmp_path / "data.json"
    if content is not None:
        data.write_text(content)
    code, out = _run_cli("run", str(PROBLEMS / "contact.prob"), "signature-compare", "--data", str(data))
    err = capsys.readouterr().err
    assert code == 1 and out == ""
    assert err.startswith(f"error: --data {data}: ") and message in err


@pytest.mark.parametrize(
    "content, message",
    [
        ('{"parameters": ["s"], "S": {"grids": [["a"]], "invariants": ["s"]}, "Sbar": %s}' % SIDE, 'S.grids[0][0] is not a number: "a"'),
        ('{"parameters": ["s"], "S": %s, "Sbar": {"grids": [[0, null]], "invariants": ["s"]}}' % SIDE, "Sbar.grids[0][1] is not a number: null"),
        ('{"parameters": ["s"], "S": {"grids": ["ab"], "invariants": ["s"]}, "Sbar": %s}' % SIDE, "S.grids is not a list of lists of numbers"),
        ('{"parameters": ["s"], "S": {"grids": 5, "invariants": ["s"]}, "Sbar": %s}' % SIDE, "S.grids is not a list of lists of numbers"),
        ('{"parameters": ["s"], "S": {"grids": [[0]], "invariants": [3]}, "Sbar": %s}' % SIDE, "S.invariants is not a list of strings"),
        ('{"parameters": ["s"], "S": %s, "Sbar": {"grids": [[0, 0.5, 1]], "invariants": []}}' % SIDE, "Sbar.invariants is empty"),
        ('{"parameters": ["s"], "order": "two", "S": %s, "Sbar": %s}' % (SIDE, SIDE), 'order is not a number: "two"'),
        ('{"parameters": ["s"], "tol": "tight", "S": %s, "Sbar": %s}' % (SIDE, SIDE), 'tol is not a number: "tight"'),
        ('{"parameters": ["s"], "tol": [1], "S": %s, "Sbar": %s}' % (SIDE, SIDE), "tol is not a number: [1]"),
    ],
)
def test_cli_signature_data_values_must_be_numbers(tmp_path, capsys, content, message):
    data = tmp_path / "data.json"
    data.write_text(content)
    code, out = _run_cli("run", str(PROBLEMS / "contact.prob"), "signature-compare", "--data", str(data))
    err = capsys.readouterr().err
    assert code == 1 and out == ""
    assert err == f"error: --data {data}: {message}\n"


@pytest.mark.parametrize(
    "invariant, message",
    [
        ("s*w", "polynomial is not constant"),  # w is not a parameter
        ("1/(s - 1/2)", "zero denominator"),  # the grid holds s = 0.5
    ],
)
def test_cli_signature_invariant_value_diagnostics(tmp_path, capsys, invariant, message):
    data = tmp_path / "data.json"
    data.write_text('{"parameters": ["s"], "S": {"grids": [[0, 0.5, 1]], "invariants": ["%s"]}, "Sbar": %s}' % (invariant, SIDE))
    code, out = _run_cli("run", str(PROBLEMS / "contact.prob"), "signature-compare", "--data", str(data))
    assert code == 1 and out == ""
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["point.prob", "classify-ode"], "missing --rhs"),
        (["contact.prob", "signature-compare"], "missing --data"),
        (["point.prob", "groebner"], "no spoly block in problem file"),
        (["point.prob", "coframe", "--order", "-1"], "--order must be at least 0, got -1"),
        (["point.prob", "structure", "--order", "-5"], "--order must be at least 0, got -5"),
        (["point_branch1.prob", "coframe", "--mc-order", "-1"], "--mc-order must be at least 0, got -1"),
        (["twoform_case1.prob", "cartan-test", "--m", "-2"], "--m must be at least 1, got -2"),
        (["twoform_case1.prob", "cartan-test", "--m", "0"], "--m must be at least 1, got 0"),
        (["contact.prob", "signature-compare", "--tol", "nan"], "--tol must be a finite number at least 0, got nan"),
        (["contact.prob", "signature-compare", "--tol", "inf"], "--tol must be a finite number at least 0, got inf"),
        (["contact.prob", "signature-compare", "--tol", "-1"], "--tol must be a finite number at least 0, got -1.0"),
    ],
)
def test_cli_missing_required_option_is_a_usage_error(capsys, argv, message):
    problem, command, *flags = argv
    code, out = _run_cli("run", str(PROBLEMS / problem), command, *flags)
    err = capsys.readouterr().err
    assert code == 1 and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["run", str(PROBLEMS / "contact.prob"), "bogus"], "argument command: invalid choice: 'bogus'"),
        (["run", str(PROBLEMS / "contact.prob"), "lift", "--order", "x"], "argument --order: invalid int value: 'x'"),
        ([], "the following arguments are required: action"),
    ],
)
def test_cli_argument_error_is_a_usage_error(capsys, argv, message):
    """argparse's own errors are one ``error:`` line and exit 1, not a usage
    block and ``SystemExit(2)``: exit 2 means an internal inconsistency."""
    code, out = _run_cli(*argv)
    err = capsys.readouterr().err
    assert code == 1 and out == ""
    assert err.startswith(f"error: {message}") and err.count("\n") == 1


def test_cli_help_exits_0(capsys):
    from cartanframes import cli

    with pytest.raises(SystemExit) as exc:
        cli.main(["run", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: cartan-frames run")


@pytest.mark.parametrize(
    "rhs, message",
    [
        ("p^4 + zz", "--rhs:1:7: unknown symbol 'zz'"),
        ("p^4 p", "--rhs:1:5: trailing token 'p'"),
        ("p^4 + $x", "--rhs:1:7: unexpected character '$'"),
    ],
)
def test_cli_rhs_parse_error_is_located_in_the_option(capsys, rhs, message):
    code, out = _run_cli("run", str(PROBLEMS / "point.prob"), "classify-ode", "--rhs", rhs)
    err = capsys.readouterr().err
    assert code == 1 and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "block, message",
    [
        ("tpoly { t_x*T^x*T^y; }", "term must be linear in T"),
        ("tpoly { t_x; }", "term lacks a T factor"),
        ("tpoly { s_x*T^x; }", "unexpected token 's' in tpoly"),
        ("tpoly { T^w; }", "unknown target 'w'"),
        ("spoly { s_x*S^z*S^z; }", "term must be linear in S"),
        ("spoly { s_y; }", "term lacks an S factor"),
        ("spoly { t_x*S^z; }", "unexpected token 't' in spoly"),
        ("spoly { S^x; }", "unknown target 'x'"),
        # denominators and exponents get the positioned checks of the other blocks
        ("tpoly { 1/0*T^x; }", "3:11: zero denominator"),
        ("tpoly { 2/x*T^x; }", "3:11: expected denominator"),
        ("tpoly { t_x^y*T^x; }", "3:13: expected integer exponent"),
        ("tpoly { t_x^*T^x; }", "3:13: expected integer exponent"),
        ("spoly { S^z - 1/0*s_x*S^z; }", "3:17: zero denominator"),
        ("spoly { S^z + s_y^x*S^z; }", "3:19: expected integer exponent"),
        # a bare coefficient is a term without a target, not a dropped term
        ("tpoly { T^x + 5; }", "3:16: term lacks a T factor"),
        ("tpoly { 1/2; }", "3:12: term lacks a T factor"),
        ("spoly { 1/2; }", "3:12: term lacks an S factor"),
        # errors of the last term point at the closing semicolon
        ("tpoly { T^x*T^y; }", "3:16: term must be linear in T"),
        ("tpoly { 2*T^x + 3*t_x; }", "3:22: term lacks a T factor"),
        # a dangling or a missing operator, and an empty statement
        ("tpoly { T^x + ; }", "3:15: unexpected token ';' in tpoly"),
        ("tpoly { T^x * ; }", "3:15: unexpected token ';' in tpoly"),
        ("tpoly { 2 3 T^x; }", "3:11: expected an operator or ';', found '3'"),
        ("tpoly { T^x t_x; }", "3:13: expected an operator or ';', found 't'"),
        ("spoly { S^z s_x*S^z; }", "3:13: expected an operator or ';', found 's'"),
        ("spoly { S^z - ; }", "3:15: unexpected token ';' in spoly"),
        ("tpoly { ; }", "3:9: unexpected token ';' in tpoly"),
    ],
)
def test_module_polynomial_parse_errors(block, message):
    with pytest.raises(ParseError, match=message):
        parse_problem(f"base x y z;\nsplit independent x y dependent z;\n{block}\n")


@pytest.mark.parametrize(
    "statement, message",
    [
        # the lead of a determining relation
        ("det { xi_{u^j} = 0; }", "4:7: wildcards not allowed in determining relations"),
        ("det { xi_zz = 0; }", "4:10: cannot read subscript 'zz'"),
        ("det { xi_ = 0; }", "4:11: expected subscript"),
        ("det { xi_{u u} = 0; }", "4:13: repeated subscript variable 'u'"),
        # a cross-section coordinate
        ("xsec { assume u_{x^j} != 0; }", "4:15: wildcards not allowed here"),
        ("xsec { u_zz = 0; }", "4:10: cannot read subscript 'zz'"),
        ("xsec { assume u_ != 0; }", "4:18: expected subscript"),
        # a name in an expression
        ("det { xi = eta_{x^j}; }", "4:12: wildcards only appear in cross-section families"),
        ("det { xi = eta_zz; }", "4:16: cannot read subscript 'zz'"),
        ("det { xi = eta_+ xi; }", "4:16: expected subscript"),
        ("det { xi = x_x*eta; }", "4:12: independent variables carry no subscripts"),
    ],
)
def test_subscript_parse_errors(statement, message):
    with pytest.raises(ParseError) as err:
        parse_problem(f"base x u;\nsplit independent x dependent u;\ncoeffs xi eta;\n{statement}\n")
    assert str(err.value) == message


def test_module_statement_signs_compose():
    pf = parse_problem("base x u;\nsplit independent x dependent u;\ntpoly { T^x - - T^u; - + -t_x*T^x; -T^u + -T^x; }\n")
    assert print_problem(pf).endswith("tpoly {\n  T^x + T^u;\n  t_x*T^x;\n  -T^u - T^x;\n}\n")


def test_module_generators_sum_repeated_terms():
    pf = parse_problem(
        "base x y z;\nsplit independent x y dependent z;\n"
        "tpoly { t_x*T^y + 2*t_x*T^y - 3*t_x*T^y + T^z; }\n"
        "spoly { s_x*s_y*S^z + 1/2*s_y*s_x*S^z; }\n"
    )
    (t,) = pf.module_generators("t")
    assert t.m == 3 and t.terms == {((0, 0, 0), 2): 1}
    (s,) = pf.module_generators("s")
    assert (s.p, s.q) == (2, 1) and s.terms == {((1, 1), 0): Fraction(3, 2)}
