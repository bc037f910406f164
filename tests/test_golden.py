"""Golden reports: the full report text of every command, the canonical
``print`` of every shipped problem and the stdout of the walkthrough scripts,
compared byte for byte.

The files under ``tests/golden/`` are the outputs as the code produced them
before a refactor or optimization of the layers behind them; any change to an
output, however small, fails here.  A report of a shipped problem at given
flags is named ``<problem>_<command>[_<flag>_<value>...].txt``; the other
outputs are named in ``OTHER`` and ``SCRIPTS``.
"""

import io
import pathlib
import runpy
from contextlib import redirect_stdout

import pytest

from cartanframes import cli
from conftest import PROBLEMS

TESTS = pathlib.Path(__file__).resolve().parent
GOLDEN = TESTS / "golden"
SCRIPTS_DIR = TESTS.parent / "scripts"

# The structure and lift inputs of the benchmark's algebra workload, the deep
# coframe and normalize runs, the frame-path cartan-test above order 1, and
# the branch-I problem whose frame divides by the invariant Q_P4.
DEEP = [
    ("point", "structure", ["--order", "5"]),
    ("contact", "structure", ["--order", "4"]),
    ("empty", "structure", ["--order", "8"]),
    ("contact", "lift", ["--order", "8"]),
    ("point_branch1", "coframe", ["--order", "5", "--mc-order", "2"]),
    ("point_branch1", "coframe", ["--order", "7", "--mc-order", "4"]),
    ("point_branch4", "coframe", ["--order", "5", "--mc-order", "2"]),
    ("pj", "coframe", ["--order", "5"]),
    ("contact", "normalize", ["--order", "6"]),
    ("contact", "normalize", ["--order", "8"]),
    ("contact", "normalize", ["--order", "10"]),
    ("point_branch1", "coframe", ["--order", "9", "--mc-order", "5"]),
    ("point_branch4", "coframe", ["--order", "7", "--mc-order", "3"]),
    ("contact", "cartan-test", ["--order", "2"]),
    ("contact", "cartan-test", ["--order", "3"]),
    ("point_branch1", "cartan-test", ["--order", "3"]),
    ("contact", "cartan-test", ["--order", "6"]),
    ("point_branch1_unscaled", "normalize", ["--order", "5"]),
    ("point_branch1_unscaled", "coframe", ["--order", "5"]),
    ("point_branch1_unscaled", "coframe", ["--order", "9", "--mc-order", "5"]),
]
# Every shipped problem at the CLI defaults.
DEFAULTS = [
    (p.stem, command, flags)
    for p in sorted(PROBLEMS.glob("*.prob"))
    for command, flags in [
        ("structure", []),
        ("coframe", []),
        ("recurrence", []),
        ("recurrence", ["--raw"]),
        ("normalize", []),
        ("lift", []),
        ("cartan-test", []),
    ]
]
# Exit 2 at the default orders: the d^2 audit fails (truncation for the point
# problems, a true negative for contact_asprinted).
EXIT_2 = {"point", "point_branch1", "point_branch1_unscaled", "point_branch4", "contact_asprinted"}
# (golden name, command line): the canonical print of every shipped problem,
# and the commands whose inputs are not the shipped problems at CLI flags
# alone.  spoly0.prob, spoly3.prob and tpoly0.prob are the benchmark's seed-1
# groebner and cartan-test inputs (spoly3 completes to a 10-element basis);
# tpoly6.prob is a six-variable cartan-test input.  The signature_quadratic_*
# inputs compare a non-constant invariant, so their Jacobians are not zero and
# the singular values come from the Jacobi sweeps.
OTHER = [(f"{p.stem}_print", ["print", str(p)]) for p in sorted(PROBLEMS.glob("*.prob"))] + [
    ("point_classify-ode_rhs", ["run", str(PROBLEMS / "point.prob"), "classify-ode", "--rhs", "p^4 + x*p"]),
    ("twoform_case1_cartan-test_m_3", ["run", str(PROBLEMS / "twoform_case1.prob"), "cartan-test", "--m", "3"]),
    ("twoform_case21_cartan-test_m_3", ["run", str(PROBLEMS / "twoform_case21.prob"), "cartan-test", "--m", "3"]),
    *(
        (
            f"contact_signature-compare_{which}",
            ["run", str(PROBLEMS / "contact.prob"), "signature-compare", "--data", str(PROBLEMS / f"signature_{which}.json")],
        )
        for which in ("equal", "distinct", "quadratic_equal", "quadratic_distinct")
    ),
    *((f"{s}_groebner", ["run", str(TESTS / f"{s}.prob"), "groebner"]) for s in ("spoly0", "spoly3")),
    *((f"{t}_cartan-test_order_2", ["run", str(TESTS / f"{t}.prob"), "cartan-test", "--order", "2"]) for t in ("tpoly0", "tpoly6")),
]
# The walkthrough scripts, each golden named after its script.
SCRIPTS = ["run_contact_ode", "run_involutivity", "run_point_ode"]


def _golden_name(problem, command, flags):
    return "_".join([problem, command] + [f.lstrip("-") for f in flags]) + ".txt"


@pytest.mark.parametrize("problem, command, flags", DEEP + DEFAULTS, ids=[" ".join([p, c, *f]) for p, c, f in DEEP + DEFAULTS])
def test_report_matches_golden(problem, command, flags):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(["run", str(PROBLEMS / f"{problem}.prob"), command, *flags])
    assert code == (2 if command == "coframe" and not flags and problem in EXIT_2 else 0)
    assert buf.getvalue() == (GOLDEN / _golden_name(problem, command, flags)).read_text()


@pytest.mark.parametrize("name, argv", OTHER, ids=[name for name, _ in OTHER])
def test_output_matches_golden(name, argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(argv)
    assert code == 0
    assert buf.getvalue() == (GOLDEN / f"{name}.txt").read_text()


@pytest.mark.parametrize("script", SCRIPTS)
def test_walkthrough_stdout_matches_golden(script):
    buf = io.StringIO()
    with redirect_stdout(buf):
        runpy.run_path(str(SCRIPTS_DIR / f"{script}.py"), run_name="__main__")
    assert buf.getvalue() == (GOLDEN / f"{script}.txt").read_text()


def test_every_golden_file_is_checked():
    names = {_golden_name(*case) for case in DEEP + DEFAULTS}
    names |= {f"{name}.txt" for name, _ in OTHER} | {f"{script}.txt" for script in SCRIPTS}
    assert names == {p.name for p in GOLDEN.glob("*.txt")}
