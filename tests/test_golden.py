"""Golden reports: the full report text of the structure, lift, coframe,
recurrence, normalize and cartan-test commands, compared byte for byte.

The files under ``tests/golden/`` are the reports as the code produced them
before a refactor or optimization of the layers behind them; any change to a
report, however small, fails here.  Each file is named
``<problem>_<command>[_<flag>_<value>...].txt``.
"""

import io
import pathlib
from contextlib import redirect_stdout

import pytest

from cartanframes import cli
from conftest import PROBLEMS

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"

# The structure and lift inputs of the benchmark's algebra workload, and the
# deep coframe and normalize runs.
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
EXIT_2 = {"point", "point_branch1", "point_branch4", "contact_asprinted"}


def _golden_name(problem, command, flags):
    return "_".join([problem, command] + [f.lstrip("-") for f in flags]) + ".txt"


@pytest.mark.parametrize("problem, command, flags", DEEP + DEFAULTS, ids=[" ".join([p, c, *f]) for p, c, f in DEEP + DEFAULTS])
def test_report_matches_golden(problem, command, flags):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(["run", str(PROBLEMS / f"{problem}.prob"), command, *flags])
    assert code == (2 if command == "coframe" and not flags and problem in EXIT_2 else 0)
    assert buf.getvalue() == (GOLDEN / _golden_name(problem, command, flags)).read_text()


def test_every_golden_file_is_checked():
    names = {_golden_name(*case) for case in DEEP + DEFAULTS}
    assert names == {p.name for p in GOLDEN.glob("*.txt")}
