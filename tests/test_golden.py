"""Golden reports: the full report text of the structure, lift and coframe
commands, compared byte for byte.

The files under ``tests/golden/`` are the reports as the exterior and
rational-function layers produced them before those layers were optimized;
any change to a report, however small, fails here.  Each file is named
``<problem>_<command>[_<flag>_<value>...].txt``.
"""

import io
import pathlib
from contextlib import redirect_stdout

import pytest

from cartanframes import cli
from conftest import PROBLEMS

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"

# The structure and lift inputs of the benchmark's algebra workload.
DEEP = [
    ("point", "structure", ["--order", "5"]),
    ("contact", "structure", ["--order", "4"]),
    ("empty", "structure", ["--order", "8"]),
    ("contact", "lift", ["--order", "8"]),
]
# Every shipped problem at the CLI defaults.
DEFAULTS = [(p.stem, command, []) for p in sorted(PROBLEMS.glob("*.prob")) for command in ("structure", "coframe")]
# Exit 2: the d^2 audit fails (truncation at the default order for the point
# problems, a true negative for contact_asprinted).
EXIT_2 = {"point", "point_branch1", "point_branch4", "contact_asprinted"}


def _golden_name(problem, command, flags):
    return "_".join([problem, command] + [f.lstrip("-") for f in flags]) + ".txt"


@pytest.mark.parametrize("problem, command, flags", DEEP + DEFAULTS, ids=[" ".join([p, c, *f]) for p, c, f in DEEP + DEFAULTS])
def test_report_matches_golden(problem, command, flags):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(["run", str(PROBLEMS / f"{problem}.prob"), command, *flags])
    assert code == (2 if command == "coframe" and problem in EXIT_2 else 0)
    assert buf.getvalue() == (GOLDEN / _golden_name(problem, command, flags)).read_text()


def test_every_golden_file_is_checked():
    names = {_golden_name(*case) for case in DEEP + DEFAULTS}
    assert names == {p.name for p in GOLDEN.glob("*.txt")}
