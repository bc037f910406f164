"""The walkthrough scripts run against the library alone: each one in a fresh
interpreter whose path holds the package sources but not the test suite."""

import os
import pathlib
import subprocess
import sys

import pytest

import cartanframes

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"
SRC = pathlib.Path(cartanframes.__file__).resolve().parent.parent
# Runs the script as __main__, then reports on stderr whether it loaded the
# test suite's conftest.
RUNNER = (
    "import runpy, sys; runpy.run_path(sys.argv[1], run_name='__main__'); "
    "print('conftest loaded' if 'conftest' in sys.modules else 'conftest not loaded', file=sys.stderr)"
)

EXPECTED = {
    "run_point_ode.py": ["d^2 audit: pass on 3 equations", "d^2 audit: pass on 8 equations"],
    "run_contact_ode.py": ["== order-1 isotropy annihilator polynomials =="],
    "run_involutivity.py": ["  involutive: True"] * 3,
}


@pytest.mark.parametrize("script", sorted(EXPECTED))
def test_script_runs_on_the_library_alone(tmp_path, script):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    result = subprocess.run(
        [sys.executable, "-c", RUNNER, str(SCRIPTS / script)], cwd=tmp_path, env=env, capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
    assert result.stderr.splitlines()[-1] == "conftest not loaded"
    lines = result.stdout.splitlines()
    for want in set(EXPECTED[script]):
        assert lines.count(want) == EXPECTED[script].count(want), want
