"""Numeric signature comparison, and the pure-Python comparator against
the numpy one it replaced (``signature_numpy``)."""

import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cartanframes
import signature_numpy
from cartanframes.frames import SampledSubmanifold, _singular_values, signature_compare
from conftest import PROBLEMS


def _const(c):
    f = lambda *pt: c
    f.expr = None
    return f


def _const_manifold(c, grids):
    def op(func):
        return _const(0.0)

    return SampledSubmanifold(grids, [_const(c)], [op, op])


GRID5 = [np.linspace(0.0, 1.0, 5).tolist(), np.linspace(0.0, 1.0, 5).tolist()]
GRID3 = [np.linspace(0.0, 1.0, 4).tolist(), np.linspace(0.0, 1.0, 4).tolist()]


def test_constant_invariants_equal():
    S = _const_manifold(3.0, GRID5)
    Sbar = _const_manifold(3.0, GRID3)
    report = signature_compare(S, Sbar, 1)
    assert report.ranks == [0, 0]
    assert report.order == 0
    assert report.overlap
    assert report.regular


def test_reflexivity_under_resampling():
    def sample(npts):
        grids = [np.linspace(0.0, 1.0, npts).tolist(), np.linspace(0.0, 1.0, npts).tolist()]

        def make(expr):
            f = lambda s, t: eval(expr, {"s": s, "t": t})
            f.expr = expr
            return f

        def d_s(func):
            return {"s + t": make("1.0"), "1.0": make("0.0"), "0.0": make("0.0")}[func.expr]

        def d_t(func):
            return {"s + t": make("1.0"), "1.0": make("0.0"), "0.0": make("0.0")}[func.expr]

        return SampledSubmanifold(grids, [make("s + t")], [d_s, d_t])

    S = sample(6)
    Sbar = sample(11)
    report = signature_compare(S, Sbar, 2)
    assert report.overlap
    # verdict stable as the grid refines
    report2 = signature_compare(S, sample(21), 2)
    assert report2.overlap == report.overlap


def test_distinct_constants_do_not_overlap():
    S = _const_manifold(3.0, GRID5)
    Sbar = _const_manifold(5.0, GRID3)
    report = signature_compare(S, Sbar, 1)
    assert not report.overlap


def test_symmetry_of_verdict():
    S = _const_manifold(3.0, GRID5)
    Sbar = _const_manifold(5.0, GRID3)
    a = signature_compare(S, Sbar, 1)
    b = signature_compare(Sbar, S, 1)
    assert a.overlap == b.overlap


def test_two_form_constant_invariant_cases():
    """Case-1-style data: I == c against I == c' != c."""
    S = _const_manifold(2.0, GRID5)
    same = _const_manifold(2.0, GRID5)
    other = _const_manifold(-1.0, GRID5)
    assert signature_compare(S, same, 1).overlap
    assert not signature_compare(S, other, 1).overlap


def test_not_fully_regular_report():
    """A rank jump across the sample produces a not-fully-regular report."""
    grids = [np.linspace(-1.0, 1.0, 9).tolist(), np.linspace(-1.0, 1.0, 9).tolist()]

    def make(expr):
        f = lambda s, t: eval(expr, {"s": s, "t": t, "max": max})
        f.expr = expr
        return f

    # piecewise flat/linear invariant: differential rank differs by region
    inv = make("max(s, 0.0) * s")

    def d_s(func):
        return make("2*max(s, 0.0)")

    def d_t(func):
        return make("0.0")

    S = SampledSubmanifold(grids, [inv], [d_s, d_t])
    report = signature_compare(S, S, 1)
    assert not report.regular
    assert report.detail == "not fully regular"


def _eval_manifold(npts, invariant, derivatives, lo=0.0, hi=1.0):
    """Invariant ``invariant`` in s, t on an npts x npts mesh; ``derivatives``
    maps each expression to its (d/ds, d/dt) pair."""
    grids = [np.linspace(lo, hi, npts).tolist(), np.linspace(lo, hi, npts).tolist()]

    def make(expr):
        f = lambda s, t: eval(expr, {"s": s, "t": t, "max": max})
        f.expr = expr
        return f

    def op(k):
        return lambda func: make(derivatives.get(func.expr, ("0.0", "0.0"))[k])

    return SampledSubmanifold(grids, [make(invariant)], [op(0), op(1)])


LINEAR = {"s + t": ("1.0", "1.0")}
QUADRATIC = {"s*s + t": ("2*s", "1.0"), "2*s": ("2.0", "0.0")}
PRODUCT = {"s*t": ("t", "s"), "t": ("0.0", "1.0"), "s": ("1.0", "0.0")}
KINK = {"max(s, 0.0) * s": ("2*max(s, 0.0)", "0.0")}


@pytest.mark.parametrize(
    "S, Sbar, n",
    [
        (_const_manifold(3.0, GRID5), _const_manifold(3.0, GRID3), 1),
        (_const_manifold(3.0, GRID5), _const_manifold(5.0, GRID3), 1),
        (_eval_manifold(6, "s + t", LINEAR), _eval_manifold(11, "s + t", LINEAR), 2),
        (_eval_manifold(5, "s*s + t", QUADRATIC), _eval_manifold(7, "s*s + t", QUADRATIC, 0.5, 1.5), 2),
        (_eval_manifold(5, "s*s + t", QUADRATIC), _eval_manifold(5, "s*t", PRODUCT, 2.0, 3.0), 2),
        (_eval_manifold(5, "s*t", PRODUCT, 1.0, 2.0), _eval_manifold(6, "s*t", PRODUCT, 1.5, 2.5), 2),
        (_eval_manifold(5, "s + t", LINEAR), _const_manifold(1.0, GRID5), 1),
        (_eval_manifold(9, "max(s, 0.0) * s", KINK, -1.0, 1.0), _const_manifold(1.0, GRID5), 1),
        (_eval_manifold(4, "s + t", LINEAR), SampledSubmanifold(GRID3, [_const(1.0)], [lambda f: _const(0.0)]), 1),
    ],
)
def test_comparator_matches_the_numpy_reference(S, Sbar, n):
    got, want = signature_compare(S, Sbar, n), signature_numpy.signature_compare(S, Sbar, n)
    assert (repr(got), got.detail) == (repr(want), want.detail)


ENTRY = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False, allow_infinity=False, allow_subnormal=False)


@st.composite
def jacobians(draw):
    """An m x p matrix with m, p <= 5, built as a product of an m x r and an
    r x p factor, so that rank-deficient draws (r < min(m, p)) are common."""
    m = draw(st.integers(min_value=1, max_value=5))
    p = draw(st.integers(min_value=1, max_value=5))
    r = draw(st.integers(min_value=0, max_value=min(m, p)))
    left = draw(st.lists(st.lists(ENTRY, min_size=r, max_size=r), min_size=m, max_size=m))
    right = draw(st.lists(st.lists(ENTRY, min_size=p, max_size=p), min_size=r, max_size=r))
    return [[sum(left[i][k] * right[k][j] for k in range(r)) for j in range(p)] for i in range(m)]


@given(jacobians(), st.sampled_from([1e-9, 1e-6]))
@settings(max_examples=300, deadline=None)
@example([[1.0, 2.0, 3.0]], 1e-9)
@example([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]], 1e-9)
@example([[0.0, 0.0], [0.0, 0.0]], 1e-9)
@example([[1.0, 0.0, 0.0], [0.0, 1e-8, 0.0]], 1e-9)
def test_jacobi_singular_values_match_numpy(jac, tol):
    p = len(jac[0])
    got = _singular_values(jac, p)
    want = np.linalg.svd(np.array(jac), compute_uv=False)
    assert len(got) == len(want) == min(len(jac), p)
    assert all(abs(g - w) <= 1e-12 * want[0] for g, w in zip(got, want))
    # the rank rule of _signature_profile, on both sets of values
    cutoff = max(tol * (want[0] if len(want) else 0.0), 1e-12)
    if all(abs(w - cutoff) > 1e-6 * cutoff for w in want):
        got_cutoff = max(tol * got[0], 1e-12)
        assert sum(1 for v in got if v > got_cutoff) == int((want > cutoff).sum())


BLOCKED_NUMPY = "import sys; sys.modules['numpy'] = None; from cartanframes.cli import main; sys.exit(main())"


@pytest.mark.parametrize("which", ["equal", "distinct"])
def test_signature_compare_runs_without_numpy(which):
    """numpy is a test dependency only: with it blocked, the command still
    prints its golden report."""
    result = subprocess.run(
        [sys.executable, "-c", BLOCKED_NUMPY, "run", str(PROBLEMS / "contact.prob"), "signature-compare", "--data", str(PROBLEMS / f"signature_{which}.json")],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(pathlib.Path(cartanframes.__file__).resolve().parent.parent)},
    )
    assert result.returncode == 0, result.stderr
    golden = pathlib.Path(__file__).resolve().parent / "golden" / f"contact_signature-compare_{which}.txt"
    assert result.stdout == golden.read_text()
