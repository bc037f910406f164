"""Exact arithmetic and deterministic linear algebra."""

import itertools
import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import cartanframes
from cartanframes.exact import (
    Context,
    ExactError,
    Poly,
    RatFn,
    format_poly,
    format_ratfn,
    normal_form,
    ordered_row_echelon,
    poly_gcd,
    rank,
    solve_linear,
)
from cartanframes.involution import t_span_dim
from cartanframes.jets import JetContext
from substitution import subs_poly, subs_ratfn


@pytest.fixture()
def ctx():
    return Context()


def _vars(ctx, *names):
    return [ctx.poly_var(ctx.variable(n)) for n in names]


def test_normal_form_gcd_cancellation(ctx):
    (x,) = _vars(ctx, "x")
    f = RatFn(2 * x, 4 * x * x)
    assert format_ratfn(f) == "1/(2*x)"


def test_normal_form_zero_numerator(ctx):
    (x,) = _vars(ctx, "x")
    f = RatFn(ctx.poly(0), x + ctx.poly(1))
    assert f.is_zero()
    assert f.den == ctx.poly(1)


def test_normal_form_polynomial_factor(ctx):
    (x,) = _vars(ctx, "x")
    f = RatFn(x * x - ctx.poly(1), x - ctx.poly(1))
    # oracle: (x+1)(x-1) = x^2 - 1
    assert (x + ctx.poly(1)) * (x - ctx.poly(1)) == x * x - ctx.poly(1)
    assert f.num == x + ctx.poly(1)
    assert f.den == ctx.poly(1)


def test_zero_denominator_rejected(ctx):
    with pytest.raises(ExactError):
        RatFn(ctx.poly(1), ctx.poly(0))


def test_normal_form_idempotent(ctx):
    x, u = _vars(ctx, "x", "u")
    f = RatFn((x + u) * (x - u) * 6, (x + u) * x * 4)
    assert normal_form(normal_form(f)) == normal_form(f)


def test_multivariate_gcd(ctx):
    x, u = _vars(ctx, "x", "u")
    a = (x + u) ** 2 * (x - u)
    b = (x + u) * (x + ctx.poly(3))
    g = poly_gcd(a, b)
    # gcd is monic: x + u up to normalization
    assert g * g.leading_coeff() ** 0 == poly_gcd(x + u, x + u)


def test_echelon_identity():
    m = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
    ech, piv = ordered_row_echelon(m)
    assert piv == [0, 1]
    assert ech == m


def test_echelon_dependent_rows():
    m = [[Fraction(1), Fraction(1)], [Fraction(-1), Fraction(-1)]]
    ech, piv = ordered_row_echelon(m)
    assert piv == [0]
    assert ech[1] == [0, 0]


def test_echelon_idempotent_and_rank_preserving():
    m = [
        [Fraction(2), Fraction(1), Fraction(0)],
        [Fraction(4), Fraction(2), Fraction(1)],
        [Fraction(0), Fraction(0), Fraction(3)],
    ]
    ech, piv = ordered_row_echelon(m)
    again, piv2 = ordered_row_echelon(ech)
    assert piv == piv2
    assert rank(m) == rank(ech) == len(piv)


def rank_by_minors(m: list[list]) -> int:
    """Independent oracle: largest k with a nonzero k x k minor.

    Exponential; meant for cross-checking small matrices.
    """
    best = 0
    ncols = len(m[0]) if m else 0
    for k in range(1, min(len(m), ncols) + 1):
        found = False
        for rows in itertools.combinations(range(len(m)), k):
            for cols in itertools.combinations(range(ncols), k):
                if _minor_det(m, rows, cols) != 0:
                    found = True
                    break
            if found:
                break
        if found:
            best = k
        else:
            break
    return best


def _minor_det(m: list[list], rows, cols):
    if len(rows) == 1:
        return m[rows[0]][cols[0]]
    total = None
    for j, c in enumerate(cols):
        entry = m[rows[0]][c]
        if not entry:
            continue
        sub = _minor_det(m, rows[1:], cols[:j] + cols[j + 1 :])
        term = entry * sub * (1 if j % 2 == 0 else -1)
        total = term if total is None else total + term
    if total is None:
        zero = m[rows[0]][cols[0]]
        return zero - zero
    return total


@given(
    st.lists(
        st.lists(st.integers(min_value=-9, max_value=9), min_size=3, max_size=3),
        min_size=2,
        max_size=4,
    )
)
@settings(max_examples=60, deadline=None)
def test_rank_matches_minor_expansion(rows):
    m = [[Fraction(e) for e in r] for r in rows]
    assert rank(m) == rank_by_minors(m)


def test_solve_linear_simple():
    m = [[Fraction(1), Fraction(1)], [Fraction(0), Fraction(1)]]
    res = solve_linear(m, ["x", "y"], [Fraction(1), Fraction(2)])
    assert res.solved["x"][0] == Fraction(-1)
    assert res.solved["y"][0] == Fraction(2)
    assert not res.unsolved


def test_solve_linear_blocked_and_allowed():
    ctx = Context()
    a = ctx.ratfn(0) + RatFn(ctx.poly_var(ctx.variable("a")), ctx.poly(1))
    b = RatFn(ctx.poly_var(ctx.variable("b")), ctx.poly(1))
    res = solve_linear([[a]], ["x"], [b])
    assert res.unsolved == ["x"]
    assert len(res.residual) == 1
    assert res.blocked and res.blocked[0][0] == "x"
    res2 = solve_linear([[a]], ["x"], [b], invertible=lambda e: True)
    assert res2.solved["x"][0] == b / a


def test_solve_linear_contradiction():
    """A row without unknowns (0 = 3) comes back as a residual."""
    res = solve_linear([[Fraction(0)]], ["x"], [Fraction(3)])
    assert res.solved == {}
    assert res.residual == [({}, 3)]


small_polys = st.builds(
    lambda coeffs: coeffs,
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=2),
            st.integers(min_value=0, max_value=2),
            st.integers(min_value=-4, max_value=4),
        ),
        max_size=4,
    ),
)


def _poly_of(ctx, x, u, spec):
    out = ctx.poly(0)
    for i, j, c in spec:
        out = out + ctx.poly(c) * x**i * u**j
    return out


@given(small_polys, small_polys, small_polys)
@settings(max_examples=40, deadline=None)
def test_field_axiom_distributivity(sa, sb, sc):
    ctx = Context()
    x = ctx.poly_var(ctx.variable("x"))
    u = ctx.poly_var(ctx.variable("u"))
    f = RatFn(_poly_of(ctx, x, u, sa), ctx.poly(1))
    g = RatFn(_poly_of(ctx, x, u, sb), ctx.poly(1))
    h = RatFn(_poly_of(ctx, x, u, sc), x * x + ctx.poly(1))
    assert (f + g) * h == f * h + g * h


def test_format_poly_is_canonical(ctx):
    x, u = _vars(ctx, "x", "u")
    p = x * u + ctx.poly(2) * x
    assert format_poly(p) == format_poly(x * u + x + x)


def test_rank_zero_and_identity():
    z = [[Fraction(0), Fraction(0)], [Fraction(0), Fraction(0)]]
    assert rank(z) == 0
    # No rows at all: callers rely on these instead of guarding empty inputs.
    assert rank([]) == 0
    assert ordered_row_echelon([]) == ([], [])
    assert t_span_dim([]) == 0
    for n in (1, 2, 4):
        ident = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
        assert rank(ident) == n


@given(small_polys, small_polys)
@settings(max_examples=40, deadline=None)
def test_normal_form_idempotent_randomized(sn, sd):
    ctx = Context()
    x = ctx.poly_var(ctx.variable("x"))
    u = ctx.poly_var(ctx.variable("u"))
    num = _poly_of(ctx, x, u, sn)
    den = _poly_of(ctx, x, u, sd)
    if den.is_zero():
        den = x * x + ctx.poly(1)
    f = RatFn(num * den, den * den)  # force a common factor
    nf = normal_form(f)
    assert normal_form(nf) == nf
    assert nf == RatFn(num, den)


def test_constant_ratfn_is_canonical(ctx):
    half = ctx.ratfn(Fraction(1, 2))
    quotient = ctx.ratfn(1) / ctx.ratfn(2)
    assert half == quotient and hash(half) == hash(quotient)
    assert (half.num, half.den) == (ctx.poly(1), ctx.poly(2))
    assert normal_form(half) == half
    assert ctx.ratfn(Fraction(-3, 4)) == Fraction(-3, 4)
    assert ctx.ratfn(0) == RatFn(ctx.poly(0), ctx.poly(5))


ratfn_specs = st.one_of(
    st.tuples(st.just("const"), st.fractions(min_value=-5, max_value=5, max_denominator=6)),
    st.tuples(st.just("poly"), st.tuples(small_polys, small_polys)),
)


def _ratfn_of(ctx, x, u, spec):
    kind, data = spec
    if kind == "const":
        return ctx.ratfn(data)
    num, den = (_poly_of(ctx, x, u, s) for s in data)
    return RatFn(num, den if den else ctx.poly(3))


# a = (-u^2 - x*u)/(-2x^2u - 3u^2 - 2x + 2x^2),
# b = (2 + 3x^2u - 4x + 3x^2u^2)/(4x^2u^2 + x^2u - 4xu^2 + 2x): the gcd behind
# a - b once grew its pseudo-remainder coefficients without bound
SLOW_GCD_A = ("poly", ([(0, 2, -1), (1, 1, -1)], [(2, 1, -2), (0, 2, -3), (1, 0, -2), (2, 0, 2)]))
SLOW_GCD_B = ("poly", ([(0, 0, 2), (2, 1, 3), (1, 0, -4), (2, 2, 3)], [(2, 2, 4), (2, 1, 1), (1, 2, -4), (1, 0, 2)]))


@given(ratfn_specs, ratfn_specs, ratfn_specs, st.booleans())
@example(SLOW_GCD_A, SLOW_GCD_B, ("const", Fraction(1)), False)
@settings(max_examples=80, deadline=None)
def test_ratfn_equality_is_zero_difference(sa, sb, sc, rebuild):
    ctx = Context()
    x = ctx.poly_var(ctx.variable("x"))
    u = ctx.poly_var(ctx.variable("u"))
    a = _ratfn_of(ctx, x, u, sa)
    c = _ratfn_of(ctx, x, u, sc)
    # with ``rebuild``, b is a's value reached through arithmetic
    b = (a * c) / c if rebuild and not c.is_zero() else _ratfn_of(ctx, x, u, sb)
    assert (a == b) == (a - b).is_zero()
    if a == b:
        assert hash(a) == hash(b)
    for f in (a, b, a - b, a * b):
        nf = normal_form(f)
        assert nf == f and (nf.num.terms, nf.den.terms) == (f.num.terms, f.den.terms)
        assert normal_form(nf) == nf


def test_ratfn_difference_with_a_long_gcd_remainder_sequence():
    ctx = Context()
    x = ctx.poly_var(ctx.variable("x"))
    u = ctx.poly_var(ctx.variable("u"))
    a = _ratfn_of(ctx, x, u, SLOW_GCD_A)
    b = _ratfn_of(ctx, x, u, SLOW_GCD_B)
    d = a - b
    assert d == RatFn(a.num * b.den - b.num * a.den, a.den * b.den)
    assert not d.is_zero() and d + b == a
    assert poly_gcd(a.den, b.den) == ctx.poly(1)
    assert poly_gcd(a.den * b.num, b.den * b.num) == _monic_of(b.num)


def _monic_of(p):
    return p * (1 / p.leading_coeff())


def _stalling_pair():
    """Two coprime polynomials of degree 5 and 10 in x, p, q whose primitive
    remainder sequence runs for tens of seconds, and x*q + p + 1."""
    jc = JetContext(["x", "u", "p"], ["q"])
    x, p = jc.pvar(jc.x_var(0)), jc.pvar(jc.x_var(2))
    q = jc.pvar(jc.u_var(0, (0, 0, 0)))
    one = jc.poly(1)
    a = x**2 * p**3 + 3 * x * p**4 + Fraction(3, 2) * p**4 + jc.poly(Fraction(1, 3))
    b = (Fraction(1, 3) * p**5 + 2 * x * q) ** 2 + one
    return a, b, x * q + p + one, (x, p, q, one)


def test_coprime_images_skip_the_remainder_sequence(monkeypatch):
    import cartanframes.exact

    a, b, _, _ = _stalling_pair()
    monkeypatch.setattr(cartanframes.exact, "_prs_gcd", _fail_call)
    assert poly_gcd(a, b) == a.ctx.poly(1)


def test_a_common_factor_survives_the_coprimality_test():
    a, b, h, (x, p, q, one) = _stalling_pair()
    assert poly_gcd(h * (x + p), h * (q * q + one)) == h
    assert poly_gcd(a * h, b * h) == h


# -- the relabelling and the point evaluation against substitution ----------------

# c * x^i * u^j * u_x^k over the base coordinates x, u and the jet u_x
jet_terms = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=0, max_value=1),
        st.integers(min_value=0, max_value=1),
        st.integers(min_value=-3, max_value=3).filter(bool),
    ),
    min_size=1,
    max_size=4,
)


def _lift_setting():
    """x, u, u_x, and the map x -> X, u -> U onto invariants registered after
    u_x, so that a renamed key must be sorted again."""
    jc = JetContext(["x"], ["u"])
    jets = [jc.x_var(0), jc.u_var(0, (0,)), jc.u_var(0, (1,))]
    lift = {jets[0].vid: jc.invariant_var(("x", 0)).vid, jets[1].vid: jc.invariant_var(("u", 0, (0,))).vid}
    return jc, jets, lift


def _jet_poly(jc, jets, spec):
    x, u, ux = map(jc.pvar, jets)
    out = jc.poly(0)
    for i, j, k, c in spec:
        out = out + jc.poly(c) * x**i * u**j * ux**k
    return out


def _same_value(a, b):
    assert (a.num.terms, a.den.terms) == (b.num.terms, b.den.terms)
    assert a == b and hash(a) == hash(b)


@given(jet_terms, jet_terms)
@example([(0, 0, 0, 1)], [(1, 0, 0, 1), (0, 0, 1, -1)])  # 1/(x - u_x): lift leads with -u_x
@example([(1, 0, 1, 2)], [(1, 0, 1, -1), (2, 0, 0, 1)])  # 2*x*u_x/(x^2 - x*u_x)
@settings(max_examples=80, deadline=None)
def test_rename_is_the_substitution_of_variables(snum, sden):
    jc, jets, lift = _lift_setting()
    num, den = _jet_poly(jc, jets, snum), _jet_poly(jc, jets, sden)
    assume(num and not den.is_constant())
    if den.leading_coeff() > 0:
        den = -den
    f = RatFn(num, den)
    images = {z: jc.ctx.poly_var(jc.ctx.var_by_id(i)) for z, i in lift.items()}
    lifted = f.rename(lift)
    _same_value(lifted, subs_ratfn(f, images))
    assert subs_poly(num, images) == num.rename(lift)
    _same_value(lifted.rename({i: z for z, i in lift.items()}), f)
    assert f.rename({}) is f


@given(jet_terms, jet_terms, st.tuples(*[st.integers(min_value=-2, max_value=2)] * 3))
@settings(max_examples=80, deadline=None)
def test_a_point_value_is_the_substitution_of_constants(snum, sden, values):
    jc, jets, _ = _lift_setting()
    num, den = _jet_poly(jc, jets, snum), _jet_poly(jc, jets, sden)
    assume(den)
    f = RatFn(num, den)
    point = {var.vid: Fraction(v) for var, v in zip(jets, values)}
    try:
        want = subs_ratfn(f, point)
    except ExactError as err:
        assert str(err) == "zero denominator"
        with pytest.raises(ExactError, match="zero denominator"):
            f.at(point)
    else:
        assert f.at(point) == want.constant_value()


def test_a_point_value_needs_every_variable():
    jc, jets, _ = _lift_setting()
    x, u, ux = map(jc.pvar, jets)
    point = {jets[0].vid: Fraction(1)}
    with pytest.raises(ExactError, match="zero denominator"):
        RatFn(u, x - jc.poly(1)).at(point)
    with pytest.raises(ExactError, match="polynomial is not constant"):
        RatFn(u, x + jc.poly(1)).at(point)
    assert RatFn(x, x + jc.poly(1)).at(point) == Fraction(1, 2)


# Runs in a child process: a gcd that stalls fails the time bound instead of
# hanging the suite.
COMMON_FACTOR_GCD = """
from fractions import Fraction
from cartanframes.exact import poly_gcd
from cartanframes.jets import JetContext

jc = JetContext(["x", "u", "p"], ["q"])
x, p = jc.pvar(jc.x_var(0)), jc.pvar(jc.x_var(2))
q = jc.pvar(jc.u_var(0, (0, 0, 0)))
one = jc.poly(1)
a = x**2 * p**3 + 3 * x * p**4 + Fraction(3, 2) * p**4 + jc.poly(Fraction(1, 3))
b = (Fraction(1, 3) * p**5 + 2 * x * q) ** 2 + one
h = x + p + one
assert poly_gcd(a * h, b * h) == h, poly_gcd(a * h, b * h)
assert poly_gcd(b * h, a * h * h) == h
"""


def test_gcd_with_a_common_factor_returns_in_time():
    """With ``h = x + p + 1`` the remainder sequence in ``p`` (degree 11 in
    ``b*h``) ran for over a minute; the main variable is now a common one of
    least degree, ``x``."""
    src = str(pathlib.Path(cartanframes.__file__).resolve().parent.parent)
    try:
        result = subprocess.run(
            [sys.executable, "-c", COMMON_FACTOR_GCD],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
            timeout=30,
        )
    except subprocess.TimeoutExpired:
        pytest.fail("poly_gcd(a*h, b*h) did not return within 30 s")
    assert result.returncode == 0, result.stderr


@given(small_polys, small_polys, small_polys)
@settings(max_examples=40, deadline=None)
def test_univariate_gcd_by_euclid_over_q_matches_the_remainder_sequence(sf, sg, sh):
    from cartanframes.exact import _as_univariate, _poly_divmod_exact, _prs_gcd

    ctx = Context()
    var = ctx.variable("x")
    x = ctx.poly_var(var)
    f, g, h = (_poly_of(ctx, x, ctx.poly(1), s) for s in (sf, sg, sh))
    a, b = f * h, g * h
    if a.is_constant() or b.is_constant():
        return
    got = poly_gcd(a, b)
    assert got == _monic_of(_prs_gcd(ctx, var, _as_univariate(a, var), _as_univariate(b, var)))
    if not h.is_constant():
        _poly_divmod_exact(got, h)  # raises unless h divides the gcd


def _fail_call(*args, **kwargs):
    raise AssertionError("called")


@given(small_polys, small_polys, small_polys)
@settings(max_examples=60, deadline=None)
def test_gcd_with_and_without_the_coprimality_test_agree(sf, sg, sh):
    """The evaluation test only ever answers "coprime" when the remainder
    sequence would have found a gcd of 1."""
    from unittest import mock

    import cartanframes.exact

    ctx = Context()
    x = ctx.poly_var(ctx.variable("x"))
    u = ctx.poly_var(ctx.variable("u"))
    f, g, h = (_poly_of(ctx, x, u, s) for s in (sf, sg, sh))
    a, b = f * h, g * h
    got = poly_gcd(a, b)
    with mock.patch.object(cartanframes.exact, "_images_coprime", lambda pa, pb: False):
        want = poly_gcd(a, b)
    assert got == want


@given(st.fractions(min_value=-9, max_value=9, max_denominator=12), st.integers(min_value=1, max_value=12))
@settings(max_examples=60, deadline=None)
def test_constant_ratfn_equals_its_quotient(q, k):
    ctx = Context()
    a = ctx.ratfn(q)
    b = ctx.ratfn(q.numerator * k) / ctx.ratfn(q.denominator * k)
    assert a == b and hash(a) == hash(b)
    assert (a - b).is_zero()
    assert normal_form(a) == a and a.constant_value() == q


# -- the elimination kernel against the Gauss-Jordan it replaced -------------------


def oracle_solve_linear(system, labels, rhs, invertible=None, scale=lambda c, v: c * v):
    """Gauss-Jordan with declared-invertible pivots, clearing every other row
    at each pivot: the algorithm ``solve_linear`` used before the shared
    forward-elimination kernel."""

    def is_zero(e):
        return e.is_zero() if isinstance(e, RatFn) else e == 0

    if invertible is None:

        def invertible(e):
            if isinstance(e, RatFn):
                return e.is_constant() and e.constant_value() != 0
            return e != 0

    work = [list(r) for r in system]
    vec = list(rhs)
    ncols = len(labels)
    pivot_of_col = {}
    used_rows = set()
    blocked = []
    for c in range(ncols):
        pivot_row = None
        blocker = None
        for i in range(len(work)):
            if i in used_rows or is_zero(work[i][c]):
                continue
            if invertible(work[i][c]):
                pivot_row = i
                break
            if blocker is None:
                blocker = work[i][c]
        if pivot_row is None:
            if blocker is not None:
                blocked.append((labels[c], blocker))
            continue
        used_rows.add(pivot_row)
        pivot_of_col[c] = pivot_row
        pv = work[pivot_row][c]
        for i in range(len(work)):
            if i == pivot_row or is_zero(work[i][c]):
                continue
            factor = work[i][c] / pv
            work[i] = [a - factor * b for a, b in zip(work[i], work[pivot_row])]
            vec[i] = vec[i] + scale(-factor, vec[pivot_row])
    solved = {}
    for c, i in pivot_of_col.items():
        pv = work[i][c]
        inv = pv.inverse() if isinstance(pv, RatFn) else Fraction(1) / pv
        coeffs = {}
        for c2 in range(ncols):
            if c2 == c or c2 in pivot_of_col:
                continue
            if not is_zero(work[i][c2]):
                coeffs[labels[c2]] = -(work[i][c2] / pv)
        solved[labels[c]] = (scale(inv, vec[i]), coeffs)
    unsolved = [labels[c] for c in range(ncols) if c not in pivot_of_col]
    residual = []
    for i in range(len(work)):
        if i in used_rows:
            continue
        residual.append(({labels[c]: work[i][c] for c in range(ncols) if not is_zero(work[i][c])}, vec[i]))
    return solved, unsolved, residual, blocked


def _same_solve(system, rhs, invertible=None):
    labels = [f"c{j}" for j in range(len(system[0]))]
    res = solve_linear(system, labels, rhs, invertible=invertible)
    assert (res.solved, res.unsolved, res.residual, res.blocked) == oracle_solve_linear(system, labels, rhs, invertible)


small_entries = st.sampled_from([0, 0, 0, 1, -1, 2, -3])
fraction_matrices = st.integers(min_value=1, max_value=4).flatmap(
    lambda ncols: st.lists(st.lists(small_entries, min_size=ncols, max_size=ncols), min_size=1, max_size=5)
)
# Pivot rules: every nonzero entry, positive entries only, entries other than +-1.
fraction_rules = st.sampled_from([None, lambda e: e > 0, lambda e: abs(e) != 1])


@given(fraction_matrices, st.lists(st.integers(min_value=-5, max_value=5), min_size=5, max_size=5), fraction_rules)
@example([[1, 1], [1, 1], [0, 2]], [1, 2, 3, 0, 0], lambda e: e > 0)
@settings(max_examples=120, deadline=None)
def test_solve_linear_matches_gauss_jordan_on_fractions(rows, rhs, rule):
    system = [[Fraction(e) for e in r] for r in rows]
    _same_solve(system, [Fraction(v) for v in rhs[: len(rows)]], rule)


@given(
    st.integers(min_value=1, max_value=3).flatmap(
        lambda ncols: st.lists(
            st.lists(st.integers(min_value=0, max_value=8), min_size=ncols, max_size=ncols), min_size=1, max_size=3
        )
    ),
    st.lists(st.integers(min_value=0, max_value=8), min_size=3, max_size=3),
)
@settings(max_examples=40, deadline=None)
def test_solve_linear_matches_gauss_jordan_under_the_frame_rule(rows, rhs):
    """RatFn systems where a pivot must be a nonzero constant or use only the
    declared nonvanishing variable ``a``, as in phantom normalization."""
    ctx = Context()
    a = RatFn(ctx.poly_var(ctx.variable("a")), ctx.poly(1))
    b = RatFn(ctx.poly_var(ctx.variable("b")), ctx.poly(1))
    one, zero = ctx.ratfn(1), ctx.ratfn(0)
    pool = [zero, zero, one, ctx.ratfn(-2), a, b, a + one, a * b, one / a, b / (a + one)]
    declared = set(a.variables())

    def frame_rule(c):
        if c.is_constant():
            return not c.is_zero()
        used = c.variables()
        return bool(used) and used <= declared

    system = [[pool[e] for e in r] for r in rows]
    _same_solve(system, [pool[v] for v in rhs[: len(rows)]], frame_rule)


@given(fraction_matrices)
@settings(max_examples=80, deadline=None)
def test_echelon_pivots_are_the_rank_profile(rows):
    m = [[Fraction(e) for e in r] for r in rows]
    ncols = len(m[0])
    prefix_ranks = [0] + [rank_by_minors([r[: c + 1] for r in m]) for c in range(ncols)]
    profile = [c for c in range(ncols) if prefix_ranks[c + 1] > prefix_ranks[c]]
    ech, pivots = ordered_row_echelon(m)
    assert pivots == profile
    for k, row in enumerate(ech):
        lead = next((c for c, e in enumerate(row) if e), None)
        assert lead == (pivots[k] if k < len(pivots) else None)
    assert rank_by_minors(m + ech) == len(pivots)


def _combine(coeffs, rows):
    return [sum((c * r[j] for c, r in zip(coeffs, rows)), Fraction(0)) for j in range(len(rows[0]))]


@given(
    st.lists(st.lists(small_entries, min_size=3, max_size=3), max_size=3),
    st.lists(st.lists(small_entries, min_size=3, max_size=3), min_size=1, max_size=3),
)
@settings(max_examples=80, deadline=None)
def test_in_span_solutions_is_the_kernel_of_the_quotient_map(span, cand):
    from cartanframes.involution import _in_span_solutions

    span = [[Fraction(e) for e in r] for r in span]
    cand = [[Fraction(e) for e in r] for r in cand]

    vectors = _in_span_solutions(cand, span)
    assert len(vectors) == len(cand) + rank_by_minors(span) - rank_by_minors(span + cand)
    for v in vectors:
        assert len(v) == len(cand)
        assert rank_by_minors(span + [_combine(v, cand)]) == rank_by_minors(span)
    assert rank_by_minors(vectors) == len(vectors)
