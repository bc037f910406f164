"""``RatFn`` normal forms against ``sympy.cancel``: sums, products and
quotients of random rational functions, with and without a shared factor,
reduce to the pair sympy finds, up to the integer-primitive scaling and the
sign of the canonical representative.  Every coefficient of a canonical
``RatFn`` is an int, also after the jet-calculus operations (partial
derivative, relabelling, invariantization, product by a constant).  Skipped
when sympy is absent."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cartanframes.exact import Context, ExactError, RatFn
from cartanframes.exterior import FormContext
from cartanframes.frames import CrossSection, RecurrenceEngine
from conftest import session

sympy = pytest.importorskip("sympy")

CTX = Context()
VARS = [CTX.variable(name) for name in ("x", "y")]
SYMBOLS = {var.vid: sympy.Symbol(var.name) for var in VARS}


def _monomial(c, ex, ey):
    return CTX.poly(c) * CTX.poly_var(VARS[0], ex) * CTX.poly_var(VARS[1], ey)


monomials = st.builds(
    _monomial,
    st.fractions(min_value=-5, max_value=5, max_denominator=4).filter(bool),
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=0, max_value=2),
)
polys = st.lists(monomials, min_size=1, max_size=3).map(lambda ms: sum(ms, CTX.poly(0)))


@st.composite
def ratfns(draw):
    """``a*h / (b*h)``; ``h`` is 1 or a shared factor that must cancel."""
    a = draw(polys)
    b = draw(polys.filter(bool))
    h = draw(st.sampled_from([CTX.poly(1), draw(polys.filter(bool))]))
    return RatFn(a * h, b * h)


def to_sympy(poly):
    out = sympy.Integer(0)
    for key, c in poly.terms.items():
        term = sympy.Rational(c.numerator, c.denominator)
        for vid, e in key:
            term *= sympy.Symbol(poly.ctx.var_by_id(vid).name) ** e
        out += term
    return sympy.expand(out)


def primitive(n, d):
    """Scale the pair (n, d) of sympy polynomials to integer coefficients
    without a common factor."""
    gens = sorted((n * d).free_symbols, key=str) or list(SYMBOLS.values())
    coeffs = [c for p in (n, d) for c in sympy.Poly(p, *gens).coeffs()]
    scale = math.lcm(*(int(c.q) for c in coeffs))
    content = math.gcd(*(int(c * scale) for c in coeffs))
    factor = sympy.Rational(scale, content)
    return sympy.expand(n * factor), sympy.expand(d * factor)


def assert_cancelled(got: RatFn, expr):
    n, d = sympy.fraction(sympy.cancel(sympy.together(expr)))
    if n == 0:
        assert got.is_zero() and got.den == got.ctx.poly(1)
        return
    want_num, want_den = primitive(n, d)
    num, den = to_sympy(got.num), to_sympy(got.den)
    assert (num, den) in ((want_num, want_den), (-want_num, -want_den))


@given(ratfns(), ratfns())
@settings(max_examples=60, deadline=None)
def test_sum_product_and_quotient_match_sympy_cancel(f, g):
    F = to_sympy(f.num) / to_sympy(f.den)
    G = to_sympy(g.num) / to_sympy(g.den)
    assert_cancelled(f, F)
    assert_cancelled(f + g, F + G)
    assert_cancelled(f - g, F - G)
    assert_cancelled(f * g, F * G)
    if not g.is_zero():
        assert_cancelled(f / g, F / G)


# -- the canonical scalar under the jet-calculus operations ----------------------

# The point problem with x and u fixed at non-integer and negative constants:
# iota multiplies by 1/2 and -3, and leaves p and q to their invariants P, Q.
POINT = session("point")
JC = POINT.jc
CS = CrossSection(JC)
CS.normalize_coord(("x", 0), Fraction(1, 2))
CS.normalize_coord(("x", 1), -3)
ENGINE = RecurrenceEngine(POINT.system, CS, FormContext(JC))
POOL = [JC.x_var(0), JC.x_var(1), JC.x_var(2), JC.u_var(0, (0, 0, 0))]
RENAME_TO = JC.u_var(0, (1, 0, 0))
IOTA = {
    sympy.Symbol("x"): sympy.Rational(1, 2),
    sympy.Symbol("u"): sympy.Integer(-3),
    sympy.Symbol("p"): sympy.Symbol(JC.invariant_var(("x", 2)).name),
    sympy.Symbol("q"): sympy.Symbol(JC.invariant_var(("u", 0, (0, 0, 0))).name),
}
fractions = st.fractions(min_value=-4, max_value=4, max_denominator=3)


def _jet_monomial(c, var, e, var2, e2):
    return JC.poly(c) * JC.ctx.poly_var(var, e) * JC.ctx.poly_var(var2, e2)


jet_polys = st.lists(
    st.builds(
        _jet_monomial,
        fractions.filter(bool),
        st.sampled_from(POOL),
        st.integers(min_value=0, max_value=2),
        st.sampled_from(POOL),
        st.integers(min_value=0, max_value=1),
    ),
    min_size=1,
    max_size=3,
).map(lambda ms: sum(ms, JC.poly(0)))


@st.composite
def jet_ratfns(draw):
    """``a/b`` with fractional coefficients and a non-constant ``b``."""
    return RatFn(draw(jet_polys), draw(jet_polys.filter(lambda p: not p.is_constant())))


def assert_int_scalars(f: RatFn):
    assert all(type(c) is int for p in (f.num, f.den) for c in p.terms.values()), (f.num.terms, f.den.terms)


def assert_canonical(got: RatFn, expr):
    assert_cancelled(got, expr)
    assert_int_scalars(got)


@given(jet_ratfns(), jet_ratfns(), st.sampled_from(POOL), fractions)
@settings(max_examples=40, deadline=None)
def test_canonical_coefficients_are_ints_and_match_sympy(f, g, var, c):
    F = to_sympy(f.num) / to_sympy(f.den)
    G = to_sympy(g.num) / to_sympy(g.den)
    sym = sympy.Symbol(var.name)
    for got, want in [
        (f, F),
        (f + g, F + G),
        (f - g, F - G),
        (f * g, F * G),
        (f.partial(var), sympy.diff(F, sym)),
        (f.rename({var.vid: RENAME_TO.vid}), F.subs(sym, sympy.Symbol(RENAME_TO.name))),
        (f * c, F * c),
        (c * f, F * c),
        (f * JC.ratfn(c), F * c),
    ]:
        assert_canonical(got, want)
    if not g.is_zero():
        assert_canonical(f / g, F / G)
    den = sympy.expand(to_sympy(f.den).subs(IOTA))
    if den == 0:
        with pytest.raises(ExactError, match="zero denominator"):
            ENGINE.iota(f)
    else:
        assert_canonical(ENGINE.iota(f), F.subs(IOTA))
