"""``RatFn`` normal forms against ``sympy.cancel``: sums, products and
quotients of random rational functions, with and without a shared factor,
reduce to the pair sympy finds, up to the integer-primitive scaling and the
sign of the canonical representative.  Skipped when sympy is absent."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cartanframes.exact import Context, RatFn

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
            term *= SYMBOLS[vid] ** e
        out += term
    return sympy.expand(out)


def primitive(n, d):
    """Scale the pair (n, d) of sympy polynomials to integer coefficients
    without a common factor."""
    coeffs = [c for p in (n, d) for c in sympy.Poly(p, *SYMBOLS.values()).coeffs()]
    scale = math.lcm(*(int(c.q) for c in coeffs))
    content = math.gcd(*(int(c * scale) for c in coeffs))
    factor = sympy.Rational(scale, content)
    return sympy.expand(n * factor), sympy.expand(d * factor)


def assert_cancelled(got: RatFn, expr):
    n, d = sympy.fraction(sympy.cancel(sympy.together(expr)))
    if n == 0:
        assert got.is_zero() and got.den == CTX.poly(1)
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
