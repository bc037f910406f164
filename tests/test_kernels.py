"""The recurrence hot path kernels against the straightforward algorithms they
replaced: the total derivative as a sum over variables of
``partial(f, v) * D_i(v)``, and invariantization as a product of ``RatFn``s."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cartanframes.exact import ExactError, Poly, RatFn, _merge_exp
from cartanframes.frames import CrossSection, RecurrenceEngine
from cartanframes.jets import mi_up_to
from conftest import make_engine


def oracle_total_derivative(jc, f: Poly, i: int) -> Poly:
    """Chain rule one variable at a time."""
    out = jc.poly(0)
    for vid in f.variables():
        var = jc.ctx.var_by_id(vid)
        dv = jc._var_derivative(var, i)
        if dv.is_zero():
            continue
        out = out + f.partial(var) * dv
    return out


def oracle_iota_value(engine, var) -> RatFn:
    decoded = engine.jc.decode(var)
    if decoded[0] == "x":
        return engine.iota_coord(("x", decoded[1]))
    if decoded[0] == "u":
        return engine.iota_coord(("u", decoded[1], decoded[2]))
    if decoded[0] == "inv":
        return engine.jc.rvar(var)
    raise ExactError(f"cannot invariantize {var.name}")


def oracle_iota_poly(engine, p: Poly) -> RatFn:
    """iota as a sum of products of RatFns, normalized at every step."""
    jc = engine.jc
    out = jc.ratfn(0)
    for key, c in p.terms.items():
        term = jc.ratfn(c)
        for vid, e in key:
            base = oracle_iota_value(engine, jc.ctx.var_by_id(vid))
            for _ in range(e):
                term = term * base
        out = out + term
    return out


def _engine():
    """Point-transformation engine with a cross-section that freezes some
    coordinates at zero, some at nonzero (also non-integer) constants, and
    leaves the rest free."""
    _, jc, system, _, mc, _ = make_engine("point")
    cs = CrossSection(jc)
    cs.normalize_coord(("x", 0), Fraction(1, 2))
    cs.normalize_coord(("x", 1), 0)
    cs.normalize_coord(("u", 0, (0, 0, 0)), -3)
    cs.normalize_coord(("u", 0, (1, 0, 0)), Fraction(2, 3))
    cs.normalize_coord(("u", 0, (0, 0, 1)), 0)
    return RecurrenceEngine(mc, cs)


ENGINE = _engine()
JC = ENGINE.jc
JET_VARS = [JC.x_var(i) for i in range(JC.p)] + [JC.u_var(0, J) for J in mi_up_to(JC.p, 2)]
FIELD_VARS = [JC.field_var(f, B) for f in ENGINE.system.fields for B in mi_up_to(ENGINE.system.m, 1)]
INV_VARS = [JC.invariant_var(("x", 2))] + [JC.invariant_var(("u", 0, J)) for J in mi_up_to(JC.p, 1)]


def polys(pool):
    """Random polynomials over the variables of ``pool``."""
    term = st.tuples(
        st.fractions(min_value=-4, max_value=4, max_denominator=3).filter(bool),
        st.lists(st.tuples(st.sampled_from(pool), st.integers(min_value=1, max_value=3)), max_size=3),
    )

    def build(terms):
        out = JC.poly(0)
        for c, factors in terms:
            mono = JC.poly(c)
            for var, e in factors:
                mono = mono * JC.ctx.poly_var(var, e)
            out = out + mono
        return out

    return st.lists(term, max_size=5).map(build)


def assert_exact(*values: Poly):
    for p in values:
        assert all(type(c) is Fraction for c in p.terms.values()), p.terms


@given(polys(JET_VARS + FIELD_VARS), st.integers(min_value=0, max_value=2))
@settings(max_examples=80, deadline=None)
def test_total_derivative_matches_chain_rule_oracle(f, i):
    got = JC.total_derivative_poly(f, i)
    assert got == oracle_total_derivative(JC, f, i)
    assert_exact(got)


@given(polys(JET_VARS + INV_VARS))
@settings(max_examples=80, deadline=None)
def test_iota_poly_matches_ratfn_product_oracle(p):
    got = ENGINE.iota_poly(p)
    want = oracle_iota_poly(ENGINE, p)
    assert got == want
    assert (got.num.terms, got.den.terms) == (want.num.terms, want.den.terms)
    assert_exact(got.num, got.den)


@given(polys(JET_VARS + FIELD_VARS), st.sampled_from(INV_VARS))
@settings(max_examples=20, deadline=None)
def test_total_derivative_of_an_invariant_raises_like_the_oracle(f, inv):
    g = JC.pvar(inv) * (f * f + JC.poly(1))  # never zero
    with pytest.raises(ExactError):
        oracle_total_derivative(JC, g, 0)
    with pytest.raises(ExactError):
        JC.total_derivative_poly(g, 0)


@given(polys(JET_VARS + INV_VARS), st.sampled_from(FIELD_VARS))
@settings(max_examples=20, deadline=None)
def test_iota_of_a_field_jet_raises_like_the_oracle(p, field_jet):
    g = JC.pvar(field_jet) * (p * p + JC.poly(1))  # never zero
    with pytest.raises(ExactError):
        oracle_iota_poly(ENGINE, g)
    with pytest.raises(ExactError):
        ENGINE.iota_poly(g)


def test_iota_rejects_a_non_monomial_value():
    engine = _engine()
    var = engine.jc.u_var(0, (0, 1, 0))
    inv_p = engine.jc.pvar(engine.jc.invariant_var(("x", 2)))
    engine.iota_coord = lambda coord: RatFn(inv_p + engine.jc.poly(1), engine.jc.poly(1))
    with pytest.raises(ExactError):
        engine.iota_poly(engine.jc.pvar(var))


def test_recurrence_coefficients_stay_exact():
    engine = make_engine("point")[-1]
    for J in mi_up_to(3, 2):
        assert_exact(engine.generator.prolong(0, J))
        rhs = engine.recurrence(("u", 0, J)).rhs
        for c in rhs.terms.values():
            assert_exact(c.num, c.den)


def oracle_merge_exp(a, b):
    out = dict(a)
    for vid, e in b:
        out[vid] = out.get(vid, 0) + e
    return tuple(sorted((v, e) for v, e in out.items() if e))


exp_keys = st.dictionaries(st.integers(min_value=0, max_value=6), st.integers(min_value=1, max_value=3), max_size=4).map(
    lambda d: tuple(sorted(d.items()))
)


@given(exp_keys, exp_keys)
@settings(max_examples=200, deadline=None)
def test_merge_exp_matches_dict_oracle(a, b):
    assert _merge_exp(a, b) == oracle_merge_exp(a, b)
    assert _merge_exp(b, a) == oracle_merge_exp(a, b)
