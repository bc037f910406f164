"""The hot path kernels against the straightforward algorithms they replaced:
the total derivative as a sum over variables of ``partial(f, v) * D_i(v)``,
invariantization as a product of ``RatFn``s, the product by a constant
through the full gcd normalization, the structure equations, the
pull-back, the restriction to a pseudo-group and the exterior derivative as
sums of wedges, and the normalized coframe as restriction by the relabelling
lift followed by evaluation on the cross-section."""

import functools
import itertools
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cartanframes.exact import ExactError, Poly, Q, RatFn, _merge_exp
from cartanframes.exterior import (
    EquationSet,
    ExteriorForm,
    FormContext,
    diffeo_structure_equations,
    exterior_derivative,
    restrict_to_pseudogroup,
    substitute,
)
from cartanframes.frames import CrossSection, RecurrenceEngine, normalized_structure_equations
from cartanframes.jets import JetContext, mi_bump, mi_factorial, mi_up_to, mi_zero
from cartanframes.pseudogroup import lift_system
from conftest import PROBLEMS, diffeo_system, keep_every_term, session
from monomial_oracle import mono_cmp


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
        return engine.iota_coord(decoded[1])
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
    s = session("point")
    jc = s.jc
    cs = CrossSection(jc)
    cs.normalize_coord(("x", 0), Fraction(1, 2))
    cs.normalize_coord(("x", 1), 0)
    cs.normalize_coord(("u", 0, (0, 0, 0)), -3)
    cs.normalize_coord(("u", 0, (1, 0, 0)), Fraction(2, 3))
    cs.normalize_coord(("u", 0, (0, 0, 1)), 0)
    return RecurrenceEngine(s.system, cs, FormContext(jc))


ENGINE = _engine()
JC = ENGINE.jc
JET_VARS = [JC.x_var(i) for i in range(JC.p)] + [JC.u_var(0, J) for J in mi_up_to(JC.p, 2)]
FIELD_VARS = [JC.field_var(f, B) for f in ENGINE.system.fields for B in mi_up_to(ENGINE.system.m, 1)]
INV_VARS = [JC.invariant_var(("x", 2))] + [JC.invariant_var(("u", 0, J)) for J in mi_up_to(JC.p, 1)]
BASE_VARS = [JC.coord_var(coord) for coord in ENGINE.system.base_coords]


def polys(pool, coeffs=st.fractions(min_value=-4, max_value=4, max_denominator=3)):
    """Random polynomials over the variables of ``pool``."""
    term = st.tuples(
        coeffs.filter(bool),
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
    """No coefficient is a float or a bool: each is an int or a Fraction."""
    for p in values:
        assert all(type(c) in (int, Fraction) for c in p.terms.values()), p.terms


def assert_canonical_scalars(*values: RatFn):
    """Every coefficient of the numerator and the denominator of a canonical
    ``RatFn`` is an int."""
    for f in values:
        assert all(type(c) is int for p in (f.num, f.den) for c in p.terms.values()), (f.num.terms, f.den.terms)


@given(polys(JET_VARS + FIELD_VARS), st.integers(min_value=0, max_value=2))
@settings(max_examples=80, deadline=None)
def test_total_derivative_matches_chain_rule_oracle(f, i):
    got = JC.total_derivative_poly(f, i)
    assert got == oracle_total_derivative(JC, f, i)
    assert_exact(got)


int_polys = polys(JET_VARS + FIELD_VARS, st.integers(min_value=-4, max_value=4))


@given(int_polys, int_polys, st.sampled_from(JET_VARS), st.integers(min_value=0, max_value=2), st.integers(-3, 3))
@settings(max_examples=80, deadline=None)
def test_int_coefficients_stay_ints(f, g, var, i, k):
    """Polynomial arithmetic and the total derivative of int-coefficient
    inputs run on ints: no result coefficient is a Fraction."""
    for got in (f + g, f - g, -f, f * g, f**2, f * k, f * Fraction(2 * k, 2), f.partial(var), JC.total_derivative_poly(f, i)):
        assert all(type(c) is int for c in got.terms.values()), got.terms


@given(polys(JET_VARS + INV_VARS))
@settings(max_examples=80, deadline=None)
def test_iota_poly_matches_ratfn_product_oracle(p):
    got = ENGINE.iota_poly(p)
    want = oracle_iota_poly(ENGINE, p)
    assert got == want
    assert (got.num.terms, got.den.terms) == (want.num.terms, want.den.terms)
    assert_canonical_scalars(got)


@given(polys(BASE_VARS), st.sampled_from(BASE_VARS), st.integers(min_value=1, max_value=2))
@settings(max_examples=60, deadline=None)
def test_iota_of_a_lifted_coefficient_is_its_cross_section_value(p, var, e):
    """iota sends a base coordinate and its invariant to the same value, so
    lifting first changes nothing; a value of iota is its own image."""
    # no base coordinate is fixed at a root of z^e + 1
    f = RatFn(p, JC.ctx.poly_var(var, e) + JC.poly(1))
    value = ENGINE.iota(f)
    assert ENGINE.iota(lift_system(ENGINE.system).lift_coeff(f)) == value
    assert ENGINE.iota(value) == value


mixed_polys = polys(JET_VARS + FIELD_VARS + INV_VARS)


@given(mixed_polys, mixed_polys)
@settings(max_examples=100, deadline=None)
def test_monomial_key_orders_like_the_comparator_oracle(f, g):
    """One sort key orders the monomials of x, u-jet, field-jet and invariant
    variables exactly as the pairwise comparator did."""
    for p in (f, f * g + g):
        by_cmp = functools.cmp_to_key(lambda ka, kb: mono_cmp(p, ka, kb))
        assert sorted(p.terms, key=p._mono_key) == sorted(p.terms, key=by_cmp, reverse=True)
        if p.terms:
            assert p.leading_key() == max(p.terms, key=by_cmp)


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


def test_recurrence_coefficients_stay_exact():
    engine = session("point").engine
    for J in mi_up_to(3, 2):
        assert_exact(engine.generator.prolong(0, J, keep_every_term))
        rhs = engine.recurrence(("u", 0, J))
        assert_canonical_scalars(*rhs.terms.values())


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


# -- products by a constant ------------------------------------------------------

constants = st.fractions(min_value=-6, max_value=6, max_denominator=5)


def small_polys():
    """Polynomials of degree at most 2 in two variables: the gcd of a random
    pair stays cheap."""
    x, y = JC.pvar(JC.x_var(0)), JC.pvar(JC.x_var(1))
    monos = [JC.poly(1), x, y, x * x, x * y, y * y]
    coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=3)
    return st.lists(coeffs, min_size=6, max_size=6).map(lambda cs: sum((m * c for m, c in zip(monos, cs)), JC.poly(0)))


def plain_product(f: RatFn, g: RatFn) -> RatFn:
    """The product through the full gcd normalization."""
    return RatFn(f.num * g.num, f.den * g.den)


def assert_same_ratfn(got: RatFn, want: RatFn):
    assert (got.num, got.den) == (want.num, want.den)
    assert hash(got) == hash(want)
    assert_canonical_scalars(got)


@given(small_polys(), small_polys().filter(bool), constants, st.booleans())
@settings(max_examples=100, deadline=None)
@example(JC.pvar(JC.x_var(0)) * 3 + JC.poly(1), JC.poly(1) - JC.pvar(JC.x_var(1)) * 2, Fraction(-3, 4), False)
@example(JC.pvar(JC.x_var(0)), JC.pvar(JC.x_var(1)) * -2 + JC.poly(1), Fraction(0), False)
@example(JC.pvar(JC.x_var(0)) * Fraction(1, 2), JC.poly(1), Fraction(-2), True)
def test_product_by_a_constant_matches_the_normalized_product(num, den, c, wrap):
    """``f * c`` and ``c * f`` skip the gcd; the result must still be the
    normal form of the product.  The denominators are non-monic and may lead
    with a negative coefficient before normalization; ``wrap`` also covers a
    polynomial over 1 with fractional coefficients, which is coprime but not
    integer-primitive."""
    f = RatFn(num, JC.poly(1), _normalized=True) if wrap else RatFn(num, den)
    k = JC.ratfn(c)
    product = plain_product(f, k)
    want = RatFn(product.num, product.den)
    for got in (f * k, k * f, f * c, c * f):
        assert_same_ratfn(got, want)


@given(constants, constants)
@settings(max_examples=50, deadline=None)
def test_product_of_constants_is_the_interned_constant(a, b):
    assert JC.ratfn(a) * JC.ratfn(b) is JC.ratfn(a * b)
    assert JC.ratfn(a) * b is JC.ratfn(a * b)


@given(constants.filter(bool), constants.filter(bool))
@settings(max_examples=50, deadline=None)
def test_a_constant_quotient_shares_the_interned_polynomials(a, b):
    got = RatFn(JC.poly(a), JC.poly(b))
    want = JC.ratfn(a / b)
    assert got.num is want.num and got.den is want.den


def _fail(*args, **kwargs):
    raise AssertionError("called")


def test_product_by_a_constant_runs_no_gcd(monkeypatch):
    import cartanframes.exact

    f = RatFn(JC.pvar(JC.x_var(0)) * 2 + JC.poly(1), JC.pvar(JC.x_var(1)) * -3)
    k = JC.ratfn(Fraction(-2, 3))
    monkeypatch.setattr(cartanframes.exact, "poly_gcd", _fail)
    assert f * k == k * f == f * Fraction(-2, 3)
    assert JC.ratfn(1) * f is f


def test_constants_are_interned_per_value():
    ctx = JC.ctx
    assert ctx.ratfn(Fraction(2, 4)) is ctx.ratfn(Fraction(1, 2))
    assert ctx.ratfn(3) is ctx.ratfn(Fraction(6, 2))
    assert ctx.ratfn(0) is ctx.ratfn(Fraction(0))
    assert JetContext(["x"], ["u"]).ratfn(1) is not ctx.ratfn(1)


def test_interned_constants_survive_the_arithmetic_that_uses_them():
    ctx = JC.ctx
    x = JC.rvar(JC.x_var(0))
    f = RatFn(JC.pvar(JC.x_var(0)) * 2 + JC.poly(1), JC.pvar(JC.x_var(1)) * -3)
    values = [Fraction(-3, 2), Fraction(0), Fraction(1), Fraction(-1), Fraction(5)]
    before = {v: (dict(ctx.ratfn(v).num.terms), dict(ctx.ratfn(v).den.terms)) for v in values}
    for v in values:
        k = ctx.ratfn(v)
        for g in (f, x, k, ctx.ratfn(2)):
            k * g, g * k, k + g, g + k, k - g, g - k, -k, k * v, g * v
            if g:
                k / g
    for v in values:
        k = ctx.ratfn(v)
        assert (k.num.terms, k.den.terms) == before[v]
        assert k.constant_value() == v


# -- structure equations, pull-back and restriction ------------------------------


def _splits_below(B):
    return [B1 for B1 in itertools.product(*[range(c + 1) for c in B]) if B1 != B]


def oracle_diffeo_structure_equations(fc, m, N):
    """The Maurer-Cartan identity summed one scaled wedge at a time, for every
    d(mu^b_B) with #B <= N-1."""
    eqs = EquationSet(fc)
    for b in range(m):
        rhs = fc.form()
        for a in range(m):
            mu_ba = fc.one_form(fc.mc(b, mi_bump(mi_zero(m), a)))
            rhs = rhs + mu_ba.wedge(fc.one_form(fc.sigma(a)))
        eqs.set(fc.sigma(b), rhs)
    for b in range(m):
        for B in mi_up_to(m, max(N - 1, 0)):
            rhs = fc.form()
            fact_B = mi_factorial(B)
            for a in range(m):
                lead = fc.one_form(fc.mc(b, mi_bump(B, a)))
                rhs = rhs + fc.one_form(fc.sigma(a)).wedge(lead)
                for B1 in _splits_below(B):
                    B2 = tuple(x - y for x, y in zip(B, B1))
                    coeff = Q(fact_B, mi_factorial(B1) * mi_factorial(B2))
                    left = fc.one_form(fc.mc(b, mi_bump(B1, a)))
                    right = fc.one_form(fc.mc(a, B2))
                    rhs = rhs + left.wedge(right).scale(coeff)
            eqs.set(fc.mc(b, B), rhs)
    return eqs


def oracle_substitute(form, mapping):
    fc = form.fc
    out = fc.form()
    for word, c in form.terms.items():
        piece = fc.scalar_form(c)
        for sid in word:
            repl = mapping.get(sid)
            piece = piece.wedge(repl if repl is not None else fc.one_form(fc.by_id(sid)))
        out = out + piece
    return out


def oracle_restrict_to_pseudogroup(eqs, mcrel):
    """Substitute every solved symbol, then drop the equations of the solved
    symbols themselves."""
    fc = eqs.fc

    def mc_form(key):
        out = fc.form()
        for k2, c in mcrel.relation(key).items():
            out = out + fc.one_form(fc.mc(k2[0], k2[1])).scale(c)
        return out

    mapping = {}
    for sid in set().union(*[rhs.symbols() for rhs in eqs.equations.values()]):
        sym = fc.by_id(sid)
        if sym.kind == "mc" and mcrel.system.is_solved((sym.index[0], sym.index[2])):
            mapping[sid] = mc_form((sym.index[0], sym.index[2]))
    out = EquationSet(fc)
    for sym, rhs in eqs.items():
        if sym.kind == "mc" and mcrel.system.is_solved((sym.index[0], sym.index[2])):
            continue
        out.set(sym, oracle_substitute(rhs, mapping))
    return out


def _equations(eqs):
    """Every equation in order, with its words and their coefficients in
    order, by symbol name (independent of the form context)."""
    name = lambda sid: eqs.fc.by_id(sid).name
    return [
        (name(sid), [(tuple(map(name, w)), c.num.terms, c.den.terms) for w, c in rhs.terms.items()])
        for sid, rhs in eqs.equations.items()
    ]


def _fresh_fc(m):
    names = ["x", "y", "z"][: max(m - 1, 1)]
    return FormContext(JetContext(names, ["u"]))


@pytest.mark.parametrize("m, N", [(m, N) for m in (1, 2, 3) for N in range(5)])
def test_structure_equations_match_the_wedge_by_wedge_oracle(m, N):
    fc, fc_oracle = _fresh_fc(m), _fresh_fc(m)
    got = diffeo_structure_equations(fc, diffeo_system(fc.jc, m), N)
    want = oracle_diffeo_structure_equations(fc_oracle, m, N)
    assert _equations(got) == _equations(want)
    # symbols are registered in the same order, so their ids agree too
    assert [s.name for s in fc._syms] == [s.name for s in fc_oracle._syms]
    for rhs in got.equations.values():
        assert all(isinstance(w, tuple) and len(w) == 2 for w in rhs.terms)


def test_structure_equations_wedge_nothing_and_run_no_gcd(monkeypatch):
    import cartanframes.exact

    monkeypatch.setattr(ExteriorForm, "wedge", _fail)
    monkeypatch.setattr(cartanframes.exact, "poly_gcd", _fail)
    fc = _fresh_fc(3)
    diffeo_structure_equations(fc, diffeo_system(fc.jc, 3), 3)


def test_mc_formats_a_name_only_for_a_new_symbol(monkeypatch):
    fc = _fresh_fc(2)
    sym = fc.mc(1, (1, 0))
    monkeypatch.setattr(fc, "_mc_name", _fail)
    assert fc.mc(1, (1, 0)) is sym


def _oracle_fc(s):
    fc = FormContext(s.jc)
    fc.mc_names.update(s.fc.mc_names)
    return fc


@pytest.mark.parametrize(
    "name, order",
    [("point", 3), ("contact", 3), ("contact_asprinted", 2), ("pj", 2), ("point_branch1", 3), ("point_branch4", 4)],
)
def test_restriction_matches_the_sum_of_pieces_oracle(name, order):
    """Building only the basis equations and substituting gives what building
    every equation, substituting and dropping the solved ones gives: the same
    equations in the same order, word for word."""
    s = session(name)
    got = restrict_to_pseudogroup(diffeo_structure_equations(s.fc, s.system, order), s.mc)
    fc = _oracle_fc(s)
    want = oracle_restrict_to_pseudogroup(oracle_diffeo_structure_equations(fc, s.system.m, order), s.mc)
    assert _equations(got) == _equations(want)


def test_point_structure_order_5_builds_only_the_kept_equations():
    s = session("point")
    assert len(diffeo_structure_equations(s.fc, s.system, 5).equations) == 34
    assert len(oracle_diffeo_structure_equations(_oracle_fc(s), s.system.m, 5).equations) == 284


def oracle_normalized_structure_equations(engine, state, restricted):
    """The coframe in three passes: the equations restricted by the
    relabelling lift, their coefficients evaluated on the cross-section and
    the sigma forms substituted, then resolved symbols chased to a fixed point
    by ``FrameState.reduce``."""
    fc = engine.fc
    p = engine.jc.p
    sigma_map = {fc.sigma(i).sid: fc.one_form(fc.omega(i)) for i in range(p)}
    for alpha in range(engine.jc.q):
        sigma_map[fc.sigma(p + alpha).sid] = engine.horizontal(alpha, mi_zero(p))

    def pull_back(form):
        on_section = {w: engine.iota(c) for w, c in form.terms.items()}
        form = ExteriorForm(fc, {w: c for w, c in on_section.items() if c})
        return state.reduce(substitute(form, sigma_map))

    out = EquationSet(fc)
    for sym, rhs in restricted.items():
        if sym.kind == "sigma":
            if sym.index[0] < p:
                out.set(fc.omega(sym.index[0]), pull_back(rhs))
        elif sym.key not in state.resolved:
            out.set(sym, pull_back(rhs))
    return out


@pytest.mark.parametrize("name", sorted(p.stem for p in PROBLEMS.glob("*.prob")))
def test_coframe_matches_the_restrict_then_evaluate_oracle(name):
    """One substitution through the engine's lift gives, equation by
    equation and word by word, what restricting by the relabelling lift,
    evaluating on the cross-section and reducing give, on every shipped
    problem, the four whose default coframe audit exits 2 included."""
    for order, mc_order in [(3, 2), (4, 2), (5, 2), (5, 3)]:
        s = session(name, order, mc_order)
        got = s.coframe
        want = oracle_normalized_structure_equations(s.engine, s.state, s.restricted)
        assert _equations(got) == _equations(want), (order, mc_order)


def test_coframe_pulls_back_each_equation_in_one_substitution(monkeypatch):
    """The coframe reads neither the relabelling lift nor the restricted
    equations, and each of its equations is the result of one substitution
    into a structure equation, with nothing reduced after it."""
    import cartanframes.frames
    import cartanframes.session

    monkeypatch.setattr(cartanframes.session, "lift_system", _fail)
    monkeypatch.setattr(cartanframes.session, "restrict_to_pseudogroup", _fail)
    s = session("point_branch4", 5, 3)
    s.coframe
    eqs = diffeo_structure_equations(s.fc, s.system, 4)
    pulled = []

    def tracked(form, mapping):
        out = substitute(form, mapping)
        if any(form is rhs for rhs in eqs.equations.values()):
            pulled.append(out)
        return out

    monkeypatch.setattr(cartanframes.frames, "substitute", tracked)
    got = normalized_structure_equations(s.engine, s.state, eqs)
    assert len(pulled) == len(got.equations) == 8
    assert all(any(rhs is out for out in pulled) for rhs in got.equations.values())


def test_substitute_copies_the_words_it_does_not_touch(monkeypatch):
    """Only a word with a mapped symbol is re-wedged; the result equals the
    wedge-by-wedge oracle."""
    fc = _fresh_fc(2)
    jc = fc.jc
    a, b, c = (fc.one_form(fc.gen(n)) for n in "abc")
    x = jc.rvar(jc.x_var(0))
    form = a.wedge(b).scale(x) + b.wedge(c).scale(3)
    mapping = {fc.gen("c").sid: a.scale(2) + b}
    want = oracle_substitute(form, mapping)
    assert substitute(form, mapping) == want
    monkeypatch.setattr(ExteriorForm, "wedge", _fail)
    assert substitute(form, {}) == form
    assert substitute(form, {fc.gen("d").sid: a}) == form


def oracle_exterior_derivative(form, sym_rules, coeff_rule):
    """Graded Leibniz rule one wedge at a time: dc ^ word, then
    before ^ d(symbol) ^ after for each position, each added as a new form."""
    fc = form.fc
    out = fc.form()
    for word, c in form.terms.items():
        base = ExteriorForm(fc, {word: fc.jc.ratfn(1)})
        dc = coeff_rule(c)
        if not dc.is_zero():
            out = out + dc.wedge(base)
        for pos, sid in enumerate(word):
            rule = sym_rules(fc.by_id(sid))
            if rule.is_zero():
                continue
            before = ExteriorForm(fc, {tuple(word[:pos]): c if pos % 2 == 0 else -c})
            after = ExteriorForm(fc, {tuple(word[pos + 1 :]): fc.jc.ratfn(1)})
            out = out + before.wedge(rule).wedge(after)
    return out


D_FC = _fresh_fc(3)
D_SYMS = [D_FC.omega(0), D_FC.omega(1), D_FC.sigma(2)] + [D_FC.gen(n) for n in "abc"]
D_X = [D_FC.jc.x_var(i) for i in range(2)]


def _d_coeff(c):
    out = D_FC.form()
    for i, var in enumerate(D_X):
        out = out + D_FC.one_form(D_FC.omega(i), c.partial(var))
    return out


def d_forms(max_terms=4):
    """Forms over D_SYMS of mixed degree 0..3 whose coefficients are small
    polynomials in x, y, some divided by 1 + x^2."""
    ctx = D_FC.jc.ctx
    monomial = st.tuples(
        st.fractions(min_value=-3, max_value=3, max_denominator=2).filter(bool), st.integers(0, 2), st.integers(0, 2)
    ).map(lambda t: ctx.poly(t[0]) * ctx.poly_var(D_X[0], t[1]) * ctx.poly_var(D_X[1], t[2]))

    def coeff(monomials, divide):
        num = RatFn(sum(monomials, ctx.poly(0)), ctx.poly(1))
        return num / RatFn(ctx.poly(1) + ctx.poly_var(D_X[0], 2), ctx.poly(1)) if divide else num

    coeffs = st.builds(coeff, st.lists(monomial, min_size=1, max_size=3), st.booleans())
    term = st.tuples(coeffs, st.lists(st.sampled_from(D_SYMS), max_size=3, unique=True))

    def build(terms):
        out = D_FC.form()
        for c, syms in terms:
            piece = D_FC.scalar_form(c)
            for sym in syms:
                piece = piece.wedge(D_FC.one_form(sym))
            out = out + piece
        return out

    return st.lists(term, max_size=max_terms).map(build)


@given(d_forms(), st.lists(d_forms(3), min_size=len(D_SYMS), max_size=len(D_SYMS)))
@settings(max_examples=60, deadline=None)
def test_exterior_derivative_matches_the_wedge_by_wedge_oracle(form, rules):
    """Any form and any rules, of any degrees, inhomogeneous ones included:
    the same words with the same coefficients, in the same order."""
    by_sid = {sym.sid: rule for sym, rule in zip(D_SYMS, rules)}
    sym_rules = lambda sym: by_sid[sym.sid]
    got = exterior_derivative(form, sym_rules, _d_coeff)
    want = oracle_exterior_derivative(form, sym_rules, _d_coeff)
    assert list(got.terms.items()) == list(want.terms.items())
