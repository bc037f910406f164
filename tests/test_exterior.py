"""Wedge algebra, exterior derivative, diffeomorphism structure equations and
restriction to a pseudo-group."""

from fractions import Fraction

import pytest

from cartanframes.exact import ExactError
from cartanframes.exterior import (
    EquationSet,
    FormContext,
    diffeo_structure_equations,
    exterior_derivative,
    restrict_to_pseudogroup,
    substitute,
)
from cartanframes.jets import JetContext
from cartanframes.pseudogroup import lift_system
from conftest import diffeo_system, load_problem


@pytest.fixture()
def fc2():
    jc = JetContext(["x", "u"], ["w"])
    fc = FormContext(jc)
    fc.mc_names[0] = "mu"
    fc.mc_names[1] = "nu"
    return fc


def test_scalar_form_accepts_int_and_fraction(fc2):
    jc = fc2.jc
    assert fc2.scalar_form(3).terms == {(): jc.ratfn(3)}
    assert fc2.scalar_form(Fraction(1, 2)).terms == {(): jc.ratfn(1) / jc.ratfn(2)}
    assert fc2.scalar_form(0).is_zero()
    assert fc2.scalar_form(Fraction(0)).is_zero()


def test_wedge_antisymmetry(fc2):
    a = fc2.one_form(fc2.gen("a"))
    b = fc2.one_form(fc2.gen("b"))
    assert a.wedge(a).is_zero()
    assert a.wedge(b) == -(b.wedge(a))


def test_wedge_associative(fc2):
    a, b, c = (fc2.one_form(fc2.gen(n)) for n in "abc")
    assert a.wedge(b).wedge(c) == a.wedge(b.wedge(c))


def test_leibniz_rule(fc2):
    jc = fc2.jc
    x = jc.rvar(jc.x_var(0))
    w = fc2.gen("w")
    dx = fc2.gen("dx")

    def rules(sym):
        return fc2.form()  # dw = 0, d(dx) = 0

    def dcoeff(c):
        # d of a scalar in x only: (dc/dx) dx
        var = jc.x_var(0)
        dn = c.num.partial(var) * c.den - c.num * c.den.partial(var)
        from cartanframes.exact import RatFn

        return fc2.one_form(dx, RatFn(dn, c.den * c.den))

    form = fc2.one_form(w, x)
    d = exterior_derivative(form, rules, dcoeff)
    assert d == fc2.one_form(dx).wedge(fc2.one_form(w))


def test_d_squared_on_scalars(fc2):
    """d(d f) = 0 for a jet polynomial with coordinate differentials."""
    jc = fc2.jc
    x = jc.rvar(jc.x_var(0))
    u = jc.rvar(jc.x_var(1))
    f = x * x * u + u * u
    dx, du = fc2.gen("dx"), fc2.gen("du")

    def dcoeff(c):
        from cartanframes.exact import RatFn

        out = fc2.form()
        for var, sym in ((jc.x_var(0), dx), (jc.x_var(1), du)):
            dn = c.num.partial(var) * c.den - c.num * c.den.partial(var)
            out = out + fc2.one_form(sym, RatFn(dn, c.den * c.den))
        return out

    def rules(sym):
        return fc2.form()

    df = dcoeff(f)
    assert exterior_derivative(df, rules, dcoeff).is_zero()


def test_missing_rule_raises(fc2):
    w = fc2.one_form(fc2.gen("w"))

    def rules(sym):
        return None

    with pytest.raises(ExactError):
        exterior_derivative(w, rules, lambda c: fc2.form())


def test_diffeo_structure_equations_m2_printed_lines(fc2):
    """The printed planar diffeomorphism structure equations, term for term.

    The d(nu_UU) line is derived with mu_U where one printed display shows
    nu_U; the displayed eight-dimensional normalized equations confirm mu_U.
    """
    eqs = diffeo_structure_equations(fc2, diffeo_system(fc2.jc, 2), 4)
    mc = fc2.mc
    f1 = fc2.one_form
    sx, su = fc2.sigma(0), fc2.sigma(1)
    mu, nu = mc(0, (0, 0)), mc(1, (0, 0))
    muX, muU = mc(0, (1, 0)), mc(0, (0, 1))
    nuX, nuU = mc(1, (1, 0)), mc(1, (0, 1))
    muXX, muXU, muUU = mc(0, (2, 0)), mc(0, (1, 1)), mc(0, (0, 2))
    nuXX, nuXU, nuUU = mc(1, (2, 0)), mc(1, (1, 1)), mc(1, (0, 2))
    nuXXU, nuXUU, nuUUU = mc(1, (2, 1)), mc(1, (1, 2)), mc(1, (0, 3))
    assert eqs.get(mu) == f1(sx).wedge(f1(muX)) + f1(su).wedge(f1(muU))
    assert eqs.get(muX) == f1(sx).wedge(f1(muXX)) + f1(su).wedge(f1(muXU)) + f1(muU).wedge(f1(nuX))
    assert eqs.get(muU) == (
        f1(sx).wedge(f1(muXU)) + f1(su).wedge(f1(muUU)) + f1(muX).wedge(f1(muU)) + f1(muU).wedge(f1(nuU))
    )
    assert eqs.get(nu) == f1(sx).wedge(f1(nuX)) + f1(su).wedge(f1(nuU))
    assert eqs.get(nuX) == (
        f1(sx).wedge(f1(nuXX)) + f1(su).wedge(f1(nuXU)) + f1(nuX).wedge(f1(muX)) + f1(nuU).wedge(f1(nuX))
    )
    assert eqs.get(nuU) == f1(sx).wedge(f1(nuXU)) + f1(su).wedge(f1(nuUU)) + f1(nuX).wedge(f1(muU))
    assert eqs.get(nuUU) == (
        f1(sx).wedge(f1(nuXUU))
        + f1(su).wedge(f1(nuUUU))
        + f1(nuXU).wedge(f1(muU)).scale(2)
        + f1(nuX).wedge(f1(muUU))
        + f1(nuUU).wedge(f1(nuU))
    )
    assert eqs.get(nuXU) == (
        f1(sx).wedge(f1(nuXXU))
        + f1(su).wedge(f1(nuXUU))
        + f1(nuXU).wedge(f1(muX))
        + f1(nuXX).wedge(f1(muU))
        + f1(nuX).wedge(f1(muXU))
        + f1(nuUU).wedge(f1(nuX))
    )


def test_diffeo_sigma_equation(fc2):
    eqs = diffeo_structure_equations(fc2, diffeo_system(fc2.jc, 2), 1)
    f1 = fc2.one_form
    expect = f1(fc2.mc(0, (1, 0))).wedge(f1(fc2.sigma(0))) + f1(fc2.mc(0, (0, 1))).wedge(f1(fc2.sigma(1)))
    assert eqs.get(fc2.sigma(0)) == expect


def test_diffeo_d_squared():
    """d^2 = 0 for the diffeomorphism equations using dZ^a = sigma^a + mu^a."""
    jc = JetContext(["x", "u"], ["w"])
    fc = FormContext(jc)
    eqs = diffeo_structure_equations(fc, diffeo_system(jc, 2), 3)
    failures, audited, skipped = eqs.d_squared_audit(lambda c: fc.form())
    assert failures == []
    # d(mu_B) with #B = 2 mentions order-3 forms, which carry no equation
    assert {s.sid for s in skipped} == {s.sid for s, _ in eqs.items() if s.kind == "mc" and s.index[1] == 2}
    assert len(audited) + len(skipped) == len(eqs.equations)


def _contact_restricted(order):
    pf = load_problem("contact")
    jc, system, cs = pf.build()
    mc = lift_system(system)
    from cartanframes.exterior import FormContext

    fc = FormContext(jc)
    fc.mc_names[0] = "mu"
    fc.mc_names[1] = "nu"
    eqs = diffeo_structure_equations(fc, system, order)
    return fc, jc, mc, restrict_to_pseudogroup(eqs, mc)


def test_restrict_contact_horizontal_equations():
    """The four horizontal structure equations of the contact group.

    d(sigma^x) and d(sigma^u) match the printed display term for term.  The
    P-dependent parts of d(sigma^p) follow the engine's determining system,
    whose prolongation coefficient carries -p^2 xi_u (the displayed plus sign
    belongs to the as-printed variant; on every cross-section used downstream,
    where P = 0, the two agree).  The printed sigma^p coefficient also
    contains the unsimplified subterm P(2mu_U + mu_XP) + P(2P mu_UP - mu_XP);
    the engine emits the reduced form.
    """
    fc, jc, mc, restricted = _contact_restricted(2)
    f1 = fc.one_form
    P = jc.rvar(jc.invariant_var(("x", 2)))
    mu = lambda B: f1(fc.mc(0, B))
    nu = lambda B: f1(fc.mc(1, B))
    sx, su, sp, sq = (fc.sigma(a) for a in range(4))
    got_x = restricted.get(fc.sigma(0))
    assert got_x == mu((1, 0, 0, 0)).wedge(f1(sx)) + mu((0, 1, 0, 0)).wedge(f1(su)) + mu((0, 0, 1, 0)).wedge(f1(sp))
    got_u = restricted.get(fc.sigma(1))
    assert got_u == (
        nu((1, 0, 0, 0)).wedge(f1(sx))
        + nu((0, 1, 0, 0)).wedge(f1(su))
        + mu((0, 0, 1, 0)).scale(P).wedge(f1(sp))
    )
    got_p = restricted.get(fc.sigma(2))
    cx = nu((2, 0, 0, 0)) + (nu((1, 1, 0, 0)) - mu((2, 0, 0, 0))).scale(P) - mu((1, 1, 0, 0)).scale(P * P)
    cu = nu((1, 1, 0, 0)) + (nu((0, 2, 0, 0)) - mu((1, 1, 0, 0))).scale(P) - mu((0, 2, 0, 0)).scale(P * P)
    cp = nu((0, 1, 0, 0)) - mu((1, 0, 0, 0)) - mu((0, 1, 0, 0)).scale(2 * P)
    assert got_p == cx.wedge(f1(sx)) + cu.wedge(f1(su)) + cp.wedge(f1(sp))
    assert restricted.get(fc.sigma(3)) is not None


def test_restrict_idempotent():
    fc, jc, mc, restricted = _contact_restricted(2)
    again = restrict_to_pseudogroup(restricted, mc)
    assert {s.sid for s, _ in again.items()} == {s.sid for s, _ in restricted.items()}
    for sym, rhs in restricted.items():
        assert again.get(sym) == rhs


def test_restrict_trivial_system_is_identity():
    pf = load_problem("empty")
    jc, system, cs = pf.build()
    mc = lift_system(system)
    fc = FormContext(jc)
    eqs = diffeo_structure_equations(fc, system, 1)
    restricted = restrict_to_pseudogroup(eqs, mc)
    for sym, rhs in eqs.items():
        assert restricted.get(sym) == rhs


def dangling_symbols(eqs):
    """Symbols that a right side mentions without an equation."""
    seen = set().union(*(rhs.symbols() for rhs in eqs.equations.values()))
    return [eqs.fc.by_id(sid) for sid in sorted(seen - eqs.equations.keys())]


def test_equation_set_closure_reporting(fc2):
    eqs = EquationSet(fc2)
    w = fc2.gen("w")
    other = fc2.gen("other")
    eqs.set(w, fc2.one_form(other).wedge(fc2.one_form(w)))
    assert [s.name for s in dangling_symbols(eqs)] == ["other"]
    assert not eqs.closed(eqs.get(w))
    eqs.set(other, fc2.form())
    assert dangling_symbols(eqs) == [] and eqs.closed(eqs.get(w))


def test_point_restriction_equals_contact_with_mu_p_dropped():
    """Restricting by the point system equals the contact restriction with the
    mu^x_P family set to zero, on the horizontal block."""
    from cartanframes.exterior import substitute

    fc_c, jc_c, mc_c, contact = _contact_restricted(2)

    pf = load_problem("point")
    jc, system, cs = pf.build()
    mc_p = lift_system(system)
    fc_p = FormContext(jc)
    fc_p.mc_names[0] = "mu"
    fc_p.mc_names[1] = "nu"
    eqs = diffeo_structure_equations(fc_p, system, 2)
    point = restrict_to_pseudogroup(eqs, mc_p)

    def drop_mu_p(form, fc):
        zero = {}
        for sid in form.symbols():
            sym = fc.by_id(sid)
            if sym.kind == "mc" and sym.index[0] == 0 and sym.index[2][2] > 0:
                zero[sid] = fc.form()
        return substitute(form, zero)

    for a in range(3):
        lhs = drop_mu_p(contact.get(fc_c.sigma(a)), fc_c)
        rhs = point.get(fc_p.sigma(a))
        # compare through canonical printing (the two form contexts share the
        # same symbol names for the surviving forms)
        assert lhs.pretty() == rhs.pretty()
