"""Determining systems, prolongation, the lift, prolonged action and
infinitesimal generator prolongation."""

from fractions import Fraction

import pytest

from cartanframes.exact import RatFn, format_ratfn
from cartanframes.jets import JetContext, coord_u, coord_x, mi_up_to
from cartanframes.pseudogroup import (
    DeterminingSystem,
    InfinitesimalGenerator,
    identity_targets,
    lift_system,
    prolonged_action,
)
from conftest import load_problem
from lifting import relation_one_step, unlift
from substitution import subs_ratfn


@pytest.fixture(scope="module")
def contact():
    pf = load_problem("contact")
    jc, system, cs = pf.build()
    return pf, jc, system


def test_contact_prolongation_eta_pp(contact):
    pf, jc, system = contact
    system.prolong(2)
    p = jc.rvar(jc.x_var(2))
    rhs = system.relation((1, (0, 0, 2, 0)))
    assert rhs == {(0, (0, 0, 1, 0)): jc.ratfn(1), (0, (0, 0, 2, 0)): p}


def test_trivial_system_stays_trivial():
    pf = load_problem("empty")
    jc, system, cs = pf.build()
    system.prolong(3)
    assert not system.original
    assert len(system.basis_jets(1)) == 2 * 3  # two fields, multi-indices <= 1 over m=2


def test_point_adds_first_order_leads():
    pf = load_problem("point")
    jc, system, cs = pf.build()
    leads = set(system.original)
    assert (0, (0, 0, 1, 0)) in leads  # xi_p
    assert (1, (0, 0, 1, 0)) in leads  # eta_p
    contact = load_problem("contact").build()[1]
    assert (0, (0, 0, 1, 0)) not in contact.original


def test_projection_compatibility(contact):
    """Prolonging to order k and forgetting order-k relations equals
    prolonging to order k-1."""
    pf = load_problem("contact")
    jc, sys_hi, _ = pf.build()
    pf2 = load_problem("contact")
    jc2, sys_lo, _ = pf2.build()
    sys_hi.prolong(3)
    sys_lo.prolong(2)
    hi_keys = {k for k in sys_hi.solved_jets(2)}
    lo_keys = {k for k in sys_lo.solved_jets(2)}
    assert hi_keys == lo_keys
    for key in lo_keys:
        a = {k: format_ratfn(v) for k, v in sys_hi.relation(key).items()}
        b = {k: format_ratfn(v) for k, v in sys_lo.relation(key).items()}
        assert a == b


def test_formal_integrability_clean(contact):
    pf, jc, system = contact
    assert system.check_integrability(3) == []


def test_lift_contact_printed_relations(contact):
    """The four printed lifted relations of the contact system."""
    pf, jc, system = contact
    mc = lift_system(system)
    P = jc.rvar(jc.invariant_var(("x", 2)))
    Qi = jc.rvar(jc.invariant_var(("u", 0, (0, 0, 0))))
    one = jc.ratfn(1)
    assert mc.relation((0, (0, 0, 0, 1))) == {}
    assert mc.relation((1, (0, 0, 0, 1))) == {}
    assert mc.relation((2, (0, 0, 0, 1))) == {}
    # mu^u_P = P mu^x_P
    assert mc.relation((1, (0, 0, 1, 0))) == {(0, (0, 0, 1, 0)): P}
    # mu^p = mu^u_X + P(mu^u_U - mu^x_X) - P^2 mu^x_U
    assert mc.relation((2, (0, 0, 0, 0))) == {
        (1, (1, 0, 0, 0)): one,
        (1, (0, 1, 0, 0)): P,
        (0, (1, 0, 0, 0)): -P,
        (0, (0, 1, 0, 0)): -(P * P),
    }
    # mu^q = mu^p_X + P mu^p_U + Q mu^p_P - Q(mu^x_X + P mu^x_U + Q mu^x_P)
    assert relation_one_step(mc, (3, (0, 0, 0, 0))) == {
        (2, (1, 0, 0, 0)): one,
        (2, (0, 1, 0, 0)): P,
        (2, (0, 0, 1, 0)): Qi,
        (0, (1, 0, 0, 0)): -Qi,
        (0, (0, 1, 0, 0)): -(P * Qi),
        (0, (0, 0, 1, 0)): -(Qi * Qi),
    }


def test_lift_asprinted_variant():
    """The lift is a formal substitution: feeding the determining system as
    printed (plus sign on the p^2 term) reproduces the printed relation with
    the plus sign."""
    pf = load_problem("contact_asprinted")
    jc, system, cs = pf.build()
    mc = lift_system(system)
    P = jc.rvar(jc.invariant_var(("x", 2)))
    rel = mc.relation((2, (0, 0, 0, 0)))
    assert rel[(0, (0, 1, 0, 0))] == P * P


def test_point_basis_selection():
    pf = load_problem("point")
    jc, system, cs = pf.build()
    system.prolong(2)
    basis = system.basis_jets(2)
    for f, B in basis:
        assert f in (0, 1)  # only xi- and eta-jets stay basic
        assert B[2] == 0 and B[3] == 0  # jets in (x, u) only


def test_contact_basis_selection(contact):
    pf, jc, system = contact
    basis = system.basis_jets(1)
    names = {(f, B) for f, B in basis}
    assert (0, (0, 0, 1, 0)) in names  # xi_p stays basic for the contact group
    for f, B in basis:
        if f == 1:
            assert B[2] == 0 and B[3] == 0
        if f == 0:
            assert B[3] == 0


def test_lift_identity_substitution(contact):
    """Substituting Z -> z, mu -> zeta recovers the determining relation."""
    pf, jc, system = contact
    mc = lift_system(system)
    for lead in system.original:
        lhs, rhs = unlift(mc, lead, mc.relation(lead))
        expect = system.relation(lead)
        assert {k: format_ratfn(v) for k, v in rhs.items()} == {
            k: format_ratfn(v) for k, v in expect.items()
        }


def test_prolonged_action_identity():
    jc = JetContext(["x", "u"], ["q"])
    tx, tu = identity_targets(jc)
    act = prolonged_action(jc, tx, tu, 2)
    for J in mi_up_to(2, 2):
        assert act[("u", 0, J)] == jc.rvar(jc.u_var(0, J))


def test_prolonged_action_point_P_and_Q():
    jc = JetContext(["x"], ["u"])
    base = [coord_x(0), coord_u(0, (0,))]
    chi = jc.field("chi", base)
    psi = jc.field("psi", base)
    X = jc.rvar(jc.field_var(chi, (0, 0)))
    U = jc.rvar(jc.field_var(psi, (0, 0)))
    act = prolonged_action(jc, [X], [U], 2)
    dchi = jc.total_derivative(jc.pvar(jc.field_var(chi, (0, 0))), 0)
    dpsi = jc.total_derivative(jc.pvar(jc.field_var(psi, (0, 0))), 0)
    d2chi = jc.total_derivative(dchi, 0)
    d2psi = jc.total_derivative(dpsi, 0)
    assert act[("u", 0, (1,))] == RatFn(dpsi, dchi)
    assert act[("u", 0, (2,))] == RatFn(d2psi * dchi - dpsi * d2chi, dchi * dchi * dchi)


def test_prolonged_action_contact_Q():
    """Q = (beta_x + p beta_u + q beta_p)/(chi_x + p chi_u + q chi_p) when the
    first-order target is a field over (x, u, u_x)."""
    jc = JetContext(["x"], ["u"])
    base = [coord_x(0), coord_u(0, (0,)), coord_u(0, (1,))]
    chi = jc.field("chi", base)
    beta = jc.field("beta", base)
    X = jc.rvar(jc.field_var(chi, (0, 0, 0)))
    P = jc.rvar(jc.field_var(beta, (0, 0, 0)))
    act = prolonged_action(jc, [X], [P], 1)
    dchi = jc.total_derivative(jc.pvar(jc.field_var(chi, (0, 0, 0))), 0)
    dbeta = jc.total_derivative(jc.pvar(jc.field_var(beta, (0, 0, 0))), 0)
    assert act[("u", 0, (1,))] == RatFn(dbeta, dchi)


def test_characteristic_examples():
    jc = JetContext(["x"], ["u"])
    ux = jc.pvar(jc.u_var(0, (1,)))
    v_u = InfinitesimalGenerator(jc, [jc.poly(0)], [jc.poly(1)])
    assert v_u.characteristic()[0] == jc.poly(1)
    v_x = InfinitesimalGenerator(jc, [jc.poly(1)], [jc.poly(0)])
    assert v_x.characteristic()[0] == -ux
    base = [coord_x(0), coord_u(0, (0,))]
    xi = jc.pvar(jc.field_var(jc.field("xi", base), (0, 0)))
    eta = jc.pvar(jc.field_var(jc.field("eta", base), (0, 0)))
    v = InfinitesimalGenerator(jc, [xi], [eta])
    assert v.characteristic()[0] == eta - xi * ux


def test_prolong_generator_first_and_second_order():
    jc = JetContext(["x"], ["u"])
    base = [coord_x(0), coord_u(0, (0,))]
    fxi = jc.field("xi", base)
    feta = jc.field("eta", base)
    xi = jc.pvar(jc.field_var(fxi, (0, 0)))
    eta = jc.pvar(jc.field_var(feta, (0, 0)))
    v = InfinitesimalGenerator(jc, [xi], [eta])
    ux = jc.pvar(jc.u_var(0, (1,)))
    uxx = jc.pvar(jc.u_var(0, (2,)))
    eta_x = jc.pvar(jc.field_var(feta, (1, 0)))
    eta_u = jc.pvar(jc.field_var(feta, (0, 1)))
    xi_x = jc.pvar(jc.field_var(fxi, (1, 0)))
    xi_u = jc.pvar(jc.field_var(fxi, (0, 1)))
    phi1 = eta_x + (eta_u - xi_x) * ux - xi_u * ux * ux
    assert v.prolong(0, (1,)) == phi1
    # classical recursion phi^(2) = D_x phi^(1) - u_xx D_x xi
    dphi1 = jc.total_derivative(phi1, 0)
    dxi = jc.total_derivative(xi, 0)
    assert v.prolong(0, (2,)) == dphi1 - uxx * dxi


def test_prolong_generator_scaling():
    jc = JetContext(["x"], ["u"])
    ux = jc.pvar(jc.u_var(0, (1,)))
    v = InfinitesimalGenerator(jc, [jc.pvar(jc.x_var(0))], [jc.poly(0)])
    assert v.prolong(0, (1,)) == -ux


def _flow_prolong(jc, chi_val, psi_val, J, eps):
    """Epsilon-derivative at 0 of the prolonged action of an explicit flow,
    with the flow substituted into the targets before prolonging."""
    act = prolonged_action(jc, [RatFn(chi_val, jc.poly(1))], [RatFn(psi_val, jc.poly(1))], sum(J))
    value = act[("u", 0, J)]
    num = value.num.partial(eps) * value.den - value.num * value.den.partial(eps)
    return subs_ratfn(RatFn(num, value.den * value.den), {eps.vid: 0})


@pytest.mark.parametrize("order", [1, 2, 3])
def test_prolong_generator_vs_flow_oracle(order):
    """Five concrete flows, prolonged up to order 3: the epsilon-derivative of
    the explicit prolonged action equals the symbolic prolongation coefficient."""
    jc = JetContext(["x"], ["u"])
    eps = jc.ctx.variable("eps")
    pe = jc.pvar(eps)
    xv = jc.pvar(jc.x_var(0))
    uv = jc.pvar(jc.u_var(0, (0,)))
    one, zero = jc.poly(1), jc.poly(0)
    flows = [
        (xv + pe, uv, [one, zero]),                # d/dx
        (xv, uv + pe, [zero, one]),                # d/du
        (xv + pe * xv, uv, [xv, zero]),            # x d/dx
        (xv, uv + pe * uv, [zero, uv]),            # u d/du
        (xv, uv + pe * xv, [zero, xv]),            # x d/du
    ]
    J = (order,)
    for chi_val, psi_val, (xi, eta) in flows:
        lhs = _flow_prolong(jc, chi_val, psi_val, J, eps)
        v = InfinitesimalGenerator(jc, [xi], [eta])
        assert lhs == RatFn(v.prolong(0, J), jc.poly(1))
