"""Acceptance suite: every release criterion as a test, one pass/fail line per
criterion on stdout.  All symbolic comparisons are exact (tolerance zero);
the numeric signature comparator uses its documented default tolerance.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
"""

import random
from fractions import Fraction

import pytest

from cartanframes.frames import classify_ode, determining_annihilator, isotropy_annihilator, oracle_classify_ode
from cartanframes.involution import (
    SPoly,
    TPoly,
    annihilator_dimension_check,
    cartan_characters,
    cartan_test,
    groebner_module,
    groebner_reduce,
    indices,
    membership_by_linear_algebra,
    t_homogeneous_component,
)
from cartanframes.jets import JetContext
from conftest import diffeo_system, session
from isotropy import frame_annihilator_full, pstar_basis

Q = Fraction
PASS_LINES = []


def _record(criterion, ok, detail=""):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}" + (f" ({detail})" if detail else "")
    PASS_LINES.append(line)
    print(line)
    assert ok, line


# -- criterion 1: lift fidelity ---------------------------------------------------------


def test_criterion_1_lift_fidelity():
    from cartanframes.pseudogroup import lift_system
    from conftest import load_problem
    from lifting import relation_one_step

    ok = True
    # contact relations, as printed (formal substitution of the as-printed system)
    pf = load_problem("contact_asprinted")
    jc, system, cs = pf.build()
    mc = lift_system(system)
    P = jc.rvar(jc.invariant_var(("x", 2)))
    Qv = jc.rvar(jc.invariant_var(("u", 0, (0, 0, 0))))
    one = jc.ratfn(1)
    ok &= mc.relation((0, (0, 0, 0, 1))) == {}
    ok &= mc.relation((1, (0, 0, 0, 1))) == {}
    ok &= mc.relation((2, (0, 0, 0, 1))) == {}
    ok &= mc.relation((1, (0, 0, 1, 0))) == {(0, (0, 0, 1, 0)): P}
    ok &= mc.relation((2, (0, 0, 0, 0))) == {
        (1, (1, 0, 0, 0)): one,
        (1, (0, 1, 0, 0)): P,
        (0, (1, 0, 0, 0)): -P,
        (0, (0, 1, 0, 0)): P * P,
    }
    ok &= relation_one_step(mc, (3, (0, 0, 0, 0))) == {
        (2, (1, 0, 0, 0)): one,
        (2, (0, 1, 0, 0)): P,
        (2, (0, 0, 1, 0)): Qv,
        (0, (1, 0, 0, 0)): -Qv,
        (0, (0, 1, 0, 0)): -(P * Qv),
        (0, (0, 0, 1, 0)): -(Qv * Qv),
    }
    # point relations include mu^x_P = mu^u_P = 0
    pf2 = load_problem("point")
    jc2, system2, _ = pf2.build()
    mc2 = lift_system(system2)
    ok &= mc2.relation((0, (0, 0, 1, 0))) == {}
    ok &= mc2.relation((1, (0, 0, 1, 0))) == {}
    _record(1, ok, "lift of contact and point determining systems")


# -- criterion 2: diffeomorphism structure equations -------------------------------------


def test_criterion_2_diffeo_structure_equations():
    from cartanframes.exterior import FormContext, diffeo_structure_equations
    from cartanframes.jets import JetContext

    jc = JetContext(["x", "u"], ["w"])
    fc = FormContext(jc)
    eqs = diffeo_structure_equations(fc, diffeo_system(jc, 2), 4)
    mc, f1 = fc.mc, fc.one_form
    sx, su = fc.sigma(0), fc.sigma(1)
    checks = {
        "dmu_X": (
            mc(0, (1, 0)),
            f1(sx).wedge(f1(mc(0, (2, 0)))) + f1(su).wedge(f1(mc(0, (1, 1)))) + f1(mc(0, (0, 1))).wedge(f1(mc(1, (1, 0)))),
        ),
        "dmu_U": (
            mc(0, (0, 1)),
            f1(sx).wedge(f1(mc(0, (1, 1)))) + f1(su).wedge(f1(mc(0, (0, 2)))) + f1(mc(0, (1, 0))).wedge(f1(mc(0, (0, 1)))) + f1(mc(0, (0, 1))).wedge(f1(mc(1, (0, 1)))),
        ),
        "dnu_X": (
            mc(1, (1, 0)),
            f1(sx).wedge(f1(mc(1, (2, 0)))) + f1(su).wedge(f1(mc(1, (1, 1)))) + f1(mc(1, (1, 0))).wedge(f1(mc(0, (1, 0)))) + f1(mc(1, (0, 1))).wedge(f1(mc(1, (1, 0)))),
        ),
        "dnu_U": (
            mc(1, (0, 1)),
            f1(sx).wedge(f1(mc(1, (1, 1)))) + f1(su).wedge(f1(mc(1, (0, 2)))) + f1(mc(1, (1, 0))).wedge(f1(mc(0, (0, 1)))),
        ),
        "dnu_UU": (
            mc(1, (0, 2)),
            f1(sx).wedge(f1(mc(1, (1, 2)))) + f1(su).wedge(f1(mc(1, (0, 3)))) + f1(mc(1, (1, 1))).wedge(f1(mc(0, (0, 1)))).scale(2) + f1(mc(1, (1, 0))).wedge(f1(mc(0, (0, 2)))) + f1(mc(1, (0, 2))).wedge(f1(mc(1, (0, 1)))),
        ),
        "dnu_XU": (
            mc(1, (1, 1)),
            f1(sx).wedge(f1(mc(1, (2, 1)))) + f1(su).wedge(f1(mc(1, (1, 2)))) + f1(mc(1, (1, 1))).wedge(f1(mc(0, (1, 0)))) + f1(mc(1, (2, 0))).wedge(f1(mc(0, (0, 1)))) + f1(mc(1, (1, 0))).wedge(f1(mc(0, (1, 1)))) + f1(mc(1, (0, 2))).wedge(f1(mc(1, (1, 0)))),
        ),
    }
    ok = all(eqs.get(sym) == want for sym, want in checks.values())
    _record(2, ok, "six printed planar diffeomorphism lines, term for term")


# -- criterion 3: recurrence fidelity -----------------------------------------------------


def test_criterion_3_recurrence_fidelity(point_universal):
    from cartanframes.pseudogroup import lift_system

    fr = point_universal
    s = session("point")
    jc, raw = s.jc, s.raw_engine
    fc = raw.fc
    P = jc.rvar(jc.invariant_var(("x", 2)))
    w = lambda i: fc.one_form(fc.omega(i))
    m = lambda f, B: fc.one_form(fc.mc(f, B))
    ok = raw.recurrence(("x", 0)) == w(0) + m(0, (0, 0, 0, 0))
    ok &= raw.recurrence(("x", 1)) == w(1) + m(1, (0, 0, 0, 0))
    # engine output is the reference for the nu_Y token: P(nu_U - mu_X)
    ok &= raw.recurrence(("x", 2)) == (
        w(2)
        + m(1, (1, 0, 0, 0))
        + (m(1, (0, 1, 0, 0)) - m(0, (1, 0, 0, 0))).scale(P)
        - m(0, (0, 1, 0, 0)).scale(P * P)
    )

    # dQ_P4 group part Q_P4 (2 mu_X - 3 nu_U) at the universal frame
    def inv(i, j, k):
        return fr.jc.rvar(fr.jc.invariant_var(("u", 0, (i, j, k))))

    wf = lambda i: fr.fc.one_form(fr.fc.omega(i))
    mf = lambda f, B: fr.fc.one_form(fr.fc.mc(f, B))
    rec = fr.engine.reduced_recurrence(("u", 0, (0, 0, 4)), fr.state)
    want = (
        wf(0).scale(inv(1, 0, 4)) + wf(1).scale(inv(0, 1, 4)) + wf(2).scale(inv(0, 0, 5))
        + (mf(0, (1, 0, 0, 0)).scale(2) - mf(1, (0, 1, 0, 0)).scale(3)).scale(inv(0, 0, 4))
    )
    ok &= rec == want
    # the remaining fourth/fifth order relations are asserted term-for-term in
    # test_frames_point.test_order45_recurrence_display
    _record(3, ok, "order-0 relations and dQ_P4 group part; nu_Y read as nu_U")


# -- criterion 4: normalization fidelity ---------------------------------------------------


def test_criterion_4_normalization(point_order0, point_branch4, contact_frame):
    ok = True
    fr = point_order0
    w = lambda i: fr.fc.one_form(fr.fc.omega(i))
    st = fr.state
    ok &= st.resolved[(0, (0, 0, 0, 0))] == -w(0)
    ok &= st.resolved[(1, (0, 0, 0, 0))] == -w(1)
    ok &= st.resolved[(1, (1, 0, 0, 0))] == -w(2)
    inv = lambda c: fr.jc.rvar(fr.jc.invariant_var(("u", 0, c)))
    ok &= st.resolved[(1, (2, 0, 0, 0))] == -(
        w(0).scale(inv((1, 0, 0))) + w(1).scale(inv((0, 1, 0))) + w(2).scale(inv((0, 0, 1)))
    )
    ok &= point_branch4.state.residual_keys(3) == [
        (0, (1, 0, 0, 0)),
        (0, (0, 1, 0, 0)),
        (1, (0, 1, 0, 0)),
        (1, (1, 1, 0, 0)),
        (1, (0, 2, 0, 0)),
    ]
    cf = contact_frame
    wc = lambda i: cf.fc.one_form(cf.fc.omega(i))
    ok &= cf.state.mu_value((0, (0, 0, 0, 0))) == -wc(0)
    ok &= cf.state.mu_value((1, (0, 0, 0, 0))) == -wc(1)
    ok &= cf.state.mu_value((2, (0, 0, 0, 0))) == -wc(2)
    for B in [(0, 0, 0, 0), (1, 0, 0, 0), (2, 0, 0, 0), (1, 1, 0, 0)]:
        key = (3, B) if B == (0, 0, 0, 0) else (2, B)
        ok &= cf.state.mu_value(key).is_zero()
    _record(4, ok, "order-0 point frame, branch-IV residual set, contact frame")


# -- criterion 5: coframe structure equations ----------------------------------------------


def test_criterion_5_coframe_equations(point_branch1, point_branch4, contact_frame):
    ok = True
    fr = point_branch1
    fc = fr.fc
    w = lambda i: fc.one_form(fc.omega(i))
    inv = lambda c: fr.jc.rvar(fr.jc.invariant_var(("u", 0, c)))
    e38 = Q(3, 8)
    ok &= fr.coframe.get(fc.omega(0)) == (
        -(w(0).wedge(w(1)).scale(inv((2, 1, 2)) * e38 + inv((1, 0, 5)) * Q(1, 5)))
        - w(0).wedge(w(2)).scale(inv((2, 0, 3)) * e38)
        + w(1).wedge(w(2)).scale(inv((0, 0, 6)) * Q(1, 5))
    )
    ok &= fr.coframe.get(fc.omega(1)) == (
        w(0).wedge(w(1)).scale(inv((3, 0, 2)) * Q(1, 4))
        + w(0).wedge(w(2))
        - w(1).wedge(w(2)).scale(inv((2, 0, 3)) * Q(1, 4))
    )
    ok &= fr.coframe.get(fc.omega(2)) == (
        -(w(0).wedge(w(1)).scale(inv((2, 0, 4))))
        - w(0).wedge(w(2)).scale(inv((3, 0, 2)) * Q(1, 8))
        + w(1).wedge(w(2)).scale(inv((1, 0, 5)) - inv((2, 1, 2)) * Q(1, 8))
    )
    # branch IV: eight-equation display
    fr4 = point_branch4
    fc4 = fr4.fc
    w4 = lambda i: fc4.one_form(fc4.omega(i))
    mcf = lambda f, B: fc4.one_form(fc4.mc(f, B))
    mu_X, mu_U = mcf(0, (1, 0, 0, 0)), mcf(0, (0, 1, 0, 0))
    nu_U, nu_XU, nu_UU = mcf(1, (0, 1, 0, 0)), mcf(1, (1, 1, 0, 0)), mcf(1, (0, 2, 0, 0))
    half = Q(1, 2)
    eq4 = lambda sym: fr4.coframe.get(sym)
    ok &= eq4(fc4.omega(0)) == mu_X.wedge(w4(0)) + mu_U.wedge(w4(1))
    ok &= eq4(fc4.omega(1)) == nu_U.wedge(w4(1)) + w4(0).wedge(w4(2))
    ok &= eq4(fc4.omega(2)) == nu_XU.wedge(w4(1)) + nu_U.wedge(w4(2)) - mu_X.wedge(w4(2))
    ok &= eq4(fc4.mc(0, (0, 1, 0, 0))) == w4(0).wedge(nu_UU).scale(half) - mu_U.wedge(mu_X) + mu_U.wedge(nu_U)
    ok &= eq4(fc4.mc(1, (0, 1, 0, 0))) == w4(0).wedge(nu_XU) + w4(1).wedge(nu_UU) - w4(2).wedge(mu_U)
    ok &= eq4(fc4.mc(0, (1, 0, 0, 0))) == (
        w4(0).wedge(nu_XU).scale(2) + w4(1).wedge(nu_UU).scale(half) + w4(2).wedge(mu_U)
    )
    ok &= eq4(fc4.mc(1, (0, 2, 0, 0))) == -(mu_U.wedge(nu_XU).scale(2)) - nu_U.wedge(nu_UU)
    ok &= eq4(fc4.mc(1, (1, 1, 0, 0))) == w4(2).wedge(nu_UU).scale(half) - mu_X.wedge(nu_XU)
    # contact: involutive display
    cf = contact_frame
    fcc = cf.fc
    wc = lambda i: fcc.one_form(fcc.omega(i))
    e4 = lambda i: tuple(1 if k == i else 0 for k in range(4))
    mu_xX, mu_xU, mu_xP = (fcc.one_form(fcc.mc(0, e4(i))) for i in range(3))
    mu_uU = fcc.one_form(fcc.mc(1, e4(1)))
    mu_uXU = fcc.one_form(fcc.mc(1, (1, 1, 0, 0)))
    ok &= cf.coframe.get(fcc.omega(0)) == mu_xX.wedge(wc(0)) + mu_xU.wedge(wc(1)) + mu_xP.wedge(wc(2))
    ok &= cf.coframe.get(fcc.omega(1)) == mu_uU.wedge(wc(1)) + wc(0).wedge(wc(2))
    ok &= cf.coframe.get(fcc.omega(2)) == mu_uXU.wedge(wc(1)) + mu_uU.wedge(wc(2)) - mu_xX.wedge(wc(2))
    _record(5, ok, "branch I (3/8 coefficient), branch IV SL(3) display, contact display")


# -- criterion 6: involutivity numbers -------------------------------------------------------


def test_criterion_6_involutivity_numbers(contact_frame):
    ok = True
    polys = isotropy_annihilator(contact_frame.engine, 1)
    gens = t_homogeneous_component(polys, 4, 1)
    priority = [1, 2, 0, 3]
    beta = indices(gens, 1, priority)
    report = cartan_test(gens, 1, priority)
    ok &= beta == {4: 4, 3: 3, 2: 1, 1: 0}
    ok &= report["rank_next"] == 27 and report["involutive"]

    def T3(B, a, c=1):
        return TPoly(3, {(tuple(B), a): Q(c)})

    e3 = lambda i: tuple(1 if k == i else 0 for k in range(3))
    case1 = [T3(e3(1), 1) + T3(e3(0), 0), T3(e3(2), 1), T3(e3(2), 0), T3(e3(2), 2)]
    b1 = indices(case1, 1, [0, 1, 2])
    r1 = cartan_test(case1, 1, [0, 1, 2])
    a1, _ = cartan_characters(b1, 3, 1)
    ok &= b1 == {1: 0, 2: 1, 3: 3} and r1["rank_next"] == 11 and r1["involutive"]
    ok &= (a1[1], a1[2], a1[3]) == (3, 2, 0)
    case21 = [T3(e3(1), 1), T3(e3(2), 1), T3(e3(2), 0), T3(e3(2), 2), T3(e3(0), 0), T3(e3(1), 0)]
    b2 = indices(case21, 1, [0, 1, 2])
    r2 = cartan_test(case21, 1, [0, 1, 2])
    a2, _ = cartan_characters(b2, 3, 1)
    ok &= b2 == {1: 1, 2: 2, 3: 3} and r2["rank_next"] == 14 and r2["involutive"]
    ok &= (a2[1], a2[2], a2[3]) == (2, 1, 0)
    _record(6, ok, "contact beta (4,3,1,0) rank 27; cases (0,1,3)/11 and (1,2,3)/14 under m=3")


# -- criterion 7: syzygy derivation -----------------------------------------------------------


def test_criterion_7_syzygies(point_branch1, point_universal):
    ok = True
    for fr in (point_universal,):
        rec_p4 = fr.engine.reduced_recurrence(("u", 0, (0, 0, 4)), fr.state)
        rec_p2x2 = fr.engine.reduced_recurrence(("u", 0, (2, 0, 2)), fr.state)
        qp4x = fr.jc.rvar(fr.jc.invariant_var(("u", 0, (1, 0, 4))))
        qp3x2 = fr.jc.rvar(fr.jc.invariant_var(("u", 0, (2, 0, 3))))
        ok &= rec_p4.coefficient((fr.fc.omega(0).sid,)) == qp4x
        ok &= rec_p2x2.coefficient((fr.fc.omega(2).sid,)) == qp3x2
    # branch-I d^2 audit validates the same identities inside the coframe set
    failures, audited, skipped = point_branch1.engine.audit_d_squared(
        point_branch1.state, point_branch1.coframe, 6
    )
    ok &= failures == [] and len(audited) == 3
    _record(7, ok, "Q_P3X2 = D_P Q_P2X2 and Q_P4X = D_X Q_P4 from the engine's recurrences")


# -- criterion 8: classifier ------------------------------------------------------------------


def test_criterion_8_classifier():
    jc = JetContext(["x", "u", "p"], ["q"])
    x = jc.rvar(jc.x_var(0))
    u = jc.rvar(jc.x_var(1))
    p = jc.rvar(jc.x_var(2))
    ok = classify_ode(jc, jc.ratfn(0))[0] == "IV"
    ok &= classify_ode(jc, p * p)[0] == "IV"
    fixed = [
        jc.ratfn(0), p * p, p * p * p, p * p * p * p, u * u * u,
        x * p + u, p * p * p * p + u, u * p, x * x * u + p, p * p * p * p * p + x,
    ]
    for F in fixed:
        ok &= classify_ode(jc, F)[0] == oracle_classify_ode(jc, F)[0]
    _record(8, ok, "F=0 and F=p^2 branch IV; 10-polynomial oracle agreement")


# -- criterion 9: property suites --------------------------------------------------------------


def test_criterion_9_property_suites(point_universal, point_branch1, point_branch4, contact_frame, pj_frame):
    ok = True
    # d^2 = 0 audits on every produced equation set
    for fr, order, expected in (
        (point_universal, 6, 8),
        (point_branch1, 6, 3),
        (point_branch4, 6, 8),
        (pj_frame, 3, 3),
    ):
        failures, audited, skipped = fr.engine.audit_d_squared(fr.state, fr.coframe, order)
        ok &= failures == [] and len(audited) == expected
    # total-derivative commutativity
    jc = JetContext(["x", "u"], ["q"])
    f = jc.pvar(jc.u_var(0, (1, 2))) * jc.pvar(jc.x_var(0)) + jc.pvar(jc.u_var(0, (0, 0))) ** 3
    ok &= jc.total_derivative(jc.total_derivative(f, 0), 1) == jc.total_derivative(
        jc.total_derivative(f, 1), 0
    )
    # prolong_generator vs one-parameter flow oracle: asserted for five flows to
    # order 3 in test_pseudogroup; re-check one case here
    from test_pseudogroup import _flow_prolong
    from cartanframes.pseudogroup import InfinitesimalGenerator
    from cartanframes.exact import RatFn

    jc1 = JetContext(["x"], ["u"])
    eps = jc1.ctx.variable("eps")
    pe = jc1.pvar(eps)
    xv = jc1.pvar(jc1.x_var(0))
    uv = jc1.pvar(jc1.u_var(0, (0,)))
    lhs = _flow_prolong(jc1, xv + pe * xv, uv, (3,), eps)
    v = InfinitesimalGenerator(jc1, [xv], [jc1.poly(0)])
    ok &= lhs == RatFn(v.prolong(0, (3,)), jc1.poly(1))
    # Groebner membership vs linear-algebra oracle, 50 randomized instances
    rng = random.Random(20130405)
    checked = 0
    for _ in range(50):
        terms = {}
        for _k in range(rng.randint(1, 3)):
            J = (rng.randint(0, 2), rng.randint(0, 2))
            if sum(J) > 2:
                continue
            terms[(J, 0)] = Q(rng.randint(-3, 3))
        g1 = SPoly(2, 1, {}, {k: v for k, v in terms.items() if v})
        g2 = SPoly(2, 1, {}, {((rng.randint(0, 1), rng.randint(0, 1)), 0): Q(rng.randint(1, 2))})
        gens = [g for g in (g1, g2) if not g.is_zero()]
        if not gens:
            continue
        basis = groebner_module(gens)
        cand = SPoly(2, 1, {}, {((rng.randint(0, 2), rng.randint(0, 2)), 0): Q(rng.randint(-2, 2))})
        if cand.is_zero():
            continue
        ok &= groebner_reduce(cand, basis).is_zero() == membership_by_linear_algebra(
            cand, gens, cand.degree() + 4
        )
        checked += 1
    ok &= checked >= 40
    # annihilator dimension check on the contact fixture for n <= 2
    for n in (1, 2):
        report = annihilator_dimension_check(
            pstar_basis(contact_frame.engine, n),
            determining_annihilator(contact_frame.engine, n + 2),
            frame_annihilator_full(contact_frame.engine, contact_frame.state, n),
            4,
            n,
        )
        ok &= report["pass"]
    _record(9, ok, "d2 audits, commutativity, flow oracle, Groebner oracle, dimension checks")


def test_criterion_10_out_of_scope_documented():
    """Branches II/III/V and closed-form frame maps are exercised only through
    the property suites; this criterion records the exclusion."""
    _record(10, True, "excluded from quantitative acceptance by design")
