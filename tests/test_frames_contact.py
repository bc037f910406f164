"""The contact-transformation equivalence problem: partial frame, involutive
coframe equations, isotropy annihilator polynomials, and the annihilator
dimension checks."""

from fractions import Fraction

import pytest

from cartanframes.frames import determining_annihilator, isotropy_annihilator
from cartanframes.involution import (
    TPoly,
    annihilator_dimension_check,
    cartan_test,
    delta_regular_search,
    indices,
    t_homogeneous_component,
)
from conftest import load_problem, session
from isotropy import _field_linear_to_tpoly, frame_annihilator_full, invariantize_parametrized, pstar_basis, restrict_targets
from symbol_echelon import t_span_equal

X, U, P, QV = 0, 1, 2, 3
Z = (0, 0, 0, 0)


def _e(i):
    return tuple(1 if k == i else 0 for k in range(4))


def _T(B, a, c=1):
    return TPoly(4, {(tuple(B), a): Fraction(c)})


PRINTED_TWELVE = [
    _T(Z, X),
    _T(Z, U),
    _T(Z, P),
    _T(_e(P), U),
    _T(_e(X), P),
    _T(_e(QV), X),
    _T(_e(QV), U),
    _T(_e(QV), P),
    _T(Z, QV) - _T(_e(X), P),
    _T(_e(X), U) - _T(Z, P),
    _T(_e(P), P) + _T(_e(X), X) - _T(_e(U), U),
    _T(_e(QV), QV) - _T(_e(P), P) + _T(_e(X), X),
]


def test_normalized_mc_forms(contact_frame):
    fr = contact_frame
    w = lambda i: fr.fc.one_form(fr.fc.omega(i))
    assert fr.state.mu_value((0, Z)) == -w(0)
    assert fr.state.mu_value((1, Z)) == -w(1)
    assert fr.state.mu_value((2, Z)) == -w(2)
    # mu^p_{J,X} family: strictly zero for J without a p-derivative, and zero
    # modulo the residual isotropy directions for every J (the reduction of
    # mu^p_PX lands on -mu^u_XU, an unnormalizable direction).
    assert fr.state.mu_value((3, Z)).is_zero()
    for B in [_e(X), (2, 0, 0, 0), (1, 1, 0, 0)]:
        assert fr.state.mu_value((2, B)).is_zero()
    for B in [(1, 0, 1, 0), (2, 0, 1, 0)]:
        value = fr.state.mu_value((2, B))
        omega_ids = {fr.fc.omega(i).sid for i in range(3)}
        assert all(set(word).isdisjoint(omega_ids) for word in value.terms)
    assert not fr.state.blocked


def test_transitive_no_residual_relations(contact_frame):
    assert contact_frame.state.residual_relations == []


def test_involutive_coframe_equations(contact_frame):
    """d(w^x), d(w^u), d(w^p) of the involutive display."""
    fr = contact_frame
    fc = fr.fc
    w = lambda i: fc.one_form(fc.omega(i))
    mu_xX = fc.one_form(fc.mc(0, _e(X)))
    mu_xU = fc.one_form(fc.mc(0, _e(U)))
    mu_xP = fc.one_form(fc.mc(0, _e(P)))
    mu_uU = fc.one_form(fc.mc(1, _e(U)))
    mu_uXU = fc.one_form(fc.mc(1, (1, 1, 0, 0)))
    assert fr.coframe.get(fc.omega(0)) == (
        mu_xX.wedge(w(0)) + mu_xU.wedge(w(1)) + mu_xP.wedge(w(2))
    )
    assert fr.coframe.get(fc.omega(1)) == mu_uU.wedge(w(1)) + w(0).wedge(w(2))
    assert fr.coframe.get(fc.omega(2)) == (
        mu_uXU.wedge(w(1)) + mu_uU.wedge(w(2)) - mu_xX.wedge(w(2))
    )


def test_isotropy_annihilator_matches_printed_span(contact_frame):
    polys = isotropy_annihilator(contact_frame.engine, 1)
    assert t_span_equal(polys, PRINTED_TWELVE)


def test_symbol_matrix_layout(contact_frame):
    """9 x 16 class-ordered matrix (the printed display omits the three zero
    T^q columns outside the t_q block); echelon leaves 8 rows with pivot
    classes 4,4,4,4,3,3,3,2."""
    from cartanframes.exact import ordered_row_echelon
    from symbol_echelon import class_of, symbol_matrix

    gens = t_homogeneous_component(PRINTED_TWELVE, 4, 1)
    priority = [U, P, X, QV]
    rows, columns = symbol_matrix(gens, 1, priority)
    assert len(columns) == 16
    blocks = [class_of(B, priority) for B, _ in columns]
    assert blocks == sorted(blocks, reverse=True)
    ech, pivots = ordered_row_echelon(rows)
    classes = [class_of(columns[c][0], priority) for c in pivots]
    assert classes == [4, 4, 4, 4, 3, 3, 3, 2]


def test_cartan_numbers_from_engine(contact_frame):
    polys = isotropy_annihilator(contact_frame.engine, 1)
    gens = t_homogeneous_component(polys, 4, 1)
    priority = [U, P, X, QV]
    beta = indices(gens, 1, priority)
    assert beta == {4: 4, 3: 3, 2: 1, 1: 0}
    report = cartan_test(gens, 1, priority)
    assert report["rank_next"] == 27
    assert report["involutive"]
    search = delta_regular_search(gens, 1)
    assert search["score"] == 27


def test_dimension_check_passes(contact_frame):
    fr = contact_frame
    for n in (1, 2):
        ps = pstar_basis(fr.engine, n)
        L = determining_annihilator(fr.engine, n + 2)
        T_full = frame_annihilator_full(fr.engine, fr.state, n)
        report = annihilator_dimension_check(ps, L, T_full, 4, n)
        assert report["pass"], report


def test_dimension_check_detects_truncated_L(contact_frame):
    fr = contact_frame
    tqx = TPoly(4, {(_e(QV), X): Fraction(1)})
    L = [p for p in determining_annihilator(fr.engine, 4) if p != tqx]
    report = annihilator_dimension_check(
        pstar_basis(fr.engine, 2), L, frame_annihilator_full(fr.engine, fr.state, 2), 4, 2
    )
    assert not report["pass"]


def test_U_equals_J(contact_frame):
    """H of the prolonged annihilator agrees with the beta-preimage of the
    symbol module, degree by degree (both trivial here, and equal)."""
    from cartanframes.exact import rank
    from cartanframes.involution import (
        BetaMap,
        SPoly,
        _in_span_solutions,
        prolonged_symbol_preimage,
        t_degree_filter,
    )
    from cartanframes.jets import mi_all

    fr = contact_frame
    L = determining_annihilator(fr.engine, 5)
    igens = [p.highest_term() for p in L]
    bm = BetaMap(3, 1, [[Fraction(0)] * 3])
    preimage = prolonged_symbol_preimage(igens, bm, 3)
    for k in (2, 3):
        sbasis = [(J, 0) for J in mi_all(3, k)]
        imgs = [_field_linear_to_tpoly(fr.engine, fr.engine.generator.prolong(0, J)) for J, _ in sbasis]
        l_filtered = t_degree_filter(L, 4, k)
        cols = sorted({key for t in imgs + l_filtered for key in t.terms})
        cand = [[t.terms.get(c, Fraction(0)) for c in cols] for t in imgs]
        span = [[t.terms.get(c, Fraction(0)) for c in cols] for t in l_filtered]
        U_k = []
        for combo in _in_span_solutions(cand, span):
            poly = SPoly(3, 1)
            for idx, c in enumerate(combo):
                if c:
                    poly = poly + SPoly(3, 1, {}, {sbasis[idx]: c})
            U_k.append(poly)
        J_k = preimage.get(k, [])

        def dim(lst):
            cols2 = sorted({kk for s in lst for kk in s.terms})
            return rank([[s.terms.get(c2, Fraction(0)) for c2 in cols2] for s in lst])

        assert dim(U_k) == dim(J_k) == dim(U_k + J_k)


def test_two_form_reduced_sets():
    """The reduced generator sets of the final worked example drop the
    dependent-component polynomials; the restriction helper reproduces the
    shipped fixture lists."""
    pf1 = load_problem("twoform_case1")
    m = 3
    gens = []
    for decl in pf1.tpoly:
        poly = TPoly(m)
        for counts, target, coeff in decl.terms:
            poly = poly + TPoly(m, {(counts, target): coeff})
        gens.append(poly)
    kept = restrict_targets(gens, {0, 1, 2})
    assert len(kept) == 4
    x, y, z = 0, 1, 2
    e3 = lambda i: tuple(1 if k == i else 0 for k in range(3))
    expected = [
        TPoly(3, {(e3(y), y): Fraction(1), (e3(x), x): Fraction(1)}),
        TPoly(3, {(e3(z), y): Fraction(1)}),
        TPoly(3, {(e3(z), x): Fraction(1)}),
        TPoly(3, {(e3(z), z): Fraction(1)}),
    ]
    assert t_span_equal(kept, expected)


def test_pj_partial_frame(pj_frame):
    """Residual mu_X only; 3-dimensional Lie group structure equations."""
    fr = pj_frame
    assert fr.state.residual_keys(1) == [(0, (1, 0, 0))]
    fc = fr.fc
    w = lambda i: fc.one_form(fc.omega(i))
    mu_X = fc.one_form(fc.mc(0, (1, 0, 0)))
    assert fr.coframe.get(fc.omega(0)) == mu_X.wedge(w(0))
    assert fr.coframe.get(fc.omega(1)) == mu_X.wedge(w(1))
    assert fr.coframe.get(fc.mc(0, (1, 0, 0))).is_zero()


def test_pj_commutators_partial_flag(pj_frame):
    from cartanframes.frames import commutator_invariants

    Y, residual = commutator_invariants(pj_frame.engine, pj_frame.coframe)
    assert residual, "commutators only defined modulo the isotropy direction"
    assert {s.name for s in residual} == {"mu_X"}


def test_pj_d_squared(pj_frame):
    failures, audited, skipped = pj_frame.engine.audit_d_squared(
        pj_frame.state, pj_frame.coframe, 3
    )
    assert failures == []
    assert len(audited) == 3


def test_invariantize_parametrized(contact_frame):
    """Constant coefficients pass through; a coefficient normalized by the
    cross-section freezes to its constant; a free jet becomes a symbol."""
    from cartanframes.involution import TPoly

    fr = contact_frame
    jc = fr.jc
    one_term = {((0, 0, 0, 0), 0): jc.ratfn(Fraction(2, 3))}
    got = invariantize_parametrized(fr.engine, one_term)
    assert isinstance(got, TPoly)
    assert got == TPoly(4, {((0, 0, 0, 0), 0): Fraction(2, 3)})
    # u_x-style coefficient: here p is normalized to 0 by the cross-section
    p_coeff = {((1, 0, 0, 0), 0): jc.rvar(jc.x_var(2))}
    got2 = invariantize_parametrized(fr.engine, p_coeff)
    assert isinstance(got2, TPoly) and got2.is_zero()
    # a free jet coordinate stays an opaque invariant symbol
    s = session("point")
    jc2, eng2 = s.jc, s.engine
    free = {((0, 0, 0, 0), 0): jc2.rvar(jc2.u_var(0, (0, 0, 4)))}
    got3 = invariantize_parametrized(eng2, free)
    assert isinstance(got3, dict)
    value = got3[((0, 0, 0, 0), 0)]
    assert value == jc2.rvar(jc2.invariant_var(("u", 0, (0, 0, 4))))
