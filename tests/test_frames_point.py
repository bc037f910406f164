"""The point-transformation equivalence problem of second order ODEs:
recurrence relations, the universal frame, branch normalizations, coframe
structure equations, commutators, syzygies and integrability audits."""

from fractions import Fraction

import pytest

from cartanframes.exterior import ExteriorForm
from cartanframes.frames import commutator_invariants
from cartanframes.jets import mi_order
from conftest import session

MU, NU = 0, 1
Z4 = (0, 0, 0, 0)
EX, EU = (1, 0, 0, 0), (0, 1, 0, 0)
EXX, EXU, EUU = (2, 0, 0, 0), (1, 1, 0, 0), (0, 2, 0, 0)
RESIDUAL5 = [(MU, EX), (MU, EU), (NU, EU), (NU, EXU), (NU, EUU)]


def _w(fr, i):
    return fr.fc.one_form(fr.fc.omega(i))


def _mc(fr, f, B):
    return fr.fc.one_form(fr.fc.mc(f, B))


def _inv(fr, counts):
    return fr.jc.rvar(fr.jc.invariant_var(("u", 0, counts)))


# -- raw order-0 recurrence relations ------------------------------------------------


def test_order0_recurrences_raw():
    """dX = w^x + mu, dU = w^u + nu, dP = w^p + nu_X + P(nu_U - mu_X) - P^2 mu_U,
    and the printed dQ correction; engine output is the reference for the
    P-linear coefficient of dP."""
    s = session("point")
    jc, engine, fc = s.jc, s.raw_engine, s.fc
    P = jc.rvar(jc.invariant_var(("x", 2)))
    Qi = jc.rvar(jc.invariant_var(("u", 0, (0, 0, 0))))
    w = lambda i: fc.one_form(fc.omega(i))
    mcf = lambda f, B: fc.one_form(fc.mc(f, B))

    assert engine.recurrence(("x", 0)) == w(0) + mcf(MU, Z4)
    assert engine.recurrence(("x", 1)) == w(1) + mcf(NU, Z4)
    dP = engine.recurrence(("x", 2))
    expect_dP = (
        w(2)
        + mcf(NU, EX)
        + (mcf(NU, EU) - mcf(MU, EX)).scale(P)
        - mcf(MU, EU).scale(P * P)
    )
    assert dP == expect_dP
    dQ = engine.recurrence(("u", 0, (0, 0, 0)))
    QX = jc.rvar(jc.invariant_var(("u", 0, (1, 0, 0))))
    QU = jc.rvar(jc.invariant_var(("u", 0, (0, 1, 0))))
    QP = jc.rvar(jc.invariant_var(("u", 0, (0, 0, 1))))
    expect_dQ = (
        w(0).scale(QX)
        + w(1).scale(QU)
        + w(2).scale(QP)
        + mcf(NU, EXX)
        + (mcf(NU, EU) - mcf(MU, EX).scale(2)).scale(Qi)
        + (mcf(NU, EXU).scale(2) - mcf(MU, EXX)).scale(P)
        - mcf(MU, EU).scale(3 * P * Qi)
        + (mcf(NU, EUU) - mcf(MU, EXU).scale(2)).scale(P * P)
        - mcf(MU, EUU).scale(P * P * P)
    )
    assert dQ == expect_dQ


def test_order0_normalization(point_order0):
    """Phantom solving of X = U = P = Q = 0."""
    fr = point_order0
    state = fr.state
    assert state.resolved[(MU, Z4)][0] == -_w(fr, 0)
    assert state.resolved[(NU, Z4)][0] == -_w(fr, 1)
    assert state.resolved[(NU, EX)][0] == -_w(fr, 2)
    QX, QU, QP = (_inv(fr, c) for c in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    assert state.resolved[(NU, EXX)][0] == -(
        _w(fr, 0).scale(QX) + _w(fr, 1).scale(QU) + _w(fr, 2).scale(QP)
    )
    assert not state.blocked


# -- the universal (intermediate) frame ----------------------------------------------


def test_universal_mc_normalizations(point_universal):
    fr = point_universal
    state = fr.state
    got = {key: state.resolved[key][0] for key in state.resolved}
    QP4 = _inv(fr, (0, 0, 4))
    QP2X2 = _inv(fr, (2, 0, 2))
    QP4X = _inv(fr, (1, 0, 4))
    QP3X2 = _inv(fr, (2, 0, 3))
    sixth = Fraction(1, 6)
    assert got[(MU, Z4)] == -_w(fr, 0)
    assert got[(NU, Z4)] == -_w(fr, 1)
    assert got[(NU, EX)] == -_w(fr, 2)
    assert got[(NU, EXX)].is_zero()
    assert got[(MU, EXX)] == _mc(fr, NU, EXU).scale(2)
    assert got[(MU, EXU)] == _mc(fr, NU, EUU).scale(Fraction(1, 2))
    assert got[(MU, EUU)] == _w(fr, 2).scale(QP4 * sixth)
    assert got[(NU, (2, 1, 0, 0))].is_zero()
    assert got[(NU, (3, 0, 0, 0))].is_zero()
    assert got[(NU, (1, 2, 0, 0))] == _w(fr, 0).scale(QP2X2 * sixth)
    assert got[(NU, (0, 3, 0, 0))] == (
        _w(fr, 0).scale(QP3X2 * Fraction(1, 3)) + _w(fr, 2).scale(QP4X * Fraction(1, 3))
    )


def test_universal_residual_is_the_five_forms(point_universal):
    assert point_universal.state.residual_keys(2) == RESIDUAL5


def test_branching_report_names_blocking_invariant():
    """Normalizing q_p5 without first fixing q_p4 blocks the mu_U pivot on the
    symbolic coefficient Q_P4: the split the four branches come from."""
    s = session("point")
    s.cs.normalize_coord(("u", 0, (0, 0, 5)), 0)
    state = s.engine.normalize(5)
    names = {name for item in state.blocked for name in item.blockers}
    assert "Q_P4" in names


# The branch-I problem without the normalization q_p4 = 1: Q_P4 stays a free
# invariant, and only the declaration ``assume q_p4 != 0`` lets it pivot.
UNSCALED_BRANCH1 = """
base x u p q;
split independent x u p dependent q;
coeffs xi eta alpha gamma;
det {
  xi_p = 0; eta_p = 0; xi_q = 0; eta_q = 0; alpha_q = 0;
  alpha = eta_x + p*(eta_u - xi_x) - p^2*xi_u;
  gamma = alpha_x + p*alpha_u + q*alpha_p - q*(xi_x + p*xi_u);
}
xsec {
  x = 0; u = 0; p = 0;
  q_{u^j x^k} = 0;
  q_{p u^j x^k} = 0;
  q_{p^2 u^j} = 0;
  q_{p^2 u^j x} = 0;
  q_{p^3 u^j} = 0;
  q_{p^3 u^j x} = 0;
  q_p2x2 = 1;
  q_p5 = 0;
  q_p4u = 0;
  q_p4x = 0;
  assume q_p4 != 0;
  assume q_p2x2 != 0;
}
print { mu^x as mu; mu^u as nu; }
"""


def _normalize_report(tmp_path, capsys, text):
    from cartanframes import cli

    path = tmp_path / "branch1.prob"
    path.write_text(text)
    assert cli.main(["run", str(path), "normalize", "--order", "5"]) == 0
    return capsys.readouterr().out.splitlines()


def test_declared_nonvanishing_invariant_unblocks_its_pivot(tmp_path, capsys):
    """A pivot on the declared invariant Q_P4 resolves mu_U; without the
    declaration the same pivot is blocked and the report asks for a branch."""
    lines = _normalize_report(tmp_path, capsys, UNSCALED_BRANCH1)
    assert "frame.mu_U = -Q_P5X/(5*Q_P4)*w^x - Q_P5U/(5*Q_P4)*w^u - Q_P6/(5*Q_P4)*w^p" in lines
    assert "frame.residual = nu_U" in lines
    assert not any(line.startswith("frame.branching_required") for line in lines)
    lines = _normalize_report(tmp_path, capsys, UNSCALED_BRANCH1.replace("  assume q_p4 != 0;\n", ""))
    assert "frame.branching_required = Q_P4" in lines
    assert not any(line.startswith("frame.mu_U =") for line in lines)


def test_order45_recurrence_display(point_universal):
    """All eight printed fourth/fifth-order reduced recurrence relations."""
    fr = point_universal
    eng, state = fr.engine, fr.state

    def inv(i, j, k):
        return _inv(fr, (i, j, k))

    def rec(i, j, k):
        return eng.reduced_recurrence(("u", 0, (i, j, k)), state)

    w = lambda i: _w(fr, i)
    mu_X, mu_U = _mc(fr, MU, EX), _mc(fr, MU, EU)
    nu_U, nu_XU, nu_UU = _mc(fr, NU, EU), _mc(fr, NU, EXU), _mc(fr, NU, EUU)

    assert rec(0, 0, 4) == (
        w(0).scale(inv(1, 0, 4)) + w(1).scale(inv(0, 1, 4)) + w(2).scale(inv(0, 0, 5))
        + (mu_X.scale(2) - nu_U.scale(3)).scale(inv(0, 0, 4))
    )
    assert rec(2, 0, 2) == (
        w(0).scale(inv(3, 0, 2)) + w(1).scale(inv(2, 1, 2)) + w(2).scale(inv(2, 0, 3))
        - (nu_U + mu_X.scale(2)).scale(inv(2, 0, 2))
    )
    assert rec(0, 0, 5) == (
        w(0).scale(inv(1, 0, 5)) + w(1).scale(inv(0, 1, 5)) + w(2).scale(inv(0, 0, 6))
        + mu_U.scale(5 * inv(0, 0, 4)) + (mu_X.scale(3) - nu_U.scale(4)).scale(inv(0, 0, 5))
    )
    assert rec(1, 0, 4) == (
        w(0).scale(inv(2, 0, 4)) + w(1).scale(inv(1, 1, 4))
        + w(2).scale(inv(0, 1, 4) + inv(1, 0, 5))
        + nu_XU.scale(inv(0, 0, 4)) + (mu_X - nu_U.scale(3)).scale(inv(1, 0, 4))
    )
    assert rec(0, 1, 4) == (
        w(0).scale(inv(1, 1, 4)) + w(1).scale(inv(0, 2, 4)) + w(2).scale(inv(0, 1, 5))
        - nu_UU.scale(2 * inv(0, 0, 4)) - nu_XU.scale(inv(0, 0, 5)) - mu_U.scale(inv(1, 0, 4))
        + (mu_X.scale(2) - nu_U.scale(4)).scale(inv(0, 1, 4))
    )
    assert rec(2, 0, 3) == (
        w(0).scale(inv(3, 0, 3) - 2 * inv(2, 1, 2)) + w(1).scale(inv(2, 1, 3)) + w(2).scale(inv(2, 0, 4))
        - mu_U.scale(inv(2, 0, 2)) - (nu_U.scale(2) + mu_X).scale(inv(2, 0, 3))
    )
    assert rec(2, 1, 2) == (
        w(0).scale(inv(3, 1, 2)) + w(1).scale(inv(2, 2, 2)) + w(2).scale(inv(2, 1, 3))
        - nu_UU.scale(2 * inv(2, 0, 2)) - nu_XU.scale(inv(2, 0, 3)) - mu_U.scale(inv(3, 0, 2))
        - (nu_U + mu_X).scale(2 * inv(2, 1, 2))
    )
    assert rec(3, 0, 2) == (
        w(0).scale(inv(4, 0, 2)) + w(1).scale(inv(3, 1, 2))
        + w(2).scale(inv(3, 0, 3) - inv(2, 1, 2))
        - nu_XU.scale(5 * inv(2, 0, 2)) - (nu_U + mu_X.scale(3)).scale(inv(3, 0, 2))
    )


def test_syzygy_identities(point_universal):
    """D_X Q_P4 = Q_P4X and D_P Q_P2X2 = Q_P3X2, read off the engine's own
    reduced recurrence relations (no correction terms on those slots)."""
    fr = point_universal
    rec_p4 = fr.engine.reduced_recurrence(("u", 0, (0, 0, 4)), fr.state)
    rec_p2x2 = fr.engine.reduced_recurrence(("u", 0, (2, 0, 2)), fr.state)
    assert rec_p4.coefficient((fr.fc.omega(0).sid,)) == _inv(fr, (1, 0, 4))
    assert rec_p2x2.coefficient((fr.fc.omega(2).sid,)) == _inv(fr, (2, 0, 3))


def test_universal_structure_equations(point_universal):
    """The eight-dimensional invariant coframe display."""
    fr = point_universal
    fc = fr.fc
    w = lambda i: _w(fr, i)
    mu_X, mu_U = _mc(fr, MU, EX), _mc(fr, MU, EU)
    nu_U, nu_XU, nu_UU = _mc(fr, NU, EU), _mc(fr, NU, EXU), _mc(fr, NU, EUU)
    QP4 = _inv(fr, (0, 0, 4))
    QP2X2 = _inv(fr, (2, 0, 2))
    QP4X = _inv(fr, (1, 0, 4))
    QP3X2 = _inv(fr, (2, 0, 3))
    eq = lambda sym: fr.coframe.get(sym)
    half, third, sixth = Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)
    assert eq(fc.omega(0)) == mu_X.wedge(w(0)) + mu_U.wedge(w(1))
    assert eq(fc.omega(1)) == nu_U.wedge(w(1)) + w(0).wedge(w(2))
    assert eq(fc.omega(2)) == nu_XU.wedge(w(1)) + nu_U.wedge(w(2)) - mu_X.wedge(w(2))
    assert eq(fc.mc(MU, EX)) == (
        w(0).wedge(nu_XU).scale(2) + w(1).wedge(nu_UU).scale(half) + w(2).wedge(mu_U)
    )
    assert eq(fc.mc(MU, EU)) == (
        w(0).wedge(nu_UU).scale(half) + w(1).wedge(w(2)).scale(QP4 * sixth)
        - mu_U.wedge(mu_X) + mu_U.wedge(nu_U)
    )
    assert eq(fc.mc(NU, EU)) == (
        w(0).wedge(nu_XU) + w(1).wedge(nu_UU) - w(2).wedge(mu_U)
    )
    assert eq(fc.mc(NU, EXU)) == (
        -(w(0).wedge(w(1)).scale(QP2X2 * sixth)) + w(2).wedge(nu_UU).scale(half) - mu_X.wedge(nu_XU)
    )
    assert eq(fc.mc(NU, EUU)) == (
        -(w(0).wedge(w(1)).scale(QP3X2 * third)) + w(1).wedge(w(2)).scale(QP4X * third)
        - mu_U.wedge(nu_XU).scale(2) - nu_U.wedge(nu_UU)
    )


def test_universal_d_squared_audit(point_universal):
    fr = point_universal
    failures, audited, skipped = fr.engine.audit_d_squared(fr.state, fr.coframe, 6)
    assert failures == []
    assert len(audited) == 8
    assert skipped == []


# -- branch I ------------------------------------------------------------------------


def test_branch1_normalized_mc_forms(point_branch1):
    fr = point_branch1
    state = fr.state
    w = lambda i: _w(fr, i)

    def inv(i, j, k):
        return _inv(fr, (i, j, k))

    assert state.mu_value((MU, Z4)) == -w(0)
    assert state.mu_value((NU, Z4)) == -w(1)
    assert state.mu_value((NU, EX)) == -w(2)
    assert state.mu_value((NU, EXX)).is_zero()
    # mu_X = (3/2) nu_U = (3/8)(Q_P2X3 w^x + Q_P2UX2 w^u + Q_P3X2 w^p)
    nu_U = state.mu_value((NU, EU))
    mu_X = state.mu_value((MU, EX))
    assert mu_X == nu_U.scale(Fraction(3, 2))
    assert nu_U == (
        w(0).scale(inv(3, 0, 2)) + w(1).scale(inv(2, 1, 2)) + w(2).scale(inv(2, 0, 3))
    ).scale(Fraction(1, 4))
    assert state.mu_value((MU, EU)) == -(
        w(0).scale(inv(1, 0, 5)) + w(1).scale(inv(0, 1, 5)) + w(2).scale(inv(0, 0, 6))
    ).scale(Fraction(1, 5))
    assert state.mu_value((NU, EXU)) == -(
        w(0).scale(inv(2, 0, 4)) + w(1).scale(inv(1, 1, 4)) + w(2).scale(inv(1, 0, 5))
    )
    assert not state.blocked


def test_branch1_full_normalization(point_branch1):
    assert point_branch1.state.residual_keys(2) == []


def test_branch1_coframe_equations(point_branch1):
    """The three printed invariant coframe equations, 3/8 coefficient included."""
    fr = point_branch1
    fc = fr.fc
    w = lambda i: _w(fr, i)

    def inv(i, j, k):
        return _inv(fr, (i, j, k))

    d_wx = fr.coframe.get(fc.omega(0))
    d_wu = fr.coframe.get(fc.omega(1))
    d_wp = fr.coframe.get(fc.omega(2))
    e38 = Fraction(3, 8)
    assert d_wx == (
        -(w(0).wedge(w(1)).scale(inv(2, 1, 2) * e38 + inv(1, 0, 5) * Fraction(1, 5)))
        - w(0).wedge(w(2)).scale(inv(2, 0, 3) * e38)
        + w(1).wedge(w(2)).scale(inv(0, 0, 6) * Fraction(1, 5))
    )
    assert d_wu == (
        w(0).wedge(w(1)).scale(inv(3, 0, 2) * Fraction(1, 4))
        + w(0).wedge(w(2))
        - w(1).wedge(w(2)).scale(inv(2, 0, 3) * Fraction(1, 4))
    )
    assert d_wp == (
        -(w(0).wedge(w(1)).scale(inv(2, 0, 4)))
        - w(0).wedge(w(2)).scale(inv(3, 0, 2) * Fraction(1, 8))
        + w(1).wedge(w(2)).scale(inv(1, 0, 5) - inv(2, 1, 2) * Fraction(1, 8))
    )


def test_branch1_commutators(point_branch1):
    """Y^u_xp: the w^x ^ w^p coefficient of d(w^u) equals 1 (so the commutator
    invariant is -1 under the sign convention d(w) = -sum Y w ^ w)."""
    fr = point_branch1
    Y, residual = commutator_invariants(fr.engine, fr.coframe)
    assert residual == []
    coeff = fr.coframe.get(fr.fc.omega(1)).coefficient(
        (fr.fc.omega(0).sid, fr.fc.omega(2).sid)
    )
    assert coeff == fr.jc.ratfn(1)
    assert Y[(1, 0, 2)] == fr.jc.ratfn(-1)


def test_branch1_d_squared_audit(point_branch1):
    failures, audited, skipped = point_branch1.engine.audit_d_squared(
        point_branch1.state, point_branch1.coframe, 6
    )
    assert failures == []
    assert len(audited) == 3


# -- branch IV -----------------------------------------------------------------------


def test_branch4_residual_isotropy(point_branch4):
    assert point_branch4.state.residual_keys(3) == RESIDUAL5
    assert not point_branch4.state.blocked


def test_branch4_sl3_structure_equations(point_branch4):
    """The eight-equation display of the singular branch."""
    fr = point_branch4
    fc = fr.fc
    w = lambda i: _w(fr, i)
    mu_X, mu_U = _mc(fr, MU, EX), _mc(fr, MU, EU)
    nu_U, nu_XU, nu_UU = _mc(fr, NU, EU), _mc(fr, NU, EXU), _mc(fr, NU, EUU)
    eq = lambda sym: fr.coframe.get(sym)
    half = Fraction(1, 2)
    assert eq(fc.omega(0)) == mu_X.wedge(w(0)) + mu_U.wedge(w(1))
    assert eq(fc.omega(1)) == nu_U.wedge(w(1)) + w(0).wedge(w(2))
    assert eq(fc.omega(2)) == nu_XU.wedge(w(1)) + nu_U.wedge(w(2)) - mu_X.wedge(w(2))
    assert eq(fc.mc(MU, EU)) == w(0).wedge(nu_UU).scale(half) - mu_U.wedge(mu_X) + mu_U.wedge(nu_U)
    assert eq(fc.mc(NU, EU)) == w(0).wedge(nu_XU) + w(1).wedge(nu_UU) - w(2).wedge(mu_U)
    assert eq(fc.mc(MU, EX)) == (
        w(0).wedge(nu_XU).scale(2) + w(1).wedge(nu_UU).scale(half) + w(2).wedge(mu_U)
    )
    assert eq(fc.mc(NU, EUU)) == -(mu_U.wedge(nu_XU).scale(2)) - nu_U.wedge(nu_UU)
    assert eq(fc.mc(NU, EXU)) == w(2).wedge(nu_UU).scale(half) - mu_X.wedge(nu_XU)


def test_branch4_derived_vanishing(point_branch4):
    """With both relative invariants identically zero, the higher lifted
    invariants vanish: the reduced recurrences have no leftover relations."""
    fr = point_branch4
    assert fr.state.residual_relations == []


def test_branch4_d_squared_audit(point_branch4):
    failures, audited, skipped = point_branch4.engine.audit_d_squared(
        point_branch4.state, point_branch4.coframe, 6
    )
    assert failures == []
    assert len(audited) == 8


# -- routes agree ----------------------------------------------------------------------


def test_structure_route_matches_recurrence_route(point_universal):
    """d(w^i) from the pulled-back sigma equations equals the exterior
    derivative route through the universal recurrence for dx^i: both are
    encoded in the audit, so spot-check one coefficient identity instead:
    the w^x ^ w^p coefficient of d(w^u) is 1 at every frame."""
    for fr in (point_universal,):
        coeff = fr.coframe.get(fr.fc.omega(1)).coefficient(
            (fr.fc.omega(0).sid, fr.fc.omega(2).sid)
        )
        assert coeff == fr.jc.ratfn(1)


def test_universal_frame_has_no_blocked_pivots():
    state = session("point").engine.normalize(4)
    assert state.blocked == []


def test_phantom_exactness(point_universal, point_branch1, point_order0):
    """Substituting the frame into every phantom recurrence relation gives 0."""
    for fr in (point_order0, point_branch1, point_universal):
        for order, coord in fr.engine.phantom_subjects(min(fr.order, 4)):
            reduced = fr.state.reduce(fr.engine.recurrence(coord))
            assert reduced.is_zero(), (coord, reduced.pretty())


def test_reduction_confluence(point_universal):
    """Expanding a solved Maurer-Cartan symbol through the relation set and
    then the frame equals substituting frame values into its one-step
    relation symbol by symbol."""
    fr = point_universal
    system = fr.engine.system
    for key in system.solved_jets(2):
        direct = fr.state.mu_value(key)
        alt = fr.fc.form()
        for key2, coeff in fr.mc.relation(key).items():
            value = fr.engine.iota(coeff)
            if value.is_zero():
                continue
            alt = alt + fr.state.mu_value(key2).scale(value)
        assert direct == alt, key


def test_trivial_isotropy_yields_full_annihilator(point_branch1):
    """A fully normalizing frame annihilates every generator direction: the
    uncapped annihilator spans all of T^{<=1} (the presentation-capped variant
    reports only the stratum-zero relations by design)."""
    from cartanframes.involution import t_degree_filter, t_span_dim
    from isotropy import frame_annihilator_full

    polys = frame_annihilator_full(point_branch1.engine, point_branch1.state, 1)
    filtered = t_degree_filter(polys, 4, 1)
    # dim T^{<=1} for m = 4: 4 constants + 16 degree-1 monomials
    assert t_span_dim(filtered) == 20


def test_commutators_all_zero_on_flat_equations(point_universal):
    """d(w^i) == 0 gives vanishing commutator invariants and no partial flag."""
    from cartanframes.exterior import EquationSet
    from cartanframes.frames import commutator_invariants

    fr = point_universal
    flat = EquationSet(fr.fc)
    for i in range(3):
        flat.set(fr.fc.omega(i), fr.fc.form())
    Y, residual = commutator_invariants(fr.engine, flat)
    assert residual == []
    assert all(v.is_zero() for v in Y.values())
