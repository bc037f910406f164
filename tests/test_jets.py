"""Jet coordinates, total derivatives and lifted derivative matrices."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cartanframes.exact import ExactError, RatFn, format_poly
from cartanframes.jets import (
    JetContext,
    coord_u,
    coord_x,
    lifted_total_derivative_matrix,
    mi_factorial,
    mi_order,
    mi_up_to,
)


@pytest.fixture()
def plane():
    return JetContext(["x"], ["u"])


@pytest.fixture()
def ode_jets():
    return JetContext(["x", "u", "p"], ["q"])


def test_multi_index_basics():
    assert mi_order((2, 0, 1)) == 3
    assert mi_factorial((3, 2, 0)) == 12
    assert len(mi_up_to(3, 2)) == 10


def test_total_derivative_of_coordinate(plane):
    ux = plane.pvar(plane.u_var(0, (1,)))
    assert plane.total_derivative(ux, 0) == plane.pvar(plane.u_var(0, (2,)))


def test_total_derivative_product_rule(plane):
    x = plane.pvar(plane.x_var(0))
    u = plane.pvar(plane.u_var(0, (0,)))
    ux = plane.pvar(plane.u_var(0, (1,)))
    assert plane.total_derivative(x * u, 0) == u + x * ux


def test_leibniz(plane):
    f = plane.pvar(plane.u_var(0, (1,))) * plane.pvar(plane.x_var(0))
    g = plane.pvar(plane.u_var(0, (0,))) + plane.poly(3)
    lhs = plane.total_derivative(f * g, 0)
    rhs = f * plane.total_derivative(g, 0) + g * plane.total_derivative(f, 0)
    assert lhs == rhs


def test_total_derivatives_commute(ode_jets):
    jc = ode_jets
    f = jc.pvar(jc.u_var(0, (1, 0, 2))) * jc.pvar(jc.x_var(1)) + jc.pvar(jc.u_var(0, (0, 0, 0))) ** 2
    for i in range(3):
        for j in range(3):
            dij = jc.total_derivative(jc.total_derivative(f, i), j)
            dji = jc.total_derivative(jc.total_derivative(f, j), i)
            assert dij == dji


def test_iterated_derivative(plane):
    u = plane.pvar(plane.u_var(0, (0,)))
    assert plane.iterated_derivative(u, (0,)) == u  # empty-count positions
    assert plane.iterated_derivative(u, (2,)) == plane.pvar(plane.u_var(0, (2,)))


def test_iterated_derivative_order_independent(ode_jets):
    jc = ode_jets
    f = jc.pvar(jc.u_var(0, (0, 1, 0))) * jc.pvar(jc.u_var(0, (0, 0, 1)))
    a = jc.total_derivative(jc.total_derivative(f, 0), 1)
    b = jc.total_derivative(jc.total_derivative(f, 1), 0)
    assert a == b


def jet_order(jc, f) -> int:
    """Highest jet order of a dependent-variable jet in the polynomial f."""
    orders = [jc.ctx.var_by_id(vid).skey for vid in f.variables()]
    return max([skey[1] for skey in orders if skey[0] == 1], default=0)


def test_order_growth(plane):
    f = plane.pvar(plane.u_var(0, (2,)))
    assert jet_order(plane, f) == 2
    assert jet_order(plane, plane.total_derivative(f, 0)) == 3
    g = plane.pvar(plane.x_var(0))
    assert jet_order(plane, plane.total_derivative(g, 0)) == 0


def test_dhat_expansion_example(ode_jets):
    """The Tresse-type combination expands to a q-jet polynomial; cross-check a
    recursive direct expansion of the same operator composition."""
    jc = ode_jets
    pvar = jc.pvar(jc.x_var(2))
    q0 = jc.pvar(jc.u_var(0, (0, 0, 0)))

    def jet(i, j, k):
        return jc.pvar(jc.u_var(0, (i, j, k)))

    def dhat(f):
        return jc.d_hat(f, [jc.poly(1), pvar, q0])

    expr = (
        dhat(dhat(jet(0, 0, 2)))
        - 4 * dhat(jet(0, 1, 1))
        - jet(0, 0, 1) * dhat(jet(0, 0, 2))
        + 6 * jet(0, 2, 0)
        - 3 * jet(0, 1, 0) * jet(0, 0, 2)
        + 4 * jet(0, 0, 1) * jet(0, 1, 1)
    )
    # oracle: expand the composition step by step by hand rules
    d1 = jet(1, 0, 2) + pvar * jet(0, 1, 2) + q0 * jet(0, 0, 3)
    d2 = jc.total_derivative(d1, 0) + pvar * jc.total_derivative(d1, 1) + q0 * jc.total_derivative(d1, 2)
    assert dhat(jet(0, 0, 2)) == d1
    assert dhat(d1) == d2
    assert jet_order(jc, expr) == 4
    assert not expr.is_zero()


def test_lifted_matrix_scalar(plane):
    chi = plane.field("chi", [coord_x(0), coord_u(0, (0,))])
    X = plane.rvar(plane.field_var(chi, (0, 0)))
    W = lifted_total_derivative_matrix(plane, [X])
    dchi = plane.total_derivative(plane.pvar(plane.field_var(chi, (0, 0))), 0)
    assert W[0][0] == RatFn(plane.poly(1), dchi)


def test_lifted_matrix_identity(ode_jets):
    jc = ode_jets
    targets = [jc.rvar(jc.x_var(i)) for i in range(3)]
    W = lifted_total_derivative_matrix(jc, targets)
    for i in range(3):
        for j in range(3):
            assert W[i][j] == jc.ratfn(1 if i == j else 0)


def test_lifted_matrix_inverts_a_full_jacobian():
    """X = (x + u, y*u) over (x, y; u): every entry of the total Jacobian is
    nonzero, and W is its two-sided inverse."""
    jc = JetContext(["x", "y"], ["u"])
    x, y = (jc.rvar(jc.x_var(i)) for i in range(2))
    u = jc.rvar(jc.u_var(0, (0, 0)))
    targets = [x + u, y * u]
    W = lifted_total_derivative_matrix(jc, targets)
    jac = [[jc.total_derivative(targets[j], i) for j in range(2)] for i in range(2)]
    assert all(not e.is_zero() for row in jac for e in row)
    for left, right in [(jac, W), (W, jac)]:
        for i in range(2):
            for j in range(2):
                entry = left[i][0] * right[0][j] + left[i][1] * right[1][j]
                assert entry == jc.ratfn(1 if i == j else 0)


def test_lifted_matrix_singular(plane):
    with pytest.raises(ExactError):
        lifted_total_derivative_matrix(plane, [plane.ratfn(1)])


def test_point_lifted_derivative_formulas(plane):
    """P = (u_x psi_u + psi_x)/(u_x chi_u + chi_x) for targets chi, psi."""
    jc = plane
    chi = jc.field("chi", [coord_x(0), coord_u(0, (0,))])
    psi = jc.field("psi", [coord_x(0), coord_u(0, (0,))])
    W = lifted_total_derivative_matrix(jc, [jc.rvar(jc.field_var(chi, (0, 0)))])
    dpsi = jc.total_derivative(jc.pvar(jc.field_var(psi, (0, 0))), 0)
    P = RatFn(dpsi, jc.poly(1)) * W[0][0]
    dchi = jc.total_derivative(jc.pvar(jc.field_var(chi, (0, 0))), 0)
    assert P == RatFn(dpsi, dchi)


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=1),
            st.integers(min_value=0, max_value=2),
            st.integers(min_value=0, max_value=2),
            st.integers(min_value=-3, max_value=3),
        ),
        min_size=1,
        max_size=4,
    )
)
@settings(max_examples=40, deadline=None)
def test_total_derivatives_commute_randomized(spec):
    jc = JetContext(["x", "u"], ["q"])
    f = jc.poly(0)
    for i, a, b, c in spec:
        jet = jc.pvar(jc.u_var(0, (a, b)))
        base = jc.pvar(jc.x_var(i))
        f = f + jc.poly(c) * jet * base
    d01 = jc.total_derivative(jc.total_derivative(f, 0), 1)
    d10 = jc.total_derivative(jc.total_derivative(f, 1), 0)
    assert d01 == d10
