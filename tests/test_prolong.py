"""Prolongation of the infinitesimal generator.

``InfinitesimalGenerator.prolong`` builds phi^J one total derivative at a
time and drops, after each, the terms that cannot reach a nonzero value on
the cross-section.  Here the pruned coefficient is checked against the
unpruned ``D_J Q`` (built in this file, the oracle) through ``lift_linear``
on random cross-sections, and the unpruned path is checked against a
prolongation written with sympy on jet space.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cartanframes.frames import CrossSection, RecurrenceEngine
from cartanframes.jets import JetContext, coord_u, coord_x, mi_bump, mi_up_to, mi_zero
from cartanframes.pseudogroup import DeterminingSystem, InfinitesimalGenerator, universal_generator
from conftest import PROBLEMS, load_problem


def iterated_derivative(jc, f, J):
    """D_J f: the total derivatives composed in the order listed by J."""
    out = f
    for i, c in enumerate(J):
        for _ in range(c):
            out = jc.total_derivative(out, i)
    return out


def unpruned_prolong(generator, alpha, J):
    """phi^J_alpha = D_J Q^alpha + sum_i xi^i u^alpha_{J,i}, every term built."""
    jc = generator.jc
    total = iterated_derivative(jc, generator._characteristic[alpha], J)
    for i in range(jc.p):
        total = total + generator.xi[i] * jc.pvar(jc.u_var(alpha, mi_bump(J, i)))
    return total


def test_iterated_derivative():
    plane = JetContext(["x"], ["u"])
    u = plane.pvar(plane.u_var(0, (0,)))
    assert iterated_derivative(plane, u, (0,)) == u  # empty-count positions
    assert iterated_derivative(plane, u, (2,)) == plane.pvar(plane.u_var(0, (2,)))


@pytest.mark.parametrize("name", ["point", "contact"])
def test_prolong_keeps_every_term_by_default(name):
    jc, system, _ = load_problem(name).build()
    generator = universal_generator(jc, system)
    for J in mi_up_to(jc.p, 3):
        assert generator.prolong(0, J) == unpruned_prolong(generator, 0, J)


# -- pruned against unpruned, through the lift ------------------------------------

MAX_J = 4
# The values a random cross-section fixes a coordinate at; None leaves it free.
VALUES = [None, None, None, 0, 0, 1, -2, Fraction(1, 3)]


class _Problem:
    """A system, a generator over its fields and the generator's unpruned
    phi^J, built once: the unpruned coefficient does not depend on the
    cross-section."""

    def __init__(self, jc, system, generator):
        self.jc, self.system, self.generator = jc, system, generator
        self.js = mi_up_to(jc.p, MAX_J)
        self.unpruned = {J: unpruned_prolong(generator, 0, J) for J in self.js}
        # every coordinate phi^J mentions for |J| <= MAX_J
        self.coords = [coord_x(i) for i in range(jc.p)]
        self.coords += [coord_u(0, K) for K in mi_up_to(jc.p, MAX_J + 1)]


def _shipped(name):
    jc, system, _ = load_problem(name).build()
    return _Problem(jc, system, universal_generator(jc, system))


def _toy():
    """A generator whose coefficients hold powers of x and u: the universal
    generator's phi^J has no coordinate x^i among its factors."""
    jc = JetContext(["x"], ["u"])
    base = [coord_x(0), coord_u(0, (0,))]
    fields = [jc.field("xi", base), jc.field("eta", base)]
    xi, eta = (jc.pvar(jc.field_var(f, (0, 0))) for f in fields)
    x, u = jc.pvar(jc.x_var(0)), jc.pvar(jc.u_var(0, (0,)))
    generator = InfinitesimalGenerator(jc, [x * x * xi + u * eta], [x * u * eta - x**3 * xi])
    return _Problem(jc, DeterminingSystem(jc, fields), generator)


BUILDERS = {"point": lambda: _shipped("point"), "contact": lambda: _shipped("contact"), "toy": _toy}
BUILT = {}


@pytest.mark.parametrize("name", sorted(p.stem for p in PROBLEMS.glob("*.prob")))
def test_unpruned_prolongation_holds_no_independent_variable(name):
    """Each coefficient of ``Q`` is an order-0 field jet, and ``D_i`` of one
    is field jets times ``D_i`` of base coordinates: a constant or a u-jet.
    So ``D_J Q`` holds no independent variable, and
    ``RecurrenceEngine._depth`` needs no case for one."""
    jc, system, _ = load_problem(name).build()
    generator = universal_generator(jc, system)
    for alpha in range(len(jc.dependents)):
        for J in mi_up_to(jc.p, 4):
            for key in generator.prolong(alpha, J).terms:
                assert all(jc.decode(jc.ctx.var_by_id(vid))[0] != "x" for vid, _ in key), (name, alpha, J, key)


@given(st.sampled_from(sorted(BUILDERS)), st.data())
@settings(max_examples=20, deadline=None)
def test_pruned_prolongation_lifts_like_the_unpruned(name, data):
    if name not in BUILT:
        BUILT[name] = BUILDERS[name]()
    prob = BUILT[name]
    cs = CrossSection(prob.jc)
    values = data.draw(st.lists(st.sampled_from(VALUES), min_size=len(prob.coords), max_size=len(prob.coords)))
    for coord, value in zip(prob.coords, values):
        if value is not None:
            cs.normalize_coord(coord, value)
    engine = RecurrenceEngine(prob.system, cs)
    engine.generator = prob.generator
    for J in prob.js:
        subject = coord_u(0, J)
        assert engine.recurrence(subject) == engine.horizontal(0, J) + engine.lift_linear(prob.unpruned[J])


# -- the unpruned path against sympy ----------------------------------------------


class _SympyJets:
    """Jet space in sympy: one symbol per coordinate, per dependent jet and
    per coefficient-field jet, and the total derivative as the chain rule
    over the symbols an expression holds."""

    def __init__(self, sp, jc):
        self.sp = sp
        self.jc = jc
        self.x = [sp.Symbol(name) for name in jc.independents]
        self.roles = {}

    def _symbol(self, name, role):
        sym = self.sp.Symbol(name)
        self.roles[sym] = role
        return sym

    def u(self, alpha, J):
        return self._symbol(f"u{alpha}_" + "_".join(map(str, J)), ("u", alpha, J))

    def f(self, fidx, B):
        return self._symbol(f"f{fidx}_" + "_".join(map(str, B)), ("f", fidx, B))

    def D(self, expr, i):
        sp, jc = self.sp, self.jc
        out = sp.diff(expr, self.x[i])
        for sym in expr.free_symbols:
            role = self.roles.get(sym)
            if role is None:
                continue
            if role[0] == "u":
                d = self.u(role[1], mi_bump(role[2], i))
            else:
                # D_i f_B = sum over the base coordinates c of D_i(c) f_{B,c}
                field = jc.fields[role[1]]
                d = 0
                for pos, coord in enumerate(field.base):
                    if coord[0] == "x":
                        dc = 1 if coord[1] == i else 0
                    else:
                        dc = self.u(coord[1], mi_bump(coord[2], i))
                    d += dc * self.f(role[1], mi_bump(role[2], pos))
            out += sp.diff(expr, sym) * d
        return sp.expand(out)

    def from_poly(self, poly):
        """The sympy image of a polynomial in coordinates and jets."""
        sp, jc = self.sp, self.jc
        out = 0
        for key, c in poly.terms.items():
            term = sp.Rational(c.numerator, c.denominator)
            for vid, e in key:
                decoded = jc.decode(jc.ctx.var_by_id(vid))
                if decoded[0] == "x":
                    term *= self.x[decoded[1]] ** e
                elif decoded[0] == "u":
                    term *= self.u(decoded[1], decoded[2]) ** e
                else:
                    term *= self.f(decoded[1], decoded[2]) ** e
            out += term
        return sp.expand(out)

    def prolong(self, xi, phi, J):
        """D_J(phi - sum_i xi^i u_i) + sum_i xi^i u_{J,i} for the first
        dependent variable."""
        p = self.jc.p
        zero = mi_zero(p)
        q = phi - sum(xi[i] * self.u(0, mi_bump(zero, i)) for i in range(p))
        for i, c in enumerate(J):
            for _ in range(c):
                q = self.D(q, i)
        return self.sp.expand(q + sum(xi[i] * self.u(0, mi_bump(J, i)) for i in range(p)))


def _toy_generators(jc):
    """On one independent x and one dependent u: the generator with symbolic
    coefficient functions xi(x, u), eta(x, u), and one with polynomial
    coefficients."""
    base = [coord_x(0), coord_u(0, (0,))]
    xi = jc.pvar(jc.field_var(jc.field("xi", base), (0, 0)))
    eta = jc.pvar(jc.field_var(jc.field("eta", base), (0, 0)))
    x, u = jc.pvar(jc.x_var(0)), jc.pvar(jc.u_var(0, (0,)))
    return [([xi], [eta]), ([x * x * u], [x * u * u - 3 * x])]


def test_unpruned_prolongation_matches_sympy_on_a_toy_generator():
    sp = pytest.importorskip("sympy")
    jc = JetContext(["x"], ["u"])
    sj = _SympyJets(sp, jc)
    for xi, phi in _toy_generators(jc):
        generator = InfinitesimalGenerator(jc, xi, phi)
        sxi = [sj.from_poly(c) for c in xi]
        sphi = sj.from_poly(phi[0])
        for order in range(4):
            J = (order,)
            assert sj.from_poly(generator.prolong(0, J)) == sj.prolong(sxi, sphi, J)


def test_unpruned_prolongation_matches_sympy_on_point():
    sp = pytest.importorskip("sympy")
    jc, system, _ = load_problem("point").build()
    generator = universal_generator(jc, system)
    sj = _SympyJets(sp, jc)
    sxi = [sj.from_poly(c) for c in generator.xi]
    sphi = sj.from_poly(generator.phi[0])
    for J in mi_up_to(jc.p, 3):
        assert sj.from_poly(generator.prolong(0, J)) == sj.prolong(sxi, sphi, J)
