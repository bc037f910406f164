"""The d^2 audit builds recurrence rules only for the invariants it
differentiates; the eager rule building it replaced is kept here as an
oracle."""

import functools

import pytest

from cartanframes.exact import ExactError, RatFn
from cartanframes.exterior import exterior_derivative
from cartanframes.jets import mi_up_to
from conftest import session


def eligible_coords(engine, inv_order):
    """Every x^i, then every free or nonvanishing u-jet up to inv_order."""
    out = [("x", i) for i in range(engine.jc.p)]
    for alpha in range(engine.jc.q):
        for J in mi_up_to(engine.jc.p, inv_order):
            coord = ("u", alpha, J)
            if engine.cs.value(coord) is None:
                out.append(coord)
    return out


def eager_invariant_differential(engine, state, inv_order):
    """Oracle: the reduced recurrence of every eligible invariant."""
    out = {}
    for coord in eligible_coords(engine, inv_order):
        var = engine.jc.invariant_var(coord)
        out[var.vid] = engine.reduced_recurrence(coord, state)
    return out


class _NoRule(Exception):
    pass


def eager_audit(engine, state, eqs, inv_order):
    """Oracle: every rule built up front, then d applied to each equation
    whose symbols all carry an equation."""
    diff_map = eager_invariant_differential(engine, state, inv_order)
    fc, jc = engine.fc, engine.jc

    def coeff_rule(c):
        out = fc.form()
        for vid in sorted(c.num.variables() | c.den.variables()):
            var = jc.ctx.var_by_id(vid)
            if jc.decode(var)[0] != "inv":
                raise ExactError(f"cannot differentiate coefficient {var.name}")
            rule = diff_map.get(vid)
            if rule is None:
                raise _NoRule(var.name)
            partial = RatFn(c.num.partial(var) * c.den - c.num * c.den.partial(var), c.den * c.den)
            if not partial.is_zero():
                out = out + rule.scale(partial)
        return out

    failures, audited, skipped = [], [], []
    for sid, rhs in eqs.equations.items():
        sym = fc.by_id(sid)
        if any(s not in eqs.equations for s in rhs.symbols()):
            skipped.append(sym)
            continue
        try:
            dd = exterior_derivative(rhs, lambda s: eqs.equations.get(s.sid), coeff_rule)
        except _NoRule:
            skipped.append(sym)
            continue
        if dd.is_zero():
            audited.append(sym)
        else:
            failures.append((sym, dd))
    return failures, audited, skipped


def _names(syms):
    return [s.name for s in syms]


# (fixture or (problem, working order, mc order), audit order, fails): the
# fixture runs at order 5 like the deep branch-I benchmark, the others at the
# CLI's coframe defaults (--order 3 --mc-order 2, audit at order 4).
AUDIT_CASES = [
    pytest.param("point_branch1", 6, False, id="branch1-order6"),
    pytest.param(("point_order0", 3, 2), 4, False, id="point_order0-default"),
    pytest.param(("point", 3, 2), 4, True, id="point-default-truncation"),
    pytest.param(("contact_asprinted", 3, 2), 4, True, id="contact_asprinted-true-negative"),
]


@functools.lru_cache(maxsize=None)
def _cli_default_frame(spec):
    return session(*spec)


def _frame(request, spec):
    return request.getfixturevalue(spec) if isinstance(spec, str) else _cli_default_frame(spec)


@pytest.mark.parametrize("spec, audit_order, fails", AUDIT_CASES)
def test_lazy_audit_matches_eager_oracle(request, monkeypatch, spec, audit_order, fails):
    fr = _frame(request, spec)
    built = []
    lazy_rules = fr.engine.invariant_differential

    def spy(*args):
        rules = lazy_rules(*args)
        built.extend(rules)
        return rules

    monkeypatch.setattr(fr.engine, "invariant_differential", spy)
    failures, audited, skipped = fr.engine.audit_d_squared(fr.state, fr.coframe, audit_order)
    monkeypatch.undo()
    e_failures, e_audited, e_skipped = eager_audit(fr.engine, fr.state, fr.coframe, audit_order)
    assert _names(audited) == _names(e_audited)
    assert _names(skipped) == _names(e_skipped)
    assert [s.name for s, _ in failures] == [s.name for s, _ in e_failures]
    for (_, form), (_, e_form) in zip(failures, e_failures):
        assert form == e_form and form.pretty() == e_form.pretty()
    assert bool(failures) == fails
    assert audited
    # the rules built are those of the invariants in the expanded equations
    used = set()
    for rhs in fr.coframe.equations.values():
        if fr.coframe.closed(rhs):
            for c in rhs.terms.values():
                used |= c.num.variables() | c.den.variables()
    eager = eager_invariant_differential(fr.engine, fr.state, audit_order)
    assert set(built) == used & set(eager) and len(built) < len(eager)


@pytest.mark.parametrize("spec, audit_order, fails", AUDIT_CASES)
def test_invariant_differential_builds_exactly_the_requested_rules(request, spec, audit_order, fails):
    fr = _frame(request, spec)
    engine, jc = fr.engine, fr.jc
    eager = eager_invariant_differential(engine, fr.state, audit_order)
    eligible = [jc.invariant_var(c).vid for c in eligible_coords(engine, audit_order)]
    assert list(eager) == eligible
    beyond = jc.invariant_var(("u", 0, (audit_order + 1,) + (0,) * (jc.p - 1))).vid
    base = jc.x_var(0).vid  # a jet coordinate, not an invariant
    requested = set(eligible[::2]) | {beyond, base}
    rules = engine.invariant_differential(fr.state, audit_order, requested)
    assert set(rules) == set(eligible[::2])
    assert all(rules[vid] == eager[vid] for vid in rules)
    assert engine.invariant_differential(fr.state, audit_order, set()) == {}
