"""Isotropy-module constructions that only the tests use: the dual
prolongation map, the frame annihilator without the stratum restriction,
target restriction, and invariantization of parametrized symbol-module
elements.  They check the annihilator dimensions and the worked examples
against the constructions the CLI runs (``frames.isotropy_annihilator``)."""

from cartanframes.exact import ExactError, Poly, Q, RatFn, _add_term
from cartanframes.frames import FrameState, RecurrenceEngine, _frame_value_tpoly, determining_annihilator
from cartanframes.involution import TPoly
from cartanframes.jets import mi_all, mi_up_to, mi_zero


def invariantize_parametrized(engine: RecurrenceEngine, terms: dict):
    """Invariantize a parametrized symbol-module element: coefficients (RatFn
    in jet coordinates) are replaced by their invariantizations, which the
    cross-section freezes to constants where it normalizes.

    Returns a TPoly when every coefficient becomes rational, else a dict of
    (multi-index, target) -> RatFn over invariant symbols."""
    out = {}
    constant = True
    for key, coeff in terms.items():
        if not isinstance(coeff, RatFn):
            coeff = engine.jc.ratfn(coeff)
        value = engine.iota(coeff)
        out[key] = value
        constant &= value.is_constant()
    if constant:
        return TPoly(engine.system.m, {k: v.constant_value() for k, v in out.items() if not v.is_zero()})
    return out


def restrict_targets(polys, keep: set[int]):
    """Drop polynomials touching targets outside ``keep`` and the order-0
    block (the reduced generator sets of the final worked example)."""
    out = []
    for poly in polys:
        if poly.degree() == 0:
            continue
        if all(a in keep for _, a in poly.terms):
            out.append(poly)
    return out


def pstar_basis(engine: RecurrenceEngine, n: int):
    """Dual prolongation map on the basis of S^{<=n}: p*(s~_i) = T^i,
    p*(S^alpha) = the characteristic's symbol, p*(s_J S^alpha) = the symbol of
    the prolonged coefficient, all evaluated at the cross-section point."""
    jc = engine.jc
    system = engine.system
    m = system.m
    out = []
    for i in range(jc.p):
        out.append(TPoly(m, {(mi_zero(m), i): Q(1)}))
    char = engine.generator._characteristic
    for alpha in range(jc.q):
        poly = _field_linear_to_tpoly(engine, char[alpha])
        if poly is not None and not poly.is_zero():
            out.append(poly)
    for k in range(1, n + 1):
        for J in mi_all(jc.p, k):
            for alpha in range(jc.q):
                phi = engine.generator.prolong(alpha, J)
                poly = _field_linear_to_tpoly(engine, phi)
                if poly is not None and not poly.is_zero():
                    out.append(poly)
    return out


def _field_linear_to_tpoly(engine: RecurrenceEngine, phi):
    """Coefficient extraction <v; .> at the cross-section point for a
    polynomial linear in the coefficient-field jets."""
    jc = engine.jc
    m = engine.system.m
    terms: dict = {}
    for key, c in phi.terms.items():
        fkey = None
        rest = []
        for vid, e in key:
            var = jc.ctx.var_by_id(vid)
            decoded = jc.decode(var)
            if decoded[0] == "f":
                fkey = (decoded[1], decoded[2])
            else:
                rest.append((vid, e))
        if fkey is None:
            raise ExactError("pairing: term without a field jet")
        mono = Poly(jc.ctx, {tuple(sorted(rest)): c})
        value = engine.iota(RatFn(mono, jc.poly(1)))
        if not value.is_constant():
            return None
        if value:
            _add_term(terms, (fkey[1], fkey[0]), value.constant_value())
    return TPoly(m, terms)


def frame_annihilator_full(engine: RecurrenceEngine, state: FrameState, n: int):
    """Frame-derived isotropy annihilator without the stratum restriction or
    the per-element degree filter (input to the dimension checks)."""
    m = engine.system.m
    out = list(determining_annihilator(engine, n + 2))
    for a in range(m):
        for B in mi_up_to(m, n):
            poly = _frame_value_tpoly(engine, (a, B), state.mu_value((a, B)))
            if poly is not None:
                out.append(poly)
    return [p for p in out if not p.is_zero()]
