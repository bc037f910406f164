"""The fixed-point Buchberger completion and the element-per-step reduction,
kept as the oracle of ``involution.groebner_module`` and
``involution.groebner_reduce``: each round rebuilds every same-position
S-pair of the whole basis and reduces them all again, until a round adds
nothing."""

from fractions import Fraction
from typing import Sequence

from cartanframes.exact import ExactError
from cartanframes.involution import SPoly, _leading_term, _term_cmp_key, _term_divides, _term_quotient


def leads_of(basis: Sequence[SPoly]) -> list:
    """The ``(lead, terms)`` pairs of the nonzero elements of ``basis``, the
    form in which ``involution.groebner_reduce`` takes a basis."""
    return [(_leading_term(g), g.terms) for g in basis if not g.is_zero()]


def oracle_groebner_reduce(e: SPoly, basis: Sequence[SPoly]) -> SPoly:
    """Normal form of e modulo the basis, one ``SPoly`` per step."""
    if e.stilde:
        raise ExactError("Groebner machinery lives in the hatted module")
    result = SPoly(e.p, e.q)
    work = e
    leads = [(g, _leading_term(g), g.terms[_leading_term(g)]) for g in basis if not g.is_zero()]
    while not work.is_zero():
        lt = _leading_term(work)
        lc = work.terms[lt]
        hit = None
        for g, glt, glc in leads:
            if _term_divides(glt, lt):
                hit = (g, glt, glc)
                break
        if hit is None:
            mono = SPoly(work.p, work.q, {}, {lt: lc})
            result = result + mono
            work = work - mono
        else:
            g, glt, glc = hit
            factor = lc / glc
            work = work - g.mul_monomial(_term_quotient(glt, lt)).scale(factor)
    return result


def oracle_groebner_module(gens: Sequence[SPoly]) -> list[SPoly]:
    """Reduced basis with monic leading coefficients, completed by rounds
    until no S-pair has a nonzero normal form."""
    basis = [g for g in gens if not g.is_zero()]
    changed = True
    while changed:
        changed = False
        pairs = []
        for i in range(len(basis)):
            for j in range(i + 1, len(basis)):
                lt_i, lt_j = _leading_term(basis[i]), _leading_term(basis[j])
                if lt_i[1] != lt_j[1]:
                    continue
                pairs.append((i, j))
        for i, j in pairs:
            g, h = basis[i], basis[j]
            lt_g, lt_h = _leading_term(g), _leading_term(h)
            lcm = tuple(max(a, b) for a, b in zip(lt_g[0], lt_h[0]))
            mg = tuple(l - a for l, a in zip(lcm, lt_g[0]))
            mh = tuple(l - a for l, a in zip(lcm, lt_h[0]))
            s = g.mul_monomial(mg).scale(Fraction(1) / g.terms[lt_g]) - h.mul_monomial(mh).scale(
                Fraction(1) / h.terms[lt_h]
            )
            nf = oracle_groebner_reduce(s, basis)
            if not nf.is_zero():
                basis.append(nf)
                changed = True
    minimal = []
    for g in sorted(basis, key=lambda g: _term_cmp_key(_leading_term(g))):
        lt = _leading_term(g)
        if not any(_term_divides(_leading_term(h), lt) for h in minimal):
            minimal.append(g)
    reduced = []
    for i, g in enumerate(minimal):
        others = minimal[:i] + minimal[i + 1 :]
        nf = oracle_groebner_reduce(g, others)
        lt = _leading_term(nf)
        reduced.append(nf.scale(Fraction(1) / nf.terms[lt]))
    reduced.sort(key=lambda g: _term_cmp_key(_leading_term(g)))
    return reduced
