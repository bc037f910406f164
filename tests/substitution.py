"""General substitution of polynomials for variables: the oracle for the
relabelling ``RatFn.rename`` and the point evaluation ``RatFn.at``.  The
result is rebuilt through ``RatFn``, so it goes through the full gcd
normalization."""

from fractions import Fraction

from cartanframes.exact import Poly, RatFn


def subs_poly(p: Poly, mapping: dict) -> Poly:
    """Substitute variables (by id) with polynomials or constants."""
    ctx = p.ctx
    result = ctx.poly(0)
    for key, c in p.terms.items():
        term = ctx.poly(c)
        for vid, e in key:
            repl = mapping.get(vid)
            if repl is None:
                repl = ctx.poly_var(ctx.var_by_id(vid))
            elif not isinstance(repl, Poly):
                repl = ctx.poly(Fraction(repl))
            term = term * repl**e
        result = result + term
    return result


def subs_ratfn(f: RatFn, mapping: dict) -> RatFn:
    return RatFn(subs_poly(f.num, mapping), subs_poly(f.den, mapping))
