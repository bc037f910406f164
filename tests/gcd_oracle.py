"""Euclid over Q for two univariate polynomials and the coprimality test at an
evaluation point, kept as oracles of ``exact.poly_gcd``, whose one route is
the content and the primitive remainder sequence on the common variable of
least degree."""

from fractions import Fraction

from cartanframes.exact import QZERO, Context, Poly, Variable, _uni_degree, evaluate


def uni_gcd_q(ctx: Context, var: Variable, ua: dict[int, Poly], ub: dict[int, Poly]) -> Poly:
    """Monic gcd of two univariate polynomials in ``var`` (views with
    constant coefficients), by Euclid over Q on dense coefficient lists."""
    fa = [ua[e].constant_value() if e in ua else QZERO for e in range(_uni_degree(ua) + 1)]
    fb = [ub[e].constant_value() if e in ub else QZERO for e in range(_uni_degree(ub) + 1)]
    while fb:
        fa, fb = fb, uni_rem_q(fa, fb)
        while fb and not fb[-1]:
            fb.pop()
    lead = fa[-1]
    return Poly(ctx, {((var.vid, e),) if e else (): Fraction(c) / lead for e, c in enumerate(fa) if c})


def images_coprime(pa: dict[int, Poly], pb: dict[int, Poly]) -> bool:
    """True when the images of ``pa`` and ``pb`` (univariate views) are
    coprime over Q at a small-integer point of the other variables where the
    leading coefficient of ``pa`` does not vanish.  A common factor of
    positive degree keeps its degree at such a point, so for primitive
    ``pa``, ``pb`` coprime images mean a gcd of 1.  False when the test is
    inconclusive."""
    vids = sorted(set().union(*(c.variables() for u in (pa, pb) for c in u.values())))
    lead = pa[_uni_degree(pa)]
    for shift in range(1, 4):
        point = {vid: Fraction(shift + k) for k, vid in enumerate(vids)}
        if evaluate(lead, point):
            break
    else:
        return False
    fa = [evaluate(pa[e], point) if e in pa else QZERO for e in range(_uni_degree(pa) + 1)]
    fb = [evaluate(pb[e], point) if e in pb else QZERO for e in range(_uni_degree(pb) + 1)]
    while any(fb):
        while not fb[-1]:
            fb.pop()
        if len(fb) == 1:
            return True
        fa, fb = fb, uni_rem_q(fa, fb)
    return False


def uni_rem_q(a: list[int | Fraction], b: list[int | Fraction]) -> list[int | Fraction]:
    """Remainder of dense univariate polynomials over Q (coefficient lists,
    lowest degree first; ``b`` has a nonzero leading coefficient).  Entries
    may be ints: each quotient goes through ``Fraction``."""
    a = list(a)
    while len(a) >= len(b):
        factor = Fraction(a[-1]) / b[-1]
        shift = len(a) - len(b)
        for i, c in enumerate(b):
            a[shift + i] -= factor * c
        a.pop()
    return a
