"""The graded-lex monomial order as a pairwise comparator, kept as the
oracle of ``Poly._mono_key``, the sort key that replaced it."""

from cartanframes.exact import ExpKey, Poly, _exp_degree


def mono_cmp(p: Poly, ka: ExpKey, kb: ExpKey) -> int:
    """Graded-lex comparison: total degree first, then exponent vectors read
    along the structural variable order (missing variables are 0, an earlier
    variable with a positive exponent wins)."""
    da, db = _exp_degree(ka), _exp_degree(kb)
    if da != db:
        return -1 if da < db else 1
    seq_a = sorted((p.ctx.var_by_id(v).skey, e) for v, e in ka)
    seq_b = sorted((p.ctx.var_by_id(v).skey, e) for v, e in kb)
    for (sa, ea), (sb, eb) in zip(seq_a, seq_b):
        if sa != sb:
            return 1 if sa < sb else -1
        if ea != eb:
            return 1 if ea > eb else -1
    return 0
