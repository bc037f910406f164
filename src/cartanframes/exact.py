"""Exact scalar, polynomial and rational-function arithmetic plus deterministic
linear algebra.

Everything downstream (jet calculus, recurrence relations, symbol matrices)
runs on the types in this module, so the design goals are: no floats anywhere,
canonical representatives for every value, and fully deterministic pivoting.

Scalars are ``fractions.Fraction``.  Polynomials are sparse dictionaries
mapping exponent keys to nonzero Fractions; an exponent key is a sorted tuple
of ``(variable_id, exponent)`` pairs so that the variable table can grow
lazily without invalidating existing values.  The canonical monomial order is
graded lexicographic with respect to each variable's structural sort key.

All row reduction goes through one forward-elimination kernel that never swaps
rows: each column, left to right, pivots on the first remaining row in
original order whose entry the caller accepts.  Callers may rely on the pivot
columns and on the row span, not on the contents of the reduced rows.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Iterable, Optional, Sequence

Q = Fraction
QZERO = Fraction(0)
QONE = Fraction(1)

ExpKey = tuple[tuple[int, int], ...]


class ExactError(Exception):
    """Malformed input to an exact-arithmetic operation (e.g. zero denominator)."""


class Variable:
    """An interned indeterminate.

    ``skey`` is a structural sort key (kind rank plus indices) used for the
    graded-lex order; it does not depend on registration order, so canonical
    forms are reproducible across runs that build the same variables in a
    different sequence.
    """

    __slots__ = ("vid", "name", "skey")

    def __init__(self, vid: int, name: str, skey: tuple):
        self.vid = vid
        self.name = name
        self.skey = skey

    def __repr__(self):
        return f"Variable({self.name!r})"


class Context:
    """Registry of variables shared by all polynomials of one problem."""

    def __init__(self):
        self._vars: list[Variable] = []
        self._by_key: dict[tuple, Variable] = {}
        self._consts: dict[Fraction, "RatFn"] = {}

    def variable(self, name: str, skey: Optional[tuple] = None, intern_key=None) -> Variable:
        """Register (or fetch) a variable.  ``intern_key`` defaults to the name."""
        key = intern_key if intern_key is not None else ("name", name)
        if key in self._by_key:
            return self._by_key[key]
        var = Variable(len(self._vars), name, skey if skey is not None else (9, name))
        self._vars.append(var)
        self._by_key[key] = var
        return var

    def find(self, intern_key) -> Optional[Variable]:
        return self._by_key.get(intern_key)

    def var_by_id(self, vid: int) -> Variable:
        return self._vars[vid]

    def __len__(self):
        return len(self._vars)

    # -- polynomial constructors ------------------------------------------

    def poly(self, const: int | Fraction = 0) -> "Poly":
        c = Q(const)
        return Poly(self, {} if c == 0 else {(): c})

    def poly_var(self, var: Variable, exp: int = 1) -> "Poly":
        if exp < 0:
            raise ExactError("negative exponent")
        if exp == 0:
            return self.poly(1)
        return Poly(self, {((var.vid, exp),): QONE})

    def ratfn(self, const: int | Fraction = 0) -> "RatFn":
        """A constant in canonical form: integer numerator over the positive
        denominator, exactly as ``normal_form`` would store it.

        There is one instance per value (an int and the equal Fraction share
        it); ``Poly`` and ``RatFn`` are never mutated, so sharing is safe."""
        r = self._consts.get(const)
        if r is None:
            c = Q(const)
            r = self._consts[c] = RatFn(self.poly(c.numerator), self.poly(c.denominator), _normalized=True)
        return r


def _merge_exp(a: ExpKey, b: ExpKey) -> ExpKey:
    """Multiply two monomials (add exponents)."""
    if not a:
        return b
    if not b:
        return a
    if len(b) == 1:
        # one factor: insert it into the sorted key, or add to its exponent
        ((vid, e),) = b
        for pos, (v, k) in enumerate(a):
            if v == vid:
                k += e
                return a[:pos] + ((v, k),) + a[pos + 1 :] if k else a[:pos] + a[pos + 1 :]
            if v > vid:
                return a[:pos] + b + a[pos:]
        return a + b
    out = dict(a)
    for vid, e in b:
        out[vid] = out.get(vid, 0) + e
    return tuple(sorted((v, e) for v, e in out.items() if e))


def _add_term(terms: dict, key, c: Fraction) -> None:
    """terms[key] += c in a sparse term dict, dropping the key if the sum
    vanishes."""
    prev = terms.get(key)
    s = c if prev is None else prev + c
    if s:
        terms[key] = s
    else:
        terms.pop(key, None)


def _exp_degree(key: ExpKey) -> int:
    return sum(e for _, e in key)


class Poly:
    """Sparse multivariate polynomial with Fraction coefficients."""

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx: Context, terms: dict[ExpKey, Fraction]):
        self.ctx = ctx
        self.terms = terms

    # -- basics ------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def is_constant(self) -> bool:
        return all(not k for k in self.terms)

    def constant_value(self) -> Fraction:
        if self.is_zero():
            return QZERO
        if not self.is_constant():
            raise ExactError("polynomial is not constant")
        return self.terms[()]

    def degree(self) -> int:
        if not self.terms:
            return 0
        return max(_exp_degree(k) for k in self.terms)

    def variables(self) -> set[int]:
        out: set[int] = set()
        for key in self.terms:
            out.update(vid for vid, _ in key)
        return out

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        if not self.terms:
            return other
        if not other.terms:
            return self
        out = dict(self.terms)
        for key, c in other.terms.items():
            _add_term(out, key, c)
        return Poly(self.ctx, out)

    def __neg__(self) -> "Poly":
        return Poly(self.ctx, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = Q(other)
            if c == 0:
                return Poly(self.ctx, {})
            return Poly(self.ctx, {k: v * c for k, v in self.terms.items()})
        if not isinstance(other, Poly):
            return NotImplemented
        if not self.terms or not other.terms:
            return Poly(self.ctx, {})
        out: dict[ExpKey, Fraction] = {}
        for ka, ca in self.terms.items():
            for kb, cb in other.terms.items():
                _add_term(out, _merge_exp(ka, kb), ca * cb)
        return Poly(self.ctx, out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ExactError("negative power of a polynomial")
        result = self.ctx.poly(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- structure ----------------------------------------------------------

    def _mono_cmp(self, ka: ExpKey, kb: ExpKey) -> int:
        """Graded-lex comparison: total degree first, then exponent vectors
        read along the structural variable order (missing variables are 0, an
        earlier variable with a positive exponent wins)."""
        da, db = _exp_degree(ka), _exp_degree(kb)
        if da != db:
            return -1 if da < db else 1
        seq_a = sorted((self.ctx.var_by_id(v).skey, e) for v, e in ka)
        seq_b = sorted((self.ctx.var_by_id(v).skey, e) for v, e in kb)
        for (sa, ea), (sb, eb) in zip(seq_a, seq_b):
            if sa != sb:
                return 1 if sa < sb else -1
            if ea != eb:
                return 1 if ea > eb else -1
        return 0

    def sorted_keys(self, reverse: bool = False) -> list[ExpKey]:
        import functools

        return sorted(self.terms, key=functools.cmp_to_key(self._mono_cmp), reverse=reverse)

    def leading_key(self) -> ExpKey:
        if not self.terms:
            raise ExactError("zero polynomial has no leading term")
        best = None
        for key in self.terms:
            if best is None or self._mono_cmp(key, best) > 0:
                best = key
        return best

    def leading_coeff(self) -> Fraction:
        return self.terms[self.leading_key()]

    def partial(self, var: Variable) -> "Poly":
        """Formal partial derivative with respect to ``var``."""
        out: dict[ExpKey, Fraction] = {}
        for key, c in self.terms.items():
            d = dict(key)
            e = d.get(var.vid, 0)
            if not e:
                continue
            if e == 1:
                d.pop(var.vid)
            else:
                d[var.vid] = e - 1
            _add_term(out, tuple(sorted(d.items())), c * e)
        return Poly(self.ctx, out)

    def rename(self, vid_map: dict[int, int]) -> "Poly":
        """Relabel variables (by id) through an injective map onto variables
        the polynomial does not hold; coefficients are kept."""
        if vid_map.keys().isdisjoint(self.variables()):
            return self
        return Poly(
            self.ctx,
            {tuple(sorted([(vid_map.get(vid, vid), e) for vid, e in key])): c for key, c in self.terms.items()},
        )

    def __repr__(self):
        return f"Poly({format_poly(self)})"


def format_poly(p: Poly) -> str:
    """Canonical human-readable form, ordered by descending graded-lex."""
    parts = []
    for key in p.sorted_keys(reverse=True):
        factors = sorted(key, key=lambda ve: p.ctx.var_by_id(ve[0]).skey)
        mono = format_monomial([(p.ctx.var_by_id(vid).name, e) for vid, e in factors])
        parts.append(format_term(str(p.terms[key]), mono))
    return format_sum(parts)


# -- report notation -----------------------------------------------------------


def format_term(coeff: str, body: str) -> str:
    """One term ``coeff*body`` of a signed sum: the coefficient alone for an
    empty body, ``body`` and ``-body`` for the coefficients 1 and -1, and the
    coefficient in parentheses when it is itself a sum (``format_ratfn``
    puts spaces only around ``+`` and ``-``)."""
    if not body:
        return coeff
    if coeff == "1":
        return body
    if coeff == "-1":
        return f"-{body}"
    if " + " in coeff or " - " in coeff:
        coeff = f"({coeff})"
    return f"{coeff}*{body}"


def format_sum(parts: Sequence[str]) -> str:
    """Join signed terms with ``" + "``, or ``" - "`` before a term that
    starts with ``-``; ``0`` for no terms."""
    if not parts:
        return "0"
    out = parts[0]
    for piece in parts[1:]:
        out += f" - {piece[1:]}" if piece.startswith("-") else f" + {piece}"
    return out


def format_monomial(factors: Iterable[tuple[str, int]]) -> str:
    """``a*b^2``: the ``*``-product of (name, exponent) pairs, exponent 0 left out."""
    return "*".join([name if e == 1 else f"{name}^{e}" for name, e in factors if e])


def subscript(names: Sequence[str], counts: Sequence[int]) -> str:
    """Compact jet subscript ``_x2y`` of the exponent ``counts`` over
    ``names``, a count above 1 written after its name; empty for all zeros."""
    sub = "".join([f"{name}{c if c > 1 else ''}" for name, c in zip(names, counts) if c])
    return f"_{sub}" if sub else ""


# -- gcd ---------------------------------------------------------------------


def _poly_divmod_exact(num: Poly, den: Poly) -> Poly:
    """Exact division num / den; raises ExactError if not divisible."""
    if den.is_zero():
        raise ExactError("division by zero polynomial")
    ctx = num.ctx
    rem = num
    quot = ctx.poly(0)
    den_lk = den.leading_key()
    den_lc = den.terms[den_lk]
    den_exp = dict(den_lk)
    while rem.terms:
        lk = rem.leading_key()
        lexp = dict(lk)
        qexp = {}
        for vid, e in den_exp.items():
            if lexp.get(vid, 0) < e:
                raise ExactError("not exactly divisible")
            qexp[vid] = lexp[vid] - e
        for vid, e in lexp.items():
            if vid not in den_exp:
                qexp[vid] = e
        qkey = tuple(sorted((v, e) for v, e in qexp.items() if e))
        qc = rem.terms[lk] / den_lc
        qterm = Poly(ctx, {qkey: qc})
        quot = quot + qterm
        rem = rem - qterm * den
    return quot


def _as_univariate(p: Poly, var: Variable) -> dict[int, Poly]:
    """View p as a polynomial in ``var`` with Poly coefficients."""
    out: dict[int, Poly] = {}
    for key, c in p.terms.items():
        d = dict(key)
        e = d.pop(var.vid, 0)
        rest = tuple(sorted(d.items()))
        coeff = out.setdefault(e, Poly(p.ctx, {}))
        out[e] = coeff + Poly(p.ctx, {rest: c})
    return {e: c for e, c in out.items() if c.terms}


def _from_univariate(ctx: Context, var: Variable, coeffs: dict[int, Poly]) -> Poly:
    total = ctx.poly(0)
    for e, c in coeffs.items():
        total = total + c * ctx.poly_var(var, e)
    return total


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Greatest common divisor, normalized to leading coefficient 1."""
    if a.is_zero() and b.is_zero():
        return a.ctx.poly(0)
    if a.is_zero():
        return _monic(b)
    if b.is_zero():
        return _monic(a)
    if a.is_constant() or b.is_constant():
        return a.ctx.poly(1)
    da, db = _degrees(a), _degrees(b)
    common = da.keys() & db.keys()
    if not common:
        return a.ctx.poly(1)
    # the main variable: a common one of least degree, the latest in the
    # variable order among those
    least = min(max(da[vid], db[vid]) for vid in common)
    var = max(
        (a.ctx.var_by_id(vid) for vid in common if max(da[vid], db[vid]) == least), key=lambda var: var.skey
    )
    ua, ub = _as_univariate(a, var), _as_univariate(b, var)
    if len(da) == 1 and len(db) == 1:
        return _uni_gcd_q(a.ctx, var, ua, ub)
    ca, cb = _content(a.ctx, ua), _content(a.ctx, ub)
    pa = {e: _poly_divmod_exact(c, ca) for e, c in ua.items()}
    pb = {e: _poly_divmod_exact(c, cb) for e, c in ub.items()}
    gc = poly_gcd(ca, cb)
    gp = a.ctx.poly(1) if _images_coprime(pa, pb) else _prs_gcd(a.ctx, var, pa, pb)
    return _monic(gc * gp)


def _degrees(p: Poly) -> dict[int, int]:
    """The degree of ``p`` in each of its variables."""
    out: dict[int, int] = {}
    for key in p.terms:
        for vid, e in key:
            if e > out.get(vid, 0):
                out[vid] = e
    return out


def _uni_gcd_q(ctx: Context, var: Variable, ua: dict[int, Poly], ub: dict[int, Poly]) -> Poly:
    """Monic gcd of two univariate polynomials in ``var`` (views with
    constant coefficients), by Euclid over Q on dense coefficient lists."""
    fa = [ua[e].constant_value() if e in ua else QZERO for e in range(_uni_degree(ua) + 1)]
    fb = [ub[e].constant_value() if e in ub else QZERO for e in range(_uni_degree(ub) + 1)]
    while fb:
        fa, fb = fb, _uni_rem_q(fa, fb)
        while fb and not fb[-1]:
            fb.pop()
    lead = fa[-1]
    return Poly(ctx, {((var.vid, e),) if e else (): c / lead for e, c in enumerate(fa) if c})


def _images_coprime(pa: dict[int, Poly], pb: dict[int, Poly]) -> bool:
    """True when the images of ``pa`` and ``pb`` (univariate views) are
    coprime over Q at a small-integer point of the other variables where the
    leading coefficient of ``pa`` does not vanish.  A common factor of
    positive degree keeps its degree at such a point, so for primitive
    ``pa``, ``pb`` coprime images mean a gcd of 1.  False when the test is
    inconclusive."""
    vids = sorted(set().union(*(c.variables() for u in (pa, pb) for c in u.values())))
    lead = pa[_uni_degree(pa)]
    for shift in range(1, 4):
        point = {vid: Q(shift + k) for k, vid in enumerate(vids)}
        if evaluate(lead, point):
            break
    else:
        return False
    fa = [evaluate(pa.get(e), point) for e in range(_uni_degree(pa) + 1)]
    fb = [evaluate(pb.get(e), point) for e in range(_uni_degree(pb) + 1)]
    while any(fb):
        while not fb[-1]:
            fb.pop()
        if len(fb) == 1:
            return True
        fa, fb = fb, _uni_rem_q(fa, fb)
    return False


def evaluate(p: Optional[Poly], point: dict[int, Fraction]) -> Fraction:
    """``p`` at a point (variable id -> value); None is the zero polynomial.
    A variable of ``p`` without a value is an error."""
    out = QZERO
    try:
        for key, c in p.terms.items() if p is not None else ():
            for vid, e in key:
                c *= point[vid] ** e
            out += c
    except KeyError:
        raise ExactError("polynomial is not constant") from None
    return out


def _uni_rem_q(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    """Remainder of dense univariate polynomials over Q (coefficient lists,
    lowest degree first; ``b`` has a nonzero leading coefficient)."""
    a = list(a)
    while len(a) >= len(b):
        factor = a[-1] / b[-1]
        shift = len(a) - len(b)
        for i, c in enumerate(b):
            a[shift + i] -= factor * c
        a.pop()
    return a


def _monic(p: Poly) -> Poly:
    return p * (QONE / p.leading_coeff()) if p.terms else p


def _content(ctx: Context, u: dict[int, Poly]) -> Poly:
    g = ctx.poly(0)
    for c in u.values():
        g = poly_gcd(g, c)
        if g.is_constant() and not g.is_zero():
            return ctx.poly(1)
    return g if g.terms else ctx.poly(1)


def _uni_degree(u: dict[int, Poly]) -> int:
    return max(u) if u else -1


def _uni_scale(u: dict[int, Poly], f: Poly) -> dict[int, Poly]:
    return {e: c * f for e, c in u.items()}


def _uni_sub(a: dict[int, Poly], b: dict[int, Poly], ctx: Context) -> dict[int, Poly]:
    out = dict(a)
    for e, c in b.items():
        s = out.get(e, ctx.poly(0)) - c
        if s.terms:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def _pseudo_rem(ctx: Context, a: dict[int, Poly], b: dict[int, Poly]) -> dict[int, Poly]:
    """Pseudo-remainder of a by b (univariate views over a polynomial ring)."""
    da, db = _uni_degree(a), _uni_degree(b)
    lb = b[db]
    rem = dict(a)
    while rem and _uni_degree(rem) >= db:
        dr = _uni_degree(rem)
        lr = rem[dr]
        rem = _uni_scale(rem, lb)
        shift = {e + dr - db: c * lr for e, c in b.items()}
        rem = _uni_sub(rem, shift, ctx)
        rem = {e: c for e, c in rem.items() if c.terms}
    return rem


def _prs_gcd(ctx: Context, var: Variable, a: dict[int, Poly], b: dict[int, Poly]) -> Poly:
    """Primitive PRS gcd of two primitive univariate-over-ring polynomials."""
    if _uni_degree(a) < _uni_degree(b):
        a, b = b, a
    while True:
        rem = _pseudo_rem(ctx, a, b)
        if not rem:
            return _from_univariate(ctx, var, b)
        if _uni_degree(rem) == 0:
            return ctx.poly(1)
        cont = _content(ctx, rem)
        rem = {e: _poly_divmod_exact(c, cont) for e, c in rem.items()}
        # Over Q every scalar is a unit, so the content leaves the numeric
        # factor in place; without this scaling the coefficients grow
        # exponentially from one pseudo-remainder to the next.
        scale = _primitive_scale([c for p in rem.values() for c in p.terms.values()])
        if scale != 1:
            rem = {e: c * scale for e, c in rem.items()}
        a, b = b, rem


# -- rational functions --------------------------------------------------------


class RatFn:
    """gcd-reduced rational function; the canonical representative has a
    denominator with positive leading coefficient.

    Invariant: ``num`` and ``den`` of every instance are coprime.
    ``_reduce_pair`` makes them so; the constructions that skip it
    (``_normalized=True``) keep it: ``Context.ratfn`` (constant over
    constant), ``poly / 1`` wrappers, negation, ``_times_constant`` and
    ``rename``.
    Multiplying by a constant relies on it to skip the gcd."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly, _normalized: bool = False):
        if den.is_zero():
            raise ExactError("zero denominator")
        if not _normalized:
            num, den = _reduce_pair(num, den)
        self.num = num
        self.den = den

    @property
    def ctx(self) -> Context:
        return self.num.ctx

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self):
        return bool(self.num)

    def is_constant(self) -> bool:
        return self.num.is_constant() and self.den.is_constant()

    def constant_value(self) -> Fraction:
        return self.num.constant_value() / self.den.constant_value()

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ctx.ratfn(other)
        if not isinstance(other, RatFn):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __add__(self, other: "RatFn") -> "RatFn":
        if isinstance(other, (int, Fraction)):
            other = self.ctx.ratfn(other)
        if self.den == other.den:
            return RatFn(self.num + other.num, self.den)
        return RatFn(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return RatFn(-self.num, self.den, _normalized=True)

    def __sub__(self, other):
        return self + (-other if isinstance(other, RatFn) else -self.ctx.ratfn(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return _times_constant(self, other)
        if isinstance(other, Poly):
            other = RatFn(other, self.ctx.poly(1), _normalized=True)
        if not isinstance(other, RatFn):
            return NotImplemented
        if other.is_constant():
            return _times_constant(self, other.constant_value())
        if self.is_constant():
            return _times_constant(other, self.constant_value())
        return RatFn(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ctx.ratfn(other)
        if other.is_zero():
            raise ExactError("division by zero")
        return RatFn(self.num * other.den, self.den * other.num)

    def variables(self) -> set[int]:
        """Ids of the variables of the numerator and the denominator."""
        return self.num.variables() | self.den.variables()

    def inverse(self) -> "RatFn":
        if self.is_zero():
            raise ExactError("inverse of zero")
        return RatFn(self.den, self.num)

    def partial(self, var: Variable) -> "RatFn":
        """Formal partial derivative with respect to ``var`` (quotient rule)."""
        dn, dd = self.num.partial(var), self.den.partial(var)
        if not dn and not dd:
            return self.ctx.ratfn(0)
        return RatFn(dn * self.den - self.num * dd, self.den * self.den)

    def rename(self, vid_map: dict[int, int]) -> "RatFn":
        """Relabel variables as ``Poly.rename`` does.  A relabelling keeps
        ``num`` and ``den`` coprime and keeps their coefficients, so of the
        canonical form only the sign step is redone: the graded-lex order,
        and with it the leading term of ``den``, can change."""
        num, den = self.num.rename(vid_map), self.den.rename(vid_map)
        if num is self.num and den is self.den:
            return self
        if den is not self.den and den.leading_coeff() < 0:
            num, den = -num, -den
        return RatFn(num, den, _normalized=True)

    def at(self, point: dict[int, Fraction]) -> Fraction:
        """The value at a point (variable id -> value) that gives every
        variable of ``num`` and ``den`` a value."""
        den = evaluate(self.den, point)
        if not den:
            raise ExactError("zero denominator")
        return evaluate(self.num, point) / den

    def __repr__(self):
        return f"RatFn({format_ratfn(self)})"


def _primitive_scale(coeffs: list[Fraction]) -> Fraction:
    """The positive scalar that makes ``coeffs`` coprime integers: it clears
    their denominators and divides out their common integer content."""
    lcm_den = 1
    for c in coeffs:
        lcm_den = lcm_den * c.denominator // math.gcd(lcm_den, c.denominator)
    gcd_num = 0
    for c in coeffs:
        gcd_num = math.gcd(gcd_num, abs(c.numerator * (lcm_den // c.denominator)))
    return Q(lcm_den, gcd_num)


def _reduce_pair(num: Poly, den: Poly) -> tuple[Poly, Poly]:
    if num.is_zero():
        return num, den.ctx.poly(1)
    if num.is_constant() and den.is_constant():
        # a constant shares the polynomials of the interned one
        const = num.ctx.ratfn(num.constant_value() / den.constant_value())
        return const.num, const.den
    g = poly_gcd(num, den)
    if not (g.is_constant() and g.constant_value() == 1):
        num = _poly_divmod_exact(num, g)
        den = _poly_divmod_exact(den, g)
    return _primitive_pair(num, den)


def _times_constant(f: RatFn, c: int | Fraction) -> RatFn:
    """``f * c`` for a scalar ``c``.  Multiplying by a unit cannot change the
    gcd of a coprime ``num``/``den`` pair (see ``RatFn``), so only the scaling
    and the sign step of ``_reduce_pair`` are redone; a constant product is
    the interned constant."""
    if not c:
        return f.ctx.ratfn(0)
    if f.is_constant():
        return f.ctx.ratfn(f.constant_value() * c)
    num, den = _primitive_pair(f.num if c == 1 else f.num * c, f.den)
    if num is f.num and den is f.den:
        return f
    return RatFn(num, den, _normalized=True)


def _primitive_pair(num: Poly, den: Poly) -> tuple[Poly, Poly]:
    """Scale a coprime pair to an integer-primitive one, then sign-normalize."""
    scale = _primitive_scale(list(num.terms.values()) + list(den.terms.values()))
    if scale != 1:
        num, den = num * scale, den * scale
    if den.leading_coeff() < 0:
        num, den = -num, -den
    return num, den


def normal_form(f: RatFn) -> RatFn:
    """Unique gcd-reduced sign-normalized representative (idempotent)."""
    return RatFn(f.num, f.den)


def format_ratfn(f: RatFn) -> str:
    if f.den.is_constant() and f.den.constant_value() == 1:
        return format_poly(f.num)
    num, den = format_poly(f.num), format_poly(f.den)
    if " + " in num or " - " in num:
        num = f"({num})"
    if " + " in den or " - " in den or "*" in den:
        den = f"({den})"
    return f"{num}/{den}"


# -- deterministic linear algebra ----------------------------------------------


def _forward_eliminate(rows: list[list], accept: Optional[Callable] = None, rhs=None, scale=None):
    """Forward elimination in place, column by column, without row swaps.

    The pivot of a column is the first free row, in original row order, whose
    entry is nonzero and passes ``accept`` (every nonzero entry when ``accept``
    is None).  The column is cleared from the other free rows, and from their
    ``rhs`` entries through ``scale``; pivot rows are never touched again.
    Returns the ``(column, row)`` pivots in column order and the
    ``(column, entry)`` pairs of blocked columns, whose first nonzero free
    entry ``accept`` refused.
    """
    free = list(range(len(rows)))
    pivots: list[tuple[int, int]] = []
    blocked: list[tuple[int, object]] = []
    for c in range(len(rows[0]) if rows else 0):
        if not free:
            break
        pivot = blocker = None
        for i in free:
            e = rows[i][c]
            if not e:
                continue
            if accept is None or accept(e):
                pivot = i
                break
            if blocker is None:
                blocker = e
        if pivot is None:
            if blocker is not None:
                blocked.append((c, blocker))
            continue
        pivots.append((c, pivot))
        free.remove(pivot)
        prow = rows[pivot]
        pv = prow[c]
        for i in free:
            e = rows[i][c]
            if not e:
                continue
            factor = e / pv
            rows[i] = [a - factor * b if b else a for a, b in zip(rows[i], prow)]
            if rhs is not None:
                rhs[i] = rhs[i] + scale(-factor, rhs[pivot])
    return pivots, blocked


def ordered_row_echelon(rows: Sequence[Sequence]) -> tuple[list[list], list[int]]:
    """Row echelon form of the rows, over Fraction or RatFn entries, using row
    operations only: the pivot rows on top, in column order, then the zero rows.

    Columns are scanned left to right in the caller's order and each pivot is
    the first remaining row, in original order, with a nonzero entry; rows are
    never swapped.  The pivot columns (the rank profile) and the row span are
    therefore fixed by the rows, and they are all a caller may rely on: the
    contents of the individual echelon rows depend on which row pivoted.
    """
    rows = [list(r) for r in rows]
    pivots, _ = _forward_eliminate(rows)
    used = {i for _, i in pivots}
    ordered = [rows[i] for _, i in pivots] + [r for i, r in enumerate(rows) if i not in used]
    return ordered, [c for c, _ in pivots]


def rank(rows: Sequence[Sequence]) -> int:
    return len(_forward_eliminate([list(r) for r in rows])[0])


class LinearSolveResult:
    """Outcome of a partial linear solve.

    ``solved`` maps column labels to solution vectors, ``unsolved`` lists the
    column labels that no declared-invertible pivot could eliminate, and
    ``residual`` holds leftover relations (coefficient row, rhs) that involve
    only unsolved columns.
    """

    def __init__(self, solved, unsolved, residual, blocked):
        self.solved = solved
        self.unsolved = unsolved
        self.residual = residual
        self.blocked = blocked


def solve_linear(
    rows: Sequence[Sequence],
    labels: Sequence,
    rhs: Sequence,
    invertible: Callable = None,
    scale=lambda c, v: c * v,
):
    """Solve ``rows . x = rhs`` for as many unknowns as declared-invertible
    pivots allow; ``labels`` names the unknowns, one per column.

    ``rhs`` entries may live in any abelian group with ``+``; ``scale``
    multiplies one by a scalar (a matrix entry).  Solved unknowns are
    expressed as rhs-group elements plus contributions of unsolved unknowns,
    which the caller receives via per-column coefficient maps.

    Returns a LinearSolveResult whose ``solved`` maps column label ->
    (rhs_part, {unsolved_label: coeff}).  A row left without unknowns, such
    as 0 = nonzero, is returned in ``residual`` with an empty coefficient map;
    the caller decides what it means.
    """
    work = [list(r) for r in rows]
    vec = list(rhs)
    pivots, blocked = _forward_eliminate(work, invertible or _default_invertible, vec, scale)
    # Back substitution: clear each pivot column from the earlier pivot rows.
    for k, (c, i) in enumerate(pivots):
        prow, pv = work[i], work[i][c]
        for _, j in pivots[:k]:
            e = work[j][c]
            if e:
                factor = e / pv
                work[j] = [a - factor * b if b else a for a, b in zip(work[j], prow)]
                vec[j] = vec[j] + scale(-factor, vec[i])
    pivot_of_col = dict(pivots)
    solved = {}
    for c, i in pivots:
        pv = work[i][c]
        coeffs = {labels[c2]: -(e / pv) for c2, e in enumerate(work[i]) if e and c2 not in pivot_of_col}
        solved[labels[c]] = (scale(pv.inverse() if isinstance(pv, RatFn) else QONE / pv, vec[i]), coeffs)
    unsolved = [label for c, label in enumerate(labels) if c not in pivot_of_col]
    used = set(pivot_of_col.values())
    residual = [
        ({labels[c]: e for c, e in enumerate(row) if e}, vec[i]) for i, row in enumerate(work) if i not in used
    ]
    return LinearSolveResult(solved, unsolved, residual, [(labels[c], e) for c, e in blocked])


def _default_invertible(e) -> bool:
    """Asked of nonzero entries only: a number or a constant RatFn."""
    return not isinstance(e, RatFn) or e.is_constant()
