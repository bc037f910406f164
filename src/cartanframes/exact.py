"""Exact scalar, polynomial and rational-function arithmetic plus deterministic
linear algebra.

Everything downstream (jet calculus, recurrence relations, symbol matrices)
runs on the types in this module, so the design goals are: no floats anywhere,
canonical representatives for every value, and fully deterministic pivoting.

A scalar is an ``int`` when it is integral and a ``fractions.Fraction``
only for a true fraction; ``scalar`` gives the canonical one of an int or a
Fraction and refuses floats and bools.  An ``int`` and the equal ``Fraction``
compare and hash alike.  Every coefficient of a canonical ``RatFn`` is an
``int``, so the polynomial arithmetic under the recurrence engine runs on
Python ints.  A quotient of two scalars goes through ``Fraction``
(``_quotient``), since ``int / int`` is a float.

Polynomials are sparse dictionaries mapping exponent keys to nonzero scalars;
an exponent key is a sorted tuple of ``(variable_id, exponent)`` pairs so that
the variable table can grow lazily without invalidating existing values.  The
canonical monomial order is graded lexicographic with respect to each
variable's structural sort key.

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


def scalar(c) -> int | Fraction:
    """The canonical scalar equal to ``c``: an ``int`` when ``c`` is
    integral, else a ``Fraction``.  A float, a bool or any other type raises
    ``ExactError``."""
    if type(c) is int:
        return c
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    raise ExactError(f"not an exact scalar: {c!r}")


def _quotient(a: int | Fraction, b: int | Fraction) -> int | Fraction:
    """The canonical scalar ``a / b``; ``b`` is nonzero."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    return scalar(Fraction(a) / b)


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
        self._consts: dict[int | Fraction, "RatFn"] = {}

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

    # -- polynomial constructors ------------------------------------------

    def poly(self, const: int | Fraction = 0) -> "Poly":
        c = const if type(const) is int else scalar(const)
        return Poly(self, {(): c} if c else {})

    def poly_var(self, var: Variable, exp: int = 1) -> "Poly":
        if exp < 0:
            raise ExactError("negative exponent")
        if exp == 0:
            return self.poly(1)
        return Poly(self, {((var.vid, exp),): 1})

    def ratfn(self, const: int | Fraction = 0) -> "RatFn":
        """A constant in canonical form: integer numerator over the positive
        denominator, exactly as ``RatFn(num, den)`` would store it.

        There is one instance per value (an int and the equal Fraction share
        it); ``Poly`` and ``RatFn`` are never mutated, so sharing is safe.
        A float or a bool raises ``ExactError``, also where it equals a
        stored value."""
        c = const if type(const) is int else scalar(const)
        r = self._consts.get(c)
        if r is None:
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


def _add_term(terms: dict, key, c: int | Fraction) -> None:
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
    """Sparse multivariate polynomial with scalar (int or Fraction) coefficients."""

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx: Context, terms: dict[ExpKey, int | Fraction]):
        self.ctx = ctx
        self.terms = terms

    # -- basics ------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def is_constant(self) -> bool:
        return all(not k for k in self.terms)

    def constant_value(self) -> int | Fraction:
        if self.is_zero():
            return 0
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
            c = scalar(other)
            if not c:
                return Poly(self.ctx, {})
            return Poly(self.ctx, {k: v * c for k, v in self.terms.items()})
        if not isinstance(other, Poly):
            return NotImplemented
        if not self.terms or not other.terms:
            return Poly(self.ctx, {})
        out: dict[ExpKey, int | Fraction] = {}
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

    def _mono_key(self, key: ExpKey) -> tuple:
        """Graded-lex sort key, least for the leading monomial: degree first,
        then ``(skey, -e)`` along the structural variable order."""
        var_by_id = self.ctx.var_by_id
        return (-_exp_degree(key), sorted([(var_by_id(v).skey, -e) for v, e in key]))

    def leading_key(self) -> ExpKey:
        if not self.terms:
            raise ExactError("zero polynomial has no leading term")
        if len(self.terms) == 1:
            return next(iter(self.terms))
        return min(self.terms, key=self._mono_key)

    def leading_coeff(self) -> int | Fraction:
        return self.terms[self.leading_key()]

    def partial(self, var: Variable) -> "Poly":
        """Formal partial derivative with respect to ``var``."""
        out: dict[ExpKey, int | Fraction] = {}
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
    for key in sorted(p.terms, key=p._mono_key):
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
        qc = _quotient(rem.terms[lk], den_lc)
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
    # the gcd of the contents times the gcd of the primitive parts
    ua, ub = _as_univariate(a, var), _as_univariate(b, var)
    ca, cb = _content(a.ctx, ua), _content(a.ctx, ub)
    pa = {e: _poly_divmod_exact(c, ca) for e, c in ua.items()}
    pb = {e: _poly_divmod_exact(c, cb) for e, c in ub.items()}
    return _monic(poly_gcd(ca, cb) * _prs_gcd(a.ctx, var, pa, pb))


def _degrees(p: Poly) -> dict[int, int]:
    """The degree of ``p`` in each of its variables."""
    out: dict[int, int] = {}
    for key in p.terms:
        for vid, e in key:
            if e > out.get(vid, 0):
                out[vid] = e
    return out


def _monic(p: Poly) -> Poly:
    return p * _quotient(1, p.leading_coeff()) if p.terms else p


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
        # Over Q every scalar is a unit, so the content leaves the numeric
        # factor in place; without this scaling the coefficients grow
        # exponentially from one pseudo-remainder to the next.
        prim = _primitive([_poly_divmod_exact(c, cont) for c in rem.values()])
        a, b = b, dict(zip(rem, prim))


def evaluate(p: Poly, point: dict[int, int | Fraction]) -> int | Fraction:
    """``p`` at a point (variable id -> value).  A variable of ``p`` without a
    value is an error."""
    out = 0
    try:
        for key, c in p.terms.items():
            for vid, e in key:
                c *= point[vid] ** e
            out += c
    except KeyError:
        raise ExactError("polynomial is not constant") from None
    return out


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

    def constant_value(self) -> int | Fraction:
        return _quotient(self.num.constant_value(), self.den.constant_value())

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
            return _times_constant(self, scalar(other))
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

    def at(self, point: dict[int, int | Fraction]) -> int | Fraction:
        """The value at a point (variable id -> value) that gives every
        variable of ``num`` and ``den`` a value."""
        den = evaluate(self.den, point)
        if not den:
            raise ExactError("zero denominator")
        return _quotient(evaluate(self.num, point), den)

    def __repr__(self):
        return f"RatFn({format_ratfn(self)})"


def _primitive(polys: list[Poly]) -> list[Poly]:
    """``polys`` times the one positive scalar that makes all their
    coefficients coprime ints: it clears their denominators and divides out
    their common integer content.  The coefficients of the result are ints;
    ``polys`` itself comes back when it already has such coefficients."""
    coeffs = [c for p in polys for c in p.terms.values()]
    if all(type(c) is int for c in coeffs):
        g = math.gcd(*coeffs)
        if g == 1:
            return polys
        return [Poly(p.ctx, {k: c // g for k, c in p.terms.items()}) for p in polys]
    lcm = math.lcm(*[c.denominator for c in coeffs])
    g = math.gcd(*[c.numerator * (lcm // c.denominator) for c in coeffs])
    return [Poly(p.ctx, {k: c.numerator * (lcm // c.denominator) // g for k, c in p.terms.items()}) for p in polys]


def _reduce_pair(num: Poly, den: Poly) -> tuple[Poly, Poly]:
    if num.is_zero():
        return num, den.ctx.poly(1)
    if num.is_constant() and den.is_constant():
        # a constant shares the polynomials of the interned one
        const = num.ctx.ratfn(_quotient(num.constant_value(), den.constant_value()))
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
    num, den = _primitive([num, den])
    if den.leading_coeff() < 0:
        num, den = -num, -den
    return num, den


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
