"""Exterior algebra over exact rational-function coefficients, the truncated
Maurer-Cartan power-series structure equations, restriction to a pseudo-group,
and pull-back substitution for normalized structure equations.

The pipelines here work modulo contact forms and never introduce them.
"""

from __future__ import annotations

import itertools
from typing import Callable, Optional

from .exact import ExactError, Q, RatFn, _add_term, format_ratfn, format_sum, format_term, subscript
from .jets import Counts, JetContext, mi_bump, mi_factorial, mi_order, mi_up_to, mi_zero
from .pseudogroup import DeterminingSystem, JetKey


class FormSymbol:
    """A degree-one basis symbol (sigma^a, omega^i, mu^a_B, ...).

    ``key`` is the jet ``(a, B)`` of a Maurer-Cartan symbol mu^a_B and None
    for every other kind."""

    __slots__ = ("sid", "kind", "index", "name", "skey", "key")

    def __init__(self, sid: int, kind: str, index: tuple, name: str, skey: tuple):
        self.sid = sid
        self.kind = kind
        self.index = index
        self.name = name
        self.skey = skey
        self.key = (index[0], index[2]) if kind == "mc" else None

    def __repr__(self):
        return f"FormSymbol({self.name})"


_KIND_RANK = {"sigma": 0, "omega": 1, "mc": 2, "d": 4, "gen": 9}


class FormContext:
    """Registry of form symbols on top of a JetContext."""

    def __init__(self, jc: JetContext):
        self.jc = jc
        self._syms: list[FormSymbol] = []
        self._by_key: dict[tuple, FormSymbol] = {}
        self.mc_names: dict[int, str] = {}  # field index -> print name (e.g. mu, nu)

    def _intern(self, kind: str, index: tuple, name: str) -> FormSymbol:
        key = (kind, index)
        sym = self._by_key.get(key)
        if sym is None:
            skey = (_KIND_RANK[kind],) + tuple(index)
            sym = FormSymbol(len(self._syms), kind, index, name, skey)
            self._syms.append(sym)
            self._by_key[key] = sym
        return sym

    def by_id(self, sid: int) -> FormSymbol:
        return self._syms[sid]

    def sigma(self, a: int) -> FormSymbol:
        return self._intern("sigma", (a,), f"sigma^{self._coord_name(a)}")

    def omega(self, i: int) -> FormSymbol:
        return self._intern("omega", (i,), f"w^{self.jc.independents[i]}")

    def mc(self, a: int, B: Counts) -> FormSymbol:
        index = (a, mi_order(B), B)
        sym = self._by_key.get(("mc", index))
        return sym if sym is not None else self._intern("mc", index, self._mc_name(a, B))

    def gen(self, name: str) -> FormSymbol:
        return self._intern("gen", (name,), name)

    def _coord_name(self, a: int) -> str:
        names = self.jc.independents + self.jc.dependents
        return names[a] if a < len(names) else str(a)

    def _mc_name(self, a: int, B: Counts) -> str:
        stem = self.mc_names.get(a, f"mu^{self._coord_name(a)}")
        return stem + subscript([self._coord_name(i).upper() for i in range(len(B))], B)

    def form(self) -> "ExteriorForm":
        return ExteriorForm(self, {})

    def one_form(self, sym: FormSymbol, coeff=None) -> "ExteriorForm":
        c = coeff if coeff is not None else self.jc.ratfn(1)
        if not isinstance(c, RatFn):
            c = self.jc.ratfn(c)
        if c.is_zero():
            return self.form()
        return ExteriorForm(self, {(sym.sid,): c})

    def scalar_form(self, coeff) -> "ExteriorForm":
        c = coeff if isinstance(coeff, RatFn) else self.jc.ratfn(coeff)
        if c.is_zero():
            return self.form()
        return ExteriorForm(self, {(): c})


Word = tuple[int, ...]


def _merge_words(fc: FormContext, wa: Word, wb: Word) -> Optional[tuple[Word, int]]:
    """Wedge two sorted words; None if a symbol repeats, else (word, sign)."""
    if not wa:
        return wb, 1
    if not wb:
        return wa, 1
    out: list[int] = []
    sign = 1
    i = j = 0
    keys_a = [fc.by_id(s).skey for s in wa]
    keys_b = [fc.by_id(s).skey for s in wb]
    while i < len(wa) and j < len(wb):
        if wa[i] == wb[j]:
            return None
        if keys_a[i] < keys_b[j]:
            out.append(wa[i])
            i += 1
        else:
            # wb[j] jumps over the remaining (len(wa)-i) symbols of wa
            if (len(wa) - i) % 2 == 1:
                sign = -sign
            out.append(wb[j])
            j += 1
    out.extend(wa[i:])
    out.extend(wb[j:])
    return tuple(out), sign


class ExteriorForm:
    """Graded formal sum of wedge words with RatFn coefficients."""

    __slots__ = ("fc", "terms")

    def __init__(self, fc: FormContext, terms: dict[Word, RatFn]):
        self.fc = fc
        self.terms = terms

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return isinstance(other, ExteriorForm) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other: "ExteriorForm") -> "ExteriorForm":
        out = dict(self.terms)
        for w, c in other.terms.items():
            _add_term(out, w, c)
        return ExteriorForm(self.fc, out)

    def __neg__(self):
        return ExteriorForm(self.fc, {w: -c for w, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c) -> "ExteriorForm":
        if not isinstance(c, RatFn):
            c = self.fc.jc.ratfn(c)
        if c.is_zero():
            return self.fc.form()
        return ExteriorForm(self.fc, {w: v * c for w, v in self.terms.items()})

    def wedge(self, other: "ExteriorForm") -> "ExteriorForm":
        out: dict[Word, RatFn] = {}
        for wa, ca in self.terms.items():
            for wb, cb in other.terms.items():
                merged = _merge_words(self.fc, wa, wb)
                if merged is None:
                    continue
                word, sign = merged
                _add_term(out, word, ca * cb if sign > 0 else -(ca * cb))
        return ExteriorForm(self.fc, out)

    def degree_part(self, k: int) -> "ExteriorForm":
        return ExteriorForm(self.fc, {w: c for w, c in self.terms.items() if len(w) == k})

    def symbols(self) -> set[int]:
        out: set[int] = set()
        for w in self.terms:
            out.update(w)
        return out

    def coefficient(self, word: Word) -> RatFn:
        return self.terms.get(tuple(word), self.fc.jc.ratfn(0))

    def pretty(self) -> str:
        return format_form(self)

    def __repr__(self):
        return f"ExteriorForm({self.pretty()})"


def format_form(form: ExteriorForm) -> str:
    fc = form.fc
    items = sorted(form.terms.items(), key=lambda wc: (len(wc[0]), [fc.by_id(s).skey for s in wc[0]]))
    return format_sum([format_term(format_ratfn(c), "^".join(fc.by_id(s).name for s in word)) for word, c in items])


def substitute(
    form: ExteriorForm,
    mapping: dict[int, ExteriorForm],
    coeff_sub: Optional[Callable[[RatFn], RatFn]] = None,
) -> ExteriorForm:
    """Replace symbols by one-forms (with signs handled by re-wedging) and
    apply a coefficient substitution."""
    fc = form.fc
    out: dict[Word, RatFn] = {}
    for word, c in form.terms.items():
        if coeff_sub is not None:
            c = coeff_sub(c)
            if c.is_zero():
                continue
        piece = fc.scalar_form(c)
        for sid in word:
            repl = mapping.get(sid)
            piece = piece.wedge(repl if repl is not None else fc.one_form(fc.by_id(sid)))
            if piece.is_zero():
                break
        else:
            for w, v in piece.terms.items():
                _add_term(out, w, v)
    return ExteriorForm(fc, out)


def exterior_derivative(
    form: ExteriorForm,
    sym_rules: Callable[[FormSymbol], Optional[ExteriorForm]],
    coeff_rule: Callable[[RatFn], ExteriorForm],
) -> ExteriorForm:
    """Graded-Leibniz exterior derivative.

    ``sym_rules`` returns d(symbol) as a 2-form (None means no rule, which
    raises: equation sets must be closed over the symbols they mention).
    ``coeff_rule`` returns the 1-form differential of a scalar coefficient.
    """
    fc = form.fc
    out = fc.form()
    for word, c in form.terms.items():
        base = ExteriorForm(fc, {word: fc.jc.ratfn(1)})
        dc = coeff_rule(c)
        if not dc.is_zero():
            out = out + dc.wedge(base)
        for pos, sid in enumerate(word):
            sym = fc.by_id(sid)
            rule = sym_rules(sym)
            if rule is None:
                raise ExactError(f"incomplete structure rules: no d({sym.name})")
            if rule.is_zero():
                continue
            before = ExteriorForm(fc, {tuple(word[:pos]): c if pos % 2 == 0 else -c})
            after = ExteriorForm(fc, {tuple(word[pos + 1 :]): fc.jc.ratfn(1)})
            out = out + before.wedge(rule).wedge(after)
    return out


class EquationSet:
    """A collection of structure equations d(symbol) = form.

    ``residual`` lists symbols that are allowed to appear without an equation
    (isotropy directions of a partial frame); everything else mentioned by a
    right side must itself carry an equation for the d^2 audit to run.
    """

    def __init__(self, fc: FormContext):
        self.fc = fc
        self.equations: dict[int, ExteriorForm] = {}
        self.residual: set[int] = set()

    def set(self, sym: FormSymbol, rhs: ExteriorForm) -> None:
        self.equations[sym.sid] = rhs

    def get(self, sym: FormSymbol) -> Optional[ExteriorForm]:
        return self.equations.get(sym.sid)

    def mark_residual(self, sym: FormSymbol) -> None:
        self.residual.add(sym.sid)

    def items(self):
        return [(self.fc.by_id(sid), rhs) for sid, rhs in self.equations.items()]

    def d_squared_audit(self, coeff_rule: Callable[[RatFn], ExteriorForm]):
        """The d^2 = 0 audit: apply d to every right side, using the equations
        for the symbols and ``coeff_rule`` for the coefficients.

        An equation is skipped when its right side mentions a symbol without
        an equation (a residual isotropy form, or one beyond the truncation) or
        when ``coeff_rule`` raises ``MissingRule``.  Returns (failures,
        audited, skipped): failures are (symbol, nonzero 2-form) pairs, the
        other two lists of symbols."""
        failures, audited, skipped = [], [], []
        for sid, rhs in self.equations.items():
            sym = self.fc.by_id(sid)
            if not self.closed(rhs):
                skipped.append(sym)
                continue
            try:
                dd = exterior_derivative(rhs, lambda s: self.equations.get(s.sid), coeff_rule)
            except MissingRule:
                skipped.append(sym)
                continue
            if dd.is_zero():
                audited.append(sym)
            else:
                failures.append((sym, dd))
        return failures, audited, skipped

    def closed(self, rhs: ExteriorForm) -> bool:
        """True if every symbol of ``rhs`` has an equation, so d(rhs) can be
        expanded."""
        return rhs.symbols() <= self.equations.keys()


class MissingRule(Exception):
    """Raised by a coefficient rule that cannot differentiate a coefficient;
    the d^2 audit then skips the equation."""


# -- diffeomorphism structure equations -----------------------------------------


def diffeo_structure_equations(fc: FormContext, m: int, N: int) -> EquationSet:
    """Structure equations of the diffeomorphism pseudo-group in dimension m.

    Produces d(sigma^a) for each a and d(mu^a_B) for #B <= N-1 by expanding
    the Maurer-Cartan power-series identity and matching coefficients of the
    formal parameters degree by degree.  Every coefficient is a rational
    constant, so each right side is summed as ``{(sid1, sid2): Fraction}``
    and turned into ``RatFn``s once.
    """
    jc = fc.jc
    eqs = EquationSet(fc)

    def form(rhs: dict[Word, Q]) -> ExteriorForm:
        return ExteriorForm(fc, {w: jc.ratfn(c) for w, c in rhs.items()})

    # Symbols are registered (and so numbered) in the order the identity
    # names them: the mu symbol of each wedge before its partner.
    for b in range(m):
        rhs: dict[Word, Q] = {}
        for a in range(m):
            mu_ba = fc.mc(b, mi_bump(mi_zero(m), a))
            _add_wedge(rhs, mu_ba, fc.sigma(a), 1)
        eqs.set(fc.sigma(b), form(rhs))
    for b in range(m):
        for B in mi_up_to(m, max(N - 1, 0)):
            rhs = {}
            fact_B = mi_factorial(B)
            for a in range(m):
                # B1 = B, B2 = 0 term: -(1/B!) mu^b_{B+e_a} wedge sigma^a, scaled by B!
                lead = fc.mc(b, mi_bump(B, a))
                _add_wedge(rhs, fc.sigma(a), lead, 1)
                for B1 in _splits_below(B):
                    B2 = tuple(x - y for x, y in zip(B, B1))
                    coeff = Q(fact_B, mi_factorial(B1) * mi_factorial(B2))
                    left = fc.mc(b, mi_bump(B1, a))
                    _add_wedge(rhs, left, fc.mc(a, B2), coeff)
            eqs.set(fc.mc(b, B), form(rhs))
    return eqs


def _add_wedge(rhs: dict[Word, Q], s1: FormSymbol, s2: FormSymbol, c) -> None:
    """rhs += c * s1 ^ s2 over two-symbol words in ``skey`` order: a swap
    flips the sign, and a repeated symbol gives zero."""
    if s1 is s2:
        return
    if s2.skey < s1.skey:
        s1, s2, c = s2, s1, -c
    _add_term(rhs, (s1.sid, s2.sid), c)


def _splits_below(B: Counts) -> list[Counts]:
    """All B1 <= B componentwise with B1 != B."""
    ranges = [range(c + 1) for c in B]
    out = []
    for combo in itertools.product(*ranges):
        if tuple(combo) != B:
            out.append(tuple(combo))
    return out


def mc_expansion(fc: FormContext, system: DeterminingSystem, key: JetKey, coeff: Callable[[RatFn], RatFn]) -> ExteriorForm:
    """mu^a_B in the basis Maurer-Cartan symbols: mu^a_B itself for a basis
    jet; for a solved jet, the determining relation of zeta^a_B with each
    zeta replaced by its mu and each coefficient mapped by ``coeff``."""
    if not system.is_solved(key):
        return fc.one_form(fc.mc(key[0], key[1]))
    out: dict[Word, RatFn] = {}
    for k2, c in system.relation(key).items():
        c = coeff(c)
        if c:
            out[(fc.mc(k2[0], k2[1]).sid,)] = c
    return ExteriorForm(fc, out)


def restrict_to_pseudogroup(eqs: EquationSet, mcrel) -> EquationSet:
    """Substitute solved Maurer-Cartan symbols by their lifted basis
    expressions, keeping equations for sigma forms and basis mu forms only."""
    fc = eqs.fc
    system = mcrel.system
    mapping: dict[int, ExteriorForm] = {}
    for sid in set().union(*[rhs.symbols() for rhs in eqs.equations.values()]) if eqs.equations else set():
        key = fc.by_id(sid).key
        if key is not None and system.is_solved(key):
            mapping[sid] = mc_expansion(fc, system, key, mcrel.lift_coeff)
    out = EquationSet(fc)
    for sym, rhs in eqs.items():
        if sym.key is not None and system.is_solved(sym.key):
            continue
        # a right side without a solved symbol restricts to itself
        out.set(sym, substitute(rhs, mapping) if mapping.keys() & rhs.symbols() else rhs)
    return out
