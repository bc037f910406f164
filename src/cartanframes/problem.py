"""Problem-definition files: a small line-oriented language describing a base
manifold, the submanifold split, an infinitesimal determining system in solved
form, a cross-section with assumptions, and optional polynomial blocks for
direct involutivity runs.

Example::

    base x u p q;
    split independent x u p dependent q;
    coeffs xi eta alpha gamma;
    det {
      xi_p = 0; eta_p = 0; xi_q = 0; eta_q = 0; alpha_q = 0;
      alpha = eta_x + p*(eta_u - xi_x) - p^2*xi_u;
      gamma = alpha_x + p*alpha_u + q*alpha_p - q*(xi_x + p*xi_u + q*xi_p);
    }
    xsec {
      x = 0; u = 0; p = 0;
      q_{u^j x^k} = 0;
      q_p4 = 1;
      assume q_p2x2 != 0;
    }
    print { mu^x as mu; mu^u as nu; }

Subscripts may be written compactly (``q_p2x2``) or in braces with wildcard
exponents (``q_{p^2 u^j}``); a brace exponent that is a name rather than an
integer matches any value, declaring a whole normalization family.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Optional

from .exact import ExactError, RatFn, _add_term, _quotient, format_ratfn, format_sum, format_term
from .frames import CrossSection
from .involution import SPoly, TPoly, format_module_term
from .jets import Coord, Counts, JetContext, coord_u, coord_x, mi_zero
from .pseudogroup import DeterminingSystem, LinComb


class ParseError(ExactError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


class TPolyDecl:
    """A t,T-polynomial given literally: list of (counts, target index, coeff)."""

    def __init__(self, terms: list):
        self.terms = terms


class ProblemFile:
    """Parsed problem: declarations plus the built symbolic objects."""

    def __init__(self):
        self.base: list[str] = []
        self.independent: list[str] = []
        self.dependent: list[str] = []
        self.coeffs: list[str] = []
        self.print_aliases: dict[str, str] = {}  # base coordinate -> name of its mu
        self.tpoly: list[TPolyDecl] = []
        self.spoly: list[TPolyDecl] = []
        # built objects (populated by parse_problem)
        self.jc: Optional[JetContext] = None
        self.system: Optional[DeterminingSystem] = None
        self.cross_section: Optional[CrossSection] = None

    def build(self):
        return self.jc, self.system, self.cross_section

    def module_generators(self, letter: str) -> list:
        """The ``tpoly`` (``letter`` "t") or ``spoly`` ("s") block as
        ``TPoly`` or ``SPoly`` module elements."""
        if letter == "t":
            decls, element = self.tpoly, lambda terms: TPoly(len(self.base), terms)
        else:
            decls, element = self.spoly, lambda terms: SPoly(len(self.independent), len(self.dependent), {}, terms)
        out = []
        for decl in decls:
            terms: dict = {}
            for counts, target, coeff in decl.terms:
                _add_term(terms, (counts, target), coeff)
            out.append(element(terms))
        return out

    @property
    def relation_count(self) -> int:
        return len(self.system.original) if self.system else 0


# -- tokenizer -----------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<comment>#[^\n]*)|(?P<name>[A-Za-z][A-Za-z0-9]*)|(?P<num>\d+)"
    r"|(?P<op>==|!=|[{}();=+\-*/^_,]))"
)


class _Tokens:
    def __init__(self, text: str = "", tokens: Optional[list] = None):
        if tokens is not None:
            self.tokens = list(tokens)
            self.i = 0
            return
        self.tokens = []
        line, pos = 1, 0
        while pos < len(text):
            m = _TOKEN_RE.match(text, pos)
            if m is None or m.end() == pos:
                bad = len(text) - len(text[pos:].lstrip())
                if bad < len(text):
                    line += text.count("\n", pos, bad)
                    raise ParseError(f"unexpected character {text[bad]!r}", line, bad - text.rfind("\n", 0, bad))
                break
            raw = text[pos : m.end()]
            line += raw.count("\n")
            pos = m.end()
            if m.lastgroup == "comment":
                continue
            kind = m.lastgroup
            # the 1-based column of the token's first character
            start = m.start(kind)
            col = start - text.rfind("\n", 0, start)
            self.tokens.append((kind, m.group(kind), line, col))
        self.i = 0

    def peek(self, offset=0):
        j = self.i + offset
        if j < len(self.tokens):
            return self.tokens[j]
        # the end of input is reported at the last character of the last token
        if not self.tokens:
            return ("eof", "", 0, 0)
        _, val, line, col = self.tokens[-1]
        return ("eof", "", line, col + len(val) - 1)

    def next(self):
        tok = self.peek()
        self.i += 1
        return tok

    def expect(self, value: str):
        kind, val, line, col = self.next()
        if val != value:
            raise ParseError(f"expected {value!r}, found {val!r}", line, col)

    def at(self, value: str) -> bool:
        return self.peek()[1] == value

    def until(self, value: str, statement: str):
        """The tokens up to the next ``value``, which is left unread; the end
        of input is an unterminated ``statement``."""
        while not self.at(value):
            kind, val, line, col = self.next()
            if kind == "eof":
                raise ParseError(f"unterminated {statement} statement: expected {value!r}", line, col)
            yield kind, val, line, col


# -- subscript handling ---------------------------------------------------------


def _split_compact_subscript(sub: str, names: list[str], line: int, col: int) -> Counts:
    """Parse a compact subscript like ``p2x2`` against declared names
    (longest match first), returning exponent counts."""
    counts = [0] * len(names)
    i = 0
    by_length = sorted(range(len(names)), key=lambda k: -len(names[k]))
    while i < len(sub):
        hit = None
        for k in by_length:
            if sub.startswith(names[k], i):
                hit = k
                break
        if hit is None:
            raise ParseError(f"cannot read subscript {sub!r}", line, col)
        i += len(names[hit])
        j = i
        while j < len(sub) and sub[j].isdigit():
            j += 1
        counts[hit] += int(sub[i:j]) if j > i else 1
        i = j
    return tuple(counts)


def _parse_subscript(toks: _Tokens, names: list[str], wildcard_error: str, line: int, col: int) -> Counts:
    """The counts of an optional subscript ``_p2x`` or ``_{p^2 x}`` over
    ``names``, all zero when there is no ``_``.  A wildcard exponent raises
    ``wildcard_error`` at the subscripted name (``line``, ``col``)."""
    if not toks.at("_"):
        return mi_zero(len(names))
    toks.next()
    if toks.at("{"):
        fixed = _parse_brace_subscript(toks, names)
        if None in fixed:
            raise ParseError(wildcard_error, line, col)
        return fixed
    kind, val, l2, c2 = toks.next()
    if kind not in ("name", "num"):
        raise ParseError("expected subscript", l2, c2)
    return _split_compact_subscript(val, names, l2, c2)


def _parse_brace_subscript(toks: _Tokens, names: list[str]):
    """Parse ``{ p^2 u^j x }``; returns a tuple with integers for fixed
    exponents and None for wildcard slots."""
    fixed: list[Optional[int]] = [0] * len(names)
    touched = [False] * len(names)
    toks.expect("{")
    while not toks.at("}"):
        kind, val, line, col = toks.next()
        if kind != "name" or val not in names:
            raise ParseError(f"unknown subscript variable {val!r}", line, col)
        slot = names.index(val)
        if touched[slot]:
            raise ParseError(f"repeated subscript variable {val!r}", line, col)
        touched[slot] = True
        exp: Optional[int] = 1
        if toks.at("^"):
            toks.next()
            kind2, val2, l2, c2 = toks.next()
            if kind2 == "num":
                exp = int(val2)
            elif kind2 == "name":
                exp = None
            else:
                raise ParseError("expected exponent", l2, c2)
        fixed[slot] = exp
        if toks.at("*"):
            toks.next()
    toks.expect("}")
    return tuple(fixed)


# -- expressions ------------------------------------------------------------------


class _ExprValue:
    """Polynomial value at most linear in the coefficient-field jets."""

    def __init__(self, jc: JetContext, scalar: RatFn, linear: LinComb):
        self.jc = jc
        self.scalar = scalar
        self.linear = linear

    @classmethod
    def const(cls, jc, value):
        return cls(jc, jc.ratfn(value), {})

    def add(self, other):
        out = dict(self.linear)
        for k, c in other.linear.items():
            _add_term(out, k, c)
        return _ExprValue(self.jc, self.scalar + other.scalar, out)

    def neg(self):
        return _ExprValue(self.jc, -self.scalar, {k: -c for k, c in self.linear.items()})

    def mul(self, other):
        """The product; at most one factor may hold field jets."""
        if other.linear:
            self, other = other, self
        lin = {k: c * other.scalar for k, c in self.linear.items()}
        lin = {k: c for k, c in lin.items() if not c.is_zero()}
        return _ExprValue(self.jc, self.scalar * other.scalar, lin)

    def pow(self, n: int):
        """The ``n``-th power of a value without field jets."""
        result = self.jc.ratfn(1)
        for _ in range(n):
            result = result * self.scalar
        return _ExprValue(self.jc, result, {})


class _ExprParser:
    """Reads one expression; ``subject`` names it in error messages."""

    def __init__(self, toks: _Tokens, pf: ProblemFile, jc: JetContext, subject: str = "the expression"):
        self.toks = toks
        self.pf = pf
        self.jc = jc
        self.subject = subject

    def resolve_name(self, stem: str, line: int, col: int) -> _ExprValue:
        jc = self.jc
        toks = self.toks
        if stem not in self.pf.coeffs and stem not in self.pf.independent and stem not in self.pf.dependent:
            raise ParseError(f"unknown symbol {stem!r}", line, col)
        names = self.pf.base if stem in self.pf.coeffs else self.pf.independent
        subscripted = toks.at("_")
        sub = _parse_subscript(toks, names, "wildcards only appear in cross-section families", line, col)
        if stem in self.pf.coeffs:
            return _ExprValue(jc, jc.ratfn(0), {(self.pf.coeffs.index(stem), sub): jc.ratfn(1)})
        if stem in self.pf.independent:
            if subscripted:
                raise ParseError("independent variables carry no subscripts", line, col)
            return _ExprValue(jc, jc.rvar(jc.x_var(self.pf.independent.index(stem))), {})
        if stem in self.pf.dependent:
            return _ExprValue(jc, jc.rvar(jc.u_var(self.pf.dependent.index(stem), sub)), {})
        raise ParseError(f"unknown symbol {stem!r}", line, col)

    def parse_expr(self) -> _ExprValue:
        value = self.parse_term()
        while self.toks.peek()[1] in ("+", "-"):
            op = self.toks.next()[1]
            rhs = self.parse_term()
            value = value.add(rhs if op == "+" else rhs.neg())
        return value

    def parse_term(self) -> _ExprValue:
        value = self.parse_factor()
        while self.toks.peek()[1] in ("*", "/"):
            _, op, line, col = self.toks.next()
            rhs = self.parse_factor()
            if op == "*":
                if value.linear and rhs.linear:
                    raise ParseError(f"{self.subject} is not linear in the coefficient fields", line, col)
                value = value.mul(rhs)
            else:
                if rhs.linear or rhs.scalar.is_zero():
                    raise ParseError("division only by nonzero scalar expressions", line, col)
                value = value.mul(_ExprValue(self.jc, rhs.scalar.inverse(), {}))
        return value

    def parse_factor(self) -> _ExprValue:
        kind, val, line, col = self.toks.next()
        if val == "-":
            return self.parse_factor().neg()
        if val == "(":
            base = self.parse_expr()
            self.toks.expect(")")
        elif kind == "num":
            base = _ExprValue.const(self.jc, int(val))
        elif kind == "name":
            base = self.resolve_name(val, line, col)
        else:
            raise ParseError(f"unexpected token {val!r}", line, col)
        if self.toks.at("^"):
            _, _, line, col = self.toks.next()
            exp = _parse_exponent(self.toks)
            if base.linear:
                raise ParseError(f"cannot exponentiate a field-jet expression in {self.subject}", line, col)
            base = base.pow(exp)
        return base


# -- top-level parser ----------------------------------------------------------------


def parse_problem(text: str) -> ProblemFile:
    toks = _Tokens(text)
    pf = ProblemFile()
    raw: dict[str, list] = {"det": [], "xsec": [], "tpoly": [], "spoly": []}
    # (line, col) of the base, split and coeffs statements and of each name
    # that base and coeffs list, for the declaration checks
    at: dict[str, tuple[int, int]] = {}
    names_at: dict[str, list] = {"base": [], "coeffs": []}
    prints: list[tuple] = []  # (stem, coordinate, alias) tokens of the print block
    while toks.peek()[0] != "eof":
        kind, val, line, col = toks.next()
        if val in ("base", "coeffs"):
            at[val] = (line, col)
            names = pf.base if val == "base" else pf.coeffs
            for _, name, l2, c2 in toks.until(";", val):
                names.append(name)
                names_at[val].append((l2, c2))
            toks.expect(";")
        elif val == "split":
            at["split"] = (line, col)
            toks.expect("independent")
            pf.independent.extend(name for _, name, _, _ in toks.until("dependent", val))
            toks.expect("dependent")
            pf.dependent.extend(name for _, name, _, _ in toks.until(";", val))
            toks.expect(";")
        elif val in raw:
            toks.expect("{")
            while not toks.at("}"):
                raw[val].append(_capture_statement(toks))
            toks.expect("}")
        elif val == "print":
            toks.expect("{")
            while not toks.at("}"):
                stem = toks.next()
                toks.expect("^")
                coord = toks.next()
                toks.expect("as")
                prints.append((stem, coord, toks.next()))
                toks.expect(";")
            toks.expect("}")
        elif val == ";":
            continue
        else:
            raise ParseError(f"unknown declaration {val!r}", line, col)
    _validate_declarations(pf, at, names_at)
    _read_print_aliases(pf, prints)
    _build(pf, raw)
    return pf


def _validate_declarations(pf: ProblemFile, at: dict, names_at: dict) -> None:
    """Check the base, split and coeffs declarations.  A mismatch is reported
    where its statement (``at``) or name (``names_at``) was read, a default
    coefficient name where its base coordinate was, a missing declaration
    at 0:0."""
    if not pf.base:
        raise ParseError("missing base declaration", 0, 0)
    if not pf.independent or not pf.dependent:
        raise ParseError("missing split declaration", 0, 0)
    if pf.base != pf.independent + pf.dependent:
        raise ParseError("base must list independents then dependents, matching split", *at["split"])
    if pf.coeffs and len(pf.coeffs) != len(pf.base):
        raise ParseError("coeffs must name one coefficient field per base variable", *at["coeffs"])
    if not pf.coeffs:
        pf.coeffs = [f"zeta{name}" for name in pf.base]
    where = names_at["coeffs"] or names_at["base"]
    for i, name in enumerate(pf.coeffs):
        if name in pf.coeffs[:i]:
            raise ParseError("coeffs must name distinct coefficient fields", *where[i])
    for name, pos in zip(pf.coeffs, where):
        if name in pf.base:
            raise ParseError(f"coeffs must not reuse the base coordinate name {name!r}", *pos)


def _read_print_aliases(pf: ProblemFile, prints: list[tuple]) -> None:
    """The ``print { mu^x as mu; }`` block: each renames the Maurer-Cartan
    forms of one base coordinate, at most once, to a name no other takes."""
    for (_, stem, line, col), (_, coord, _, _), (_, alias, l3, c3) in prints:
        if stem != "mu" or coord not in pf.base:
            raise ParseError(f"print renames only mu^<base coordinate>, not {stem}^{coord}", line, col)
        if coord in pf.print_aliases:
            raise ParseError(f"duplicate print name for mu^{coord}", line, col)
        if alias in pf.print_aliases.values():
            raise ParseError(f"print name {alias!r} is already taken", l3, c3)
        pf.print_aliases[coord] = alias


def _capture_statement(toks: _Tokens) -> list:
    """The tokens of one statement, its closing ``;`` included."""
    out = []
    depth = 0
    while True:
        kind, val, line, col = toks.peek()
        if kind == "eof":
            raise ParseError("unterminated statement", line, col)
        if val == ";" and depth == 0:
            out.append(toks.next())
            return out
        if val == "{":
            depth += 1
        elif val == "}":
            if depth == 0:
                raise ParseError("unterminated statement", line, col)
            depth -= 1
        out.append(toks.next())


def _build(pf: ProblemFile, raw: dict[str, list]) -> None:
    jc = JetContext(pf.independent, pf.dependent)
    base_coords = [coord_x(i) for i in range(len(pf.independent))]
    base_coords += [coord_u(a, mi_zero(len(pf.independent))) for a in range(len(pf.dependent))]
    fields = [jc.field(n, base_coords) for n in pf.coeffs]
    system = DeterminingSystem(jc, fields)
    for stmt in raw["det"]:
        toks = _Tokens(tokens=stmt)
        kind, stem, line, col = toks.next()
        if kind != "name" or stem not in pf.coeffs:
            raise ParseError("determining relation must be solved for a coefficient jet", line, col)
        fidx = pf.coeffs.index(stem)
        B = _parse_subscript(toks, pf.base, "wildcards not allowed in determining relations", line, col)
        lead = jc.field_jet_name(fidx, B)
        if (fidx, B) in system.original:
            raise ParseError(f"duplicate relation for {lead}", line, col)
        toks.expect("=")
        value = _ExprParser(toks, pf, jc, f"the relation for {lead}").parse_expr()
        if not value.scalar.is_zero():
            raise ParseError("right side must be linear in the coefficient fields", line, col)
        if toks.peek()[1] != ";":
            k, v, l, c = toks.peek()
            raise ParseError(f"trailing token {v!r}", l, c)
        system.add_relation((fidx, B), value.linear)
    cs = CrossSection(jc)
    for stmt in raw["xsec"]:
        _build_xsec_statement(pf, jc, cs, stmt)
    for block, letter, varnames, targets in _module_blocks(pf):
        for stmt in raw[f"{letter}poly"]:
            block.append(_build_module_statement(stmt, letter, varnames, targets))
    pf.jc = jc
    pf.system = system
    pf.cross_section = cs


def _build_xsec_statement(pf: ProblemFile, jc: JetContext, cs: CrossSection, stmt: list) -> None:
    toks = _Tokens(tokens=stmt)
    kind, stem, line, col = toks.next()
    if stem == "assume":
        kind2, name2, l2, c2 = toks.next()
        coord = _parse_coord(toks, pf, name2, l2, c2)
        op = toks.next()[1]
        zero = toks.next()
        if zero[1] != "0":
            raise ParseError("assumptions compare against 0", zero[2], zero[3])
        if op == "!=":
            cs.declare_nonvanishing(coord)
        elif op == "==":
            if coord[0] != "u":
                raise ParseError("identically-zero declaration must name a dependent jet", l2, c2)
            cs.declare_vanishing(coord[1], coord[2])
        else:
            raise ParseError(f"unknown assumption operator {op!r}", l2, c2)
        return
    if stem in pf.dependent and toks.at("_") and toks.peek(1)[1] == "{":
        alpha = pf.dependent.index(stem)
        toks.next()
        fixed = _parse_brace_subscript(toks, pf.independent)
        toks.expect("=")
        value = _parse_rational(toks)
        if any(f is None for f in fixed):
            cs.add_pattern(alpha, fixed, value)
        else:
            cs.normalize_coord(coord_u(alpha, tuple(int(f) for f in fixed)), value)
        return
    coord = _parse_coord(toks, pf, stem, line, col)
    toks.expect("=")
    value = _parse_rational(toks)
    cs.normalize_coord(coord, value)


def _parse_coord(toks, pf: ProblemFile, stem: str, line: int, col: int) -> Coord:
    if stem in pf.independent:
        return coord_x(pf.independent.index(stem))
    if stem in pf.dependent:
        J = _parse_subscript(toks, pf.independent, "wildcards not allowed here", line, col)
        return coord_u(pf.dependent.index(stem), J)
    raise ParseError(f"unknown coordinate {stem!r}", line, col)


def _parse_rational(toks) -> int | Fraction:
    """An optionally signed constant ``n`` or ``n/d``: an int when it is
    integral."""
    sign = 1
    if toks.at("-"):
        toks.next()
        sign = -1
    kind, val, line, col = toks.next()
    if kind != "num":
        raise ParseError("expected a rational constant", line, col)
    return _quotient(sign * int(val), _parse_denominator(toks))


def _parse_denominator(toks) -> int:
    """The ``/den`` after a numerator, 1 when there is none."""
    if not toks.at("/"):
        return 1
    toks.next()
    kind, val, line, col = toks.next()
    if kind != "num":
        raise ParseError("expected denominator", line, col)
    if not int(val):
        raise ParseError("zero denominator", line, col)
    return int(val)


def _parse_exponent(toks) -> int:
    """The integer exponent after a ``^``."""
    kind, val, line, col = toks.next()
    if kind != "num":
        raise ParseError("expected integer exponent", line, col)
    return int(val)


def _module_blocks(pf: ProblemFile):
    """(block, letter, variable names, target names) of the ``tpoly`` and
    ``spoly`` blocks: t-monomials times T^target over the base, and
    s-monomials over the independents times S^target over the dependents."""
    return (
        (pf.tpoly, "t", pf.base, pf.base),
        (pf.spoly, "s", pf.independent, pf.dependent),
    )


def _build_module_statement(stmt: list, letter: str, varnames: list[str], targets: list[str]) -> TPolyDecl:
    """One statement of a module-polynomial block, like ``t_x^2*T^u - T^p;``:
    terms joined by signs, each term a ``*``-product of factors."""
    upper = letter.upper()
    toks = _Tokens(tokens=stmt)
    terms = []
    while True:
        sign = 1
        while toks.peek()[1] in ("+", "-"):
            if toks.next()[1] == "-":
                sign = -sign
        counts, coeff, found = [0] * len(varnames), Fraction(sign), []
        while True:
            kind, val, line, col = toks.next()
            if kind == "num":
                coeff *= Fraction(int(val), _parse_denominator(toks))
            elif val == letter:
                toks.expect("_")
                kind2, val2, l2, c2 = toks.next()
                name_counts = _split_compact_subscript(val2, varnames, l2, c2)
                exp = 1
                if toks.at("^"):
                    toks.next()
                    exp = _parse_exponent(toks)
                counts = [a + c * exp for a, c in zip(counts, name_counts)]
            elif val == upper:
                toks.expect("^")
                kind2, val2, l2, c2 = toks.next()
                if val2 not in targets:
                    raise ParseError(f"unknown target {val2!r}", l2, c2)
                found.append(targets.index(val2))
            else:
                raise ParseError(f"unexpected token {val!r} in {letter}poly", line, col)
            if not toks.at("*"):
                break
            toks.next()
        # errors of a term point at the token after it, the closing ";" for the last
        kind, val, line, col = toks.peek()
        if val not in (";", "+", "-"):
            raise ParseError(f"expected an operator or ';', found {val!r}", line, col)
        if len(found) > 1:
            raise ParseError(f"term must be linear in {upper}", line, col)
        if not found:
            raise ParseError(f"term lacks {'an' if upper == 'S' else 'a'} {upper} factor", line, col)
        terms.append((tuple(counts), found[0], coeff))
        if val == ";":
            return TPolyDecl(terms)


# -- canonical printing ----------------------------------------------------------------


def print_problem(pf: ProblemFile) -> str:
    """Canonical unparse; parsing the output reproduces the same problem."""
    lines = [f"base {' '.join(pf.base)};"]
    lines.append(f"split independent {' '.join(pf.independent)} dependent {' '.join(pf.dependent)};")
    if pf.coeffs:
        lines.append(f"coeffs {' '.join(pf.coeffs)};")
    jc, system, cs = pf.build()
    if system is not None and system.original:
        lines.append("det {")
        for lead, rhs in system.original.items():
            lines.append(f"  {jc.field_jet_name(*lead)} = {_lincomb_token(jc, rhs)};")
        lines.append("}")
    if cs is not None and (cs.entries or cs.patterns or cs.nonvanishing or cs.vanish_generators):
        lines.append("xsec {")
        for coord, value in cs.entries:
            lines.append(f"  {jc.coord_name(coord)} = {value};")
        for pat in cs.patterns:
            sub = []
            wild = iter("jklmnr")
            for name, f in zip(pf.independent, pat.fixed):
                if f is None:
                    sub.append(f"{name}^{next(wild)}")
                elif f:
                    sub.append(f"{name}^{f}" if f != 1 else name)
            lines.append(f"  {pf.dependent[pat.alpha]}_{{{' '.join(sub)}}} = {pat.value};")
        for coord in cs.nonvanishing:
            lines.append(f"  assume {jc.coord_name(coord)} != 0;")
        for alpha, gen in cs.vanish_generators:
            lines.append(f"  assume {jc.jet_name(alpha, gen)} == 0;")
        lines.append("}")
    if pf.print_aliases:
        lines.append("print {")
        for coord, alias in pf.print_aliases.items():
            lines.append(f"  mu^{coord} as {alias};")
        lines.append("}")
    for block, letter, varnames, targets in _module_blocks(pf):
        if not block:
            continue
        lines.append(f"{letter}poly {{")
        for decl in block:
            lines.append(f"  {format_sum([format_module_term(letter, varnames, targets, *term) for term in decl.terms])};")
        lines.append("}")
    return "\n".join(lines) + "\n"


def _lincomb_token(jc: JetContext, rhs: LinComb) -> str:
    return format_sum([format_term(format_ratfn(coeff), jc.field_jet_name(*key)) for key, coeff in sorted(rhs.items())])
