"""Symbol modules and the algebraic involutivity pipeline: highest-order-term
operator, indices from ranks of support-restricted symbol columns, the Cartan
test, Cartan characters, modified Stirling numbers and arbitrary-function
counts, the beta substitution with prolonged-symbol preimages, restricted jet
modules with parametric monomials, and Groebner bases of submodules of the
free module R[s]^q.

Module elements are represented sparsely: a T-element maps (multi-index over
t, target index) to a Fraction; an S-element additionally carries a constant
part in the extra variables s~_1..s~_p whose highest order term vanishes.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .exact import QZERO, ExactError, Q, _add_term, _forward_eliminate, format_monomial, format_sum, format_term, ordered_row_echelon, rank
from .jets import Counts, mi_add, mi_all, mi_bump, mi_divides, mi_order, mi_up_to, mi_zero

TTerm = tuple[Counts, int]
STerm = TTerm


class ModuleElement:
    """Sparse element of a free module over a polynomial ring: ``terms`` maps
    (multi-index, target index) to a nonzero Fraction.  A subclass fixes the
    ranks and may add a constant part ``stilde`` (the s~ part of S): every
    operation treats it linearly, and a monomial of positive degree
    annihilates it."""

    __slots__ = ("terms",)
    stilde: dict = {}  # a T-element has no s~ part

    def __init__(self, terms: Optional[dict[TTerm, Fraction]] = None):
        self.terms = {k: v for k, v in (terms or {}).items() if v}

    def _ranks(self) -> tuple:
        raise NotImplementedError

    def _like(self, terms, stilde=None):
        """An element of the same module with the given parts."""
        raise NotImplementedError

    def is_zero(self) -> bool:
        return not self.terms and not self.stilde

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and self._ranks() == other._ranks()
            and self.stilde == other.stilde
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self._ranks(), frozenset(self.stilde.items()), frozenset(self.terms.items())))

    def __add__(self, other):
        return self._like(_summed(self.terms, other.terms), _summed(self.stilde, other.stilde))

    def __neg__(self):
        return self._like({k: -c for k, c in self.terms.items()}, {i: -c for i, c in self.stilde.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        c = Q(c)
        return self._like({k: v * c for k, v in self.terms.items()}, {i: v * c for i, v in self.stilde.items()})

    def mul_monomial(self, B: Counts):
        """Module action of t^B; for a B of positive degree the s~ part goes."""
        if mi_order(B) == 0:
            return self
        return self._like({(mi_add(Bk, B), a): c for (Bk, a), c in self.terms.items()})

    def degree(self) -> int:
        return max((mi_order(B) for B, _ in self.terms), default=0)

    def degree_part(self, n: int):
        """The terms of degree n; the s~ part lies in no degree."""
        return self._like({(B, a): c for (B, a), c in self.terms.items() if mi_order(B) == n})

    def highest_term(self):
        return self.degree_part(self.degree())

    def row(self, columns: Iterable[TTerm]) -> list[Fraction]:
        """The dense coefficients over the given (multi-index, target) columns."""
        return [self.terms.get(col, QZERO) for col in columns]


def _summed(a: dict, b: dict) -> dict:
    out = dict(a)
    for k, c in b.items():
        _add_term(out, k, c)
    return out


class TPoly(ModuleElement):
    """Element of the module T: polynomial in t, linear in T."""

    __slots__ = ("m",)

    def __init__(self, m: int, terms: Optional[dict[TTerm, Fraction]] = None):
        self.m = m
        super().__init__(terms)

    def _ranks(self):
        return (self.m,)

    def _like(self, terms, stilde=None):
        return TPoly(self.m, terms)

    def pretty(self, names: Sequence[str]) -> str:
        return format_sum([format_module_term("t", names, names, B, a, c) for (B, a), c in sorted(self.terms.items())])

    def __repr__(self):
        return f"TPoly({self.terms})"


class SPoly(ModuleElement):
    """Element of the submanifold jet module S = R^p + R[s] \\otimes R^q."""

    __slots__ = ("p", "q", "stilde")

    def __init__(self, p: int, q: int, stilde=None, terms=None):
        self.p = p
        self.q = q
        self.stilde = {i: Q(c) for i, c in (stilde or {}).items() if c}
        super().__init__(terms)

    def _ranks(self):
        return (self.p, self.q)

    def _like(self, terms, stilde=None):
        return SPoly(self.p, self.q, stilde, terms)

    def degree(self) -> int:
        """-1 for an element that is only an s~ part."""
        return -1 if self.stilde and not self.terms else super().degree()

    def pretty(self, xnames: Sequence[str], unames: Sequence[str]) -> str:
        parts = [format_term(str(c), f"s~_{xnames[i]}") for i, c in sorted(self.stilde.items())]
        parts += [format_module_term("s", xnames, unames, J, al, c) for (J, al), c in sorted(self.terms.items())]
        return format_sum(parts)


def format_module_term(letter: str, names: Sequence[str], targets: Sequence[str], counts: Counts, target: int, coeff) -> str:
    """``coeff*t_x^2*T^u``: one term of a module polynomial in the ``letter``
    variables over ``names``, with target ``targets[target]``."""
    factors = [(f"{letter}_{name}", e) for name, e in zip(names, counts)]
    return format_term(str(coeff), format_monomial(factors + [(f"{letter.upper()}^{targets[target]}", 1)]))


# -- spans over enumerated monomials ---------------------------------------------


def t_span_dim(gens: Iterable[TPoly]) -> int:
    gens = list(gens)
    columns = sorted({key for g in gens for key in g.terms})
    return rank([g.row(columns) for g in gens])


def t_homogeneous_component(gens: Iterable[TPoly], m: int, n: int) -> list[TPoly]:
    """Degree-n part of H(span(gens) intersect degree <= n): the degree-n
    parts of the degree-n rows of ``t_degree_filter``."""
    return [g.highest_term() for g in t_degree_filter(gens, m, n) if g.degree() == n]


# -- indices, Cartan test ------------------------------------------------------------
#
# Under a priority (class 1 first) the columns (B, a) of class >= a are those
# whose B uses only the variables priority[a-1:], and they come first in the
# class-ordered symbol matrix.  Forward elimination without column swaps
# pivots rank(prefix) columns of every prefix, so beta^(a)_n is
# r(priority[a-1:]) - r(priority[a:]), with r(S) the rank of the columns whose
# B uses only variables in S, and sum_a a*beta^(a)_n is sum_a r(priority[a-1:]).


def _support_ranks(gens: Sequence[TPoly], n: int):
    """``r(S)`` for a frozenset S of variable positions: the rank of the
    degree-n coefficient rows over the columns (B, a) with B supported in S,
    each computed once."""
    for g in gens:
        if any(mi_order(B) != n for B, _ in g.terms):
            raise ExactError("symbol matrix rows must be degree-homogeneous")
    if n == 0:
        raise ExactError("class of the zero multi-index is undefined")
    columns = sorted({key for g in gens for key in g.terms})
    rows = [g.row(columns) for g in gens]
    supports = [frozenset(i for i, e in enumerate(B) if e) for B, _ in columns]
    cache = {frozenset(): 0}

    def r(S: frozenset) -> int:
        if S not in cache:
            block = [j for j, sup in enumerate(supports) if sup <= S]
            cache[S] = rank([[row[j] for j in block] for row in rows])
        return cache[S]

    return r


def _indices_from_ranks(r, priority: Sequence[int]) -> dict[int, int]:
    m = len(priority)
    ranks = [r(frozenset(priority[a:])) for a in range(m)] + [0]
    return {a: ranks[a - 1] - ranks[a] for a in range(1, m + 1)}


def indices(gens: Sequence[TPoly], n: int, priority: Sequence[int]) -> dict[int, int]:
    """beta^(a)_n: the pivot count per class of the class-ordered echelon
    symbol matrix; ``priority`` lists variable positions from class 1 up."""
    return _indices_from_ranks(_support_ranks(gens, n), priority)


def prolong_generators(gens: Sequence[TPoly], m: int) -> list[TPoly]:
    out = []
    for g in gens:
        for a in range(m):
            out.append(g.mul_monomial(tuple(1 if i == a else 0 for i in range(m))))
    return out


def cartan_test(gens_n: Sequence[TPoly], n: int, priority: Sequence[int]):
    """Cartan's involutivity test: rank T^{n+1} == sum_a a*beta^(a)_n, with
    T^{n+1} spanned by the prolongation t_a . gens_n.  Returns a dict report."""
    beta = indices(gens_n, n, priority)
    weighted = sum(a * b for a, b in beta.items())
    rk = t_span_dim(prolong_generators(gens_n, gens_n[0].m))
    return {
        "beta": beta,
        "rank_next": rk,
        "weighted_sum": weighted,
        "involutive": rk == weighted,
        "delta_regularity_violated": rk > weighted,
    }


# delta_regular_search tries every priority up to this many variables.
MAX_EXHAUSTIVE = 6


def delta_regular_search(gens: Sequence[TPoly], n: int):
    """Variable priority maximizing the weighted index sum.

    Exhaustive over permutations for at most ``MAX_EXHAUSTIVE`` variables;
    beyond that a deterministic pseudo-random sample of permutations (a full
    Zariski-generic linear change is unnecessary for the shipped fixtures).
    The candidates share one rank per variable subset, at most 2^m - 1."""
    m = gens[0].m
    r = _support_ranks(gens, n)
    best = None
    if m <= MAX_EXHAUSTIVE:
        candidates = itertools.permutations(range(m))
    else:
        import random

        rng = random.Random(20130405)
        candidates = [tuple(rng.sample(range(m), m)) for _ in range(720)]
    ties = []
    for perm in candidates:
        beta = _indices_from_ranks(r, perm)
        score = sum(a * b for a, b in beta.items())
        if best is None or score > best[0]:
            best = (score, list(perm), beta)
            ties = [list(perm)]
        elif score == best[0]:
            ties.append(list(perm))
    return {"priority": best[1], "beta": best[2], "score": best[0], "optimal": ties}


def cartan_characters(beta: dict[int, int], m: int, n: int):
    """alpha^(a)_n = m*C(n+m-a-1, n-1) - beta^(a)_n; negative values are
    flagged rather than clamped."""
    from math import comb

    alpha = {}
    flags = []
    for a in range(1, m + 1):
        value = m * comb(n + m - a - 1, n - 1) - beta.get(a, 0)
        alpha[a] = value
        if value < 0:
            flags.append(a)
    return alpha, flags


def modified_stirling(a: int, b: int, c: int) -> Fraction:
    """s^(a)_b(c) from (c+y+1)(c+y+2)...(c+y+a) = sum_b s^(a)_{a-b}(c) y^b."""
    if a < 0 or b < 0 or c < 0:
        raise ExactError("modified Stirling numbers take non-negative arguments")
    if a < b:
        raise ExactError("modified Stirling numbers require a >= b")
    # coefficients of the expanded product, poly[k] = coefficient of y^k
    poly = [Q(1)]
    for j in range(1, a + 1):
        shift = Q(c + j)
        nxt = [Q(0)] * (len(poly) + 1)
        for k, ck in enumerate(poly):
            nxt[k] += ck * shift
            nxt[k + 1] += ck
        poly = nxt
    return poly[a - b]


def arbitrary_function_counts(alpha: dict[int, int], m: int, n: int, variant: str = "printed"):
    """f_m = alpha^(m); f_a = alpha^(a) + sum_{b>a} w(a,b) (s^(b-1)_{b-a}(0)
    alpha^(b) - s^(b-1)_{b-a}(n) f_b), where the weight w(a,b) is
    (a-1)!/(m-1)! under variant "printed" and (a-1)!/(b-1)! under variant
    "alternate" (the two readings of the recursion; they disagree on some
    inputs).  Non-integer or negative values are reported with flags, never
    clamped."""
    from math import factorial

    if variant not in ("printed", "alternate"):
        raise ExactError("variant must be 'printed' or 'alternate'")
    f: dict[int, Fraction] = {m: Q(alpha.get(m, 0))}
    for a in range(m - 1, 0, -1):
        total = Q(alpha.get(a, 0))
        for b in range(a + 1, m + 1):
            weight = (
                Q(factorial(a - 1), factorial(m - 1))
                if variant == "printed"
                else Q(factorial(a - 1), factorial(b - 1))
            )
            total += weight * (
                modified_stirling(b - 1, b - a, 0) * alpha.get(b, 0)
                - modified_stirling(b - 1, b - a, n) * f[b]
            )
        f[a] = total
    flags = sorted(a for a, v in f.items() if v.denominator != 1 or v < 0)
    return f, flags


# -- beta maps and prolonged symbol preimage -------------------------------------------


class BetaMap:
    """The substitution s_i -> beta_i(t) = t_i + sum u^alpha_i t_{p+alpha},
    S^alpha -> B^alpha(T) = T^{p+alpha} - sum u^alpha_i T^i built from fixed
    first-order jet coordinates."""

    def __init__(self, p: int, q: int, first_order: Sequence[Sequence[Fraction]]):
        self.p = p
        self.q = q
        self.m = p + q
        self.u1 = [[Q(c) for c in row] for row in first_order]  # u1[alpha][i]
        if len(self.u1) != q or any(len(r) != p for r in self.u1):
            raise ExactError("first-order jet table must be q x p")

    def beta_monomial(self, J: Counts) -> dict[Counts, Fraction]:
        """Image of s^J as a polynomial in t, without a target: the map from
        multi-index to coefficient."""
        out = {mi_zero(self.m): Q(1)}
        for i, e in enumerate(J):
            for _ in range(e):
                nxt: dict[Counts, Fraction] = {}
                for B, c in out.items():
                    key = mi_bump(B, i)
                    nxt[key] = nxt.get(key, Q(0)) + c
                    for alpha in range(self.q):
                        if self.u1[alpha][i]:
                            key2 = mi_bump(B, self.p + alpha)
                            nxt[key2] = nxt.get(key2, Q(0)) + c * self.u1[alpha][i]
                out = {k: v for k, v in nxt.items() if v}
        return out

    def pullback(self, e: SPoly) -> TPoly:
        """beta^*(e) for e without an s~ part."""
        if e.stilde:
            raise ExactError("beta pullback is defined on the hatted module only")
        terms: dict[TTerm, Fraction] = {}
        for (J, alpha), c in e.terms.items():
            # B^alpha(T) = T^{p+alpha} - sum_i u^alpha_i T^i
            targets = [(self.p + alpha, Q(1))] + [
                (i, -self.u1[alpha][i]) for i in range(self.p) if self.u1[alpha][i]
            ]
            for B, cb in self.beta_monomial(J).items():
                for a, ct in targets:
                    _add_term(terms, (B, a), cb * ct * c)
        return TPoly(self.m, terms)


def prolonged_symbol_preimage(
    i_generators: Sequence[TPoly], bm: BetaMap, degree: int
) -> dict[int, list[SPoly]]:
    """Basis of J^k = (beta^*)^{-1}(I^k) for each degree k <= degree.

    I is the module generated by the given elements (closed under t-multiplication);
    the preimage is computed degree by degree by linear algebra."""
    m, p, q = bm.m, bm.p, bm.q
    out: dict[int, list[SPoly]] = {}
    for k in range(degree + 1):
        ik = _module_component(i_generators, m, k)
        t_cols = [(B, a) for B in mi_all(m, k) for a in range(m)]
        i_rows = [g.row(t_cols) for g in ik]
        s_basis = [(J, alpha) for J in mi_all(p, k) for alpha in range(q)]
        img_rows = [bm.pullback(SPoly(p, q, {}, {key: Q(1)})).row(t_cols) for key in s_basis]
        # sigma in preimage iff image lies in span(i_rows): solve with stacked matrix
        out[k] = [
            SPoly(p, q, {}, dict(zip(s_basis, coeffs))) for coeffs in _in_span_solutions(img_rows, i_rows)
        ]
    return out


def _module_component(gens: Sequence[TPoly], m: int, k: int) -> list[TPoly]:
    """Degree-k component of the module generated by homogeneous generators."""
    out = []
    for g in gens:
        for part_deg in {mi_order(B) for B, _ in g.terms}:
            part = g.degree_part(part_deg)
            if part.is_zero() or part_deg > k:
                continue
            for M in mi_all(m, k - part_deg):
                out.append(part.mul_monomial(M))
    return out


def _in_span_solutions(candidate_rows, span_rows):
    """Coefficient vectors c (over candidates) with sum c_i cand_i in the row
    span: the rows of [span | 0] over [candidates | I] that pivot in the
    identity block after forward elimination span that kernel."""
    ncand = len(candidate_rows)
    rows = [list(r) + [Q(0)] * ncand for r in span_rows]
    rows += [list(r) + [Q(1) if j == i else Q(0) for j in range(ncand)] for i, r in enumerate(candidate_rows)]
    width = len(rows[0]) - ncand if rows else 0
    pivots, _ = _forward_eliminate(rows)
    return [rows[i][width:] for c, i in pivots if c >= width]


# -- monomial complements and linear bases ----------------------------------------------


def monomial_complement(gens: Sequence[tuple[int, Counts]], p: int, q: int, degree: int):
    """All monomials s_J S^alpha of degree <= degree not divisible by any
    generator (alpha, J_gen)."""
    out = []
    for J in mi_up_to(p, degree):
        for alpha in range(q):
            if not any(alpha == galpha and mi_divides(gJ, J) for galpha, gJ in gens):
                out.append((J, alpha))
    return out


def linear_basis(V: Sequence[SPoly], module_gens: Sequence[tuple[int, Counts]], degree: int):
    """Reduce V to rows of the form s_I S^beta + sum h s_J S^alpha where the
    leading monomial lies in the monomial module and the tail runs over the
    complement (the parametric monomials)."""
    if not V:
        return []
    p, q = V[0].p, V[0].q
    comp = set(monomial_complement(module_gens, p, q, degree))
    module_cols = []
    comp_cols = []
    for J in mi_up_to(p, degree):
        for alpha in range(q):
            ((comp_cols if (J, alpha) in comp else module_cols)).append((J, alpha))
    columns = module_cols + comp_cols
    ech, pivots = ordered_row_echelon([v.row(columns) for v in V])
    out = []
    for r in range(len(pivots)):
        row = ech[r]
        pv = row[pivots[r]]
        poly = SPoly(p, q, {}, {columns[c]: row[c] / pv for c in range(len(columns)) if row[c]})
        out.append(poly)
    return out


# -- Groebner bases for submodules of R[s]^q -----------------------------------------------


def _term_cmp_key(term: STerm):
    """Degree-lexicographic with position-over-term: higher is later in sort."""
    J, alpha = term
    return (mi_order(J), -alpha, J)


def _leading_term(e: SPoly) -> STerm:
    return max(e.terms, key=_term_cmp_key)


def _term_divides(a: STerm, b: STerm) -> bool:
    return a[1] == b[1] and mi_divides(a[0], b[0])


def _term_quotient(a: STerm, b: STerm) -> Counts:
    return tuple(x - y for x, y in zip(b[0], a[0]))


def groebner_reduce(e: SPoly, leads: Sequence[tuple]) -> SPoly:
    """Unique normal form of e modulo a basis (full reduction), given as the
    ``(lead, terms)`` pairs of its nonzero elements: each lead of the working
    terms is cancelled by the first element whose lead divides it, or moved
    to the result."""
    if e.stilde:
        raise ExactError("Groebner machinery lives in the hatted module")
    work = dict(e.terms)
    result = {}
    while work:
        lt = max(work, key=_term_cmp_key)
        for glt, gterms in leads:
            if _term_divides(glt, lt):
                factor = work[lt] / gterms[glt]
                M = _term_quotient(glt, lt)
                for (B, a), c in gterms.items():
                    _add_term(work, (mi_add(B, M), a), -factor * c)
                break
        else:
            result[lt] = work.pop(lt)
    return SPoly(e.p, e.q, {}, result)


def groebner_module(gens: Sequence[SPoly]) -> list[SPoly]:
    """Buchberger completion with a queue of module S-pairs, each reduced
    once (Cox-Little-O'Shea, Ideals, Varieties, and Algorithms, 2.7-2.9): a
    pair whose leads lie in different positions is skipped, and a nonzero
    normal form joins the basis with its pairs to every earlier element.
    Returns the reduced basis with monic leading coefficients, unique for
    the fixed term order.  Each element's lead is found once."""
    basis = [g for g in gens if not g.is_zero()]
    leads = [(_leading_term(g), g.terms) for g in basis]
    pairs = [(i, j) for j in range(len(basis)) for i in range(j)]
    for i, j in pairs:  # a FIFO queue: the loop reaches the pairs appended below
        lt_g, lt_h = leads[i][0], leads[j][0]
        if lt_g[1] != lt_h[1]:
            continue
        g, h = basis[i], basis[j]
        lcm = (tuple(map(max, lt_g[0], lt_h[0])), lt_g[1])
        s = g.mul_monomial(_term_quotient(lt_g, lcm)).scale(Q(1) / g.terms[lt_g])
        s = s - h.mul_monomial(_term_quotient(lt_h, lcm)).scale(Q(1) / h.terms[lt_h])
        nf = groebner_reduce(s, leads)
        if not nf.is_zero():
            pairs.extend((k, len(basis)) for k in range(len(basis)))
            basis.append(nf)
            leads.append((_leading_term(nf), nf.terms))
    # minimalize (keep one element per minimal leading term), then tail-reduce;
    # no lead of a minimal basis divides another, so each keeps its lead
    order = sorted(range(len(basis)), key=lambda k: _term_cmp_key(leads[k][0]))
    minimal = []
    for k in order:
        if not any(_term_divides(leads[m][0], leads[k][0]) for m in minimal):
            minimal.append(k)
    reduced = []
    for i, k in enumerate(minimal):
        others = minimal[:i] + minimal[i + 1 :]
        nf = groebner_reduce(basis[k], [leads[m] for m in others])
        reduced.append(nf.scale(Q(1) / nf.terms[leads[k][0]]))
    return reduced


def membership_by_linear_algebra(e: SPoly, gens: Sequence[SPoly], degree: int) -> bool:
    """Degree-bounded oracle: row-reduce all monomial multiples of the
    generators up to the given degree and test membership of e."""
    p, q = e.p, e.q
    multiples = []
    for g in gens:
        gd = g.degree()
        for J in mi_up_to(p, max(degree - gd, 0)):
            multiples.append(g.mul_monomial(J))
    columns = sorted({k for h in multiples for k in h.terms} | set(e.terms))
    rows = [h.row(columns) for h in multiples]
    return rank(rows) == rank(rows + [e.row(columns)])


# -- dimension checks (sum identity and U = J) ----------------------------------------------


def t_degree_filter(gens: Sequence[TPoly], m: int, n: int) -> list[TPoly]:
    """Basis of span(gens) intersected with polynomials of degree <= n."""
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return []
    columns = set()
    for g in gens:
        columns.update(g.terms)
    columns = sorted(columns, key=lambda key: (-mi_order(key[0]), key))
    ech, _ = ordered_row_echelon([g.row(columns) for g in gens])
    out = []
    for row in ech:
        poly = TPoly(m, {columns[c]: row[c] for c in range(len(columns)) if row[c]})
        if not poly.is_zero() and poly.degree() <= n:
            out.append(poly)
    return out


def annihilator_dimension_check(
    pstar_basis: Sequence[TPoly],
    l_basis: Sequence[TPoly],
    t_basis: Sequence[TPoly],
    m: int,
    n: int,
):
    """Exact verification of p*(S_i^{<=n}) + L^{<=n} = T_i^{<=n} by ranks.

    All inputs are generating sets; the check compares spans after filtering
    to polynomials of degree <= n."""
    left = t_degree_filter(list(pstar_basis) + list(l_basis), m, n)
    right = t_degree_filter(list(t_basis), m, n)
    lhs, rhs = t_span_dim(left), t_span_dim(right)
    return {"n": n, "lhs_dim": lhs, "rhs_dim": rhs, "pass": lhs == rhs == t_span_dim(left + right)}
